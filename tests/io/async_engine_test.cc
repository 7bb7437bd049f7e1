// AsyncIoEngine unit tests: submit/reap ordering, request coalescing,
// queue-full backpressure, the fault-injected completion sweep (transient
// EIO with split retry and bounded per-request re-issue, torn writes
// surfacing at reap time, dead devices never retried), crash-reset
// semantics for the volatile submission queue, a many-submitter
// many-reaper stress, and Drain's wait on requests another thread holds mid
// device call or mid callback. The TSan CI job runs this file.

#include "io/async_io_engine.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <future>
#include <memory>
#include <thread>
#include <vector>

#include "fault/fault_injecting_device.h"
#include "fault/fault_plan.h"
#include "sim/device_model.h"
#include "storage/mem_device.h"
#include "storage/sim_device.h"
#include "storage/striped_array.h"

namespace turbobp {
namespace {

constexpr uint32_t kPage = 512;

std::vector<uint8_t> Fill(uint8_t b) { return std::vector<uint8_t>(kPage, b); }

IoContext Ctx() {
  IoContext ctx;
  ctx.now = 0;
  ctx.charge = true;
  return ctx;
}

AsyncIoRequest WriteReq(PageId pid, std::span<const uint8_t> data) {
  AsyncIoRequest req;
  req.op = IoOp::kWrite;
  req.first_page = pid;
  req.num_pages = 1;
  req.data = data;
  return req;
}

AsyncIoRequest ReadReq(PageId pid, std::span<uint8_t> out) {
  AsyncIoRequest req;
  req.op = IoOp::kRead;
  req.first_page = pid;
  req.num_pages = 1;
  req.out = out;
  return req;
}

// ------------------------------------------------------------ basic queue

TEST(AsyncEngineTest, RoundTripThroughDeepQueue) {
  MemDevice dev(64, kPage);
  AsyncIoEngine engine(&dev, 8);
  IoContext ctx = Ctx();

  std::vector<std::vector<uint8_t>> data;
  for (int i = 0; i < 16; ++i) data.push_back(Fill(uint8_t(0x40 + i)));
  for (int i = 0; i < 16; ++i) {
    EXPECT_NE(engine.Submit(WriteReq(PageId(i), data[i]), ctx), 0u);
  }
  engine.Drain(ctx);
  EXPECT_TRUE(engine.Idle());

  std::vector<std::vector<uint8_t>> out(16, std::vector<uint8_t>(kPage));
  for (int i = 0; i < 16; ++i) {
    engine.Submit(ReadReq(PageId(i), out[i]), ctx);
  }
  engine.Drain(ctx);
  for (int i = 0; i < 16; ++i) EXPECT_EQ(out[i], data[i]) << "page " << i;

  const AsyncIoEngine::Stats s = engine.stats();
  EXPECT_EQ(s.submitted, 32);
  EXPECT_EQ(s.completed, 32);
  EXPECT_EQ(s.errors, 0);
}

TEST(AsyncEngineTest, CallbacksRunOnReapWithCorrelationState) {
  MemDevice dev(16, kPage);
  AsyncIoEngine engine(&dev, 4);
  IoContext ctx = Ctx();

  auto data = Fill(0x77);
  int fired = 0;
  AsyncIoRequest req = WriteReq(3, data);
  req.tag = 42;
  req.on_complete = [&](const IoCompletion& c) {
    ++fired;
    EXPECT_EQ(c.tag, 42u);
    EXPECT_EQ(c.first_page, 3u);
    EXPECT_EQ(c.op, IoOp::kWrite);
    EXPECT_TRUE(c.result.ok());
  };
  const IoToken token = engine.Submit(req, ctx);
  EXPECT_NE(token, 0u);
  // Sim backend: the request is issued, but the completion is only
  // delivered (and the callback only fires) when it is reaped.
  EXPECT_EQ(fired, 0);
  std::vector<IoCompletion> got = engine.Reap(8, kTimeMax, ctx);
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].token, token);
  EXPECT_EQ(fired, 1);
}

TEST(AsyncEngineTest, CompletionsDeliverInDeviceCompletionOrder) {
  // Two spindles: page 0 and page 8 land on different disks and proceed in
  // parallel; the harvest order must follow device completion instants,
  // not submission order. The pages are non-adjacent, so nothing coalesces
  // and every request is its own device op.
  StripedDiskArray::Options opt;
  opt.num_spindles = 4;
  opt.stripe_pages = 8;
  opt.hdd.page_bytes = kPage;
  StripedDiskArray array(256, kPage, opt);
  AsyncIoEngine engine(&array, 32);
  IoContext ctx = Ctx();

  std::vector<std::vector<uint8_t>> out(8, std::vector<uint8_t>(kPage));
  for (int i = 0; i < 8; ++i) {
    engine.Submit(ReadReq(PageId(i * 8), out[i]), ctx);  // one per spindle x2
  }
  std::vector<IoCompletion> got = engine.Reap(64, kTimeMax, ctx);
  ASSERT_EQ(got.size(), 8u);
  for (size_t i = 1; i < got.size(); ++i) {
    EXPECT_GE(got[i].result.time, got[i - 1].result.time)
        << "completion " << i << " harvested out of device order";
  }
  EXPECT_EQ(engine.stats().device_ops, 8);
}

TEST(AsyncEngineTest, DrainReturnsLastCompletionInstant) {
  SimDevice dev(64, kPage, std::make_unique<HddModel>(HddParams{
                               .page_bytes = kPage}));
  AsyncIoEngine engine(&dev, 8);
  IoContext ctx = Ctx();
  auto data = Fill(0x01);
  Time max_done = 0;
  for (int i = 0; i < 4; ++i) {
    AsyncIoRequest req = WriteReq(PageId(i * 16), data);  // discontiguous
    req.on_complete = [&](const IoCompletion& c) {
      max_done = std::max(max_done, c.result.time);
    };
    engine.Submit(req, ctx);
  }
  const Time done = engine.Drain(ctx);
  EXPECT_GT(done, 0);
  EXPECT_EQ(done, max_done);
  // A drain with nothing outstanding costs no time.
  EXPECT_EQ(engine.Drain(ctx), std::max(ctx.now, done));
}

// ------------------------------------------------------------- coalescing

TEST(AsyncEngineTest, ContiguousRunCoalescesIntoOneVectoredOp) {
  MemDevice dev(64, kPage);
  AsyncIoEngine engine(&dev, 1);
  IoContext ctx = Ctx();

  // Depth 1 keeps the first request in flight while the rest stage, so the
  // staged run is intact when the ring frees: 1 solo op + 1 coalesced op.
  std::vector<std::vector<uint8_t>> data;
  for (int i = 0; i < 9; ++i) data.push_back(Fill(uint8_t(i)));
  for (int i = 0; i < 9; ++i) {
    engine.Submit(WriteReq(PageId(i), data[i]), ctx);
  }
  engine.Drain(ctx);

  const AsyncIoEngine::Stats s = engine.stats();
  EXPECT_EQ(s.submitted, 9);
  EXPECT_EQ(s.completed, 9);
  EXPECT_EQ(s.device_ops, 2);
  EXPECT_EQ(s.coalesced_batches, 1);
  EXPECT_EQ(s.coalesced_pages, 8);

  // The gather path moved every request's bytes.
  std::vector<uint8_t> out(kPage);
  for (int i = 0; i < 9; ++i) {
    ASSERT_TRUE(dev.Read(PageId(i), 1, out, 0).ok());
    EXPECT_EQ(out, data[i]) << "page " << i;
  }
}

TEST(AsyncEngineTest, CoalescedReadScattersIntoPerRequestSpans) {
  MemDevice dev(64, kPage);
  std::vector<std::vector<uint8_t>> data;
  for (int i = 0; i < 8; ++i) {
    data.push_back(Fill(uint8_t(0xA0 + i)));
    ASSERT_TRUE(dev.Write(PageId(i), 1, data[i], 0).ok());
  }
  AsyncIoEngine engine(&dev, 1);
  IoContext ctx = Ctx();
  std::vector<std::vector<uint8_t>> out(9, std::vector<uint8_t>(kPage));
  // Pad with one request so pages 1..8 queue behind it and coalesce.
  engine.Submit(ReadReq(PageId(63), out[8]), ctx);
  for (int i = 0; i < 8; ++i) {
    engine.Submit(ReadReq(PageId(i), out[i]), ctx);
  }
  engine.Drain(ctx);
  for (int i = 0; i < 8; ++i) EXPECT_EQ(out[i], data[i]) << "page " << i;
  EXPECT_EQ(engine.stats().coalesced_batches, 1);
}

TEST(AsyncEngineTest, GapOrOpChangeBreaksTheRun) {
  MemDevice dev(64, kPage);
  AsyncIoEngine engine(&dev, 1);
  IoContext ctx = Ctx();
  auto data = Fill(0x31);
  std::vector<uint8_t> out(kPage);
  engine.Submit(WriteReq(40, data), ctx);  // occupies the depth-1 ring
  engine.Submit(WriteReq(0, data), ctx);
  engine.Submit(WriteReq(1, data), ctx);
  engine.Submit(WriteReq(3, data), ctx);   // gap: page 2 missing
  engine.Submit(WriteReq(4, data), ctx);
  engine.Submit(ReadReq(5, out), ctx);     // op change breaks the run
  engine.Drain(ctx);
  const AsyncIoEngine::Stats s = engine.stats();
  // Ops: [40], [0,1], [3,4], [read 5].
  EXPECT_EQ(s.device_ops, 4);
  EXPECT_EQ(s.coalesced_batches, 2);
  EXPECT_EQ(s.coalesced_pages, 4);
}

TEST(AsyncEngineTest, MaxCoalescedPagesBoundsTheBatch) {
  MemDevice dev(64, kPage);
  AsyncIoEngine engine(&dev, 1);
  IoContext ctx = Ctx();
  auto data = Fill(0x13);
  engine.Submit(WriteReq(32, data), ctx);  // fills the depth-1 ring
  for (int i = 0; i < 12; ++i) engine.Submit(WriteReq(PageId(i), data), ctx);
  engine.Drain(ctx);
  // Ops: [32], [0..7], [8..11]: the 12-page run splits at the bound.
  static_assert(AsyncIoEngine::kMaxCoalescedPages == 8);
  const AsyncIoEngine::Stats s = engine.stats();
  EXPECT_EQ(s.device_ops, 3);
  EXPECT_EQ(s.coalesced_batches, 2);
  EXPECT_EQ(s.coalesced_pages, 12);
}

// ----------------------------------------------------------- backpressure

TEST(AsyncEngineTest, SubmitNeverDropsWhenTheQueueIsFull) {
  MemDevice dev(64, kPage);
  AsyncIoEngine engine(&dev, 1);
  IoContext ctx = Ctx();
  auto data = Fill(0x66);
  // Non-adjacent pages: nothing coalesces, so five requests stage behind
  // the one in flight.
  for (int i = 0; i < 6; ++i) {
    EXPECT_NE(engine.Submit(WriteReq(PageId(i * 3), data), ctx), 0u);
  }
  EXPECT_GE(engine.stats().queue_full_waits, 1);
  engine.Drain(ctx);
  EXPECT_EQ(engine.stats().completed, 6);
  EXPECT_EQ(engine.stats().coalesced_batches, 0);
}

// --------------------------------------------- fault-injected completions

TEST(AsyncEngineTest, TransientBatchFailureSplitsAndRetriesPerRequest) {
  MemDevice mem(64, kPage);
  FaultPlan plan;
  plan.scripted[1] = FaultKind::kTransientError;  // the coalesced write
  FaultInjectingDevice dev(&mem, plan);
  AsyncIoEngine engine(&dev, 1);
  IoContext ctx = Ctx();

  std::vector<std::vector<uint8_t>> data;
  for (int i = 0; i < 5; ++i) data.push_back(Fill(uint8_t(0x90 + i)));
  std::vector<int> completions(5, 0);
  for (int i = 0; i < 5; ++i) {
    AsyncIoRequest req = WriteReq(PageId(i), data[i]);
    req.tag = uint64_t(i);
    req.on_complete = [&](const IoCompletion& c) {
      ++completions[c.tag];
      EXPECT_TRUE(c.result.ok());
    };
    engine.Submit(req, ctx);
  }
  engine.Drain(ctx);

  const AsyncIoEngine::Stats s = engine.stats();
  // Op 0: solo write of page 0 (ok). Op 1: coalesced [1..4] fails
  // transiently, splits into four solo re-issues (ops 2..5, all ok).
  EXPECT_EQ(s.device_ops, 6);
  EXPECT_EQ(s.retries, 4);
  EXPECT_EQ(s.errors, 0);
  EXPECT_EQ(s.completed, 5);
  for (int i = 0; i < 5; ++i) EXPECT_EQ(completions[i], 1) << "page " << i;
  EXPECT_EQ(dev.fault_stats().transient_errors, 1);

  // Every page's bytes landed despite the flaky batch.
  std::vector<uint8_t> out(kPage);
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(mem.Read(PageId(i), 1, out, 0).ok());
    EXPECT_EQ(out, data[i]) << "page " << i;
  }
}

TEST(AsyncEngineTest, TransientSingleRequestRetriesWithinTheLimit) {
  MemDevice mem(16, kPage);
  FaultPlan plan;
  plan.scripted[0] = FaultKind::kTransientError;
  plan.scripted[1] = FaultKind::kTransientError;
  FaultInjectingDevice dev(&mem, plan);
  AsyncIoEngine engine(&dev, 4);
  IoContext ctx = Ctx();
  auto data = Fill(0xCE);
  bool ok = false;
  AsyncIoRequest req = WriteReq(7, data);
  req.on_complete = [&](const IoCompletion& c) { ok = c.result.ok(); };
  engine.Submit(req, ctx);
  engine.Drain(ctx);
  EXPECT_TRUE(ok);
  const AsyncIoEngine::Stats s = engine.stats();
  EXPECT_EQ(s.retries, 2);
  EXPECT_EQ(s.errors, 0);
  EXPECT_EQ(s.completed, 1);
  EXPECT_EQ(s.device_ops, 3);  // never more than kRetryLimit issues
}

TEST(AsyncEngineTest, RetryExhaustionDeliversTheErrorCompletion) {
  MemDevice mem(16, kPage);
  FaultPlan plan;
  for (int i = 0; i < 8; ++i) plan.scripted[i] = FaultKind::kTransientError;
  FaultInjectingDevice dev(&mem, plan);
  AsyncIoEngine engine(&dev, 4);
  IoContext ctx = Ctx();
  auto data = Fill(0xDD);
  int fired = 0;
  AsyncIoRequest req = WriteReq(2, data);
  req.on_complete = [&](const IoCompletion& c) {
    ++fired;
    EXPECT_FALSE(c.result.ok());
    EXPECT_TRUE(c.result.status.IsIoError());
  };
  engine.Submit(req, ctx);
  engine.Drain(ctx);
  EXPECT_EQ(fired, 1);
  const AsyncIoEngine::Stats s = engine.stats();
  // Exactly kRetryLimit device issues: the original plus two re-issues.
  EXPECT_EQ(s.device_ops, 3);
  EXPECT_EQ(s.retries, 2);
  EXPECT_EQ(s.errors, 1);
  EXPECT_EQ(s.completed, 1);
}

TEST(AsyncEngineTest, DeadDeviceIsNeverRetried) {
  MemDevice mem(16, kPage);
  FaultPlan plan;
  FaultInjectingDevice dev(&mem, plan);
  dev.ForceOffline();
  AsyncIoEngine engine(&dev, 4);
  IoContext ctx = Ctx();
  auto data = Fill(0xEE);
  engine.Submit(WriteReq(1, data), ctx);
  engine.Drain(ctx);
  const AsyncIoEngine::Stats s = engine.stats();
  EXPECT_EQ(s.retries, 0);  // kUnavailable is terminal, not transient
  EXPECT_EQ(s.errors, 1);
  EXPECT_EQ(s.device_ops, 1);
}

TEST(AsyncEngineTest, TornWriteSurfacesAtReapTimeNotSubmitTime) {
  MemDevice mem(16, kPage);
  FaultPlan plan;
  plan.scripted[1] = FaultKind::kTornWrite;
  FaultInjectingDevice dev(&mem, plan);
  AsyncIoEngine engine(&dev, 4);
  IoContext ctx = Ctx();
  auto old_content = Fill(0xAA);
  auto new_content = Fill(0xBB);
  engine.Submit(WriteReq(5, old_content), ctx);  // op 0
  engine.Drain(ctx);
  // The torn write reports success at the device: the completion carries
  // ok() and the damage is only detectable by the consumer's read-back
  // verification — exactly the contract the checkpoint drain's checksum
  // seal defends against.
  bool reported_ok = false;
  AsyncIoRequest req = WriteReq(5, new_content);  // op 1: silently torn
  req.on_complete = [&](const IoCompletion& c) { reported_ok = c.result.ok(); };
  engine.Submit(req, ctx);
  engine.Drain(ctx);
  EXPECT_TRUE(reported_ok);
  EXPECT_EQ(engine.stats().errors, 0);
  std::vector<uint8_t> out(kPage);
  ASSERT_TRUE(mem.Read(5, 1, out, 0).ok());
  EXPECT_NE(out, new_content);  // half the sectors kept the old bytes
  EXPECT_NE(out, old_content);
  EXPECT_EQ(dev.fault_stats().torn_writes, 1);
}

// ------------------------------------------------------------ crash reset

TEST(AsyncEngineTest, ResetLosesStagedWritesButKeepsIssuedOnes) {
  MemDevice dev(64, kPage);
  AsyncIoEngine engine(&dev, 1);
  IoContext ctx = Ctx();
  auto data = Fill(0x99);
  engine.Submit(WriteReq(10, data), ctx);  // issued (fills the ring)
  engine.Submit(WriteReq(11, data), ctx);  // staged: queued, never issued
  engine.Submit(WriteReq(12, data), ctx);  // staged
  engine.Reset();
  EXPECT_TRUE(engine.Idle());
  // The issued write moved its bytes before the "crash"; the staged ones
  // died on the volatile submission queue.
  EXPECT_TRUE(dev.IsMaterialized(10));
  EXPECT_FALSE(dev.IsMaterialized(11));
  EXPECT_FALSE(dev.IsMaterialized(12));
  // The engine is reusable after a reset.
  IoContext ctx2 = Ctx();
  engine.Submit(WriteReq(11, data), ctx2);
  engine.Drain(ctx2);
  EXPECT_TRUE(dev.IsMaterialized(11));
}

// ------------------------------------------------------- deep-queue value

TEST(AsyncEngineTest, DeepQueueOverlapsSpindlesOfAStripedArray) {
  StripedDiskArray::Options opt;
  opt.num_spindles = 8;
  opt.stripe_pages = 8;
  opt.hdd.page_bytes = kPage;

  auto drain_time = [&](int depth) {
    StripedDiskArray array(1024, kPage, opt);
    AsyncIoEngine engine(&array, depth);
    IoContext ctx = Ctx();
    std::vector<std::vector<uint8_t>> out(32, std::vector<uint8_t>(kPage));
    for (int i = 0; i < 32; ++i) {
      // One page per stripe unit: round-robins across all 8 spindles.
      engine.Submit(ReadReq(PageId(i * 8), out[i]), ctx);
    }
    return engine.Drain(ctx);
  };

  const Time serial = drain_time(1);
  const Time deep = drain_time(32);
  EXPECT_GE(serial, 2 * deep)
      << "a deep queue must keep all spindles busy (serial=" << serial
      << "us deep=" << deep << "us)";
}

// ------------------------------------------- concurrent submit/reap (TSan)

// The real-thread driver's pattern: many threads submit (each issuing
// inside Submit while the ring has room) while others reap, all on one
// engine. Every request completes exactly once and its callback runs
// exactly once.

TEST(AsyncEngineTest, ConcurrentSubmitReapStress) {
  constexpr int kSubmitters = 4;
  constexpr int kPerThread = 64;
  constexpr int kTotal = kSubmitters * kPerThread;

  MemDevice dev(kTotal + 1, kPage);
  AsyncIoEngine engine(&dev, 16);
  std::atomic<int> callbacks{0};

  // Per-thread preallocated buffers: spans must outlive their reap.
  std::vector<std::vector<std::vector<uint8_t>>> bufs(kSubmitters);
  for (auto& tb : bufs) {
    tb.assign(kPerThread, std::vector<uint8_t>(kPage, 0x42));
  }

  std::vector<std::thread> submitters;
  for (int t = 0; t < kSubmitters; ++t) {
    submitters.emplace_back([&, t] {
      IoContext ctx = Ctx();
      for (int i = 0; i < kPerThread; ++i) {
        const PageId pid = PageId(t * kPerThread + i);
        AsyncIoRequest req = (i % 2 == 0)
                                 ? WriteReq(pid, bufs[t][i])
                                 : ReadReq(pid, bufs[t][i]);
        req.on_complete = [&](const IoCompletion& c) {
          EXPECT_TRUE(c.result.ok());
          callbacks.fetch_add(1, std::memory_order_relaxed);
        };
        engine.Submit(req, ctx);
      }
    });
  }

  std::atomic<int> reaped{0};
  std::vector<std::thread> reapers;
  for (int r = 0; r < 2; ++r) {
    reapers.emplace_back([&] {
      IoContext ctx = Ctx();
      while (reaped.load(std::memory_order_relaxed) < kTotal) {
        std::vector<IoCompletion> got = engine.Reap(8, kTimeMax, ctx);
        if (got.empty()) {
          std::this_thread::yield();
          continue;
        }
        reaped.fetch_add(static_cast<int>(got.size()),
                         std::memory_order_relaxed);
      }
    });
  }

  for (std::thread& t : submitters) t.join();
  for (std::thread& t : reapers) t.join();
  {
    IoContext ctx = Ctx();
    engine.Drain(ctx);
  }

  EXPECT_EQ(reaped.load(), kTotal);
  EXPECT_EQ(callbacks.load(), kTotal);
  const AsyncIoEngine::Stats s = engine.stats();
  EXPECT_EQ(s.submitted, kTotal);
  EXPECT_EQ(s.completed, kTotal);
  EXPECT_EQ(s.errors, 0);
  EXPECT_TRUE(engine.Idle());
}

// ------------------------------------------- cross-thread drain (TSan)

// Thread A's Reap harvests the request thread B submitted and runs its
// callback, which blocks. B's Drain must not return while that callback is
// still running: the request is accepted and not yet delivered, so it is
// outstanding even though no queue holds it any more.
TEST(AsyncEngineTest, DrainWaitsForACallbackRunningOnAnotherThread) {
  MemDevice dev(16, kPage);
  AsyncIoEngine engine(&dev, 4);
  auto data = Fill(0x31);

  std::promise<void> entered;
  std::future<void> entered_f = entered.get_future();
  std::promise<void> release;
  std::shared_future<void> release_f = release.get_future().share();
  std::atomic<bool> callback_done{false};
  AsyncIoRequest req = WriteReq(5, data);
  req.on_complete = [&](const IoCompletion&) {
    entered.set_value();
    release_f.wait();
    callback_done.store(true);
  };
  IoContext ctx_b = Ctx();
  engine.Submit(req, ctx_b);

  std::thread a([&] {
    IoContext ctx = Ctx();
    engine.Reap(1, kTimeMax, ctx);
  });
  entered_f.wait();
  EXPECT_FALSE(engine.Idle());

  std::atomic<bool> drained{false};
  bool done_at_drain = false;
  std::thread b([&] {
    engine.Drain(ctx_b);
    done_at_drain = callback_done.load();
    drained.store(true);
  });
  // Ample time for a Drain that ignores the delivery window to return.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(drained.load()) << "Drain returned before the callback ran";
  release.set_value();
  a.join();
  b.join();
  EXPECT_TRUE(done_at_drain);
  EXPECT_TRUE(engine.Idle());
  EXPECT_EQ(engine.stats().completed, 1);
}

// A device whose writes block until released, so a test can hold a sim
// Kick inside its device call.
class GatedWriteDevice : public MemDevice {
 public:
  using MemDevice::MemDevice;

  IoResult Write(uint64_t first_page, uint32_t num_pages,
                 std::span<const uint8_t> data, Time now,
                 bool charge) override {
    in_write.set_value();
    released.wait();
    return MemDevice::Write(first_page, num_pages, data, now, charge);
  }

  std::promise<void> in_write;  // set once a write has entered the device
  std::promise<void> open;      // set to let the blocked write finish
  std::future<void> in_write_f{in_write.get_future()};
  std::shared_future<void> released{open.get_future().share()};
};

// The sim backend issues a request inside Submit, with the engine latch
// released around the device call. While that call runs the request is in
// no queue, and a Drain on another thread must still wait for it.
TEST(AsyncEngineTest, DrainWaitsForADeviceCallInProgressOnAnotherThread) {
  GatedWriteDevice dev(16, kPage);
  AsyncIoEngine engine(&dev, 4);
  auto data = Fill(0x32);

  std::thread submitter([&] {
    IoContext ctx = Ctx();
    engine.Submit(WriteReq(3, data), ctx);
  });
  dev.in_write_f.wait();
  EXPECT_FALSE(engine.Idle());

  std::atomic<bool> drained{false};
  std::thread drainer([&] {
    IoContext ctx = Ctx();
    engine.Drain(ctx);
    drained.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(drained.load()) << "Drain returned mid device call";
  dev.open.set_value();
  submitter.join();
  drainer.join();
  EXPECT_TRUE(engine.Idle());
  EXPECT_EQ(engine.stats().completed, 1);
  EXPECT_TRUE(dev.IsMaterialized(3));
}

}  // namespace
}  // namespace turbobp
