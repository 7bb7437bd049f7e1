// Races on the per-frame I/O state machine (DESIGN.md §10): a fetch that
// misses publishes a kReading placeholder and drops the shard latch for the
// device read, so concurrent fetches of the same page must coalesce onto one
// device request, a fetch racing an eviction of its page must wait for the
// eviction's durable write, pins must never block a checkpoint flush, and
// re-dirtying a page mid-flush must wait for the flush's write.
// A sleep-decorated device widens the I/O windows so the interleavings of
// interest actually happen; run under TSan in CI.

#include <gtest/gtest.h>

#include <atomic>
#include <barrier>
#include <chrono>
#include <cstring>
#include <thread>
#include <vector>

#include "buffer/buffer_pool.h"
#include "storage/mem_device.h"
#include "storage/page.h"
#include "wal/log_manager.h"

namespace turbobp {
namespace {

constexpr uint32_t kPage = 512;
constexpr PageId kPages = 512;

// StorageDevice decorator that sleeps (real time) before each charged
// request, turning MemDevice's instantaneous I/O into a wide race window.
class SleepyDevice : public StorageDevice {
 public:
  SleepyDevice(StorageDevice* base, std::chrono::microseconds read_sleep,
               std::chrono::microseconds write_sleep)
      : base_(base), read_sleep_(read_sleep), write_sleep_(write_sleep) {}

  uint64_t num_pages() const override { return base_->num_pages(); }
  uint32_t page_bytes() const override { return base_->page_bytes(); }

  IoResult Read(uint64_t first_page, uint32_t num_pages,
                std::span<uint8_t> out, Time now, bool charge = true) override {
    if (charge && read_sleep_.count() > 0) {
      std::this_thread::sleep_for(read_sleep_);
    }
    return base_->Read(first_page, num_pages, out, now, charge);
  }

  IoResult Write(uint64_t first_page, uint32_t num_pages,
                 std::span<const uint8_t> data, Time now,
                 bool charge = true) override {
    writes_started.fetch_add(1, std::memory_order_release);
    if (charge && write_sleep_.count() > 0) {
      std::this_thread::sleep_for(write_sleep_);
    }
    return base_->Write(first_page, num_pages, data, now, charge);
  }

  // Bumped on entry to every Write, before its sleep.
  std::atomic<int> writes_started{0};

 private:
  StorageDevice* base_;
  std::chrono::microseconds read_sleep_;
  std::chrono::microseconds write_sleep_;
};

void SynthesizeFormatted(MemDevice& dev) {
  dev.SetSynthesizer([&dev](uint64_t page, std::span<uint8_t> out) {
    PageView v(out.data(), dev.page_bytes());
    v.Format(page, PageType::kRaw);
    v.SealChecksum();
  });
}

// Two threads fetch the same missing page: the loser must wait on the
// winner's in-flight frame instead of issuing a second device read, and
// both must come back with a valid pin on the same correct content.
TEST(ConcurrentFetchTest, TwoThreadsOneMissOneDeviceRead) {
  MemDevice mem(kPages, kPage);
  SynthesizeFormatted(mem);
  SleepyDevice slow(&mem, std::chrono::milliseconds(30),
                    std::chrono::microseconds(0));
  MemDevice log_dev(1 << 10, kPage);
  DiskManager disk(&slow);
  LogManager log(&log_dev);
  BufferPool::Options opts;
  opts.num_frames = 64;
  opts.page_bytes = kPage;
  opts.expand_reads_until_warm = false;
  BufferPool pool(opts, &disk, &log, nullptr);

  constexpr PageId kTarget = 7;
  std::barrier gate(2);
  std::vector<std::thread> threads;
  for (int t = 0; t < 2; ++t) {
    threads.emplace_back([&] {
      gate.arrive_and_wait();
      IoContext ctx;
      PageGuard g = pool.FetchPage(kTarget, AccessKind::kRandom, ctx);
      ASSERT_TRUE(g.valid());
      EXPECT_EQ(g.page_id(), kTarget);
      EXPECT_EQ(g.view().header().page_id, kTarget);
    });
  }
  for (auto& th : threads) th.join();

  // Exactly one of the two published the placeholder and read the device;
  // the other waited on the frame and retried as a hit.
  EXPECT_EQ(disk.reads_issued(), 1);
  const BufferPoolStats stats = pool.stats();
  EXPECT_EQ(stats.misses, 1);
  EXPECT_EQ(stats.hits, 1);
}

// A fetch of a page whose frame is mid-eviction (kEvicting, dirty write in
// flight) must wait for the eviction to finish and then re-read the page
// from disk — observing the evicted content, never stale or torn bytes.
TEST(ConcurrentFetchTest, FetchRacesEvictionOfSamePage) {
  for (int iter = 0; iter < 20; ++iter) {
    MemDevice mem(kPages, kPage);
    SynthesizeFormatted(mem);
    SleepyDevice slow(&mem, std::chrono::microseconds(200),
                      std::chrono::milliseconds(2));
    MemDevice log_dev(1 << 10, kPage);
    DiskManager disk(&slow);
    LogManager log(&log_dev);
    BufferPool::Options opts;
    opts.num_frames = 8;
    opts.page_bytes = kPage;
    opts.expand_reads_until_warm = false;
    BufferPool pool(opts, &disk, &log, nullptr);

    constexpr PageId kVictim = 0;
    {
      IoContext ctx;
      PageGuard g = pool.NewPage(kVictim, PageType::kRaw, ctx);
      g.view().payload()[0] = 0xAB;
      g.MarkDirtyUnlogged();
    }
    for (PageId p = 1; p < 8; ++p) {
      IoContext ctx;
      pool.FetchPage(p, AccessKind::kRandom, ctx);
    }

    // A's miss evicts the LRU-2 victim (frame 0 = kVictim, dirty) while B
    // fetches that very page.
    std::barrier gate(2);
    std::thread a([&] {
      gate.arrive_and_wait();
      IoContext ctx;
      PageGuard g = pool.FetchPage(100 + static_cast<PageId>(iter),
                                   AccessKind::kRandom, ctx);
      ASSERT_TRUE(g.valid());
    });
    std::thread b([&] {
      gate.arrive_and_wait();
      IoContext ctx;
      PageGuard g = pool.FetchPage(kVictim, AccessKind::kRandom, ctx);
      ASSERT_TRUE(g.valid());
      EXPECT_EQ(g.view().header().page_id, kVictim);
      EXPECT_EQ(g.view().payload()[0], 0xAB);
    });
    a.join();
    b.join();
  }
}

// A held pin must not block FlushAllDirty (the flush snapshots the frame
// under kWriting and writes latch-free), and the flush must leave no frame
// dirty — including the pinned one.
TEST(ConcurrentFetchTest, PinHeldAcrossFlushAllDirty) {
  MemDevice mem(kPages, kPage);
  SynthesizeFormatted(mem);
  SleepyDevice slow(&mem, std::chrono::microseconds(0),
                    std::chrono::milliseconds(1));
  MemDevice log_dev(1 << 10, kPage);
  DiskManager disk(&slow);
  LogManager log(&log_dev);
  BufferPool::Options opts;
  opts.num_frames = 16;
  opts.page_bytes = kPage;
  opts.expand_reads_until_warm = false;
  BufferPool pool(opts, &disk, &log, nullptr);

  IoContext ctx;
  for (PageId p = 0; p < 8; ++p) {
    PageGuard g = pool.FetchPage(p, AccessKind::kRandom, ctx);
    g.view().payload()[1] = static_cast<uint8_t>(p);
    g.LogUpdate(/*txn_id=*/1, kPageHeaderSize + 1, 1);
  }
  PageGuard pinned = pool.FetchPage(3, AccessKind::kRandom, ctx);
  ASSERT_EQ(pool.DirtyFrameCount(), 8);

  std::thread flusher([&] {
    IoContext fctx;
    pool.FlushAllDirty(fctx, /*for_checkpoint=*/false);
  });
  flusher.join();  // completes while the pin is still held

  EXPECT_EQ(pool.DirtyFrameCount(), 0);
  EXPECT_TRUE(pinned.valid());
  EXPECT_EQ(pinned.view().payload()[1], 3);
  pinned.Release();
}

// LogUpdate on a page whose checkpoint write is in flight (kWriting) must
// wait for the write to land: the flushed image stays the pre-update one,
// and the update leaves the page dirty again instead of being wiped clean by
// the flush's completion.
TEST(ConcurrentFetchTest, LogUpdateWaitsForInFlightFlush) {
  MemDevice mem(kPages, kPage);
  SynthesizeFormatted(mem);
  SleepyDevice slow(&mem, std::chrono::microseconds(0),
                    std::chrono::milliseconds(20));
  MemDevice log_dev(1 << 10, kPage);
  DiskManager disk(&slow);
  LogManager log(&log_dev);
  BufferPool::Options opts;
  opts.num_frames = 16;
  opts.page_bytes = kPage;
  opts.expand_reads_until_warm = false;
  BufferPool pool(opts, &disk, &log, nullptr);

  constexpr PageId kTarget = 3;
  constexpr uint32_t kByte = kPageHeaderSize + 1;
  IoContext ctx;
  Lsn old_lsn = kInvalidLsn;
  for (PageId p = 0; p < 8; ++p) {
    PageGuard g = pool.FetchPage(p, AccessKind::kRandom, ctx);
    g.view().payload()[1] = static_cast<uint8_t>(p);
    const Lsn lsn = g.LogUpdate(/*txn_id=*/1, kByte, 1);
    if (p == kTarget) old_lsn = lsn;
  }
  PageGuard target = pool.FetchPage(kTarget, AccessKind::kRandom, ctx);

  std::thread flusher([&] {
    IoContext fctx;
    pool.FlushAllDirty(fctx, /*for_checkpoint=*/false);
  });
  // Every dirty frame is staged (kWriting) before the first write starts.
  while (slow.writes_started.load(std::memory_order_acquire) == 0) {
    std::this_thread::yield();
  }
  target.view().payload()[1] = 0x77;
  const Lsn new_lsn = target.LogUpdate(/*txn_id=*/2, kByte, 1);
  ASSERT_GT(new_lsn, old_lsn);

  // LogUpdate returned only after the flush's write of the page landed, and
  // that write carries the pre-update image.
  std::vector<uint8_t> disk_copy(kPage);
  ASSERT_TRUE(mem.Read(kTarget, 1, disk_copy, 0, /*charge=*/false).status.ok());
  const PageView on_disk(disk_copy.data(), kPage);
  EXPECT_EQ(on_disk.header().lsn, old_lsn);
  EXPECT_EQ(on_disk.payload()[1], kTarget);
  flusher.join();

  EXPECT_EQ(target.view().header().lsn, new_lsn);
  EXPECT_EQ(target.view().payload()[1], 0x77);
  EXPECT_EQ(pool.DirtyFrameCount(), 1);
  target.Release();
}

// All but one frame pinned: every claim in the storm funnels through the
// single reusable frame, so threads constantly wait for each other's unpin
// and eviction. Nothing may deadlock, panic, or miscount.
TEST(ConcurrentFetchTest, AcquireFrameStormWithOneFreeFrame) {
  MemDevice mem(kPages, kPage);
  SynthesizeFormatted(mem);
  MemDevice log_dev(1 << 10, kPage);
  DiskManager disk(&mem);
  LogManager log(&log_dev);
  BufferPool::Options opts;
  opts.num_frames = 8;
  opts.page_bytes = kPage;
  opts.expand_reads_until_warm = false;
  BufferPool pool(opts, &disk, &log, nullptr);

  IoContext ctx;
  std::vector<PageGuard> pins;
  for (PageId p = 0; p < 7; ++p) {
    pins.push_back(pool.FetchPage(p, AccessKind::kRandom, ctx));
  }

  constexpr int kThreads = 4;
  constexpr int kPagesPerThread = 100;
  std::barrier gate(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      gate.arrive_and_wait();
      IoContext tctx;
      for (int i = 0; i < kPagesPerThread; ++i) {
        const PageId pid =
            16 + static_cast<PageId>(t) * kPagesPerThread + i;
        PageGuard g = pool.FetchPage(pid, AccessKind::kRandom, tctx);
        ASSERT_TRUE(g.valid());
        EXPECT_EQ(g.view().header().page_id, pid);
      }
    });
  }
  for (auto& th : threads) th.join();

  const BufferPoolStats stats = pool.stats();
  EXPECT_EQ(stats.hits + stats.misses, 7 + kThreads * kPagesPerThread);
  EXPECT_EQ(pool.UsedFrameCount(), 8);
}

}  // namespace
}  // namespace turbobp
