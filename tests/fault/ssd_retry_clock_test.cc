// Virtual-clock arithmetic of the SSD frame read path. ReadFrameVerified
// composes four time sources — device completion, retry backoff, the read
// deadline and the disk hedge — and each combination must charge the client
// clock EXACTLY once per event: a failed attempt occupies the device until
// its completion time (the historical bug: failures were free, so a retry
// storm under-reported latency), a hedged read costs deadline + disk and
// never the SSD stall, loader mode (charge=false) never moves the clock.
//
// SimDevice's queueing model makes exact assertions awkward, so these tests
// run the cache over a scripted device with constant service time.

#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <memory>
#include <vector>

#include "common/status.h"
#include "common/types.h"
#include "core/clean_write.h"
#include "sim/sim_executor.h"
#include "storage/disk_manager.h"
#include "storage/io_context.h"
#include "storage/page.h"
#include "storage/storage_device.h"

namespace turbobp {
namespace {

constexpr uint32_t kPage = 512;
constexpr Time kSsdLat = Millis(1);    // scripted SSD service time
constexpr Time kDiskLat = Millis(4);   // scripted disk service time
constexpr Time kBackoff = SsdCacheOptions::kIoRetryBackoff;
constexpr Time kDeadline = Millis(2);
constexpr Time kStall = Seconds(3);

// A storage device with perfectly deterministic timing: every request
// completes exactly one service time after it is issued, and a script keyed
// by read index injects failures, stalls and transfer flips. No queueing,
// no seek model — the tests below assert ctx.now to the microsecond.
class ScriptedDevice : public StorageDevice {
 public:
  enum class ReadOp {
    kOk,
    kTransient,    // kIoError at the normal completion time
    kUnavailable,  // device dead: kUnavailable, not worth retrying
    kStalled,      // succeeds, but only after an extra kStall of device time
    kFlipBit,      // succeeds on time with one payload bit flipped in `out`
                   //   (a transfer flip: the device content stays intact)
  };

  ScriptedDevice(uint64_t pages, uint32_t page_bytes, Time latency)
      : bytes_(pages * page_bytes, 0),
        num_pages_(pages),
        page_bytes_(page_bytes),
        latency_(latency) {}

  std::map<int, ReadOp> read_script;  // 0-based read index -> outcome
  Time read_queue_delay = 0;  // queue wait before service begins (reads)

  uint64_t num_pages() const override { return num_pages_; }
  uint32_t page_bytes() const override { return page_bytes_; }

  IoResult Read(uint64_t first_page, uint32_t n, std::span<uint8_t> out,
                Time now, bool charge) override {
    ReadOp op = ReadOp::kOk;
    if (const auto it = read_script.find(reads_seen_++);
        it != read_script.end()) {
      op = it->second;
    }
    if (op == ReadOp::kTransient) {
      return {now + latency_, Status::IoError("scripted transient")};
    }
    if (op == ReadOp::kUnavailable) {
      return {now + latency_, Status::Unavailable("scripted dead device")};
    }
    std::memcpy(out.data(), &bytes_[first_page * page_bytes_],
                static_cast<size_t>(n) * page_bytes_);
    if (op == ReadOp::kFlipBit) out[page_bytes_ / 2] ^= 0x01;
    if (!charge) return {now, Status::Ok()};
    IoResult res;
    res.status = Status::Ok();
    res.service_start = now + read_queue_delay;
    res.time =
        res.service_start + latency_ + (op == ReadOp::kStalled ? kStall : 0);
    return res;
  }

  IoResult Write(uint64_t first_page, uint32_t n,
                 std::span<const uint8_t> data, Time now,
                 bool charge) override {
    std::memcpy(&bytes_[first_page * page_bytes_], data.data(),
                static_cast<size_t>(n) * page_bytes_);
    return {charge ? now + latency_ : now, Status::Ok()};
  }

 private:
  std::vector<uint8_t> bytes_;
  uint64_t num_pages_;
  uint32_t page_bytes_;
  Time latency_;
  int reads_seen_ = 0;
};

// Exposes the protected frame read for direct probing: one partition, so
// Lookup under the partition latch finds the admitted page's record.
class ClockProbeCache : public CleanWriteCache {
 public:
  using CleanWriteCache::CleanWriteCache;

  Status ReadVerifiedAt(PageId pid, std::span<uint8_t> out, IoContext& ctx,
                        bool hedge_ok) {
    Partition& part = PartitionFor(pid);
    TrackedLockGuard lock(part.mu);
    const int32_t rec = part.table.Lookup(pid);
    TURBOBP_CHECK(rec >= 0);
    return ReadFrameVerified(part, rec, pid, out, ctx, hedge_ok);
  }
};

class RetryClockTest : public ::testing::Test {
 protected:
  void Build(Time read_deadline = 0) {
    ssd_ = std::make_unique<ScriptedDevice>(16, kPage, kSsdLat);
    disk_dev_ = std::make_unique<ScriptedDevice>(256, kPage, kDiskLat);
    disk_ = std::make_unique<DiskManager>(disk_dev_.get());
    SsdCacheOptions opts;
    opts.num_frames = 16;
    opts.num_partitions = 1;
    opts.io_retry_limit = 3;
    opts.read_deadline = read_deadline;
    opts.degrade_error_limit = 1000;  // degradation is not under test here
    cache_ = std::make_unique<ClockProbeCache>(ssd_.get(), disk_.get(), opts,
                                               &executor_);
  }

  // Seeds `pid` on disk and admits the identical clean copy to the SSD,
  // all uncharged (setup consumes no virtual time and no script entries —
  // the script indexes only the reads under test).
  std::vector<uint8_t> Admit(PageId pid) {
    std::vector<uint8_t> page(kPage);
    PageView v(page.data(), kPage);
    v.Format(pid, PageType::kRaw);
    std::memset(v.payload(), 0xA0 + static_cast<int>(pid % 16),
                v.payload_bytes());
    v.SealChecksum();
    IoContext setup{.now = 0, .charge = false, .executor = &executor_};
    disk_->WritePage(pid, page, setup);
    cache_->OnEvictClean(pid, page, AccessKind::kRandom, setup);
    TURBOBP_CHECK(cache_->Probe(pid) == SsdProbe::kCleanCopy);
    return page;
  }

  IoContext Ctx(Time now) {
    return IoContext{.now = now, .charge = true, .executor = &executor_};
  }

  SimExecutor executor_;
  std::unique_ptr<ScriptedDevice> ssd_;
  std::unique_ptr<ScriptedDevice> disk_dev_;
  std::unique_ptr<DiskManager> disk_;
  std::unique_ptr<ClockProbeCache> cache_;
};

// A transient failure occupies the device until its completion time, THEN
// the backoff runs, THEN the re-read: t0 + L + B + L exactly. (Before the
// fix the failed attempt was free — the clock showed t0 + B + L, as if the
// device had answered instantly.)
TEST_F(RetryClockTest, FailedAttemptChargesDeviceCompletionTime) {
  Build();
  const PageId pid = 7;
  const std::vector<uint8_t> oracle = Admit(pid);
  ssd_->read_script[0] = ScriptedDevice::ReadOp::kTransient;

  const Time t0 = Seconds(1);
  IoContext ctx = Ctx(t0);
  std::vector<uint8_t> out(kPage);
  ASSERT_TRUE(cache_->ReadVerifiedAt(pid, out, ctx, /*hedge_ok=*/false).ok());

  EXPECT_EQ(ctx.now, t0 + kSsdLat + kBackoff + kSsdLat);
  EXPECT_EQ(out, oracle);
  const SsdManagerStats s = cache_->stats();
  EXPECT_EQ(s.device_read_errors, 1);
  EXPECT_EQ(s.read_retries, 1);
  EXPECT_EQ(s.io_timeouts, 0);
}

// A transfer flip costs a full successful read before verification fails,
// then backoff + re-read: the same t0 + L + B + L shape as the transient.
TEST_F(RetryClockTest, ChecksumRereadComposesLikeTransient) {
  Build();
  const PageId pid = 11;
  const std::vector<uint8_t> oracle = Admit(pid);
  ssd_->read_script[0] = ScriptedDevice::ReadOp::kFlipBit;

  const Time t0 = Seconds(2);
  IoContext ctx = Ctx(t0);
  std::vector<uint8_t> out(kPage);
  ASSERT_TRUE(cache_->ReadVerifiedAt(pid, out, ctx, /*hedge_ok=*/false).ok());

  EXPECT_EQ(ctx.now, t0 + kSsdLat + kBackoff + kSsdLat);
  EXPECT_EQ(out, oracle);
  const SsdManagerStats s = cache_->stats();
  EXPECT_EQ(s.frame_corruptions, 1);
  EXPECT_EQ(s.read_retries, 1);
  EXPECT_EQ(s.device_read_errors, 0);
}

// Exhausting every retry charges each failed completion plus each backoff:
// t0 + 3L + 2B with io_retry_limit=3, and the error surfaces as kIoError.
TEST_F(RetryClockTest, ExhaustedRetriesChargeEveryAttempt) {
  Build();
  const PageId pid = 3;
  Admit(pid);
  for (int i = 0; i < 3; ++i) {
    ssd_->read_script[i] = ScriptedDevice::ReadOp::kTransient;
  }

  const Time t0 = Seconds(3);
  IoContext ctx = Ctx(t0);
  std::vector<uint8_t> out(kPage);
  const Status st = cache_->ReadVerifiedAt(pid, out, ctx, /*hedge_ok=*/false);

  EXPECT_TRUE(st.IsIoError()) << st.ToString();
  EXPECT_EQ(ctx.now, t0 + 3 * kSsdLat + 2 * kBackoff);
  const SsdManagerStats s = cache_->stats();
  EXPECT_EQ(s.device_read_errors, 3);
  EXPECT_EQ(s.read_retries, 2);
}

// A dead device is not retried: one charged attempt, then kUnavailable.
TEST_F(RetryClockTest, UnavailableStopsAfterOneChargedAttempt) {
  Build();
  const PageId pid = 5;
  Admit(pid);
  ssd_->read_script[0] = ScriptedDevice::ReadOp::kUnavailable;

  const Time t0 = Seconds(4);
  IoContext ctx = Ctx(t0);
  std::vector<uint8_t> out(kPage);
  const Status st = cache_->ReadVerifiedAt(pid, out, ctx, /*hedge_ok=*/false);

  EXPECT_TRUE(st.IsUnavailable()) << st.ToString();
  EXPECT_EQ(ctx.now, t0 + kSsdLat);
  EXPECT_EQ(cache_->stats().read_retries, 0);
}

// A stalled read on a clean frame hedges to disk at the deadline instant:
// the client pays deadline + disk latency and never the SSD stall, the
// timeout still charges the partition's error budget, and the data comes
// back oracle-exact from the disk copy.
TEST_F(RetryClockTest, HedgedReadCompletesAtDeadlinePlusDiskTime) {
  Build(kDeadline);
  const PageId pid = 9;
  const std::vector<uint8_t> oracle = Admit(pid);
  ssd_->read_script[0] = ScriptedDevice::ReadOp::kStalled;

  const Time t0 = Seconds(5);
  IoContext ctx = Ctx(t0);
  std::vector<uint8_t> out(kPage);
  ASSERT_TRUE(cache_->ReadVerifiedAt(pid, out, ctx, /*hedge_ok=*/true).ok());

  EXPECT_EQ(ctx.now, t0 + kDeadline + kDiskLat);
  EXPECT_LT(ctx.now, t0 + kSsdLat + kStall);  // the stall was NOT waited out
  EXPECT_EQ(out, oracle);
  const SsdManagerStats s = cache_->stats();
  EXPECT_EQ(s.io_timeouts, 1);
  EXPECT_EQ(s.hedged_reads, 1);
  EXPECT_EQ(s.read_retries, 0);
}

// Without hedging (a dirty frame: disk would be stale) the stall is waited
// out in full; the timeout is still counted against the partition.
TEST_F(RetryClockTest, UnhedgedDeadlineWaitsOutTheStall) {
  Build(kDeadline);
  const PageId pid = 13;
  const std::vector<uint8_t> oracle = Admit(pid);
  ssd_->read_script[0] = ScriptedDevice::ReadOp::kStalled;

  const Time t0 = Seconds(6);
  IoContext ctx = Ctx(t0);
  std::vector<uint8_t> out(kPage);
  ASSERT_TRUE(cache_->ReadVerifiedAt(pid, out, ctx, /*hedge_ok=*/false).ok());

  EXPECT_EQ(ctx.now, t0 + kSsdLat + kStall);
  EXPECT_EQ(out, oracle);
  const SsdManagerStats s = cache_->stats();
  EXPECT_EQ(s.io_timeouts, 1);
  EXPECT_EQ(s.hedged_reads, 0);
}

// Loader mode: charge=false moves no clock through any shape — transient,
// retry, verification — and the deadline machinery never arms.
TEST_F(RetryClockTest, UnchargedContextNeverAdvancesClock) {
  Build(kDeadline);
  const PageId pid = 2;
  const std::vector<uint8_t> oracle = Admit(pid);
  ssd_->read_script[0] = ScriptedDevice::ReadOp::kTransient;

  const Time t0 = Seconds(7);
  IoContext ctx = Ctx(t0);
  ctx.charge = false;
  std::vector<uint8_t> out(kPage);
  ASSERT_TRUE(cache_->ReadVerifiedAt(pid, out, ctx, /*hedge_ok=*/true).ok());

  EXPECT_EQ(ctx.now, t0);
  EXPECT_EQ(out, oracle);
  EXPECT_EQ(cache_->stats().io_timeouts, 0);
}

// The deadline clock starts at IoResult::service_start, not at arrival:
// a read that sits in the device queue for far longer than the deadline
// but is serviced promptly is congestion, not sickness — the client still
// pays the full wait, but no timeout is booked and nothing is hedged.
// (Before the fix a busy cache booked its own queueing as device errors,
// degraded healthy partitions, and the purge-refill traffic made the
// congestion worse — a self-sustaining cascade.)
TEST_F(RetryClockTest, QueueWaitDoesNotCountTowardDeadline) {
  Build(kDeadline);
  const PageId pid = 4;
  const std::vector<uint8_t> oracle = Admit(pid);
  ssd_->read_queue_delay = 50 * kDeadline;  // queued well past the deadline

  const Time t0 = Seconds(8);
  IoContext ctx = Ctx(t0);
  std::vector<uint8_t> out(kPage);
  ASSERT_TRUE(cache_->ReadVerifiedAt(pid, out, ctx, /*hedge_ok=*/true).ok());

  EXPECT_EQ(ctx.now, t0 + 50 * kDeadline + kSsdLat);  // the wait is charged
  EXPECT_EQ(out, oracle);
  const SsdManagerStats s = cache_->stats();
  EXPECT_EQ(s.io_timeouts, 0);  // ...but not booked as sickness
  EXPECT_EQ(s.hedged_reads, 0);
}

// Queue wait and an in-service stall compose: the stall alone exceeds the
// deadline, so the timeout fires — at service_start + deadline, which is
// where the hedge runs from (the host notices the hang only once the
// request is actually in service).
TEST_F(RetryClockTest, InServiceStallStillTripsDeadlineAfterQueueing) {
  Build(kDeadline);
  const PageId pid = 5;
  const std::vector<uint8_t> oracle = Admit(pid);
  ssd_->read_queue_delay = 50 * kDeadline;
  ssd_->read_script[0] = ScriptedDevice::ReadOp::kStalled;

  const Time t0 = Seconds(9);
  IoContext ctx = Ctx(t0);
  std::vector<uint8_t> out(kPage);
  ASSERT_TRUE(cache_->ReadVerifiedAt(pid, out, ctx, /*hedge_ok=*/true).ok());

  EXPECT_EQ(ctx.now, t0 + 50 * kDeadline + kDeadline + kDiskLat);
  EXPECT_EQ(out, oracle);
  const SsdManagerStats s = cache_->stats();
  EXPECT_EQ(s.io_timeouts, 1);
  EXPECT_EQ(s.hedged_reads, 1);
}

}  // namespace
}  // namespace turbobp
