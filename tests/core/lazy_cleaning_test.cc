// LC-specific behaviour: the lambda watermark, the background cleaner and
// its group cleaning, dirty reads that bypass the throttle, and the
// checkpoint integration of Section 3.2.

#include "core/lazy_cleaning.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <memory>
#include <vector>

#include "debug/invariant_auditor.h"
#include "sim/sim_executor.h"
#include "storage/page.h"
#include "storage/sim_device.h"

namespace turbobp {
namespace {

constexpr uint32_t kPage = 512;

class LazyCleaningTest : public ::testing::Test {
 protected:
  void SetUp() override {
    executor_ = std::make_unique<SimExecutor>();
    ssd_dev_ = std::make_unique<SimDevice>(64, kPage,
                                           std::make_unique<SsdModel>());
    disk_dev_ = std::make_unique<SimDevice>(1 << 12, kPage,
                                            std::make_unique<HddModel>());
    disk_ = std::make_unique<DiskManager>(disk_dev_.get());
    opts_.num_frames = 16;
    opts_.num_partitions = 2;
    opts_.aggressive_fill = 1.0;
    opts_.lc_dirty_fraction = 0.5;  // high watermark: 8 dirty frames
    opts_.lc_group_pages = 4;
    cache_ = std::make_unique<LazyCleaningCache>(ssd_dev_.get(), disk_.get(),
                                                 opts_, executor_.get());
  }

  std::vector<uint8_t> MakePage(PageId pid, uint8_t fill) {
    std::vector<uint8_t> buf(kPage, fill);
    PageView v(buf.data(), kPage);
    v.Format(pid, PageType::kRaw);
    std::memset(v.payload(), fill, v.payload_bytes());
    v.SealChecksum();
    return buf;
  }

  EvictionOutcome EvictDirty(PageId pid, Time now = 0) {
    IoContext ctx;
    ctx.now = std::max(now, executor_->now());
    ctx.executor = executor_.get();
    auto page = MakePage(pid, static_cast<uint8_t>(pid));
    return cache_->OnEvictDirty(pid, page, AccessKind::kRandom, 1, ctx);
  }

  std::unique_ptr<SimExecutor> executor_;
  std::unique_ptr<SimDevice> ssd_dev_;
  std::unique_ptr<SimDevice> disk_dev_;
  std::unique_ptr<DiskManager> disk_;
  SsdCacheOptions opts_;
  std::unique_ptr<LazyCleaningCache> cache_;
};

TEST_F(LazyCleaningTest, WatermarksDeriveFromLambda) {
  EXPECT_EQ(cache_->HighWatermark(), 8);
  EXPECT_LE(cache_->LowWatermark(), 8);
}

TEST_F(LazyCleaningTest, CleanerStaysAsleepBelowLambda) {
  for (PageId p = 0; p < 8; ++p) EvictDirty(p);
  EXPECT_FALSE(cache_->cleaner_running());
  executor_->RunUntilIdle();
  EXPECT_EQ(cache_->stats().dirty_frames, 8);
  EXPECT_EQ(cache_->stats().cleaner_disk_writes, 0);
}

TEST_F(LazyCleaningTest, CleanerWakesAboveLambdaAndCleansToWatermark) {
  for (PageId p = 0; p < 10; ++p) EvictDirty(p);
  EXPECT_TRUE(cache_->cleaner_running());
  executor_->RunUntilIdle();
  EXPECT_LE(cache_->stats().dirty_frames, cache_->HighWatermark());
  EXPECT_GT(cache_->stats().cleaner_disk_writes, 0);
  EXPECT_GT(cache_->cleaner_wakeups(), 0);
  // Cleaned pages became clean SSD copies, still cached.
  int clean_copies = 0;
  for (PageId p = 0; p < 10; ++p) {
    if (cache_->Probe(p) == SsdProbe::kCleanCopy) ++clean_copies;
  }
  EXPECT_GT(clean_copies, 0);
}

TEST_F(LazyCleaningTest, GroupCleaningBatchesConsecutiveDiskAddresses) {
  // Ten dirty pages with consecutive page ids: the cleaner should need far
  // fewer disk write requests than pages cleaned.
  for (PageId p = 100; p < 110; ++p) EvictDirty(p);
  executor_->RunUntilIdle();
  const auto stats = cache_->stats();
  ASSERT_GT(stats.cleaner_disk_writes, 0);
  EXPECT_LT(stats.cleaner_io_requests, stats.cleaner_disk_writes);
  // Group limit alpha=4: no request may exceed it.
  EXPECT_GE(stats.cleaner_io_requests,
            (stats.cleaner_disk_writes + 3) / 4);
}

TEST_F(LazyCleaningTest, CleanedContentReachesDisk) {
  for (PageId p = 100; p < 110; ++p) EvictDirty(p);
  executor_->RunUntilIdle();
  // Find a cleaned page and verify the disk copy matches what was evicted.
  for (PageId p = 100; p < 110; ++p) {
    if (cache_->Probe(p) == SsdProbe::kCleanCopy) {
      std::vector<uint8_t> out(kPage);
      disk_dev_->store().Read(p, 1, out, 0);
      PageView v(out.data(), kPage);
      ASSERT_EQ(v.header().page_id, p);
      ASSERT_EQ(v.payload()[0], static_cast<uint8_t>(p));
      return;
    }
  }
  FAIL() << "no page was cleaned";
}

TEST_F(LazyCleaningTest, DirtyReadBypassesThrottle) {
  opts_.throttle_queue_limit = 0;  // everything throttles
  cache_ = std::make_unique<LazyCleaningCache>(ssd_dev_.get(), disk_.get(),
                                               opts_, executor_.get());
  // Even with the throttle saturated, the admission happened before the
  // limit applies here? Admit with throttle off by lifting the queue first.
  IoContext ctx;
  ctx.executor = executor_.get();
  auto page = MakePage(5, 0x55);
  // Direct admission path: OnEvictDirty would throttle, so exercise the
  // invariant with a pre-admitted dirty page via a temporary lift.
  opts_.throttle_queue_limit = 1000;
  cache_ = std::make_unique<LazyCleaningCache>(ssd_dev_.get(), disk_.get(),
                                               opts_, executor_.get());
  EvictDirty(5);
  // Saturate the SSD queue with reads at t=0.
  std::vector<uint8_t> sink(kPage);
  for (int i = 0; i < 8; ++i) ssd_dev_->Read(0, 1, sink, 0);
  // A dirty (newer-than-disk) page must still be served for correctness.
  std::vector<uint8_t> out(kPage);
  IoContext read_ctx;
  read_ctx.now = 0;
  EXPECT_TRUE(cache_->TryReadPage(5, out, read_ctx));
  PageView v(out.data(), kPage);
  EXPECT_EQ(v.header().page_id, 5u);
}

TEST_F(LazyCleaningTest, CheckpointPausesDirtyAdmission) {
  cache_->OnCheckpointBegin();
  const EvictionOutcome outcome = EvictDirty(3);
  EXPECT_TRUE(outcome.write_to_disk);
  EXPECT_FALSE(outcome.cached_on_ssd);
  cache_->OnCheckpointEnd();
  const EvictionOutcome after = EvictDirty(4);
  EXPECT_FALSE(after.write_to_disk);
}

TEST_F(LazyCleaningTest, FlushAllDirtyDrainsEverything) {
  for (PageId p = 0; p < 7; ++p) EvictDirty(p);
  IoContext ctx;
  ctx.now = executor_->now();
  ctx.executor = executor_.get();
  const IoResult done = cache_->FlushAllDirty(ctx);
  EXPECT_TRUE(done.ok());
  EXPECT_GT(done.time, 0);
  EXPECT_EQ(cache_->stats().dirty_frames, 0);
  // All pages remain cached as clean copies.
  for (PageId p = 0; p < 7; ++p) {
    EXPECT_EQ(cache_->Probe(p), SsdProbe::kCleanCopy) << p;
  }
}

TEST_F(LazyCleaningTest, FirstGroupStartsAtTheGloballyOldestDirtyFrame) {
  // 64 frames in 4 partitions; lambda puts the high (and low) watermark at
  // 8 dirty frames, so the ninth dirty page wakes the cleaner for exactly
  // one group.
  opts_.num_frames = 64;
  opts_.num_partitions = 4;
  opts_.lc_dirty_fraction = 0.125;
  cache_ = std::make_unique<LazyCleaningCache>(ssd_dev_.get(), disk_.get(),
                                               opts_, executor_.get());
  ASSERT_EQ(cache_->HighWatermark(), 8);
  ASSERT_EQ(cache_->LowWatermark(), 8);
  // Nine pages far enough apart that every group holds one page. The seed
  // is the one in the highest-numbered partition, so a cleaner that settled
  // for the first partition's dirty root would pick another page.
  std::vector<PageId> pids;
  for (PageId p = 100; p < 190; p += 10) pids.push_back(p);
  const auto part_of = [&](PageId pid) {
    return AuditAccess::PartitionIndexOf(*cache_, pid);
  };
  const PageId seed = *std::max_element(
      pids.begin(), pids.end(),
      [&](PageId a, PageId b) { return part_of(a) < part_of(b); });
  size_t lowest = part_of(seed);
  for (PageId p : pids) lowest = std::min(lowest, part_of(p));
  ASSERT_LT(lowest, part_of(seed)) << "pages must span several partitions";

  // Every page is admitted clean first, then dirtied: its LRU-2 key is the
  // clean admission time. The seed is admitted first and dirtied last, so
  // it holds the smallest LRU-2 key but the newest last access.
  const auto evict_clean = [&](PageId pid, Time now) {
    IoContext ctx;
    ctx.now = now;
    ctx.executor = executor_.get();
    auto page = MakePage(pid, static_cast<uint8_t>(pid));
    cache_->OnEvictClean(pid, page, AccessKind::kRandom, ctx);
  };
  evict_clean(seed, Micros(10));
  Time t = Micros(100);
  for (PageId p : pids) {
    if (p != seed) evict_clean(p, t += Micros(10));
  }
  for (PageId p : pids) {
    if (p != seed) EvictDirty(p, t += Micros(10));
  }
  EXPECT_FALSE(cache_->cleaner_running());
  EvictDirty(seed, t + Micros(10));
  executor_->RunUntilIdle();

  EXPECT_EQ(cache_->stats().cleaner_io_requests, 1);
  EXPECT_EQ(cache_->Probe(seed), SsdProbe::kCleanCopy);
  for (PageId p : pids) {
    if (p == seed) continue;
    EXPECT_EQ(cache_->Probe(p), SsdProbe::kNewerCopy) << "page " << p;
  }
}

TEST_F(LazyCleaningTest, DirtyPagesPinnedAgainstReplacement) {
  // Single partition so "completely full of dirty pages" is deterministic.
  opts_.num_partitions = 1;
  cache_ = std::make_unique<LazyCleaningCache>(ssd_dev_.get(), disk_.get(),
                                               opts_, executor_.get());
  // Fill the cache entirely with dirty pages; a new admission must fail
  // rather than evict a dirty page (its content exists nowhere else).
  for (PageId p = 0; p < 16; ++p) EvictDirty(p);
  IoContext ctx;
  ctx.now = executor_->now();
  ctx.executor = executor_.get();
  auto page = MakePage(99, 0x99);
  const EvictionOutcome outcome =
      cache_->OnEvictDirty(99, page, AccessKind::kRandom, 1, ctx);
  EXPECT_TRUE(outcome.write_to_disk);  // SSD full of dirty pages: disk path
  // Every original dirty page still probes newer.
  int dirty = 0;
  for (PageId p = 0; p < 16; ++p) {
    if (cache_->Probe(p) == SsdProbe::kNewerCopy) ++dirty;
  }
  EXPECT_GT(dirty, 8);  // cleaner may have started, but none were *lost*
}

}  // namespace
}  // namespace turbobp
