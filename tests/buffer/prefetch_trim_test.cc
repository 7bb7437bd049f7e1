// The multi-page read-ahead path with an SSD cache attached (Section
// 3.3.3): leading/trailing SSD-resident pages are trimmed and served from
// the SSD, only the middle run goes to the disk (one engine request per
// page, submitted back to back), and LC's newer-than-disk pages are re-read
// from the SSD even when they sit mid-run. Read-ahead reaches the disk
// through the DiskManager's async engine, never its blocking path, so the
// disk-side assertions read the engine's counters.

#include <gtest/gtest.h>

#include <cstring>
#include <memory>

#include "buffer/buffer_pool.h"
#include "core/dual_write.h"
#include "core/lazy_cleaning.h"
#include "sim/sim_executor.h"
#include "storage/page.h"
#include "storage/sim_device.h"
#include "wal/log_manager.h"

namespace turbobp {
namespace {

constexpr uint32_t kPage = 512;

class PrefetchTrimTest : public ::testing::Test {
 protected:
  void SetUp() override { Build(false); }

  void Build(bool lazy_cleaning) {
    executor_ = std::make_unique<SimExecutor>();
    disk_dev_ = std::make_unique<SimDevice>(1 << 12, kPage,
                                            std::make_unique<HddModel>());
    disk_dev_->store().SetSynthesizer([](uint64_t page, std::span<uint8_t> out) {
      PageView v(out.data(), kPage);
      v.Format(page, PageType::kRaw);
      v.SealChecksum();
    });
    ssd_dev_ = std::make_unique<SimDevice>(256, kPage,
                                           std::make_unique<SsdModel>());
    log_dev_ = std::make_unique<SimDevice>(1 << 12, kPage,
                                           std::make_unique<HddModel>());
    disk_ = std::make_unique<DiskManager>(disk_dev_.get());
    log_ = std::make_unique<LogManager>(log_dev_.get());
    SsdCacheOptions sopts;
    sopts.num_frames = 64;
    sopts.num_partitions = 2;
    sopts.aggressive_fill = 1.0;
    if (lazy_cleaning) {
      ssd_ = std::make_unique<LazyCleaningCache>(ssd_dev_.get(), disk_.get(),
                                                 sopts, executor_.get());
    } else {
      ssd_ = std::make_unique<DualWriteCache>(ssd_dev_.get(), disk_.get(),
                                              sopts, executor_.get());
    }
    BufferPool::Options opts;
    opts.num_frames = 32;
    opts.page_bytes = kPage;
    opts.expand_reads_until_warm = false;
    pool_ = std::make_unique<BufferPool>(opts, disk_.get(), log_.get(),
                                         ssd_.get());
  }

  // Places a clean copy of `pid` into the SSD cache (via a clean eviction).
  void SeedSsdClean(PageId pid) {
    std::vector<uint8_t> buf(kPage);
    PageView v(buf.data(), kPage);
    v.Format(pid, PageType::kRaw);
    v.SealChecksum();
    IoContext ctx;
    ctx.executor = executor_.get();
    ssd_->OnEvictClean(pid, buf, AccessKind::kRandom, ctx);
  }

  std::unique_ptr<SimExecutor> executor_;
  std::unique_ptr<SimDevice> disk_dev_;
  std::unique_ptr<SimDevice> ssd_dev_;
  std::unique_ptr<SimDevice> log_dev_;
  std::unique_ptr<DiskManager> disk_;
  std::unique_ptr<LogManager> log_;
  std::unique_ptr<SsdManager> ssd_;
  std::unique_ptr<BufferPool> pool_;
};

TEST_F(PrefetchTrimTest, LeadingAndTrailingSsdPagesAreTrimmed) {
  SeedSsdClean(100);
  SeedSsdClean(101);
  SeedSsdClean(107);
  IoContext ctx;
  ctx.now = Seconds(1);  // admission writes done
  ctx.executor = executor_.get();
  pool_->PrefetchRange(100, 8, ctx);
  // Pages 100,101 (leading) and 107 (trailing) came from the SSD; only the
  // middle 102..106 went to the disk.
  EXPECT_EQ(pool_->stats().ssd_hits, 3);
  EXPECT_EQ(disk_->io_engine().stats().submitted, 5);
  EXPECT_EQ(pool_->stats().disk_page_reads, 5);
  EXPECT_EQ(disk_->reads_issued(), 0);
  for (PageId p = 100; p < 108; ++p) EXPECT_TRUE(pool_->Contains(p));
}

TEST_F(PrefetchTrimTest, MiddleSsdCleanPagesComeFromTheDiskRead) {
  SeedSsdClean(104);  // strictly in the middle
  IoContext ctx;
  ctx.now = Seconds(1);
  ctx.executor = executor_.get();
  pool_->PrefetchRange(100, 8, ctx);
  // No splitting: all 8 pages came from the disk; the SSD copy was ignored
  // (clean, identical content).
  EXPECT_EQ(disk_->io_engine().stats().submitted, 8);
  EXPECT_EQ(pool_->stats().disk_page_reads, 8);
  EXPECT_EQ(pool_->stats().ssd_hits, 0);
}

TEST_F(PrefetchTrimTest, MiddleNewerCopiesAreReReadFromSsd) {
  Build(/*lazy_cleaning=*/true);
  // A dirty (newer-than-disk) SSD page in the middle of the range.
  std::vector<uint8_t> newer(kPage);
  PageView v(newer.data(), kPage);
  v.Format(104, PageType::kRaw);
  v.header().version = 7;
  newer[kPageHeaderSize] = 0xAB;
  v.SealChecksum();
  IoContext ectx;
  ectx.executor = executor_.get();
  ssd_->OnEvictDirty(104, newer, AccessKind::kRandom, 1, ectx);
  ASSERT_EQ(ssd_->Probe(104), SsdProbe::kNewerCopy);

  IoContext ctx;
  ctx.now = Seconds(1);
  ctx.executor = executor_.get();
  pool_->PrefetchRange(100, 8, ctx);
  // The stale disk copy of 104 was discarded and replaced via an SSD read.
  EXPECT_GE(pool_->stats().ssd_hits, 1);
  PageGuard g = pool_->FetchPage(104, AccessKind::kRandom, ctx);
  EXPECT_EQ(g.view().header().version, 7u);
  EXPECT_EQ(g.view().payload()[0], 0xAB);
}

TEST_F(PrefetchTrimTest, FullySsdResidentRangeNeedsNoDiskIo) {
  for (PageId p = 100; p < 108; ++p) SeedSsdClean(p);
  IoContext ctx;
  ctx.now = Seconds(1);
  ctx.executor = executor_.get();
  pool_->PrefetchRange(100, 8, ctx);
  EXPECT_EQ(disk_->io_engine().stats().submitted, 0);
  EXPECT_EQ(pool_->stats().ssd_hits, 8);
}

TEST_F(PrefetchTrimTest, PrefetchChargesClientUntilDataAvailable) {
  IoContext ctx;
  ctx.executor = executor_.get();
  const Time before = ctx.now;
  pool_->PrefetchRange(200, 8, ctx);
  EXPECT_GT(ctx.now, before);  // blocked on the disk read
}

TEST_F(PrefetchTrimTest, WarmupExpansionIsCountedSeparatelyFromPrefetch) {
  BufferPool::Options opts;
  opts.num_frames = 32;
  opts.page_bytes = kPage;
  opts.expand_reads_until_warm = true;
  pool_ = std::make_unique<BufferPool>(opts, disk_.get(), log_.get(),
                                       ssd_.get());

  IoContext ctx;
  ctx.executor = executor_.get();
  pool_->FetchPage(100, AccessKind::kRandom, ctx);
  // One cold miss expanded into one aligned 8-page disk read: the requested
  // page is an ordinary miss; the 7 speculative neighbours are counted as
  // expanded — not as prefetched, and not silently (the seed bug).
  BufferPoolStats s = pool_->stats();
  EXPECT_EQ(s.misses, 1);
  EXPECT_EQ(s.disk_page_reads, 8);
  EXPECT_EQ(s.expanded_pages, 7);
  EXPECT_EQ(s.prefetch_pages, 0);
  // Every resident frame is accounted for by exactly one counter.
  EXPECT_EQ(pool_->UsedFrameCount(), s.misses + s.expanded_pages);
  for (PageId p = 96; p < 104; ++p) EXPECT_TRUE(pool_->Contains(p));

  // Read-ahead keeps its own counter: no cross-talk with expansion.
  pool_->PrefetchRange(200, 8, ctx);
  s = pool_->stats();
  EXPECT_EQ(s.prefetch_pages, 8);
  EXPECT_EQ(s.expanded_pages, 7);
}

TEST_F(PrefetchTrimTest, SequentialPrefetchedPagesRejectedBySsdOnEviction) {
  // After the fill phase, evicted sequential pages must not enter the SSD.
  Build(false);
  // Force past aggressive fill by shrinking it: re-create with fill 0.
  SsdCacheOptions sopts;
  sopts.num_frames = 64;
  sopts.num_partitions = 2;
  sopts.aggressive_fill = 0.0;
  ssd_ = std::make_unique<DualWriteCache>(ssd_dev_.get(), disk_.get(), sopts,
                                          executor_.get());
  pool_->set_ssd_manager(ssd_.get());
  IoContext ctx;
  ctx.executor = executor_.get();
  pool_->PrefetchRange(0, 8, ctx);   // sequential pages into the pool
  for (PageId p = 500; p < 540; ++p) {
    pool_->FetchPage(p, AccessKind::kRandom, ctx);  // force evictions
  }
  EXPECT_GT(ssd_->stats().rejected_sequential, 0);
  for (PageId p = 0; p < 8; ++p) {
    EXPECT_EQ(ssd_->Probe(p), SsdProbe::kAbsent) << p;
  }
}

}  // namespace
}  // namespace turbobp
