#include "buffer/buffer_pool.h"

#include <gtest/gtest.h>

#include <memory>

#include "storage/sim_device.h"
#include "wal/log_manager.h"

namespace turbobp {
namespace {

constexpr uint32_t kPage = 1024;

// Test fixture: an HDD-modeled device whose unwritten pages synthesize as
// formatted raw pages (valid checksums), a log device, and a buffer pool.
class BufferPoolTest : public ::testing::Test {
 protected:
  void SetUp() override { Build(8, /*expand=*/false); }

  void Build(uint64_t frames, bool expand) {
    disk_dev_ = std::make_unique<SimDevice>(1 << 12, kPage,
                                            std::make_unique<HddModel>());
    disk_dev_->store().SetSynthesizer([](uint64_t page, std::span<uint8_t> out) {
      PageView v(out.data(), kPage);
      v.Format(page, PageType::kRaw);
      v.SealChecksum();
    });
    log_dev_ = std::make_unique<SimDevice>(1 << 12, kPage,
                                           std::make_unique<HddModel>());
    disk_ = std::make_unique<DiskManager>(disk_dev_.get());
    log_ = std::make_unique<LogManager>(log_dev_.get());
    BufferPool::Options opts;
    opts.num_frames = frames;
    opts.page_bytes = kPage;
    opts.expand_reads_until_warm = expand;
    pool_ = std::make_unique<BufferPool>(opts, disk_.get(), log_.get(),
                                         nullptr);
  }

  std::unique_ptr<SimDevice> disk_dev_;
  std::unique_ptr<SimDevice> log_dev_;
  std::unique_ptr<DiskManager> disk_;
  std::unique_ptr<LogManager> log_;
  std::unique_ptr<BufferPool> pool_;
};

TEST_F(BufferPoolTest, MissThenHit) {
  IoContext ctx;
  {
    PageGuard g = pool_->FetchPage(10, AccessKind::kRandom, ctx);
    EXPECT_EQ(g.page_id(), 10u);
  }
  const Time after_miss = ctx.now;
  EXPECT_GT(after_miss, Millis(5));  // disk read
  {
    PageGuard g = pool_->FetchPage(10, AccessKind::kRandom, ctx);
  }
  EXPECT_LT(ctx.now - after_miss, Micros(50));  // hit: CPU cost only
  EXPECT_EQ(pool_->stats().hits, 1);
  EXPECT_EQ(pool_->stats().misses, 1);
}

TEST_F(BufferPoolTest, EvictionKicksInWhenFull) {
  IoContext ctx;
  for (PageId p = 0; p < 20; ++p) {
    pool_->FetchPage(p, AccessKind::kRandom, ctx);
  }
  EXPECT_EQ(pool_->UsedFrameCount(), 8);
  EXPECT_EQ(pool_->stats().evictions_clean, 12);
}

TEST_F(BufferPoolTest, PinnedPagesAreNotEvicted) {
  IoContext ctx;
  PageGuard pinned = pool_->FetchPage(99, AccessKind::kRandom, ctx);
  for (PageId p = 0; p < 30; ++p) {
    pool_->FetchPage(p, AccessKind::kRandom, ctx);
  }
  EXPECT_TRUE(pool_->Contains(99));
}

TEST_F(BufferPoolTest, Lru2PrefersEvictingColdPages) {
  IoContext ctx;
  // Touch pages 0 and 1 twice (hot); fill the rest once.
  for (int round = 0; round < 2; ++round) {
    pool_->FetchPage(0, AccessKind::kRandom, ctx);
    pool_->FetchPage(1, AccessKind::kRandom, ctx);
  }
  for (PageId p = 2; p < 8; ++p) pool_->FetchPage(p, AccessKind::kRandom, ctx);
  // Cause a handful of evictions; the twice-touched pages should survive
  // (LRU-2 evicts pages with empty penultimate history first).
  for (PageId p = 100; p < 104; ++p) {
    pool_->FetchPage(p, AccessKind::kRandom, ctx);
  }
  EXPECT_TRUE(pool_->Contains(0));
  EXPECT_TRUE(pool_->Contains(1));
}

TEST_F(BufferPoolTest, DirtyEvictionWritesBack) {
  IoContext ctx;
  {
    PageGuard g = pool_->FetchPage(7, AccessKind::kRandom, ctx);
    g.view().payload()[0] = 0xAA;
    g.LogUpdate(1, kPageHeaderSize, 1);
  }
  EXPECT_EQ(pool_->DirtyFrameCount(), 1);
  for (PageId p = 100; p < 120; ++p) {
    pool_->FetchPage(p, AccessKind::kRandom, ctx);
  }
  EXPECT_FALSE(pool_->Contains(7));
  EXPECT_EQ(pool_->stats().evictions_dirty, 1);
  // The write is durable on the device: refetch and verify content.
  PageGuard g = pool_->FetchPage(7, AccessKind::kRandom, ctx);
  EXPECT_EQ(g.view().payload()[0], 0xAA);
}

TEST_F(BufferPoolTest, WalRuleLogIsFlushedBeforeDirtyWrite) {
  IoContext ctx;
  {
    PageGuard g = pool_->FetchPage(7, AccessKind::kRandom, ctx);
    g.view().payload()[0] = 1;
    g.LogUpdate(1, kPageHeaderSize, 1);
  }
  const Lsn lsn_before = log_->durable_lsn();
  for (PageId p = 100; p < 120; ++p) {
    pool_->FetchPage(p, AccessKind::kRandom, ctx);
  }
  // Evicting the dirty page forced the log through its LSN.
  EXPECT_GT(log_->durable_lsn(), lsn_before);
  EXPECT_GE(log_->durable_lsn(), log_->records_snapshot().back().lsn);
}

TEST_F(BufferPoolTest, NewPageIsBornDirtyAndNeverReadsDisk) {
  IoContext ctx;
  const int64_t reads_before = disk_->reads_issued();
  {
    PageGuard g = pool_->NewPage(500, PageType::kBTreeLeaf, ctx);
    EXPECT_EQ(g.view().header().type, PageType::kBTreeLeaf);
  }
  EXPECT_EQ(disk_->reads_issued(), reads_before);
  EXPECT_EQ(pool_->DirtyFrameCount(), 1);
}

TEST_F(BufferPoolTest, FlushAllDirtyCleansPool) {
  IoContext ctx;
  for (PageId p = 0; p < 4; ++p) {
    PageGuard g = pool_->FetchPage(p, AccessKind::kRandom, ctx);
    g.view().payload()[3] = static_cast<uint8_t>(p);
    g.LogUpdate(1, kPageHeaderSize + 3, 1);
  }
  EXPECT_EQ(pool_->DirtyFrameCount(), 4);
  const Time done = pool_->FlushAllDirty(ctx, /*for_checkpoint=*/false);
  EXPECT_GT(done, ctx.now);
  EXPECT_EQ(pool_->DirtyFrameCount(), 0);
}

TEST_F(BufferPoolTest, ResetDropsEverything) {
  IoContext ctx;
  {
    PageGuard g = pool_->FetchPage(3, AccessKind::kRandom, ctx);
    g.view().payload()[0] = 9;
    g.LogUpdate(1, kPageHeaderSize, 1);
  }
  pool_->Reset();
  EXPECT_EQ(pool_->UsedFrameCount(), 0);
  EXPECT_EQ(pool_->DirtyFrameCount(), 0);
  // The dirty page was lost (crash semantics): disk still has old content.
  PageGuard g = pool_->FetchPage(3, AccessKind::kRandom, ctx);
  EXPECT_EQ(g.view().payload()[0], 0);
}

TEST_F(BufferPoolTest, PrefetchRangeLoadsSequentialPages) {
  IoContext ctx;
  pool_->PrefetchRange(40, 6, ctx);
  for (PageId p = 40; p < 46; ++p) EXPECT_TRUE(pool_->Contains(p));
  EXPECT_EQ(pool_->stats().prefetch_pages, 6);
  // Read-ahead goes through the disk engine, one request per page, never
  // through the DiskManager's blocking reads.
  EXPECT_EQ(disk_->io_engine().stats().submitted, 6);
  EXPECT_EQ(disk_->io_engine().stats().completed, 6);
  EXPECT_EQ(disk_->reads_issued(), 0);
}

TEST_F(BufferPoolTest, PrefetchSkipsResidentPages) {
  IoContext ctx;
  pool_->FetchPage(41, AccessKind::kRandom, ctx);
  pool_->PrefetchRange(40, 4, ctx);
  EXPECT_TRUE(pool_->Contains(40));
  EXPECT_TRUE(pool_->Contains(43));
}

TEST_F(BufferPoolTest, ExpandedReadsWhilePoolCold) {
  Build(64, /*expand=*/true);
  IoContext ctx;
  pool_->FetchPage(10, AccessKind::kRandom, ctx);
  // The single-page request was expanded to an aligned 8-page block.
  EXPECT_EQ(disk_->pages_read(), 8);
  EXPECT_TRUE(pool_->Contains(8));
  EXPECT_TRUE(pool_->Contains(15));
  EXPECT_EQ(pool_->UsedFrameCount(), 8);
}

TEST_F(BufferPoolTest, ExpansionStopsOnceWarm) {
  Build(8, /*expand=*/true);
  IoContext ctx;
  for (PageId p = 0; p < 64; p += 8) {
    pool_->FetchPage(p, AccessKind::kRandom, ctx);
  }
  const int64_t pages_before = disk_->pages_read();
  pool_->FetchPage(200, AccessKind::kRandom, ctx);  // pool now recycles
  EXPECT_EQ(disk_->pages_read(), pages_before + 1);
}

TEST_F(BufferPoolTest, ChecksumVerificationCatchesCorruptDeviceContent) {
  // Corrupt a page directly on the device; the fetch must panic.
  std::vector<uint8_t> raw(kPage);
  PageView v(raw.data(), kPage);
  v.Format(77, PageType::kRaw);
  v.SealChecksum();
  raw[kPageHeaderSize + 5] ^= 0xFF;  // corrupt after sealing
  disk_dev_->store().Write(77, 1, raw, 0);
  IoContext ctx;
  EXPECT_DEATH(pool_->FetchPage(77, AccessKind::kRandom, ctx),
               "checksum mismatch");
}

TEST_F(BufferPoolTest, GuardMoveSemantics) {
  IoContext ctx;
  PageGuard a = pool_->FetchPage(1, AccessKind::kRandom, ctx);
  PageGuard b = std::move(a);
  EXPECT_FALSE(a.valid());
  EXPECT_TRUE(b.valid());
  EXPECT_EQ(b.page_id(), 1u);
  b.Release();
  EXPECT_FALSE(b.valid());
}

TEST_F(BufferPoolTest, SequentialKindRecordedOnFrames) {
  IoContext ctx;
  pool_->FetchPage(5, AccessKind::kSequential, ctx);
  // Re-fetch random: the kind follows the latest access.
  pool_->FetchPage(5, AccessKind::kRandom, ctx);
  EXPECT_EQ(pool_->stats().hits, 1);
}

TEST_F(BufferPoolTest, AllFramesPinnedPanics) {
  IoContext ctx;
  std::vector<PageGuard> guards;
  for (PageId p = 0; p < 8; ++p) {
    guards.push_back(pool_->FetchPage(p, AccessKind::kRandom, ctx));
  }
  EXPECT_DEATH(pool_->FetchPage(100, AccessKind::kRandom, ctx),
               "all frames pinned");
}

class BufferPoolDeathTest : public BufferPoolTest {};

// Checksum verification is always on: a disk page whose payload no longer
// matches its sealed checksum panics the fetch instead of being served.
TEST_F(BufferPoolDeathTest, CorruptDiskPagePanicsOnFetch) {
  std::vector<uint8_t> buf(kPage);
  ASSERT_TRUE(disk_dev_->store().Read(42, 1, buf, 0).ok());
  PageView(buf.data(), kPage).payload()[0] ^= 0xFF;
  ASSERT_TRUE(disk_dev_->store().Write(42, 1, buf, 0).ok());
  IoContext ctx;
  EXPECT_DEATH(pool_->FetchPage(42, AccessKind::kRandom, ctx),
               "page checksum mismatch");
}

}  // namespace
}  // namespace turbobp
