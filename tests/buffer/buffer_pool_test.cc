#include "buffer/buffer_pool.h"

#include <gtest/gtest.h>

#include <cstring>
#include <memory>

#include "core/lazy_cleaning.h"
#include "sim/sim_executor.h"
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

// The page table has one entry per disk page: a page id at or past the
// disk's end panics FetchPage, NewPage and Contains in every build type
// (TURBOBP_CHECK, not a debug-only check) instead of indexing past it.
TEST_F(BufferPoolDeathTest, PageIdPastDiskEndPanics) {
  const PageId end = disk_dev_->num_pages();
  IoContext ctx;
  EXPECT_DEATH(pool_->FetchPage(end, AccessKind::kRandom, ctx),
               "pid < page_table_");
  EXPECT_DEATH(pool_->NewPage(end + 7, PageType::kRaw, ctx),
               "pid < page_table_");
  EXPECT_DEATH(pool_->Contains(kInvalidPageId), "pid < page_table_");
  // The last page is in range.
  { PageGuard g = pool_->FetchPage(end - 1, AccessKind::kRandom, ctx); }
  EXPECT_TRUE(pool_->Contains(end - 1));
}

// The SSD verifies each hit once, where it reads the frame, and the pool
// trusts that check. Detection must survive: a corrupt SSD frame is
// quarantined and the disk copy served, or, when the frame held the only
// current copy, the fetch fails instead of serving the stale disk copy.
class SsdFrameCorruptionTest : public BufferPoolTest {
 protected:
  void SetUp() override {
    BufferPoolTest::SetUp();
    executor_ = std::make_unique<SimExecutor>();
    ssd_dev_ = std::make_unique<SimDevice>(64, kPage,
                                           std::make_unique<SsdModel>());
    SsdCacheOptions sopts;
    sopts.num_frames = 32;
    sopts.num_partitions = 1;
    ssd_ = std::make_unique<LazyCleaningCache>(ssd_dev_.get(), disk_.get(),
                                               sopts, executor_.get());
    pool_->set_ssd_manager(ssd_.get());
    ctx_.executor = executor_.get();
    ctx_.now = Seconds(1);  // every admission write below has landed
  }

  std::vector<uint8_t> DiskImage(PageId pid) {
    std::vector<uint8_t> buf(kPage);
    EXPECT_TRUE(disk_dev_->store().Read(pid, 1, buf, 0).ok());
    return buf;
  }

  // Caches the disk's own image of `pid` on the SSD as a clean copy.
  void AdmitClean(PageId pid) {
    IoContext ctx;
    ctx.executor = executor_.get();
    ssd_->OnEvictClean(pid, DiskImage(pid), AccessKind::kRandom, ctx);
    ASSERT_EQ(ssd_->Probe(pid), SsdProbe::kCleanCopy);
  }

  // Flips a payload byte of the SSD frame holding `pid`.
  void CorruptSsdFrame(PageId pid) {
    for (const auto& e : ssd_->SnapshotForCheckpoint()) {
      if (e.page_id != pid) continue;
      std::vector<uint8_t> buf(kPage);
      ASSERT_TRUE(ssd_dev_->store().Read(e.frame, 1, buf, 0).ok());
      buf[kPageHeaderSize] ^= 0xFF;
      ASSERT_TRUE(ssd_dev_->store().Write(e.frame, 1, buf, 0).ok());
      return;
    }
    FAIL() << "page " << pid << " is not cached on the ssd";
  }

  // The pool's resident image of `pid` is byte-identical to the disk's.
  void ExpectServedFromDisk(PageId pid) {
    PageGuard g = pool_->FetchPage(pid, AccessKind::kRandom, ctx_);
    ASSERT_TRUE(g.valid());
    EXPECT_EQ(std::memcmp(g.view().data(), DiskImage(pid).data(), kPage), 0)
        << "page " << pid;
  }

  std::unique_ptr<SimExecutor> executor_;
  std::unique_ptr<SimDevice> ssd_dev_;
  std::unique_ptr<LazyCleaningCache> ssd_;
  IoContext ctx_;
};

TEST_F(SsdFrameCorruptionTest, CorruptCleanFrameFallsBackToDisk) {
  AdmitClean(42);
  CorruptSsdFrame(42);
  ExpectServedFromDisk(42);
  EXPECT_EQ(pool_->stats().ssd_hits, 0);
  EXPECT_GE(ssd_->stats().frame_corruptions, 1);
  EXPECT_EQ(ssd_->stats().quarantined_frames, 1);
  EXPECT_EQ(ssd_->Probe(42), SsdProbe::kAbsent);
}

TEST_F(SsdFrameCorruptionTest, CorruptTrimmedEndsOfReadAheadFallBackToDisk) {
  AdmitClean(100);  // leading end of the range
  AdmitClean(107);  // trailing end
  CorruptSsdFrame(100);
  CorruptSsdFrame(107);
  pool_->PrefetchRange(100, 8, ctx_);
  // Neither end could be trimmed off: the whole range came from the disk.
  EXPECT_EQ(pool_->stats().ssd_hits, 0);
  EXPECT_EQ(pool_->stats().disk_page_reads, 8);
  EXPECT_GE(ssd_->stats().frame_corruptions, 2);
  EXPECT_EQ(ssd_->stats().quarantined_frames, 2);
  for (PageId p = 100; p < 108; ++p) {
    ASSERT_TRUE(pool_->Contains(p)) << p;
    ExpectServedFromDisk(p);
  }
}

TEST_F(SsdFrameCorruptionTest, CorruptDirtyFrameFailsTheFetch) {
  std::vector<uint8_t> newer = DiskImage(9);
  PageView v(newer.data(), kPage);
  v.header().lsn = 5;
  v.payload()[0] = 0xAB;
  v.SealChecksum();
  IoContext ectx;
  ectx.executor = executor_.get();
  ASSERT_TRUE(
      ssd_->OnEvictDirty(9, newer, AccessKind::kRandom, 5, ectx).cached_on_ssd);
  ASSERT_EQ(ssd_->Probe(9), SsdProbe::kNewerCopy);
  CorruptSsdFrame(9);
  Status status;
  PageGuard g = pool_->FetchPage(9, AccessKind::kRandom, ctx_, &status);
  EXPECT_FALSE(g.valid()) << "the stale disk copy was served";
  EXPECT_TRUE(status.IsIoError()) << status.ToString();
  EXPECT_EQ(status.message(), "newest copy of page lost with the ssd");
  EXPECT_FALSE(pool_->Contains(9));
  EXPECT_GE(ssd_->stats().frame_corruptions, 1);
  EXPECT_EQ(ssd_->stats().lost_pages, 1);
}

}  // namespace
}  // namespace turbobp
