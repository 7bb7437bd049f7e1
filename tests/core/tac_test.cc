// TAC re-implementation tests (Section 2.5): extent-temperature accrual,
// admit-after-disk-read, logical invalidation (wasted space), revalidation
// on dirty eviction, the abandoned-admission pathology, and latch-busy
// modeling.

#include "core/tac.h"

#include <gtest/gtest.h>

#include <cstring>
#include <memory>

#include "sim/sim_executor.h"
#include "storage/page.h"
#include "storage/sim_device.h"

namespace turbobp {
namespace {

constexpr uint32_t kPage = 512;

class TacTest : public ::testing::Test {
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
    opts_.aggressive_fill = 0.75;
    opts_.throttle_queue_limit = 1000;
    cache_ = std::make_unique<TacCache>(ssd_dev_.get(), disk_.get(), opts_,
                                        executor_.get(), /*db_pages=*/4096,
                                        /*extent_pages=*/32);
  }

  std::vector<uint8_t> MakePage(PageId pid, uint8_t fill) {
    std::vector<uint8_t> buf(kPage, fill);
    PageView v(buf.data(), kPage);
    v.Format(pid, PageType::kRaw);
    std::memset(v.payload(), fill, v.payload_bytes());
    v.SealChecksum();
    return buf;
  }

  IoContext Ctx() {
    IoContext ctx;
    ctx.now = executor_->now();
    ctx.executor = executor_.get();
    return ctx;
  }

  // A page miss followed by a disk read, as the buffer pool reports them.
  void MissAndRead(PageId pid) {
    IoContext ctx = Ctx();
    cache_->OnBufferPoolMiss(pid, AccessKind::kRandom, ctx);
    auto page = MakePage(pid, static_cast<uint8_t>(pid));
    cache_->OnDiskRead(pid, page, AccessKind::kRandom, ctx);
  }

  std::unique_ptr<SimExecutor> executor_;
  std::unique_ptr<SimDevice> ssd_dev_;
  std::unique_ptr<SimDevice> disk_dev_;
  std::unique_ptr<DiskManager> disk_;
  SsdCacheOptions opts_;
  std::unique_ptr<TacCache> cache_;
};

TEST_F(TacTest, MissesHeatTheExtent) {
  EXPECT_DOUBLE_EQ(cache_->ExtentTemperature(5), 0.0);
  IoContext ctx = Ctx();
  cache_->OnBufferPoolMiss(5, AccessKind::kRandom, ctx);
  const double t1 = cache_->ExtentTemperature(5);
  EXPECT_GT(t1, 0.0);
  // Pages of the same 32-page extent share the temperature.
  EXPECT_DOUBLE_EQ(cache_->ExtentTemperature(31), t1);
  EXPECT_DOUBLE_EQ(cache_->ExtentTemperature(32), 0.0);
  cache_->OnBufferPoolMiss(6, AccessKind::kRandom, ctx);
  EXPECT_GT(cache_->ExtentTemperature(5), t1);
}

TEST_F(TacTest, SequentialMissesAddLittleHeat) {
  IoContext ctx = Ctx();
  cache_->OnBufferPoolMiss(0, AccessKind::kRandom, ctx);
  const double random_heat = cache_->ExtentTemperature(0);
  cache_->OnBufferPoolMiss(64, AccessKind::kSequential, ctx);
  const double seq_heat = cache_->ExtentTemperature(64);
  // Sequential reads save little vs. the disks: much less temperature.
  EXPECT_LT(seq_heat, random_heat / 5);
}

TEST_F(TacTest, AdmitsImmediatelyAfterDiskRead) {
  MissAndRead(7);
  executor_->RunUntilIdle();  // let the delayed admission commit
  EXPECT_EQ(cache_->Probe(7), SsdProbe::kCleanCopy);
  EXPECT_EQ(cache_->stats().admissions, 1);
}

TEST_F(TacTest, AdmissionAbandonedIfPageDirtiedFirst) {
  MissAndRead(9);
  // The page is dirtied before the delayed admission write begins.
  cache_->OnPageDirtied(9);
  executor_->RunUntilIdle();
  EXPECT_EQ(cache_->Probe(9), SsdProbe::kAbsent);
  EXPECT_EQ(cache_->stats().admissions, 0);
  // And since no invalid version exists, a dirty eviction skips the SSD.
  IoContext ctx = Ctx();
  auto page = MakePage(9, 0x99);
  const EvictionOutcome outcome =
      cache_->OnEvictDirty(9, page, AccessKind::kRandom, 1, ctx);
  EXPECT_TRUE(outcome.write_to_disk);
  EXPECT_FALSE(outcome.cached_on_ssd);
}

TEST_F(TacTest, LogicalInvalidationWastesSpace) {
  MissAndRead(3);
  executor_->RunUntilIdle();
  ASSERT_EQ(cache_->Probe(3), SsdProbe::kCleanCopy);
  const int64_t used_before = cache_->stats().used_frames;
  cache_->OnPageDirtied(3);
  // Logically invalid: unusable, but the frame is NOT reclaimed.
  EXPECT_EQ(cache_->Probe(3), SsdProbe::kAbsent);
  EXPECT_EQ(cache_->stats().used_frames, used_before);
  EXPECT_EQ(cache_->wasted_frames(), 1);
}

TEST_F(TacTest, DirtyEvictionRevalidatesInvalidVersion) {
  MissAndRead(3);
  executor_->RunUntilIdle();
  cache_->OnPageDirtied(3);
  ASSERT_EQ(cache_->wasted_frames(), 1);
  IoContext ctx = Ctx();
  auto page = MakePage(3, 0xAB);
  const EvictionOutcome outcome =
      cache_->OnEvictDirty(3, page, AccessKind::kRandom, 1, ctx);
  EXPECT_TRUE(outcome.write_to_disk);  // TAC is write-through
  EXPECT_TRUE(outcome.cached_on_ssd);
  EXPECT_EQ(cache_->Probe(3), SsdProbe::kCleanCopy);
  EXPECT_EQ(cache_->wasted_frames(), 0);
}

TEST_F(TacTest, CleanEvictionsAreIgnored) {
  IoContext ctx = Ctx();
  auto page = MakePage(11, 0x11);
  cache_->OnEvictClean(11, page, AccessKind::kRandom, ctx);
  EXPECT_EQ(cache_->Probe(11), SsdProbe::kAbsent);
}

TEST_F(TacTest, LatchBusyWhileAdmissionWriteInFlight) {
  MissAndRead(13);
  executor_->RunUntilIdle();
  // Immediately after the commit the latch was busy until the SSD write's
  // completion; by idle time it has already been released.
  EXPECT_EQ(cache_->LatchBusyUntil(13, executor_->now() + Seconds(10)), 0);
  // A fresh admission: query before its completion time.
  MissAndRead(14);
  executor_->RunUntil(executor_->now() + Micros(250));  // commit fires
  const Time busy = cache_->LatchBusyUntil(14, executor_->now());
  EXPECT_GT(busy, executor_->now());
}

TEST_F(TacTest, ColdExtentsLoseToHotOnesWhenFull) {
  // Single partition so the cache fills completely and deterministically.
  opts_.num_partitions = 1;
  cache_ = std::make_unique<TacCache>(ssd_dev_.get(), disk_.get(), opts_,
                                      executor_.get(), 4096, 32);
  // Fill the cache (fill phase admits everything).
  for (PageId p = 0; p < 16; ++p) MissAndRead(p * 32);  // one extent each
  executor_->RunUntilIdle();
  ASSERT_EQ(cache_->stats().used_frames, 16);
  // Heat one new extent far above the rest.
  IoContext ctx = Ctx();
  const PageId hot = 3000;
  for (int i = 0; i < 50; ++i) cache_->OnBufferPoolMiss(hot, AccessKind::kRandom, ctx);
  MissAndRead(hot);
  executor_->RunUntilIdle();
  EXPECT_EQ(cache_->Probe(hot), SsdProbe::kCleanCopy);
  // A stone-cold page cannot displace anything.
  const PageId cold = 3500;
  IoContext ctx2 = Ctx();
  auto page = MakePage(cold, 1);
  cache_->OnDiskRead(cold, page, AccessKind::kRandom, ctx2);
  executor_->RunUntilIdle();
  EXPECT_EQ(cache_->Probe(cold), SsdProbe::kAbsent);
}

TEST_F(TacTest, SsdHitsDoNotSaveAColdExtentFromReplacement) {
  // TAC's replacement key is the extent temperature alone: re-referencing a
  // cold page from the SSD (which would protect it under LRU-2) must not
  // keep a hotter extent out.
  opts_.num_partitions = 1;
  cache_ = std::make_unique<TacCache>(ssd_dev_.get(), disk_.get(), opts_,
                                      executor_.get(), 4096, 32);
  // Extent 0 is heated once, every other cached extent twice.
  const PageId cold = 0;
  MissAndRead(cold);
  for (PageId p = 1; p < 16; ++p) {
    IoContext ctx = Ctx();
    cache_->OnBufferPoolMiss(p * 32, AccessKind::kRandom, ctx);
    MissAndRead(p * 32);
  }
  executor_->RunUntilIdle();
  ASSERT_EQ(cache_->stats().used_frames, 16);
  std::vector<uint8_t> out(kPage);
  for (int i = 1; i <= 3; ++i) {
    IoContext ctx = Ctx();
    ctx.now += Millis(10 * i);
    ASSERT_TRUE(cache_->TryReadPage(cold, out, ctx));
  }
  // A hotter extent arrives and replaces the cold page, hits and all.
  const PageId hot = 3000;
  IoContext ctx = Ctx();
  for (int i = 0; i < 5; ++i) {
    cache_->OnBufferPoolMiss(hot, AccessKind::kRandom, ctx);
  }
  MissAndRead(hot);
  executor_->RunUntilIdle();
  EXPECT_EQ(cache_->Probe(hot), SsdProbe::kCleanCopy);
  EXPECT_EQ(cache_->Probe(cold), SsdProbe::kAbsent);
  for (PageId p = 1; p < 16; ++p) {
    EXPECT_EQ(cache_->Probe(p * 32), SsdProbe::kCleanCopy) << "page " << p * 32;
  }
}

TEST_F(TacTest, NeverHoldsDirtySsdPages) {
  MissAndRead(1);
  executor_->RunUntilIdle();
  IoContext ctx = Ctx();
  auto page = MakePage(2, 2);
  cache_->OnEvictDirty(2, page, AccessKind::kRandom, 1, ctx);
  EXPECT_EQ(cache_->stats().dirty_frames, 0);
  EXPECT_EQ(cache_->FlushAllDirty(ctx).time, ctx.now);  // nothing to flush
}

}  // namespace
}  // namespace turbobp
