// SsdCacheBase fault handling over a FaultInjectingDevice: checksum
// verification on the read path, frame quarantine, bounded retry of
// transients, graceful degradation to pass-through mode, LC's emergency
// cleaner flush, and lost-page accounting.

#include <gtest/gtest.h>

#include <cstring>
#include <memory>

#include "core/clean_write.h"
#include "core/dual_write.h"
#include "core/lazy_cleaning.h"
#include "debug/invariant_auditor.h"
#include "fault/crash_point.h"
#include "fault/fault_injecting_device.h"
#include "sim/sim_executor.h"
#include "storage/page.h"
#include "storage/sim_device.h"

namespace turbobp {
namespace {

constexpr uint32_t kPage = 512;

class FaultyCacheTest : public ::testing::TestWithParam<SsdDesign> {
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
    opts_.lc_dirty_fraction = 0.5;
    opts_.lc_group_pages = 4;
    opts_.io_retry_limit = 3;
    // Keep quarantine tests away from the degradation threshold unless a
    // test lowers it on purpose.
    opts_.degrade_error_limit = 1000;
  }

  void Build(const FaultPlan& plan) {
    fault_dev_ =
        std::make_unique<FaultInjectingDevice>(ssd_dev_.get(), plan);
    switch (GetParam()) {
      case SsdDesign::kCleanWrite:
        cache_ = std::make_unique<CleanWriteCache>(
            fault_dev_.get(), disk_.get(), opts_, executor_.get());
        break;
      case SsdDesign::kDualWrite:
        cache_ = std::make_unique<DualWriteCache>(
            fault_dev_.get(), disk_.get(), opts_, executor_.get());
        break;
      case SsdDesign::kLazyCleaning:
        cache_ = std::make_unique<LazyCleaningCache>(
            fault_dev_.get(), disk_.get(), opts_, executor_.get());
        break;
      default:
        FAIL() << "unsupported design for this fixture";
    }
  }

  std::vector<uint8_t> MakePage(PageId pid, uint8_t fill) {
    std::vector<uint8_t> buf(kPage, fill);
    PageView v(buf.data(), kPage);
    v.Format(pid, PageType::kRaw);
    std::memset(v.payload(), fill, v.payload_bytes());
    v.SealChecksum();
    return buf;
  }

  IoContext Ctx(Time now = 0) {
    IoContext ctx;
    ctx.now = std::max(now, executor_->now());
    ctx.executor = executor_.get();
    return ctx;
  }

  void AdmitClean(PageId pid, Time now = 0) {
    IoContext ctx = Ctx(now);
    auto page = MakePage(pid, static_cast<uint8_t>(pid));
    cache_->OnEvictClean(pid, page, AccessKind::kRandom, ctx);
  }

  SsdCacheBase& cache() { return *static_cast<SsdCacheBase*>(cache_.get()); }

  std::unique_ptr<SimExecutor> executor_;
  std::unique_ptr<SimDevice> ssd_dev_;
  std::unique_ptr<SimDevice> disk_dev_;
  std::unique_ptr<DiskManager> disk_;
  std::unique_ptr<FaultInjectingDevice> fault_dev_;
  SsdCacheOptions opts_;
  std::unique_ptr<SsdManager> cache_;
};

TEST_P(FaultyCacheTest, TornAdmissionWriteIsQuarantinedServedFromDisk) {
  FaultPlan plan;
  plan.scripted[0] = FaultKind::kTornWrite;  // the admission write tears
  Build(plan);
  AdmitClean(7);
  EXPECT_EQ(cache_->Probe(7), SsdProbe::kCleanCopy);  // the tear was silent

  // The read detects the damage via the page checksum, retries (the medium
  // really is torn, so re-reads do not help), quarantines the frame and
  // reports a plain miss: the pool falls back to the identical disk copy
  // with no client-visible error.
  std::vector<uint8_t> out(kPage);
  IoContext ctx = Ctx(Seconds(1));
  Status error;
  EXPECT_FALSE(cache_->TryReadPage(7, out, ctx, &error));
  EXPECT_TRUE(error.ok()) << error.ToString();

  const SsdManagerStats s = cache_->stats();
  EXPECT_EQ(s.quarantined_frames, 1);
  EXPECT_GE(s.frame_corruptions, opts_.io_retry_limit);  // every re-read failed
  EXPECT_EQ(s.lost_pages, 0);  // a clean copy also lives on disk
  EXPECT_FALSE(s.degraded);
  EXPECT_EQ(cache_->Probe(7), SsdProbe::kAbsent);

  // The structure survives the quarantine intact (frame not freed, not
  // hashed, not heaped; gauges reconcile).
  const AuditReport audit = InvariantAuditor::AuditSsdCache(cache());
  EXPECT_TRUE(audit.ok()) << audit.ToString();

  // The quarantined frame is never reused: re-admitting the page lands on a
  // different frame and works.
  AdmitClean(7, Seconds(2));
  IoContext ctx2 = Ctx(Seconds(3));
  EXPECT_TRUE(cache_->TryReadPage(7, out, ctx2));
  EXPECT_EQ(cache_->stats().quarantined_frames, 1);
}

TEST_P(FaultyCacheTest, TransientReadErrorHealsWithinRetryBudget) {
  FaultPlan plan;
  plan.scripted[1] = FaultKind::kTransientError;  // first read attempt fails
  Build(plan);
  AdmitClean(9);
  std::vector<uint8_t> out(kPage);
  IoContext ctx = Ctx(Seconds(1));
  EXPECT_TRUE(cache_->TryReadPage(9, out, ctx));
  PageView v(out.data(), kPage);
  EXPECT_EQ(v.header().page_id, 9u);
  EXPECT_TRUE(v.VerifyChecksum());

  const SsdManagerStats s = cache_->stats();
  EXPECT_EQ(s.hits, 1);
  EXPECT_GE(s.read_retries, 1);
  EXPECT_EQ(s.device_read_errors, 1);
  EXPECT_EQ(s.quarantined_frames, 0);
  EXPECT_FALSE(s.degraded);
}

TEST_P(FaultyCacheTest, TransientBitFlipHealsViaReRead) {
  FaultPlan plan;
  plan.scripted[1] = FaultKind::kBitFlip;  // one flipped bit on the wire
  Build(plan);
  AdmitClean(4);
  std::vector<uint8_t> out(kPage);
  IoContext ctx = Ctx(Seconds(1));
  // The checksum catches the flip; the re-read returns clean data (the
  // medium was never damaged), so nothing is quarantined.
  EXPECT_TRUE(cache_->TryReadPage(4, out, ctx));
  EXPECT_TRUE(PageView(out.data(), kPage).VerifyChecksum());
  const SsdManagerStats s = cache_->stats();
  EXPECT_GE(s.frame_corruptions, 1);
  EXPECT_GE(s.read_retries, 1);
  EXPECT_EQ(s.quarantined_frames, 0);
}

TEST_P(FaultyCacheTest, DeadDeviceDegradesToPassThrough) {
  opts_.degrade_error_limit = 3;
  Build(FaultPlan::Healthy());
  AdmitClean(1);
  AdmitClean(2, Millis(1));
  EXPECT_EQ(cache_->Probe(1), SsdProbe::kCleanCopy);

  // The SSD dies mid-run. Every subsequent operation fails until the error
  // budget is exhausted, after which the cache flips to pass-through and
  // never touches the device again.
  fault_dev_->ForceOffline();
  for (int i = 0; i < 10 && !cache_->degraded(); ++i) {
    AdmitClean(static_cast<PageId>(10 + i), Millis(2 + i));
  }
  EXPECT_TRUE(cache_->degraded());
  EXPECT_TRUE(cache_->stats().degraded);

  // Pass-through: probes miss, reads miss, admissions are no-ops — exactly
  // the NoSsdManager contract; the run continues on disk alone.
  EXPECT_EQ(cache_->Probe(1), SsdProbe::kAbsent);
  std::vector<uint8_t> out(kPage);
  IoContext ctx = Ctx(Seconds(1));
  Status error;
  EXPECT_FALSE(cache_->TryReadPage(1, out, ctx, &error));
  EXPECT_TRUE(error.ok());
  const int64_t rejects_before = fault_dev_->fault_stats().offline_rejects;
  AdmitClean(33, Seconds(2));
  IoContext dctx = Ctx(Seconds(2));
  const EvictionOutcome outcome = cache_->OnEvictDirty(
      34, MakePage(34, 34), AccessKind::kRandom, kInvalidLsn, dctx);
  EXPECT_TRUE(outcome.write_to_disk);
  EXPECT_FALSE(outcome.cached_on_ssd);
  // Degraded mode stopped issuing device I/O entirely.
  EXPECT_EQ(fault_dev_->fault_stats().offline_rejects, rejects_before);

  const AuditReport audit = InvariantAuditor::AuditSsdCache(cache());
  EXPECT_TRUE(audit.ok()) << audit.ToString();
}

// Degrade() is not terminal: it runs every partition through the same
// salvage+purge+publish sequence an exhausted error budget triggers, so the
// patrol scrubber heals those partitions like any other once the device
// proves healthy — and keeps them down while it does not.
TEST_P(FaultyCacheTest, DegradeHealsOnAHealthyDeviceButNotAnOfflineOne) {
  Build(FaultPlan::Healthy());
  AdmitClean(1);
  AdmitClean(2, Millis(1));
  const int64_t partitions =
      static_cast<int64_t>(cache().partition_count());

  IoContext ctx = Ctx(Seconds(1));
  cache().Degrade(ctx);
  EXPECT_TRUE(cache_->degraded());
  EXPECT_EQ(cache().degraded_partition_count(), partitions);
  EXPECT_EQ(cache_->Probe(1), SsdProbe::kAbsent);

  // Inside the quiet window no canary runs: nothing heals yet.
  IoContext early = Ctx(opts_.quiet_window / 2);
  cache().ScrubTick(early);
  EXPECT_TRUE(cache_->degraded());

  // Past it, one patrol tick probes and re-enables every partition.
  IoContext late = Ctx(opts_.quiet_window + Seconds(1));
  cache().ScrubTick(late);
  EXPECT_FALSE(cache_->degraded());
  EXPECT_EQ(cache().degraded_partition_count(), 0);
  SsdManagerStats s = cache_->stats();
  EXPECT_FALSE(s.degraded);
  EXPECT_EQ(s.partitions_degraded, partitions);
  EXPECT_EQ(s.partitions_recovered, partitions);

  // Healed means serving: a fresh admission reads back from the SSD.
  AdmitClean(3, opts_.quiet_window + Seconds(2));
  std::vector<uint8_t> out(kPage);
  IoContext rctx = Ctx(opts_.quiet_window + Seconds(3));
  EXPECT_TRUE(cache_->TryReadPage(3, out, rctx));
  EXPECT_EQ(out, MakePage(3, 3));

  // A dead device fails every canary: the cache stays in pass-through no
  // matter how long it stays quiet.
  fault_dev_->ForceOffline();
  IoContext dctx = Ctx(opts_.quiet_window + Seconds(4));
  cache().Degrade(dctx);
  for (int i = 1; i <= 4; ++i) {
    IoContext tick = Ctx(opts_.quiet_window * (2 * i) + Seconds(4));
    cache().ScrubTick(tick);
    EXPECT_TRUE(cache_->degraded()) << "tick " << i;
  }
  s = cache_->stats();
  EXPECT_TRUE(s.degraded);
  EXPECT_EQ(s.partitions_recovered, partitions);

  const AuditReport audit = InvariantAuditor::AuditSsdCache(cache());
  EXPECT_TRUE(audit.ok()) << audit.ToString();
}

INSTANTIATE_TEST_SUITE_P(Designs, FaultyCacheTest,
                         ::testing::Values(SsdDesign::kCleanWrite,
                                           SsdDesign::kDualWrite,
                                           SsdDesign::kLazyCleaning),
                         [](const auto& param_info) {
                           return std::string(ToString(param_info.param));
                         });

// ------------------------------------------------------------------ LC only

class LcFaultTest : public ::testing::Test {
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
    opts_.throttle_queue_limit = 1000;
    opts_.lc_dirty_fraction = 0.5;  // cleaner stays asleep below 8 dirty
    opts_.lc_group_pages = 4;
    opts_.degrade_error_limit = 1000;
  }

  void Build(const FaultPlan& plan) {
    fault_dev_ =
        std::make_unique<FaultInjectingDevice>(ssd_dev_.get(), plan);
    lc_ = std::make_unique<LazyCleaningCache>(fault_dev_.get(), disk_.get(),
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

  IoContext Ctx(Time now = 0) {
    IoContext ctx;
    ctx.now = std::max(now, executor_->now());
    ctx.executor = executor_.get();
    return ctx;
  }

  // Evicts a dirty page; with LC this is absorbed by the SSD (write-back).
  void AdmitDirty(PageId pid, Time now = 0) {
    IoContext ctx = Ctx(now);
    auto page = MakePage(pid, static_cast<uint8_t>(pid));
    const EvictionOutcome out = lc_->OnEvictDirty(
        pid, page, AccessKind::kRandom, kInvalidLsn, ctx);
    ASSERT_TRUE(out.cached_on_ssd);
    ASSERT_FALSE(out.write_to_disk);
  }

  std::unique_ptr<SimExecutor> executor_;
  std::unique_ptr<SimDevice> ssd_dev_;
  std::unique_ptr<SimDevice> disk_dev_;
  std::unique_ptr<DiskManager> disk_;
  std::unique_ptr<FaultInjectingDevice> fault_dev_;
  SsdCacheOptions opts_;
  std::unique_ptr<LazyCleaningCache> lc_;
};

TEST_F(LcFaultTest, EmergencyFlushSalvagesDirtyFramesOnDegrade) {
  Build(FaultPlan::Healthy());
  AdmitDirty(11);
  AdmitDirty(12, Millis(1));
  AdmitDirty(13, Millis(2));
  ASSERT_EQ(lc_->dirty_frames(), 3);

  // Operator (or threshold) gives up on the SSD while it still answers:
  // the emergency cleaner flush copies every dirty frame to disk first —
  // they hold the only current copies (Section 2.3's safety argument).
  IoContext ctx = Ctx(Seconds(1));
  lc_->Degrade(ctx);
  EXPECT_TRUE(lc_->degraded());
  EXPECT_EQ(lc_->dirty_frames(), 0);
  const SsdManagerStats s = lc_->stats();
  EXPECT_EQ(s.emergency_cleaned, 3);
  EXPECT_EQ(s.lost_pages, 0);

  // The disk now holds the salvaged content.
  for (PageId pid : {PageId(11), PageId(12), PageId(13)}) {
    std::vector<uint8_t> buf(kPage);
    IoContext read_ctx = Ctx(Seconds(2));
    read_ctx.charge = false;
    ASSERT_TRUE(disk_->ReadPage(pid, buf, read_ctx).ok());
    PageView v(buf.data(), kPage);
    EXPECT_EQ(v.header().page_id, pid);
    EXPECT_TRUE(v.VerifyChecksum());
    EXPECT_EQ(v.payload()[0], static_cast<uint8_t>(pid));
  }

  const AuditReport audit = InvariantAuditor::AuditSsdCache(*lc_);
  EXPECT_TRUE(audit.ok()) << audit.ToString();
}

TEST_F(LcFaultTest, UnsalvageableDirtyFrameBecomesALostPage) {
  Build(FaultPlan::Healthy());
  AdmitDirty(21);
  AdmitDirty(22, Millis(1));
  ASSERT_EQ(lc_->dirty_frames(), 2);

  // The device drops dead before anything can be salvaged: the emergency
  // flush cannot read the frames back, so their pages are lost.
  fault_dev_->ForceOffline();
  IoContext ctx = Ctx(Seconds(1));
  lc_->Degrade(ctx);
  EXPECT_TRUE(lc_->degraded());
  EXPECT_EQ(lc_->dirty_frames(), 0);

  const SsdManagerStats s = lc_->stats();
  EXPECT_EQ(s.emergency_cleaned, 0);
  EXPECT_EQ(s.lost_pages, 2);
  EXPECT_EQ(s.quarantined_frames, 2);
  EXPECT_TRUE(lc_->IsLostPage(21));
  EXPECT_TRUE(lc_->IsLostPage(22));

  // Reads of a lost page fail HARD: the disk copy is stale, so a silent
  // fallback would corrupt the database. Probe advertises the (dead) newer
  // copy so multi-page disk reads cannot slip a stale version in either.
  EXPECT_EQ(lc_->Probe(21), SsdProbe::kNewerCopy);
  std::vector<uint8_t> out(kPage);
  IoContext rctx = Ctx(Seconds(2));
  Status error;
  EXPECT_FALSE(lc_->TryReadPage(21, out, rctx, &error));
  EXPECT_FALSE(error.ok());

  // A full-page rewrite supersedes the lost copy and clears the tombstone.
  lc_->OnPageDirtied(21);
  EXPECT_FALSE(lc_->IsLostPage(21));
  EXPECT_EQ(lc_->Probe(21), SsdProbe::kAbsent);
  EXPECT_EQ(lc_->stats().lost_pages, 1);

  const AuditReport audit = InvariantAuditor::AuditSsdCache(*lc_);
  EXPECT_TRUE(audit.ok()) << audit.ToString();
}

// Records what a concurrent reader could observe at each salvage step: the
// "lc/degrade-salvage" point fires once per salvaged frame, while the
// partition still holds dirty frames. partition_degraded() is exactly the
// lock-free signal readers use to bypass the latch and fall back to disk.
class DegradePublishObserver : public CrashPointObserver {
 public:
  explicit DegradePublishObserver(const SsdCacheBase* cache)
      : cache_(cache) {}

  void OnCrashPoint(const char* name) override {
    if (std::strcmp(name, "lc/degrade-salvage") != 0) return;
    ++salvage_hits_;
    flag_seen_mid_salvage_ |= cache_->partition_degraded(0);
  }

  int salvage_hits_ = 0;
  bool flag_seen_mid_salvage_ = false;

 private:
  const SsdCacheBase* cache_;
};

TEST_F(LcFaultTest, PassThroughFlagIsPublishedOnlyAfterSalvageAndPurge) {
  if (!CrashPointsCompiledIn()) GTEST_SKIP() << "crash points compiled out";
  // Single partition, so every page maps to index 0 and the observer can
  // watch the one flag that matters.
  opts_.num_partitions = 1;
  Build(FaultPlan::Healthy());
  AdmitDirty(41);
  AdmitDirty(42, Millis(1));
  AdmitDirty(43, Millis(2));
  ASSERT_EQ(lc_->dirty_frames(), 3);

  // Regression pin: part.degraded used to be set BEFORE the salvage ran.
  // TryReadPage and Probe trust that flag without taking the partition
  // latch ("degraded => purged => disk fallback safe"), so for the whole
  // salvage window — hundreds of device writes on a real degrade — a
  // concurrent reader was handed the stale disk copy of a page whose only
  // current version was a dirty frame still awaiting salvage: silent lost
  // updates. The flag must not be observable until salvage AND purge are
  // done.
  DegradePublishObserver observer(lc_.get());
  {
    ScopedCrashArm arm(&observer);
    IoContext ctx = Ctx(Seconds(1));
    lc_->DegradePartitionAt(0, ctx);
  }
  EXPECT_EQ(observer.salvage_hits_, 3);
  EXPECT_FALSE(observer.flag_seen_mid_salvage_)
      << "pass-through flag visible while dirty frames awaited salvage";

  // After the sequence the flag is up, the partition is empty, and the
  // salvaged content reached the disk.
  EXPECT_TRUE(lc_->partition_degraded(0));
  EXPECT_EQ(lc_->dirty_frames(), 0);
  EXPECT_EQ(lc_->stats().emergency_cleaned, 3);
  EXPECT_EQ(lc_->stats().lost_pages, 0);
  for (PageId pid : {PageId(41), PageId(42), PageId(43)}) {
    std::vector<uint8_t> buf(kPage);
    IoContext read_ctx = Ctx(Seconds(2));
    read_ctx.charge = false;
    ASSERT_TRUE(disk_->ReadPage(pid, buf, read_ctx).ok());
    PageView v(buf.data(), kPage);
    EXPECT_EQ(v.header().page_id, pid);
    EXPECT_TRUE(v.VerifyChecksum());
    EXPECT_EQ(v.payload()[0], static_cast<uint8_t>(pid));
  }
  const AuditReport audit = InvariantAuditor::AuditSsdCache(*lc_);
  EXPECT_TRUE(audit.ok()) << audit.ToString();

  // Admissions into the degraded partition are refused (the double-check
  // under the latch), so no frame can be stranded invisibly behind the
  // pass-through flag.
  IoContext dctx = Ctx(Seconds(3));
  const EvictionOutcome out = lc_->OnEvictDirty(
      44, MakePage(44, 44), AccessKind::kRandom, kInvalidLsn, dctx);
  EXPECT_TRUE(out.write_to_disk);
  EXPECT_FALSE(out.cached_on_ssd);
  EXPECT_EQ(lc_->used_frames(), 0);
}

TEST_F(LcFaultTest, CleanerQuarantinesCorruptFrameInsteadOfPropagating) {
  // The background cleaner reads a dirty frame whose medium is damaged (a
  // torn admission write): it must quarantine the frame and record the page
  // as lost rather than copy damaged bytes over the disk's intact copy.
  FaultPlan plan;
  plan.scripted[0] = FaultKind::kTornWrite;  // page 31's admission tears
  Build(plan);
  AdmitDirty(31);
  AdmitDirty(32, Millis(1));
  ASSERT_EQ(lc_->dirty_frames(), 2);

  IoContext ctx = Ctx(Seconds(1));
  const IoResult done = lc_->FlushAllDirty(ctx);
  EXPECT_GE(done.time, ctx.now);
  EXPECT_EQ(lc_->dirty_frames(), 0);
  // A page was lost mid-drain: the flush must report failure so the
  // checkpoint does not advance the recovery LSN past the only log records
  // able to heal the lost page.
  EXPECT_FALSE(done.ok());

  const SsdManagerStats s = lc_->stats();
  EXPECT_EQ(s.quarantined_frames, 1);
  EXPECT_EQ(s.lost_pages, 1);
  EXPECT_EQ(s.checkpoint_flush_failures, 1);
  EXPECT_TRUE(lc_->IsLostPage(31));
  EXPECT_FALSE(lc_->IsLostPage(32));

  // Page 32 was cleaned to disk; page 31's damaged bytes were NOT.
  std::vector<uint8_t> buf(kPage);
  IoContext read_ctx = Ctx(Seconds(2));
  read_ctx.charge = false;
  ASSERT_TRUE(disk_->ReadPage(32, buf, read_ctx).ok());
  EXPECT_TRUE(PageView(buf.data(), kPage).VerifyChecksum());

  const AuditReport audit = InvariantAuditor::AuditSsdCache(*lc_);
  EXPECT_TRUE(audit.ok()) << audit.ToString();
}

}  // namespace
}  // namespace turbobp
