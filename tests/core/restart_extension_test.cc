// The Section-6 future-work extension, as the persistent SSD cache builds
// it: the cache journals its buffer table on the SSD, and one
// DbSystem::Recover re-attaches the surviving SSD contents after a crash
// before redo runs. Correctness bar: every restored copy is provably the
// newest version of its page; superseded or recycled frames are dropped;
// committed updates always survive.

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <vector>

#include "common/rng.h"
#include "core/ssd_cache_base.h"
#include "engine/database.h"
#include "storage/page.h"

namespace turbobp {
namespace {

constexpr uint32_t kPage = 512;
constexpr PageId kUserPages = 256;

class RestartExtensionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    SystemConfig config;
    config.page_bytes = kPage;
    config.db_pages = kUserPages;
    config.bp_frames = 24;
    config.ssd_frames = 128;
    config.design = SsdDesign::kLazyCleaning;
    config.ssd_options.num_partitions = 2;
    config.ssd_options.lc_dirty_fraction = 0.9;
    config.persistent_ssd_cache = true;
    system_ = std::make_unique<DbSystem>(config);
    db_ = std::make_unique<Database>(system_.get());
  }

  void CommittedWrite(PageId pid, uint8_t value, IoContext& ctx) {
    {
      PageGuard g =
          system_->buffer_pool().FetchPage(pid, AccessKind::kRandom, ctx);
      g.view().payload()[0] = value;
      last_lsn_[pid] = g.LogUpdate(next_txn_++, kPageHeaderSize, 1);
    }
    system_->log().CommitForce(ctx);
    shadow_[pid] = value;
  }

  void Churn(int n, IoContext& ctx, Rng& rng) {
    for (int i = 0; i < n; ++i) {
      CommittedWrite(rng.Uniform(kUserPages),
                     static_cast<uint8_t>(rng.Uniform(256)), ctx);
      system_->executor().RunUntil(ctx.now);
      ctx.now = std::max(ctx.now, system_->executor().now());
    }
  }

  // Power cut and restart: returns the recovery stats, `restore` receives
  // the journal outcome.
  RecoveryStats CrashAndRecover(PersistentRestoreStats* restore,
                                IoContext& rctx) {
    system_->Crash();
    rctx = system_->MakeContext();
    return system_->Recover(rctx, restore);
  }

  // Every committed write must be visible through the buffer pool after
  // recovery (whether served from disk or a restored SSD copy).
  void VerifyShadowThroughPool(IoContext& ctx) {
    for (const auto& [pid, value] : shadow_) {
      PageGuard g =
          system_->buffer_pool().FetchPage(pid, AccessKind::kRandom, ctx);
      ASSERT_EQ(g.view().payload()[0], value) << "page " << pid;
    }
  }

  std::unique_ptr<DbSystem> system_;
  std::unique_ptr<Database> db_;
  std::map<PageId, uint8_t> shadow_;
  std::map<PageId, Lsn> last_lsn_;  // newest committed update per page
  uint64_t next_txn_ = 1;
};

TEST_F(RestartExtensionTest, RestartRestoresWarmSsdAndStaysCorrect) {
  IoContext ctx = system_->MakeContext();
  Rng rng(5);
  Churn(400, ctx, rng);
  system_->checkpoint().RunCheckpoint(ctx);
  Churn(100, ctx, rng);  // post-checkpoint updates leave dirty SSD frames
  PersistentRestoreStats restore;
  IoContext rctx;
  const RecoveryStats stats = CrashAndRecover(&restore, rctx);
  EXPECT_TRUE(restore.journal_valid);
  EXPECT_GT(restore.restored, 0u);  // the cache came back warm
  EXPECT_EQ(system_->ssd_manager().stats().used_frames,
            static_cast<int64_t>(restore.restored));
  // Dirty copies are restored dirty: the SSD still holds the newest
  // version and redo skipped the records those copies cover.
  EXPECT_GT(system_->ssd_manager().stats().dirty_frames, 0);
  EXPECT_GT(stats.records_skipped_ssd, 0);
  VerifyShadowThroughPool(rctx);
  // The cleaner can still drain the restored dirty set to disk.
  IoContext fctx = system_->MakeContext();
  fctx.now = std::max(fctx.now, rctx.now);
  ASSERT_TRUE(system_->ssd_manager().FlushAllDirty(fctx).ok());
  EXPECT_EQ(system_->ssd_manager().stats().dirty_frames, 0);
}

TEST_F(RestartExtensionTest, SupersededEntriesAreDropped) {
  IoContext ctx = system_->MakeContext();
  Rng rng(7);
  Churn(300, ctx, rng);
  system_->checkpoint().RunCheckpoint(ctx);
  const size_t journaled = system_->ssd_manager().SnapshotForCheckpoint().size();
  ASSERT_GT(journaled, 0u);
  // Update EVERY page after the checkpoint: each journaled copy is now
  // older than its page's newest durable update.
  for (PageId p = 0; p < kUserPages; ++p) {
    CommittedWrite(p, static_cast<uint8_t>(p ^ 0x5A), ctx);
    system_->executor().RunUntil(ctx.now);
    ctx.now = std::max(ctx.now, system_->executor().now());
  }
  PersistentRestoreStats restore;
  IoContext rctx;
  CrashAndRecover(&restore, rctx);
  EXPECT_TRUE(restore.journal_valid);
  EXPECT_LT(restore.restored, restore.entries_recovered)
      << "no superseded journal entry reached the restore";
  // Whatever came back is the newest version of its page.
  for (const auto& e : system_->ssd_manager().SnapshotForCheckpoint()) {
    EXPECT_EQ(e.page_lsn, last_lsn_.at(e.page_id)) << "page " << e.page_id;
  }
  VerifyShadowThroughPool(rctx);
}

// Regression: the cold-pool 8-page read expansion used to install
// speculative *disk* copies without asking the SSD. After a warm restart a
// restored dirty frame is newer than its disk copy, so a neighbour's
// expanded read installed the stale page and the next fetch served it.
TEST_F(RestartExtensionTest, ReadExpansionDoesNotShadowRestoredDirtyFrame) {
  IoContext ctx = system_->MakeContext();
  Rng rng(9);
  Churn(300, ctx, rng);
  PersistentRestoreStats restore;
  IoContext rctx;
  CrashAndRecover(&restore, rctx);
  ASSERT_GT(restore.restored, 0u);

  const uint32_t expand = BufferPool::kExpandReadPages;
  ASSERT_GT(expand, 1u);
  // A restored dirty page whose disk copy is provably older, with a block
  // neighbour the SSD does not hold (its fetch goes to disk and expands).
  PageId dirty_pid = kInvalidPageId;
  PageId neighbour = kInvalidPageId;
  std::vector<uint8_t> buf(kPage);
  for (const auto& e : system_->ssd_manager().SnapshotForCheckpoint()) {
    if (!e.dirty) continue;
    IoContext dctx = system_->MakeContext(/*charge=*/false);
    ASSERT_TRUE(system_->disk_manager().ReadPage(e.page_id, buf, dctx).ok());
    if (PageView(buf.data(), kPage).header().lsn >= e.page_lsn) continue;
    const PageId first = e.page_id - e.page_id % expand;
    for (PageId p = first; p < first + expand; ++p) {
      if (system_->ssd_manager().Probe(p) == SsdProbe::kAbsent) {
        neighbour = p;
        break;
      }
    }
    if (neighbour != kInvalidPageId) {
      dirty_pid = e.page_id;
      break;
    }
  }
  ASSERT_NE(dirty_pid, kInvalidPageId)
      << "no restored dirty frame with a disk-resident neighbour";

  const int64_t expanded_before =
      system_->buffer_pool().stats().expanded_pages;
  { PageGuard g = system_->buffer_pool().FetchPage(neighbour,
                                                   AccessKind::kRandom, rctx); }
  EXPECT_GT(system_->buffer_pool().stats().expanded_pages, expanded_before)
      << "the neighbour's fetch did not expand";
  PageGuard g =
      system_->buffer_pool().FetchPage(dirty_pid, AccessKind::kRandom, rctx);
  EXPECT_EQ(g.view().header().lsn, last_lsn_.at(dirty_pid));
  EXPECT_EQ(g.view().payload()[0], shadow_.at(dirty_pid));
}

// Regression: while the whole cache is degraded its journal is not
// maintained, so the purge's erases never reach the device, yet a
// checkpoint still completes (the journal is only a hint). The stale dirty
// entries survive the crash. The restore used to re-seed each superseded
// dirty image over the disk copy even when the disk copy was newer, and
// redo, which starts at the checkpoint, never replayed the update it
// overwrote.
TEST_F(RestartExtensionTest, StaleDirtyEntryCannotRollBackCheckpointedUpdate) {
  IoContext ctx = system_->MakeContext();
  Rng rng(7);
  Churn(300, ctx, rng);
  auto& cache = static_cast<SsdCacheBase&>(system_->ssd_manager());
  ASSERT_TRUE(cache.journal()->Maintain(ctx, /*force=*/true).ok());
  std::vector<PageId> dirty_pages;
  for (const auto& e : cache.SnapshotForCheckpoint()) {
    if (e.dirty) dirty_pages.push_back(e.page_id);
  }
  ASSERT_FALSE(dirty_pages.empty());
  cache.Degrade(ctx);
  ASSERT_TRUE(cache.degraded());
  for (const PageId p : dirty_pages) {
    CommittedWrite(p, static_cast<uint8_t>(shadow_.at(p) ^ 0xFF), ctx);
    system_->executor().RunUntil(ctx.now);
    ctx.now = std::max(ctx.now, system_->executor().now());
  }
  system_->checkpoint().RunCheckpoint(ctx);
  PersistentRestoreStats restore;
  IoContext rctx;
  CrashAndRecover(&restore, rctx);
  EXPECT_TRUE(restore.journal_valid);
  EXPECT_EQ(restore.reseeded, 0u) << "a stale image overwrote a newer disk copy";
  VerifyShadowThroughPool(rctx);
}

// The clean twin of the test above. The log is truncated at every completed
// checkpoint, so once a second checkpoint has passed, the updates that made
// the stale clean entries stale are gone from the log; only the newer disk
// copy still tells. A clean entry must therefore match its disk copy's LSN
// exactly, or a restored frame would serve the pre-update image.
TEST_F(RestartExtensionTest, StaleCleanEntryCannotShadowCheckpointedUpdate) {
  IoContext ctx = system_->MakeContext();
  Rng rng(7);
  Churn(300, ctx, rng);
  system_->checkpoint().RunCheckpoint(ctx);
  auto& cache = static_cast<SsdCacheBase&>(system_->ssd_manager());
  ASSERT_TRUE(cache.journal()->Maintain(ctx, /*force=*/true).ok());
  std::vector<PageId> clean_pages;
  for (const auto& e : cache.SnapshotForCheckpoint()) {
    if (!e.dirty) clean_pages.push_back(e.page_id);
  }
  ASSERT_FALSE(clean_pages.empty());
  cache.Degrade(ctx);
  ASSERT_TRUE(cache.degraded());
  for (const PageId p : clean_pages) {
    CommittedWrite(p, static_cast<uint8_t>(shadow_[p] ^ 0xFF), ctx);
    system_->executor().RunUntil(ctx.now);
    ctx.now = std::max(ctx.now, system_->executor().now());
  }
  system_->checkpoint().RunCheckpoint(ctx);
  ASSERT_EQ(system_->checkpoint().stats().checkpoints_failed, 0);
  PersistentRestoreStats restore;
  IoContext rctx;
  CrashAndRecover(&restore, rctx);
  EXPECT_TRUE(restore.journal_valid);
  VerifyShadowThroughPool(rctx);
}

// A journal entry and a CRC-valid frame header may agree on a page id the
// database does not have. The restore must drop such an entry (the frame
// scan already rejects such headers) rather than index the page.
TEST_F(RestartExtensionTest, OutOfRangePageIdIsDropped) {
  IoContext ctx = system_->MakeContext();
  Rng rng(13);
  Churn(40, ctx, rng);
  auto& cache = static_cast<SsdCacheBase&>(system_->ssd_manager());
  std::vector<bool> used(128, false);  // config.ssd_frames
  for (const auto& e : cache.SnapshotForCheckpoint()) used[e.frame] = true;

  // Plant the forged frame in a free frame of each partition (two
  // partitions of 64 frames), so one of them is in the range its page's
  // partition would accept.
  const PageId forged = PageId{1} << 60;
  const Lsn lsn = last_lsn_.begin()->second;  // durable: committed above
  std::vector<uint8_t> page(kPage);
  PageView v(page.data(), kPage);
  v.Format(forged, PageType::kRaw);
  v.header().lsn = lsn;
  v.SealChecksum();
  for (const uint64_t base : {0, 64}) {
    uint64_t frame = base;
    while (used[frame]) ++frame;
    ASSERT_LT(frame, base + 64) << "no free frame to plant in";
    ASSERT_TRUE(system_->ssd_device()
                    ->Write(frame, 1, page, ctx.now, /*charge=*/false)
                    .ok());
    cache.journal()->NotePut(frame, forged, lsn, /*dirty=*/true);
  }
  ASSERT_TRUE(cache.journal()->Maintain(ctx, /*force=*/true).ok());

  PersistentRestoreStats restore;
  IoContext rctx;
  CrashAndRecover(&restore, rctx);
  EXPECT_TRUE(restore.journal_valid);
  EXPECT_GT(restore.restored, 0u);
  EXPECT_GE(restore.dropped_verification, 2u);
  SsdManager& restarted = system_->ssd_manager();  // the crash rebuilt it
  EXPECT_EQ(restarted.Probe(forged), SsdProbe::kAbsent);
  for (const auto& e : restarted.SnapshotForCheckpoint()) {
    EXPECT_NE(e.page_id, forged);
  }
  VerifyShadowThroughPool(rctx);
}

TEST_F(RestartExtensionTest, RestartBeforeAnyCheckpointStaysCorrect) {
  IoContext ctx = system_->MakeContext();
  Rng rng(11);
  Churn(150, ctx, rng);
  PersistentRestoreStats restore;
  IoContext rctx;
  const RecoveryStats stats = CrashAndRecover(&restore, rctx);
  // No completed checkpoint: redo scans the whole log, and the journal's
  // restored copies still cover part of it.
  EXPECT_EQ(stats.redo_start_lsn, kInvalidLsn);
  EXPECT_GT(restore.restored, 0u);
  VerifyShadowThroughPool(rctx);
}

}  // namespace
}  // namespace turbobp
