// Corruption-injection tests for the InvariantAuditor: a clean system must
// audit clean, and each deliberately broken invariant must be reported.

#include "debug/invariant_auditor.h"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "buffer/buffer_pool.h"
#include "common/rng.h"
#include "core/dual_write.h"
#include "core/lazy_cleaning.h"
#include "core/ssd_buffer_table.h"
#include "core/ssd_heap.h"
#include "storage/mem_device.h"
#include "storage/page.h"
#include "wal/log_manager.h"

namespace turbobp {
namespace {

constexpr uint32_t kPage = 512;
constexpr PageId kPages = 256;

std::vector<uint8_t> MakePage(PageId pid) {
  std::vector<uint8_t> data(kPage);
  PageView v(data.data(), kPage);
  v.Format(pid, PageType::kRaw);
  v.SealChecksum();
  return data;
}

bool HasViolationContaining(const AuditReport& report, const std::string& sub) {
  for (const auto& v : report.violations()) {
    if (v.detail.find(sub) != std::string::npos) return true;
  }
  return false;
}

class InvariantAuditorTest : public ::testing::Test {
 protected:
  InvariantAuditorTest()
      : disk_dev_(kPages, kPage),
        ssd_dev_(64, kPage),
        log_dev_(1 << 10, kPage),
        disk_(&disk_dev_),
        log_(&log_dev_) {
    disk_dev_.SetSynthesizer([](uint64_t page, std::span<uint8_t> out) {
      PageView v(out.data(), kPage);
      v.Format(page, PageType::kRaw);
      v.SealChecksum();
    });
    sopts_.num_frames = 64;
    sopts_.num_partitions = 4;
  }

  MemDevice disk_dev_;
  MemDevice ssd_dev_;
  MemDevice log_dev_;
  DiskManager disk_;
  LogManager log_;
  SsdCacheOptions sopts_;
};

TEST_F(InvariantAuditorTest, CleanSystemAuditsClean) {
  DualWriteCache ssd(&ssd_dev_, &disk_, sopts_, nullptr);
  BufferPool::Options opts;
  opts.num_frames = 32;
  opts.page_bytes = kPage;
  opts.expand_reads_until_warm = false;
  BufferPool pool(opts, &disk_, &log_, &ssd);

  Rng rng(7);
  IoContext ctx;
  for (int i = 0; i < 4000; ++i) {
    const PageId pid = rng.Uniform(kPages);
    PageGuard g = pool.FetchPage(pid, AccessKind::kRandom, ctx);
    if (rng.Bernoulli(0.3)) {
      g.view().payload()[0] = static_cast<uint8_t>(i);
      g.LogUpdate(static_cast<uint64_t>(i), kPageHeaderSize, 1);
    }
  }
  const AuditReport report = InvariantAuditor::AuditSystem(pool, &ssd);
  EXPECT_TRUE(report.ok()) << report.ToString();
  pool.FlushAllDirty(ctx, false);
  const AuditReport after = InvariantAuditor::AuditSystem(pool, &ssd);
  EXPECT_TRUE(after.ok()) << after.ToString();
}

TEST_F(InvariantAuditorTest, LazyCleaningDirtyFramesAuditClean) {
  LazyCleaningCache ssd(&ssd_dev_, &disk_, sopts_, nullptr);
  IoContext ctx;
  for (PageId pid = 0; pid < 32; ++pid) {
    const auto data = MakePage(pid);
    ssd.OnEvictDirty(pid, data, AccessKind::kRandom, kInvalidLsn, ctx);
  }
  EXPECT_GT(ssd.dirty_frames(), 0);
  AuditReport report = InvariantAuditor::AuditSsdCache(ssd);
  EXPECT_TRUE(report.ok()) << report.ToString();

  // Draining the dirty pages must leave a consistent all-clean cache.
  ssd.FlushAllDirty(ctx);
  EXPECT_EQ(ssd.dirty_frames(), 0);
  report = InvariantAuditor::AuditSsdCache(ssd);
  EXPECT_TRUE(report.ok()) << report.ToString();
}

TEST_F(InvariantAuditorTest, DetectsDirtyHeapEntryWhoseRecordSaysClean) {
  LazyCleaningCache ssd(&ssd_dev_, &disk_, sopts_, nullptr);
  IoContext ctx;
  const PageId pid = 13;
  const auto data = MakePage(pid);
  ASSERT_TRUE(
      ssd.OnEvictDirty(pid, data, AccessKind::kRandom, kInvalidLsn, ctx)
          .cached_on_ssd);

  // Flip the record's state without touching heap membership or counters:
  // the frame now sits in the dirty heap while claiming to be clean.
  const size_t part = AuditAccess::PartitionIndexOf(ssd, pid);
  SsdBufferTable& table = AuditAccess::Table(ssd, part);
  const int32_t rec = table.Lookup(pid);
  ASSERT_NE(rec, -1);
  ASSERT_EQ(table.record(rec).state, SsdFrameState::kDirty);
  table.record(rec).state = SsdFrameState::kClean;

  const AuditReport report = InvariantAuditor::AuditSsdCache(ssd);
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(HasViolationContaining(report, "dirty heap"))
      << report.ToString();
  EXPECT_TRUE(HasViolationContaining(report, "dirty_frames counter"))
      << report.ToString();
}

TEST_F(InvariantAuditorTest, DetectsStaleHashEntryAfterBotchedEviction) {
  DualWriteCache ssd(&ssd_dev_, &disk_, sopts_, nullptr);
  IoContext ctx;
  const PageId pid = 21;
  const auto data = MakePage(pid);
  ssd.OnEvictClean(pid, data, AccessKind::kRandom, ctx);

  // Simulate a botched eviction: the record is freed and unlinked from the
  // heap, but the hash entry is left behind (and the record never returns
  // to the free list).
  const size_t part = AuditAccess::PartitionIndexOf(ssd, pid);
  SsdBufferTable& table = AuditAccess::Table(ssd, part);
  SsdSplitHeap<>& heap = AuditAccess::Heap(ssd, part);
  const int32_t rec = table.Lookup(pid);
  ASSERT_NE(rec, -1);
  heap.Remove(rec);
  table.record(rec).state = SsdFrameState::kFree;

  const AuditReport report = InvariantAuditor::AuditSsdCache(ssd);
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(HasViolationContaining(report, "stale hash entry"))
      << report.ToString();
  EXPECT_TRUE(HasViolationContaining(report, "not on the free list"))
      << report.ToString();
}

// The reverse direction of the index bijection: an in-table record whose
// page has no index entry is unreachable.
TEST_F(InvariantAuditorTest, DetectsCleanRecordMissingFromIndex) {
  DualWriteCache ssd(&ssd_dev_, &disk_, sopts_, nullptr);
  IoContext ctx;
  const PageId pid = 21;
  ssd.OnEvictClean(pid, MakePage(pid), AccessKind::kRandom, ctx);

  const size_t part = AuditAccess::PartitionIndexOf(ssd, pid);
  SsdBufferTable& table = AuditAccess::Table(ssd, part);
  const int32_t rec = table.Lookup(pid);
  ASSERT_NE(rec, -1);
  table.RemoveHash(rec);

  const AuditReport report = InvariantAuditor::AuditSsdCache(ssd);
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(HasViolationContaining(report, "clean but not hashed"))
      << report.ToString();
}

// An index entry that names a record holding another page: the entry's page
// would be served the wrong frame, and the record's own page is unreachable.
TEST_F(InvariantAuditorTest, DetectsIndexEntryNamingAnotherPagesRecord) {
  DualWriteCache ssd(&ssd_dev_, &disk_, sopts_, nullptr);
  IoContext ctx;
  const PageId pid = 21;
  ssd.OnEvictClean(pid, MakePage(pid), AccessKind::kRandom, ctx);

  // Relabel the record behind the index's back, to a page of the same
  // partition that the cache does not hold.
  const size_t part = AuditAccess::PartitionIndexOf(ssd, pid);
  SsdBufferTable& table = AuditAccess::Table(ssd, part);
  const int32_t rec = table.Lookup(pid);
  ASSERT_NE(rec, -1);
  PageId other = pid + 1;
  while (AuditAccess::PartitionIndexOf(ssd, other) != part ||
         table.Lookup(other) != -1) {
    ++other;
  }
  table.record(rec).page_id = other;

  const AuditReport report = InvariantAuditor::AuditSsdCache(ssd);
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(HasViolationContaining(
      report, "index entry for page " + std::to_string(pid) + " names record " +
                  std::to_string(rec) + ", which holds page " +
                  std::to_string(other)))
      << report.ToString();
  EXPECT_TRUE(HasViolationContaining(report, "clean but not hashed"))
      << report.ToString();
}

TEST_F(InvariantAuditorTest, DetectsDriftedDirtyCounter) {
  LazyCleaningCache ssd(&ssd_dev_, &disk_, sopts_, nullptr);
  IoContext ctx;
  const auto data = MakePage(3);
  ssd.OnEvictDirty(3, data, AccessKind::kRandom, kInvalidLsn, ctx);
  AuditAccess::DirtyFrames(ssd).fetch_add(1);
  const AuditReport report = InvariantAuditor::AuditSsdCache(ssd);
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(HasViolationContaining(report, "dirty_frames counter"))
      << report.ToString();
}

TEST_F(InvariantAuditorTest, DetectsUnindexedResidentFrame) {
  BufferPool::Options opts;
  opts.num_frames = 8;
  opts.page_bytes = kPage;
  opts.expand_reads_until_warm = false;
  BufferPool pool(opts, &disk_, &log_, nullptr);
  IoContext ctx;
  { PageGuard g = pool.FetchPage(5, AccessKind::kRandom, ctx); }
  ASSERT_TRUE(InvariantAuditor::AuditBufferPool(pool).ok());

  // Drop the page-table entry while the frame keeps its contents: the frame
  // is now resident but unreachable.
  AuditAccess::RebindPageTableEntry(pool, 5, -1);
  const AuditReport report = InvariantAuditor::AuditBufferPool(pool);
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(HasViolationContaining(report, "not indexed"))
      << report.ToString();
}

TEST_F(InvariantAuditorTest, DetectsFreeListedResidentFrame) {
  BufferPool::Options opts;
  opts.num_frames = 8;
  opts.page_bytes = kPage;
  opts.expand_reads_until_warm = false;
  BufferPool pool(opts, &disk_, &log_, nullptr);
  IoContext ctx;
  // The first fetch lands in frame 0 (the free list is popped from the back,
  // which the constructor seeds with frame 0 last).
  { PageGuard g = pool.FetchPage(9, AccessKind::kRandom, ctx); }
  AuditAccess::PushFreeList(pool, 0);
  const AuditReport report = InvariantAuditor::AuditBufferPool(pool);
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(HasViolationContaining(report, "free list"))
      << report.ToString();
}

TEST_F(InvariantAuditorTest, DetectsCleanFrameThatIsNotAnIntactCopy) {
  BufferPool::Options opts;
  opts.num_frames = 8;
  opts.page_bytes = kPage;
  opts.expand_reads_until_warm = false;
  BufferPool pool(opts, &disk_, &log_, nullptr);
  IoContext ctx;
  {
    PageGuard g = pool.FetchPage(6, AccessKind::kRandom, ctx);
    g.view().payload()[0] ^= 0xFF;  // an edit that never reaches LogUpdate
    // Pinned: the writer may still be mid-edit, so nothing is reported yet.
    EXPECT_TRUE(InvariantAuditor::AuditBufferPool(pool).ok());
  }
  // Unpinned and still clean, but no longer matching its checksum: its
  // eviction would hand the SSD an image that fails verification.
  const AuditReport report = InvariantAuditor::AuditBufferPool(pool);
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(HasViolationContaining(report, "not an intact copy of page 6"))
      << report.ToString();
}

TEST_F(InvariantAuditorTest, DetectsStalePageTableEntry) {
  BufferPool::Options opts;
  opts.num_frames = 8;
  opts.page_bytes = kPage;
  opts.expand_reads_until_warm = false;
  BufferPool pool(opts, &disk_, &log_, nullptr);
  IoContext ctx;
  { PageGuard g = pool.FetchPage(2, AccessKind::kRandom, ctx); }
  { PageGuard g = pool.FetchPage(3, AccessKind::kRandom, ctx); }
  // Rewire page 2's entry at page 3's frame (frame 1: second pop).
  AuditAccess::RebindPageTableEntry(pool, 2, 1);
  const AuditReport report = InvariantAuditor::AuditBufferPool(pool);
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(HasViolationContaining(report, "stale entry"))
      << report.ToString();
}

TEST_F(InvariantAuditorTest, DetectsMissedSsdInvalidation) {
  LazyCleaningCache ssd(&ssd_dev_, &disk_, sopts_, nullptr);
  BufferPool::Options opts;
  opts.num_frames = 16;
  opts.page_bytes = kPage;
  opts.expand_reads_until_warm = false;
  BufferPool pool(opts, &disk_, &log_, &ssd);
  IoContext ctx;
  const PageId pid = 4;
  {
    PageGuard g = pool.FetchPage(pid, AccessKind::kRandom, ctx);
    g.view().payload()[0] = 0xAB;
    g.LogUpdate(1, kPageHeaderSize, 1);  // dirty in memory; SSD invalidated
  }
  ASSERT_TRUE(InvariantAuditor::AuditSystem(pool, &ssd).ok());

  // Sneak a copy of the (stale) page back into the SSD behind the pool's
  // back: the memory copy is dirty, so the SSD must not serve this page.
  const auto stale = MakePage(pid);
  ssd.OnEvictClean(pid, stale, AccessKind::kRandom, ctx);
  const AuditReport report = InvariantAuditor::AuditSystem(pool, &ssd);
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(HasViolationContaining(report, "missed invalidation"))
      << report.ToString();
}

TEST(CopyStateMachineTest, LegalAndIllegalTransitions) {
  using S = SsdFrameState;
  // Admission, invalidation, cleaning and TAC re-validation are legal.
  EXPECT_TRUE(InvariantAuditor::IsLegalTransition(S::kFree, S::kClean));
  EXPECT_TRUE(InvariantAuditor::IsLegalTransition(S::kFree, S::kDirty));
  EXPECT_TRUE(InvariantAuditor::IsLegalTransition(S::kClean, S::kDirty));
  EXPECT_TRUE(InvariantAuditor::IsLegalTransition(S::kClean, S::kFree));
  EXPECT_TRUE(InvariantAuditor::IsLegalTransition(S::kClean, S::kInvalid));
  EXPECT_TRUE(InvariantAuditor::IsLegalTransition(S::kDirty, S::kClean));
  EXPECT_TRUE(InvariantAuditor::IsLegalTransition(S::kDirty, S::kFree));
  EXPECT_TRUE(InvariantAuditor::IsLegalTransition(S::kInvalid, S::kClean));
  EXPECT_TRUE(InvariantAuditor::IsLegalTransition(S::kInvalid, S::kFree));
  // A dirty frame holds the only current copy: logical invalidation or
  // resurrection of a freed frame would lose updates.
  EXPECT_FALSE(InvariantAuditor::IsLegalTransition(S::kDirty, S::kInvalid));
  EXPECT_FALSE(InvariantAuditor::IsLegalTransition(S::kFree, S::kInvalid));
  EXPECT_FALSE(InvariantAuditor::IsLegalTransition(S::kInvalid, S::kDirty));
}

}  // namespace
}  // namespace turbobp
