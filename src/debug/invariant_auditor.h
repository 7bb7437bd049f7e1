#ifndef TURBOBP_DEBUG_INVARIANT_AUDITOR_H_
#define TURBOBP_DEBUG_INVARIANT_AUDITOR_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "common/types.h"

namespace turbobp {

class BufferPool;
class SsdCacheBase;
class SsdBufferTable;
struct SsdFrameKey;
template <typename Key>
class SsdSplitHeap;
class SsdManager;
enum class SsdFrameState : uint8_t;

// One broken invariant: which structure it lives in and what is wrong.
struct InvariantViolation {
  std::string structure;  // e.g. "ssd.heap", "pool.page_table"
  std::string detail;
};

// Result of an audit pass. Empty == every checked invariant holds.
class AuditReport {
 public:
  bool ok() const { return violations_.empty(); }
  const std::vector<InvariantViolation>& violations() const {
    return violations_;
  }
  void Add(std::string structure, std::string detail) {
    violations_.push_back({std::move(structure), std::move(detail)});
  }
  void Merge(const AuditReport& other) {
    violations_.insert(violations_.end(), other.violations_.begin(),
                       other.violations_.end());
  }
  // Multi-line human-readable summary ("audit clean" when ok).
  std::string ToString() const;

 private:
  std::vector<InvariantViolation> violations_;
};

// Cross-structure consistency auditor for the buffer pool and the SSD
// manager's five structures (buffer table, hash table, free list, split
// clean/dirty heap array, SSD file layout). Intended for quiescent moments:
// tests, checkpoint boundaries (TURBOBP_AUDIT builds), shutdown. Each audit
// takes the owning latches in the documented order (pool before partitions),
// so it is safe to run concurrently with foreground work, but the
// cross-structure checks assume no mutation races between the two sides.
//
// Checked invariants (Section 3.1's structures):
//   pool:  every page-table entry maps to a frame holding that page; every
//          resident frame is indexed; free-listed frames are empty, unpinned
//          and listed exactly once; dirty/pinned frames are resident;
//          every unpinned clean resident frame is an intact copy of its
//          page (PageView::IsIntactCopyOf).
//   ssd:   page-index entries and in-table (clean, dirty, invalid)
//          records are in bijection, each in its page's partition; heap
//          membership matches the record state (clean side <=> kClean,
//          dirty side <=> kDirty, free and invalid records in no heap);
//          free-list length and used counts reconcile with the aggregate
//          used/dirty/invalid frame counters; partition frame ranges tile
//          [0, S) disjointly; per-design state legality (kDirty only under
//          LC, kInvalid only under TAC).
//   cross: a page dirty in the memory pool has no SSD copy (it was
//          invalidated on the clean->dirty transition), and a kNewerCopy
//          probe result implies a dirty SSD record (the LC copy-state
//          machine's externally visible half).
class InvariantAuditor {
 public:
  static AuditReport AuditBufferPool(const BufferPool& pool);
  static AuditReport AuditSsdCache(const SsdCacheBase& cache);

  // Full audit: both sides plus the cross-structure checks. `ssd` may be
  // null or a design without internal structures (NoSsdManager); only the
  // applicable checks run.
  static AuditReport AuditSystem(const BufferPool& pool, const SsdManager* ssd);

  // Persistent-cache rule: every in-service (kClean/kDirty) frame's
  // on-device page header must match the buffer table — self-verifying
  // checksum, the table's page id, and (when recorded) the table's LSN.
  // After a warm restart this proves each re-attached frame really holds
  // the page the recovered metadata claims. Reads the device (uncharged),
  // so it is a separate entry point rather than part of AuditSystem —
  // fault-injection tests legitimately run with unreadable frames.
  static AuditReport AuditSsdFrameHeaders(const SsdCacheBase& cache);

  // The SSD copy-state machine (Figure 4 / Section 2.3): which frame-state
  // transitions the designs are allowed to make. Used by the auditor's
  // configuration checks and by tests.
  //   kFree    -> kClean (admit clean), kDirty (admit dirty, LC)
  //   kClean   -> kDirty (dirty admission supersedes, LC), kFree (invalidate
  //               or evict), kInvalid (logical invalidation, TAC)
  //   kDirty   -> kClean (cleaner copied to disk), kFree (invalidate)
  //   kInvalid -> kClean (re-validated on dirty eviction, TAC), kFree
  static bool IsLegalTransition(SsdFrameState from, SsdFrameState to);
};

// Test-only backdoor used by corruption-injection tests to break an
// invariant on purpose and assert the auditor reports it. Never used by
// production code paths.
struct AuditAccess {
  static size_t NumPartitions(const SsdCacheBase& cache);
  static size_t PartitionIndexOf(const SsdCacheBase& cache, PageId pid);
  static SsdBufferTable& Table(SsdCacheBase& cache, size_t partition);
  static SsdSplitHeap<SsdFrameKey>& Heap(SsdCacheBase& cache,
                                         size_t partition);
  static std::atomic<int64_t>& DirtyFrames(SsdCacheBase& cache);

  // Rewires page pid's page-table entry to `frame` (-1 unmaps it), through
  // the pool's own accessor, so the shard's mapped counter follows.
  static void RebindPageTableEntry(BufferPool& pool, PageId pid, int32_t frame);
  // Overwrites the frame's resident page id without touching the table.
  static void SetFramePageId(BufferPool& pool, int32_t frame, PageId pid);
  // Appends a frame index to the pool's free list.
  static void PushFreeList(BufferPool& pool, int32_t frame);
};

}  // namespace turbobp

#endif  // TURBOBP_DEBUG_INVARIANT_AUDITOR_H_
