#ifndef TURBOBP_CORE_SSD_BUFFER_TABLE_H_
#define TURBOBP_CORE_SSD_BUFFER_TABLE_H_

#include <cstdint>
#include <vector>

#include "common/types.h"

namespace turbobp {

class InvariantAuditor;

enum class SsdFrameState : uint8_t {
  kFree = 0,
  kClean = 1,        // valid; identical to the disk copy
  kDirty = 2,        // valid; newer than the disk copy (LC only)
  kInvalid = 3,      // logically invalidated but not reclaimed (TAC only)
  kQuarantined = 4,  // frame failed a read or checksum; never reused
};

// One record of the SSD buffer table (Section 3.1): the paper stores a page
// id, a dirty bit, the last two access times (LRU-2), a latch and linkage
// pointers in an 88-byte record; this struct is the same shape (the latch
// lives at partition granularity, Section 3.3.4, and a direct page index
// takes the place of the hash chain).
struct SsdFrameRecord {
  PageId page_id = kInvalidPageId;
  Lsn page_lsn = kInvalidLsn;        // LSN carried by a dirty page (WAL/ckpt)
  Time access[2] = {0, 0};           // [0]=last, [1]=penultimate access
  Time ready_at = 0;                 // SSD write completion; readable after
  int32_t free_next = -1;            // SSD free list chain
  int32_t heap_pos = -1;             // slot in the SSD heap array, -1 if none
  SsdFrameState state = SsdFrameState::kFree;
  AccessKind kind = AccessKind::kRandom;
  // TAC's heap key: the extent temperature as of the frame's admission,
  // re-validation or last victim check (temperatures rise between sifts,
  // so TAC's victim loop re-validates). Unused by the LRU-2 designs.
  double temperature = 0.0;

  // LRU-2 ordering key: backward-2 distance, i.e. the penultimate access
  // time (0 until the page has been touched twice, making once-touched
  // pages the first replacement victims, per O'Neil et al.).
  Time Lru2Key() const { return access[1]; }

  void Touch(Time now) {
    access[1] = access[0];
    access[0] = now;
  }
};

// The SSD buffer table, page index and free list of Figure 4 for one
// partition: `capacity` records, a direct index from page id to record (the
// paper hashes sparse page ids; ours are dense, so the index is a vector
// that grows to the largest id inserted), and an intrusive free list
// threaded through the records.
class SsdBufferTable {
 public:
  explicit SsdBufferTable(int32_t capacity);

  int32_t capacity() const { return static_cast<int32_t>(records_.size()); }
  int32_t used() const { return used_; }

  SsdFrameRecord& record(int32_t i) { return records_[i]; }
  const SsdFrameRecord& record(int32_t i) const { return records_[i]; }

  // Returns the record index holding `pid`, or -1.
  int32_t Lookup(PageId pid) const {
    return pid < index_.size() ? index_[pid] : -1;
  }

  // Indexes `rec` (whose page_id must be set and not yet indexed).
  void InsertHash(int32_t rec);

  // Drops `rec`'s index entry.
  void RemoveHash(int32_t rec);

  // Pops a free record, or returns -1 when the partition is full.
  int32_t PopFree();

  // Resets `rec` and returns it to the free list.
  void PushFree(int32_t rec);

 private:
  friend class InvariantAuditor;  // walks index/free list read-only

  std::vector<SsdFrameRecord> records_;
  std::vector<int32_t> index_;  // page id -> record, -1 if not cached
  int32_t free_head_ = -1;
  int32_t used_ = 0;
};

}  // namespace turbobp

#endif  // TURBOBP_CORE_SSD_BUFFER_TABLE_H_
