#include "core/ssd_buffer_table.h"

#include <algorithm>

#include "common/status.h"

namespace turbobp {

SsdBufferTable::SsdBufferTable(int32_t capacity) {
  TURBOBP_CHECK(capacity > 0);
  records_.resize(static_cast<size_t>(capacity));
  // Thread the initial free list through the records.
  for (int32_t i = 0; i < capacity; ++i) {
    records_[static_cast<size_t>(i)].free_next = i + 1 < capacity ? i + 1 : -1;
  }
  free_head_ = 0;
}

void SsdBufferTable::InsertHash(int32_t rec) {
  const PageId pid = records_[static_cast<size_t>(rec)].page_id;
  TURBOBP_DCHECK(pid != kInvalidPageId);
  if (pid >= index_.size()) {
    // Grow by doubling, so an ascending admission order does not reallocate
    // on every insert.
    if (pid >= index_.capacity()) {
      index_.reserve(std::max<size_t>(pid + 1, index_.capacity() * 2));
    }
    index_.resize(pid + 1, -1);
  }
  TURBOBP_DCHECK(index_[pid] == -1);
  index_[pid] = rec;
}

void SsdBufferTable::RemoveHash(int32_t rec) {
  const PageId pid = records_[static_cast<size_t>(rec)].page_id;
  if (Lookup(pid) != rec) {
    Panic(__FILE__, __LINE__, "record not found in SSD page index");
  }
  index_[pid] = -1;
}

int32_t SsdBufferTable::PopFree() {
  if (free_head_ == -1) return -1;
  const int32_t rec = free_head_;
  SsdFrameRecord& r = records_[static_cast<size_t>(rec)];
  free_head_ = r.free_next;
  r.free_next = -1;
  ++used_;
  return rec;
}

void SsdBufferTable::PushFree(int32_t rec) {
  SsdFrameRecord& r = records_[static_cast<size_t>(rec)];
  TURBOBP_DCHECK(r.heap_pos == -1);
  r = SsdFrameRecord{};
  r.free_next = free_head_;
  free_head_ = rec;
  --used_;
}

}  // namespace turbobp
