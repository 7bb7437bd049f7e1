#ifndef TURBOBP_CORE_SSD_HEAP_H_
#define TURBOBP_CORE_SSD_HEAP_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "common/status.h"
#include "core/ssd_buffer_table.h"

namespace turbobp {

class InvariantAuditor;

// The SSD cache's replacement key, read straight from the frame record:
// the LRU-2 designs (CW, DW, LC) order by the penultimate access time, TAC
// by the extent-temperature snapshot of its last admission or re-validation.
struct SsdFrameKey {
  const SsdBufferTable* table = nullptr;
  bool by_temperature = false;

  double operator()(int32_t rec) const {
    const SsdFrameRecord& r = table->record(rec);
    return by_temperature ? r.temperature : static_cast<double>(r.Lru2Key());
  }
};

// The SSD heap array of Figure 4: a single array of `capacity` slots hosting
// two indexed binary min-heaps that grow toward each other. The *clean*
// heap keeps its root (the replacement victim) at slot 0 and grows right;
// the *dirty* heap keeps its root (the page the LC cleaner handles next) at
// the last slot and grows left. Each slot holds a record index; each record
// stores its logical heap position so key updates and removals are
// O(log n). `Key` maps a record index to its ordering key; the cache uses
// SsdFrameKey, benches and tests may pass any callable.
template <typename Key = SsdFrameKey>
class SsdSplitHeap {
 public:
  SsdSplitHeap(SsdBufferTable* table, Key key)
      : table_(table), key_(std::move(key)) {
    TURBOBP_CHECK(table != nullptr);
    slots_.assign(static_cast<size_t>(table->capacity()), -1);
    side_.assign(static_cast<size_t>(table->capacity()), kNone);
  }

  void InsertClean(int32_t rec) { Insert(kClean, rec); }
  void InsertDirty(int32_t rec) { Insert(kDirty, rec); }

  // Removes `rec` from whichever heap contains it. No-op if absent.
  void Remove(int32_t rec) {
    const int8_t s = side_[rec];
    if (s == kNone) return;
    EraseAt(static_cast<Side>(s), table_->record(rec).heap_pos);
  }

  // Re-establishes heap order after `rec`'s key changed.
  void UpdateKey(int32_t rec) {
    const int8_t s = side_[rec];
    if (s == kNone) return;
    SiftUp(s, table_->record(rec).heap_pos);
    SiftDown(s, table_->record(rec).heap_pos);
  }

  // Moves `rec` from the dirty heap to the clean heap (after cleaning).
  void DirtyToClean(int32_t rec) {
    TURBOBP_DCHECK(side_[rec] == kDirty);
    EraseAt(kDirty, table_->record(rec).heap_pos);
    Insert(kClean, rec);
  }

  // The ordering key of `rec`, as the heap sees it.
  double KeyOf(int32_t rec) const { return key_(rec); }

  // Root (minimum key) of each heap; -1 when empty.
  int32_t CleanRoot() const { return size_[kClean] ? SlotAt(kClean, 0) : -1; }
  int32_t DirtyRoot() const { return size_[kDirty] ? SlotAt(kDirty, 0) : -1; }

  int32_t clean_size() const { return size_[kClean]; }
  int32_t dirty_size() const { return size_[kDirty]; }
  bool Contains(int32_t rec) const { return side_[rec] != kNone; }
  bool IsDirtySide(int32_t rec) const { return side_[rec] == kDirty; }

  // Validates both heap-order and position invariants (tests).
  bool CheckInvariants() const {
    for (int side = kClean; side <= kDirty; ++side) {
      for (int32_t i = 0; i < size_[side]; ++i) {
        const int32_t rec = SlotAt(side, i);
        if (rec < 0) return false;
        if (side_[rec] != side) return false;
        if (table_->record(rec).heap_pos != i) return false;
        if (i > 0 && key_(SlotAt(side, (i - 1) / 2)) > key_(rec)) return false;
      }
    }
    // The two heaps must not overlap.
    return size_[kClean] + size_[kDirty] <= static_cast<int32_t>(slots_.size());
  }

 private:
  friend class InvariantAuditor;  // walks slots read-only

  enum Side : int8_t { kNone = -1, kClean = 0, kDirty = 1 };

  // Physical slot of logical index i on a side: the clean heap is stored
  // left-to-right, the dirty heap mirrored right-to-left.
  size_t Phys(int side, int32_t i) const {
    return side == kClean ? static_cast<size_t>(i)
                          : slots_.size() - 1 - static_cast<size_t>(i);
  }
  int32_t SlotAt(int side, int32_t i) const { return slots_[Phys(side, i)]; }
  void Place(int side, int32_t i, int32_t rec) {
    slots_[Phys(side, i)] = rec;
    table_->record(rec).heap_pos = i;
  }

  void Insert(Side side, int32_t rec) {
    TURBOBP_DCHECK(side_[rec] == kNone);
    TURBOBP_CHECK(size_[kClean] + size_[kDirty] <
                  static_cast<int32_t>(slots_.size()));
    side_[rec] = static_cast<int8_t>(side);
    const int32_t i = size_[side]++;
    Place(side, i, rec);
    SiftUp(side, i);
  }

  void SiftUp(int side, int32_t i) {
    const int32_t rec = SlotAt(side, i);
    const double k = key_(rec);
    while (i > 0) {
      const int32_t parent = (i - 1) / 2;
      const int32_t prec = SlotAt(side, parent);
      if (key_(prec) <= k) break;
      Place(side, i, prec);
      i = parent;
    }
    Place(side, i, rec);
  }

  void SiftDown(int side, int32_t i) {
    const int32_t n = size_[side];
    const int32_t rec = SlotAt(side, i);
    const double k = key_(rec);
    while (true) {
      int32_t child = 2 * i + 1;
      if (child >= n) break;
      double ck = key_(SlotAt(side, child));
      if (child + 1 < n) {
        const double rk = key_(SlotAt(side, child + 1));
        if (rk < ck) {
          ck = rk;
          ++child;
        }
      }
      if (ck >= k) break;
      Place(side, i, SlotAt(side, child));
      i = child;
    }
    Place(side, i, rec);
  }

  void EraseAt(Side side, int32_t i) {
    const int32_t victim = SlotAt(side, i);
    const int32_t last = --size_[side];
    side_[victim] = kNone;
    table_->record(victim).heap_pos = -1;
    if (i != last) {
      Place(side, i, SlotAt(side, last));
      SiftUp(side, i);
      SiftDown(side, i);
    }
    slots_[Phys(side, last)] = -1;
  }

  SsdBufferTable* table_;
  Key key_;
  std::vector<int32_t> slots_;
  std::vector<int8_t> side_;  // per-record side membership
  int32_t size_[2] = {0, 0};
};

}  // namespace turbobp

#endif  // TURBOBP_CORE_SSD_HEAP_H_
