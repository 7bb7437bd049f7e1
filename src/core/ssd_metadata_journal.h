#ifndef TURBOBP_CORE_SSD_METADATA_JOURNAL_H_
#define TURBOBP_CORE_SSD_METADATA_JOURNAL_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "common/types.h"
#include "debug/latch_order_checker.h"
#include "storage/io_context.h"
#include "storage/storage_device.h"

namespace turbobp {

// Crash-consistent metadata journal for the persistent SSD cache
// (DESIGN.md "Persistent SSD cache"). A small region at the tail of the SSD
// device records the buffer table — (frame, page id, LSN, dirty) mappings —
// so a restart can re-attach the surviving SSD contents instead of warming a
// cold cache.
//
// On-device format. The region is split into two halves; epoch e lives in
// half (e % 2), so compaction double-buffers: the previous epoch stays
// authoritative until the new epoch's seal page lands (publish-then-seal at
// the epoch level). Each half is laid out as
//
//   page 0                     seal page  (written LAST during compaction)
//   pages [1, 1+snap_cap)      snapshot pages (full-table image)
//   pages [1+snap_cap, half)   append pages (incremental puts/erases)
//
// Every journal page carries a 32-byte header (magic, kind, epoch, index,
// used-bytes, CRC32C over header+payload), making each page self-sealing: a
// torn write is caught by the CRC and truncates the append scan exactly
// there. Append pages fill incrementally — a partially-filled tail page is
// rewritten fuller in place; the CRC makes every intermediate image valid
// standalone.
//
// Consistency model (optimistic publish-then-seal): the in-memory buffer
// table is updated first, under the partition latch; NotePut/NoteErase then
// stage a record under the journal latch (kSsdJournal — rank above
// kSsdPartition, device I/O forbidden); sealed pages are written to the
// device later, outside both latches, by Maintain(). The journal therefore
// always *lags* the live table, never leads it: recovery treats every
// journal entry as a hint to be verified against the frame's
// self-identifying page header and the WAL durable horizon. A lost journal
// tail only costs warmth, never correctness.
//
// Epochs are strictly increasing across restarts: open/recover scans the
// region for the highest epoch on any CRC-valid page, so a new epoch can
// never collide with stale-but-valid pages from an earlier incarnation of
// the same half. A page whose epoch exceeds kMaxEpoch is invalid, so a
// forged epoch cannot wrap the sequence; a valid page at kMaxEpoch itself
// makes the next compaction zero the region and restart at epoch 1.
class SsdMetadataJournal {
 public:
  // Largest epoch a valid page may carry. Real epochs grow by one per
  // compaction and never come near it.
  static constexpr uint64_t kMaxEpoch = uint64_t{1} << 48;

  // One buffer-table mutation (or one snapshot row: a put).
  struct Record {
    uint64_t frame = 0;  // absolute device page holding the frame
    PageId page_id = kInvalidPageId;
    Lsn page_lsn = kInvalidLsn;
    bool dirty = false;
    bool erase = false;  // true: the frame mapping was dropped
  };

  struct RecoveredEntry {
    PageId page_id = kInvalidPageId;
    Lsn page_lsn = kInvalidLsn;
    bool dirty = false;
  };

  struct RecoveredState {
    bool valid = false;    // a usable epoch was found
    uint64_t epoch = 0;    // the adopted epoch
    int half = -1;         // which half held it
    bool fell_back = false;  // newest seal/snapshot unusable; older epoch used
    bool torn_tail = false;  // append scan hit a CRC-torn page
    uint32_t snapshot_pages = 0;
    uint32_t append_pages = 0;  // valid append pages consumed
    size_t append_records = 0;
    // Final table image after replaying snapshot + appends, keyed by frame.
    std::unordered_map<uint64_t, RecoveredEntry> entries;

    // True when the journal may be missing mappings that exist on the
    // device (an older epoch was adopted, or the append tail was torn);
    // the cache then supplements with a lazy frame scan.
    bool incomplete() const { return !valid || fell_back || torn_tail; }
  };

  // Gathers the current full buffer table for compaction. Called WITHOUT
  // the journal latch held (it takes partition latches internally).
  using SnapshotFn = std::function<std::vector<Record>()>;

  // The journal owns device pages [region_base, region_base+region_pages).
  SsdMetadataJournal(StorageDevice* device, uint64_t region_base,
                     uint32_t region_pages, SnapshotFn snapshot_fn);

  // Device pages needed to journal `num_frames` frames at `page_bytes`.
  static uint32_t RegionPagesFor(int64_t num_frames, uint32_t page_bytes);

  // --- geometry (used by tests and the crash harness's fault mutations) ----
  uint64_t region_base() const { return region_base_; }
  uint32_t region_pages() const { return region_pages_; }
  uint32_t half_pages() const { return half_pages_; }
  uint32_t records_per_page() const { return records_per_page_; }
  uint32_t snapshot_page_capacity() const { return snap_cap_; }
  uint32_t append_page_capacity() const { return append_cap_; }
  uint64_t SealPageOf(int half) const {
    return region_base_ + static_cast<uint64_t>(half) * half_pages_;
  }
  uint64_t SnapshotBaseOf(int half) const { return SealPageOf(half) + 1; }
  uint64_t AppendBaseOf(int half) const {
    return SnapshotBaseOf(half) + snap_cap_;
  }

  // --- staging (hot path; partition latch may be held) ---------------------

  // Stages "frame now holds page_id@lsn". Buffers in memory only; the
  // device write happens in a later Maintain(). Latch order
  // kSsdPartition -> kSsdJournal permits calls under a partition latch.
  void NotePut(uint64_t frame, PageId page_id, Lsn page_lsn, bool dirty)
      TURBOBP_EXCLUDES(mu_);
  // Stages "frame's mapping was dropped" (invalidate/evict/quarantine).
  void NoteErase(uint64_t frame) TURBOBP_EXCLUDES(mu_);

  // --- durability (must run outside partition latches) ---------------------

  // Writes staged records to the device once at least a page's worth is
  // pending (always, when `force`); compacts when the append area is full
  // or the journal has not been opened yet. Returns the last device
  // completion time plus an error channel; failures leave the on-device
  // journal prefix-consistent (recovery truncates at the torn page).
  IoResult Maintain(IoContext& ctx, bool force = false) TURBOBP_EXCLUDES(
      mu_, TURBOBP_LATCH_CAP(LatchClass::kSsdJournal));

  // Forces a full compaction: snapshot of the live table + fresh seal under
  // a new epoch. Used after recovery to re-seal the reconciled state.
  IoResult Compact(IoContext& ctx) TURBOBP_EXCLUDES(
      mu_, TURBOBP_LATCH_CAP(LatchClass::kSsdJournal));

  // Reads the region and reconstructs the most recent usable epoch's table
  // image. Startup-time only. Also learns the highest on-device epoch so
  // subsequent compactions supersede every stale page.
  RecoveredState Recover(IoContext& ctx) TURBOBP_EXCLUDES(
      mu_, TURBOBP_LATCH_CAP(LatchClass::kSsdJournal));

  // --- stats ---------------------------------------------------------------
  int64_t records_appended() const {
    return records_appended_.load(std::memory_order_relaxed);
  }
  int64_t pages_written() const {
    return pages_written_.load(std::memory_order_relaxed);
  }
  int64_t compactions() const {
    return compactions_.load(std::memory_order_relaxed);
  }
  int64_t write_errors() const {
    return write_errors_.load(std::memory_order_relaxed);
  }

 private:
  // The flush path: moves pending_ into tail_ and writes/compacts. Runs
  // with flush exclusivity (flushing_) held, journal latch NOT held.
  IoResult FlushExclusive(IoContext& ctx, bool force, bool want_compact);
  IoResult FlushTail(IoContext& ctx, bool force);
  IoResult CompactNow(IoContext& ctx);
  // Highest epoch on any CRC-valid page in the region (0 if none).
  uint64_t ScanMaxEpoch(IoContext& ctx);
  // Writes one sealed journal page; names the durability edge for the
  // crash-point torture harness.
  IoResult WriteRegionPage(uint64_t abs_page, std::span<const uint8_t> data,
                           IoContext& ctx, const char* crash_point);

  StorageDevice* device_;
  const uint64_t region_base_;
  const uint32_t region_pages_;
  const uint32_t page_bytes_;
  const uint32_t records_per_page_;
  uint32_t snap_cap_ = 0;
  uint32_t append_cap_ = 0;
  uint32_t half_pages_ = 0;
  SnapshotFn snapshot_fn_;

  // Staging buffer: records published to the live table but not yet handed
  // to the flush path. The only state touched on the hot path.
  mutable TrackedMutex<LatchClass::kSsdJournal> mu_;
  std::vector<Record> pending_ TURBOBP_GUARDED_BY(mu_);

  // Flush exclusivity: one flush/compaction/recovery at a time; a second
  // caller simply leaves its records pending for the next round. All state
  // below is only touched while flushing_ is held, so it needs no latch —
  // and the device writes it drives stay outside every latch scope.
  std::atomic<bool> flushing_{false};
  std::vector<Record> tail_;     // records of the partially-filled tail page
  uint64_t epoch_ = 0;           // current sealed epoch (valid once opened_)
  uint32_t append_used_pages_ = 0;  // fully-filled append pages this epoch
  bool opened_ = false;

  std::atomic<int64_t> records_appended_{0};
  std::atomic<int64_t> pages_written_{0};
  std::atomic<int64_t> compactions_{0};
  std::atomic<int64_t> write_errors_{0};
};

}  // namespace turbobp

#endif  // TURBOBP_CORE_SSD_METADATA_JOURNAL_H_
