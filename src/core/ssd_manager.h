#ifndef TURBOBP_CORE_SSD_MANAGER_H_
#define TURBOBP_CORE_SSD_MANAGER_H_

#include <cstdint>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "common/types.h"
#include "storage/io_context.h"
#include "storage/storage_device.h"

namespace turbobp {

// What the SSD manager has (or knows) about a page, for the multi-page I/O
// trimming optimization (Section 3.3.3) and the read path.
enum class SsdProbe : uint8_t {
  kAbsent = 0,     // no usable copy on the SSD
  kCleanCopy = 1,  // SSD copy identical to the disk copy
  kNewerCopy = 2,  // SSD copy newer than the disk copy (LC only)
};

// What the buffer pool must still do with an evicted dirty page after the
// SSD manager has taken its share of the work.
struct EvictionOutcome {
  bool write_to_disk = true;    // false only when LC absorbed the page
  bool cached_on_ssd = false;   // page was admitted to the SSD
};

struct SsdManagerStats {
  // Probe classifications: hits + probe_misses >= ops holds in EVERY
  // snapshot, including one taken mid-probe from another thread (equality
  // at quiescence). A naive field-by-field relaxed copy can tear and break
  // it; SsdCacheBase::stats() orders and retries its reads to keep it.
  int64_t ops = 0;
  int64_t hits = 0;             // pages served from the SSD
  int64_t hits_dirty = 0;       // ... of which were dirty SSD pages (LC)
  int64_t probe_misses = 0;     // lookups that found nothing usable
  int64_t admissions = 0;       // pages written into the SSD cache
  int64_t evictions = 0;        // pages replaced
  int64_t throttled = 0;        // operations skipped by throttle control
  int64_t rejected_sequential = 0;  // admissions denied by the policy
  int64_t cleaner_disk_writes = 0;  // LC: pages copied SSD -> disk
  int64_t cleaner_io_requests = 0;  // LC: disk write requests issued
  int64_t invalidations = 0;
  int64_t used_frames = 0;
  int64_t dirty_frames = 0;
  int64_t invalid_frames = 0;   // TAC: logically invalidated, space wasted
  int64_t capacity_frames = 0;
  // Fault handling (src/fault): device failures seen and survived.
  int64_t device_read_errors = 0;   // failed SSD read attempts
  int64_t device_write_errors = 0;  // failed SSD write attempts
  int64_t read_retries = 0;         // extra attempts after transient errors
  int64_t frame_corruptions = 0;    // checksum/page-id mismatches on frames
  int64_t quarantined_frames = 0;   // frames taken out of service
  int64_t lost_pages = 0;           // dirty pages whose only copy is gone
  int64_t emergency_cleaned = 0;    // LC: dirty frames salvaged at degrade
  int64_t checkpoint_flush_failures = 0;  // FlushAllDirty calls that failed
  bool degraded = false;            // ALL partitions (or the cache) passed-through
  // Self-healing (per-partition degradation + background scrub).
  int64_t partitions_degraded = 0;  // partitions that entered pass-through
  int64_t partitions_recovered = 0; // partitions re-enabled after healing
  int64_t scrub_frames_verified = 0;  // patrol reads that verified clean
  int64_t scrub_frames_repaired = 0;  // corrupt frames re-seeded from disk
  int64_t io_timeouts = 0;          // reads that blew their deadline
  int64_t hedged_reads = 0;         // reads completed from disk via hedging
  // Persistent-cache metadata journal (persistent_ssd_cache mode only).
  int64_t journal_records_appended = 0;
  int64_t journal_pages_written = 0;
  int64_t journal_compactions = 0;
  int64_t journal_write_errors = 0;
};

// Outcome of a persistent-cache warm restart (RecoverPersistentState).
struct PersistentRestoreStats {
  bool journal_valid = false;   // a usable journal epoch was found
  uint64_t journal_epoch = 0;
  bool journal_torn = false;    // append tail truncated at a CRC-torn page
  bool journal_stale = false;   // fell back to an older epoch
  bool scan_fallback = false;   // lazy frame scan ran (journal incomplete)
  size_t entries_recovered = 0;   // journal entries considered
  size_t restored = 0;            // frames re-attached to the cache
  size_t dropped_beyond_horizon = 0;  // LSN > WAL durable horizon: dropped
  // Header/checksum/page-id check failed, clean entry not matching its disk
  // copy, or dirty entry the last completed checkpoint drained.
  size_t dropped_verification = 0;
  size_t reseeded = 0;            // superseded dirty images copied to disk
};

// The SSD manager of Figure 1: the component this paper contributes.
//
// It sits between the buffer manager and the disk manager and decides, page
// by page and at run time, which pages evicted from (or read into) the
// main-memory buffer pool are worth caching on the SSD. Concrete
// subclasses implement the clean-write (CW), dual-write (DW), lazy-cleaning
// (LC) designs of Section 2.3 and the TAC baseline of Canim et al.; a
// NoSsdManager stub gives the unmodified-DBMS baseline.
class SsdManager {
 public:
  virtual ~SsdManager() = default;

  virtual SsdDesign design() const = 0;
  std::string name() const { return ToString(design()); }

  // --- read path -----------------------------------------------------------

  // Non-destructive probe: is `pid` on the SSD, and is the copy newer than
  // the disk version? Must not charge any I/O time.
  virtual SsdProbe Probe(PageId pid) const = 0;

  // Attempts to serve `pid` from the SSD. On success fills `out`, charges
  // the SSD read to ctx (blocking), updates replacement state and returns
  // true. A `true` return means `out` holds a verified image of `pid`
  // (PageView::IsIntactCopyOf): callers do not check it again. Honors throttle control: may refuse when the SSD queue is long,
  // unless the SSD copy is newer than disk (then it must serve the read for
  // correctness, Section 3.3.2).
  //
  // Returns false on any miss or refusal; the caller then reads from disk.
  // If `error` is non-null it distinguishes the one unservable case: the
  // SSD held the *only* current copy (a dirty LC frame) and that copy is
  // unreadable — disk fallback would silently serve stale data, so the
  // caller must surface `*error` instead.
  virtual bool TryReadPage(PageId pid, std::span<uint8_t> out, IoContext& ctx,
                           Status* error = nullptr) = 0;

  // --- notifications from the buffer manager --------------------------------

  // A buffer-pool lookup missed (before the SSD/disk is consulted). TAC
  // accrues extent temperature here.
  virtual void OnBufferPoolMiss(PageId pid, AccessKind kind, IoContext& ctx) {}

  // A page was just read from *disk* into the buffer pool. TAC admits here
  // (write-through immediately after the disk read); the paper's designs
  // only admit on eviction.
  virtual void OnDiskRead(PageId pid, std::span<const uint8_t> data,
                          AccessKind kind, IoContext& ctx) {}

  // A clean page in the buffer pool is about to be modified; any SSD copy
  // must be invalidated (physically for CW/DW/LC, logically for TAC).
  virtual void OnPageDirtied(PageId pid) = 0;

  // A *clean* page is being evicted from the buffer pool.
  virtual void OnEvictClean(PageId pid, std::span<const uint8_t> data,
                            AccessKind kind, IoContext& ctx) = 0;

  // A *dirty* page is being evicted. The WAL rule has already been enforced
  // by the buffer pool (log flushed through `page_lsn`). Returns what the
  // buffer pool must still do.
  virtual EvictionOutcome OnEvictDirty(PageId pid,
                                       std::span<const uint8_t> data,
                                       AccessKind kind, Lsn page_lsn,
                                       IoContext& ctx) = 0;

  // --- checkpoint integration (Section 3.2) ---------------------------------

  virtual void OnCheckpointBegin() {}
  virtual void OnCheckpointEnd() {}

  // A dirty page is being flushed by a checkpoint (not evicted). DW also
  // writes checkpointed random pages to the SSD to fill it with useful data.
  virtual void OnCheckpointWrite(PageId pid, std::span<const uint8_t> data,
                                 AccessKind kind, Lsn page_lsn,
                                 IoContext& ctx) {}

  // Flushes every dirty SSD page to disk (LC; no-op elsewhere). Returns the
  // completion time of the last disk write plus an error channel: a
  // non-kOk status means dirty pages remain (the device failed past the
  // bounded retry, or a dirty frame's only copy was lost mid-flush). The
  // caller — the sharp checkpoint — must then NOT advance the recovery LSN:
  // redo from the previous checkpoint is what heals the stranded pages.
  virtual IoResult FlushAllDirty(IoContext& ctx) {
    return IoResult{ctx.now, Status::Ok()};
  }

  // --- buffer-table snapshot -------------------------------------------------

  // One in-service frame of the SSD buffer table: the unit the persistent
  // cache journals and re-attaches at restart.
  struct CheckpointEntry {
    PageId page_id = kInvalidPageId;
    uint64_t frame = 0;  // device frame holding the copy
    bool dirty = false;
    Lsn page_lsn = kInvalidLsn;
  };
  // Every in-service (clean or dirty) frame: the journal compacts from it.
  virtual std::vector<CheckpointEntry> SnapshotForCheckpoint() const {
    return {};
  }
  // Kept only because perfbench's TracingSsdManager decorator overrides it.
  virtual size_t RestoreFromCheckpoint(
      const std::vector<CheckpointEntry>& entries, IoContext& ctx,
      const std::unordered_map<PageId, Lsn>* max_update_lsn = nullptr,
      std::unordered_map<PageId, Lsn>* covered_lsn = nullptr) {
    return 0;
  }

  // --- persistent SSD cache (persistent_ssd_cache mode) ---------------------

  // Warm restart over a surviving SSD device: recovers the metadata journal,
  // verifies each claimed mapping against the frame's self-identifying page
  // header, reconciles against the WAL durable `horizon` (no frame whose LSN
  // exceeds it is ever re-attached) and re-attaches the survivors — "using
  // the contents of the SSD during the recovery task" (Section 4.1.2).
  // Falls back to a lazy scan of the frame area when the journal is torn,
  // stale or absent. Returns false when the manager does not support (or
  // was not configured for) persistence.
  //
  // `max_update_lsn` is the per-page highest update LSN of the retained
  // durable log, which starts at the last completed checkpoint; no older
  // history is needed, since that checkpoint wrote every page to disk, LC's
  // dirty SSD frames included. With it and the disk copy, verified entries
  // split four ways, in this order:
  //   * clean, disk copy not intact at exactly its LSN -> dropped;
  //   * dirty, no retained record of its LSN (the checkpoint drained it)
  //                               -> dropped, no disk write;
  //   * a newer retained update   -> superseded: not cached; a dirty image
  //     is copied over an older disk copy (seeding the redo base);
  //   * otherwise                 -> restored (dirty stays dirty; the
  //     cleaner resumes).
  // `covered_lsn` receives, per superseded or restored page, the LSN up to
  // which redo may skip update records entirely.
  virtual bool RecoverPersistentState(
      Lsn horizon, IoContext& ctx,
      const std::unordered_map<PageId, Lsn>* max_update_lsn = nullptr,
      std::unordered_map<PageId, Lsn>* covered_lsn = nullptr,
      PersistentRestoreStats* out = nullptr) {
    return false;
  }

  // --- misc ------------------------------------------------------------------

  // If the page's frame latch is held by a pending SSD admission write (the
  // TAC latch-contention pathology, Section 2.5), returns the virtual time
  // the latch frees; otherwise returns 0.
  virtual Time LatchBusyUntil(PageId pid, Time now) { return 0; }

  virtual SsdManagerStats stats() const { return {}; }

  // True while the manager behaves like NoSsdManager: every partition of
  // the cache is in pass-through after repeated device errors.
  virtual bool degraded() const { return false; }

  // Stops self-rescheduling background actors (the patrol scrubber) so a
  // drain to executor idle terminates — the SSD-manager analogue of
  // CheckpointManager::StopPeriodic(). Idempotent; no-op by default.
  virtual void StopBackground() {}
};

// Baseline: the stock buffer manager with no SSD.
class NoSsdManager : public SsdManager {
 public:
  SsdDesign design() const override { return SsdDesign::kNoSsd; }
  SsdProbe Probe(PageId pid) const override { return SsdProbe::kAbsent; }
  bool TryReadPage(PageId, std::span<uint8_t>, IoContext&,
                   Status* = nullptr) override {
    return false;
  }
  void OnPageDirtied(PageId) override {}
  void OnEvictClean(PageId, std::span<const uint8_t>, AccessKind,
                    IoContext&) override {}
  EvictionOutcome OnEvictDirty(PageId, std::span<const uint8_t>, AccessKind,
                               Lsn, IoContext&) override {
    return EvictionOutcome{/*write_to_disk=*/true, /*cached_on_ssd=*/false};
  }
};

}  // namespace turbobp

#endif  // TURBOBP_CORE_SSD_MANAGER_H_
