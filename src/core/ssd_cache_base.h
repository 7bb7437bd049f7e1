#ifndef TURBOBP_CORE_SSD_CACHE_BASE_H_
#define TURBOBP_CORE_SSD_CACHE_BASE_H_

#include <atomic>
#include <memory>
#include <mutex>
#include <unordered_set>
#include <vector>

#include "core/ssd_buffer_table.h"
#include "core/ssd_heap.h"
#include "core/ssd_manager.h"
#include "core/ssd_metadata_journal.h"
#include "debug/latch_order_checker.h"
#include "storage/disk_manager.h"
#include "storage/storage_device.h"

namespace turbobp {

class SimExecutor;
class InvariantAuditor;
struct AuditAccess;

// Tuning parameters of Table 2, plus the fault-tolerance policy knobs.
struct SsdCacheOptions {
  int64_t num_frames = 18350080;     // S: SSD buffer pool size in frames
  int num_partitions = 16;           // N: one per hardware context (3.3.4)
  double aggressive_fill = 0.95;     // tau: admit everything below this fill
  int throttle_queue_limit = 100;    // mu: skip SSD I/O beyond this queue
  double lc_dirty_fraction = 0.5;    // lambda: LC cleaner high watermark
  int lc_group_pages = 32;           // alpha: max pages per cleaner write
  // Fault tolerance (src/fault): transient SSD errors and checksum
  // mismatches are retried up to io_retry_limit attempts with
  // kIoRetryBackoff of virtual time between them. Device errors charge a
  // time-decayed per-partition budget: once a partition accumulates
  // degrade_error_limit errors inside one error_window, that partition
  // (alone) flips to pass-through — the rest of the cache keeps serving.
  int io_retry_limit = 3;
  static constexpr Time kIoRetryBackoff = Micros(500);
  int64_t degrade_error_limit = 8;
  Time error_window = Seconds(10);
  // Self-healing (scrub & re-admission). A degraded partition is probed
  // with canary writes once it has been error-free for quiet_window; it is
  // re-enabled only while its window budget is at or below
  // kRecoverErrorLimit (hysteresis: recover threshold << degrade
  // threshold).
  static constexpr int64_t kRecoverErrorLimit = 1;
  Time quiet_window = Seconds(5);
  // Patrol scrubber: ScrubTick verifies up to scrub_frames_per_tick frames
  // per call. scrub_interval > 0 additionally self-schedules ticks on the
  // executor (0 leaves the scrubber caller-driven: tests, chaos soak).
  Time scrub_interval = 0;
  int scrub_frames_per_tick = 64;
  // Read deadlines and hedging: an SSD frame read whose device *service*
  // time (completion minus IoResult::service_start — queue wait excluded,
  // so congestion on a busy cache is never booked as sickness) exceeds
  // read_deadline counts as an io_timeout toward the partition's error
  // budget; for clean frames (disk holds an identical copy) the read is
  // hedged to disk at the deadline instead of waiting out the stall.
  // 0 disables deadlines.
  Time read_deadline = 0;
  // Persistent SSD cache: journal the buffer table to a metadata region at
  // the tail of the SSD device (past the frame area), so cache contents
  // survive a restart. The device must provide num_frames +
  // SsdMetadataJournal::RegionPagesFor(num_frames, page_bytes) pages.
  bool persistent_cache = false;
};

// Common machinery shared by the CW/DW/LC designs and TAC: the partitioned
// buffer table / page index / free list / split heap of Section 3.1, the
// admission policy of Section 2.2 (random-only plus aggressive filling,
// Section 3.3.1), throttle control (Section 3.3.2) and the SSD read/write
// paths. Concrete designs supply the eviction-time behaviour.
class SsdCacheBase : public SsdManager {
 public:
  // `temperature_key` orders every partition's heap by the records'
  // extent-temperature snapshots (TAC) instead of LRU-2.
  SsdCacheBase(StorageDevice* ssd_device, DiskManager* disk,
               const SsdCacheOptions& options, SimExecutor* executor,
               bool temperature_key = false);

  // --- SsdManager parts common to all designs -------------------------------

  SsdProbe Probe(PageId pid) const override;
  bool TryReadPage(PageId pid, std::span<uint8_t> out, IoContext& ctx,
                   Status* error = nullptr) override;
  void OnPageDirtied(PageId pid) override;
  void OnEvictClean(PageId pid, std::span<const uint8_t> data, AccessKind kind,
                    IoContext& ctx) override;
  SsdManagerStats stats() const override;

  // Every in-service frame of the buffer table (journal compaction source).
  std::vector<CheckpointEntry> SnapshotForCheckpoint() const override;

  // Persistent cache (options().persistent_cache): warm restart from the
  // metadata journal + frame headers, reconciled against the WAL durable
  // horizon. See RecoverPersistentState in SsdManager for the contract.
  bool RecoverPersistentState(
      Lsn horizon, IoContext& ctx,
      const std::unordered_map<PageId, Lsn>* max_update_lsn = nullptr,
      std::unordered_map<PageId, Lsn>* covered_lsn = nullptr,
      PersistentRestoreStats* out = nullptr) override;

  // Checkpoint hook shared by every design: force-flushes the staged
  // journal records so the on-device journal catches up at least once per
  // checkpoint. LC chains to this from its dirty-frame drain.
  IoResult FlushAllDirty(IoContext& ctx) override;

  // The metadata journal, when persistent_cache is on (tests/harness).
  SsdMetadataJournal* journal() { return journal_.get(); }

  const SsdCacheOptions& options() const { return options_; }
  int64_t used_frames() const { return used_frames_.load(); }
  int64_t dirty_frames() const { return dirty_frames_.load(); }
  int64_t quarantined_frames() const { return quarantined_frames_.load(); }

  // --- graceful degradation (survive a flaky or dying SSD) ------------------

  // True while the whole cache behaves like NoSsdManager: every partition
  // is in pass-through.
  bool degraded() const override {
    return degraded_partitions_.load(std::memory_order_acquire) >=
           static_cast<int>(partitions_.size());
  }

  // Degrades every partition now (tests/operator action); normally
  // degradation is per-partition, triggered by the partition's error budget.
  // Not terminal: the patrol scrubber heals each partition like any other.
  void Degrade(IoContext& ctx)
      TURBOBP_EXCLUDES(TURBOBP_LATCH_CAP(LatchClass::kSsdPartition)) {
    for (auto& partp : partitions_) DegradePartition(*partp, ctx);
  }

  // --- self-healing (scrub, canary probes, re-admission) --------------------

  // One patrol pass: verifies up to options().scrub_frames_per_tick frames
  // (round-robin cursor across partitions), quarantines-and-repairs corrupt
  // ones from their disk copies, then probes every degraded partition with
  // a canary write and re-enables those whose error budget has recovered
  // under hysteresis. Returns the number of frames whose checksum verified.
  // Must be called without partition latches (it takes them itself).
  int ScrubTick(IoContext& ctx)
      TURBOBP_EXCLUDES(TURBOBP_LATCH_CAP(LatchClass::kSsdPartition));

  // Degrades one partition by index (tests/operator action; chaos harness).
  void DegradePartitionAt(size_t index, IoContext& ctx)
      TURBOBP_EXCLUDES(TURBOBP_LATCH_CAP(LatchClass::kSsdPartition));

  // Stops the self-scheduling scrub actor (idempotent). Driver::Run calls
  // this before draining the executor to idle; Crash() safety is handled by
  // the liveness token (a pending ScrubStep event outliving this object
  // no-ops instead of firing into freed memory).
  void StopBackground() override {
    if (scrub_alive_ != nullptr) *scrub_alive_ = false;
  }

  size_t partition_count() const { return partitions_.size(); }
  bool partition_degraded(size_t index) const {
    return partitions_[index]->degraded.load(std::memory_order_acquire);
  }
  int64_t degraded_partition_count() const {
    return degraded_partitions_.load(std::memory_order_acquire);
  }

  // Pages whose only current copy sat in a dirty SSD frame that could not
  // be salvaged. Reads of these pages fail hard (disk would be stale);
  // recovery (WAL redo) or a full page rewrite clears them.
  bool IsLostPage(PageId pid) const TURBOBP_EXCLUDES(fault_mu_);
  std::vector<PageId> LostPages() const TURBOBP_EXCLUDES(fault_mu_);

 protected:
  struct Partition {
    Partition(int32_t cap, bool temperature_key)
        : table(cap),
          heap(&table, SsdFrameKey{&table, temperature_key}),
          capacity(cap) {}
    SsdBufferTable table TURBOBP_GUARDED_BY(mu);
    SsdSplitHeap<> heap TURBOBP_GUARDED_BY(mu);
    int64_t frame_base = 0;  // device page of this partition's frame 0
    int32_t capacity = 0;    // table.capacity(), readable without mu
    // Health state (self-healing v2). Plain atomics, not guarded by mu:
    // they are read on hot paths before the latch is taken, and written
    // from error paths that may or may not hold it. The races are benign —
    // an error event can land in the closing instants of a stale window.
    // Pass-through flag. Publish protocol: stored true only under mu, after
    // the partition was salvaged AND purged — a reader that observes true
    // may skip the latch and fall back to disk, so the flag must never be
    // visible while the table can still hold a newer-than-disk frame.
    std::atomic<bool> degraded{false};
    // Mutual-exclusion guard for the degrade sequence itself (the visible
    // flag above is set too late to serve as one). Re-armed by a heal.
    std::atomic<bool> degrading{false};
    std::atomic<int64_t> window_errors{0};  // errors inside current window
    std::atomic<Time> window_start{0};      // when the current window opened
    std::atomic<Time> last_error_at{0};     // quiet-window clock for canaries
    // SSD device I/O runs *under* mu by design (one partition per hardware
    // context, Section 3.3.4) — see the latch-order spec table.
    mutable TrackedMutex<LatchClass::kSsdPartition> mu;
  };

  Partition& PartitionFor(PageId pid) {
    return *partitions_[static_cast<size_t>(
        (pid * 0xD1B54A32D192ED03ull) >> 32 & 0xFFFFFFFFull) %
                        partitions_.size()];
  }
  const Partition& PartitionFor(PageId pid) const {
    return const_cast<SsdCacheBase*>(this)->PartitionFor(pid);
  }

  // Admission policy of Section 2.2: below the aggressive-fill threshold
  // everything is admitted; afterwards only pages whose (random) re-access
  // would be faster from the SSD than from the disk — i.e. kRandom pages.
  bool AdmissionAllows(AccessKind kind);

  // Throttle control: true when the SSD queue exceeds mu.
  bool ThrottleBlocks(Time now);

  // Inserts (or refreshes) `pid` in the cache, evicting a replacement
  // victim if needed. Returns false when no frame could be obtained (all
  // valid pages dirty, partition exhausted). Performs the asynchronous SSD
  // write when new content must land on the device.
  bool AdmitPage(PageId pid, std::span<const uint8_t> data, AccessKind kind,
                 bool dirty, Lsn page_lsn, IoContext& ctx);

  // Quarantines `rec` while it is still on the free list (restore-time
  // corruption: the frame never entered service, so QuarantineFrameLocked's
  // used-frame bookkeeping does not apply).
  void QuarantineRestoredFrame(Partition& part, int32_t rec)
      TURBOBP_REQUIRES(part.mu);

  // Picks a replacement victim in `part` (clean-heap root by default;
  // TAC overrides with coldest-valid-temperature). Returns -1 if none.
  virtual int32_t PickVictim(Partition& part) TURBOBP_REQUIRES(part.mu);

  // Unlinks `rec` from the index and heap (it stays allocated for reuse).
  void DetachRecord(Partition& part, int32_t rec) TURBOBP_REQUIRES(part.mu);
  // Returns an in-service `rec` to the free list: dirty and used counts,
  // detach, free-list push, journal erase.
  void ReleaseFrameLocked(Partition& part, int32_t rec)
      TURBOBP_REQUIRES(part.mu);

  // Device page holding `rec` of `part`.
  uint64_t FrameOf(const Partition& part, int32_t rec) const {
    return static_cast<uint64_t>(part.frame_base + rec);
  }

  // Asynchronous single-frame SSD write with bounded retry for transients;
  // returns the completion result. On failure the frame content is suspect
  // (possibly torn) — the caller must not serve reads from it.
  IoResult WriteFrame(Partition& part, int32_t rec,
                      std::span<const uint8_t> data, IoContext& ctx)
      TURBOBP_REQUIRES(part.mu);
  // Blocking single-frame SSD read into `out` (advances ctx.now), verifying
  // that `out` really holds `pid` at a valid checksum and retrying
  // (re-reading) transient errors and corruptions up to
  // options().io_retry_limit attempts. kCorruption after the last attempt
  // means the frame itself is bad (candidate for quarantine). With
  // `hedge_ok` (clean frames only: the disk copy is identical) a read whose
  // device completion exceeds options().read_deadline is hedged: the page
  // is re-read from disk at the deadline instant instead of waiting out the
  // stall, and the timeout still charges the partition's error budget.
  Status ReadFrameVerified(Partition& part, int32_t rec, PageId pid,
                           std::span<uint8_t> out, IoContext& ctx,
                           bool hedge_ok = false) TURBOBP_REQUIRES(part.mu);

  // Takes `rec` out of service permanently: detached from index and heap,
  // never returned to the free list (the flash cells are bad), state
  // kQuarantined. Partition lock must be held.
  void QuarantineFrameLocked(Partition& part, int32_t rec)
      TURBOBP_REQUIRES(part.mu);

  // Counts one device error against `part`'s time-decayed budget (errors
  // within the last options().error_window); safe under a partition lock
  // (it only touches atomics — the actual mode flip is deferred to
  // MaybeDegrade). `now` stamps the error for window decay and the
  // quiet-window clock.
  void RecordDeviceError(Partition& part, Time now);
  // Journal write failures share the medium with every partition's frames:
  // charge all budgets (matching the old cache-global accounting).
  void RecordJournalError(Time now);
  // `part`'s error budget as of `now`: 0 once the window has lapsed.
  int64_t WindowErrors(const Partition& part, Time now) const;
  // Consume the deferred error events and flip any partition whose budget
  // is blown into pass-through. Must be called WITHOUT any partition lock
  // held: DegradePartition takes the failing partition's lock for the
  // whole salvage+purge+publish sequence.
  void MaybeDegrade(IoContext& ctx)
      TURBOBP_EXCLUDES(TURBOBP_LATCH_CAP(LatchClass::kSsdPartition));
  // Flips one partition into pass-through. Under ONE hold of part.mu:
  // salvage hook, then purge (every in-service frame released and
  // journal-erased — pass-through writes go to disk, so stale frames must
  // not survive to a later re-enable), and only then the part.degraded
  // store. Publishing the flag any earlier is a silent stale-read window:
  // lock-free readers would bypass the latch and serve the stale disk copy
  // while the only current copy sat in a dirty frame awaiting salvage.
  void DegradePartition(Partition& part, IoContext& ctx)
      TURBOBP_EXCLUDES(TURBOBP_LATCH_CAP(LatchClass::kSsdPartition));
  void PurgePartitionLocked(Partition& part) TURBOBP_REQUIRES(part.mu);
  // Canary-probes a degraded partition and re-enables it when the probe
  // succeeds and the error budget has recovered under hysteresis.
  void TryHealPartition(Partition& part, IoContext& ctx)
      TURBOBP_EXCLUDES(TURBOBP_LATCH_CAP(LatchClass::kSsdPartition));

  // Design-specific salvage, run by DegradePartition before the purge with
  // part.mu already held; LC overrides it to emergency-flush the failing
  // partition's dirty frames (the only current copies) to disk.
  virtual void OnPartitionDegrade(Partition& part, IoContext& ctx)
      TURBOBP_REQUIRES(part.mu) {}

  // Records that the only current copy of `pid` is gone.
  void RecordLostPage(PageId pid) TURBOBP_EXCLUDES(fault_mu_);
  // A full-page rewrite (NewPage) or redo supersedes the lost copy.
  void ClearLostPage(PageId pid) TURBOBP_EXCLUDES(fault_mu_);

  // Drops the cached copy of `pid`, if any (the clean->dirty transition).
  void Invalidate(PageId pid);

  // --- persistent-cache journal hooks ---------------------------------------
  // Optimistic publish-then-seal: the in-memory table mutation has already
  // happened (under the partition latch) when these stage the matching
  // journal record. No-ops when persistence is off (latch order
  // kSsdPartition -> kSsdJournal makes the calls legal under a partition
  // latch).
  void NoteJournalPut(uint64_t frame, PageId pid, Lsn page_lsn, bool dirty) {
    if (journal_ != nullptr) journal_->NotePut(frame, pid, page_lsn, dirty);
  }
  void NoteJournalErase(uint64_t frame) {
    if (journal_ != nullptr) journal_->NoteErase(frame);
  }
  // Writes staged journal records to the device when enough have gathered
  // (always, when `force`). Must be called OUTSIDE partition latches; a
  // write failure counts as a device error toward degradation.
  void MaintainJournal(IoContext& ctx, bool force = false)
      TURBOBP_EXCLUDES(TURBOBP_LATCH_CAP(LatchClass::kSsdPartition));

  SsdCacheOptions options_;
  StorageDevice* ssd_device_;
  DiskManager* disk_;
  SimExecutor* executor_;
  std::vector<std::unique_ptr<Partition>> partitions_;

  // Persistent-cache metadata journal (null unless persistent_cache).
  std::unique_ptr<SsdMetadataJournal> journal_;

  std::atomic<int64_t> used_frames_{0};
  std::atomic<int64_t> dirty_frames_{0};
  std::atomic<int64_t> invalid_frames_{0};
  std::atomic<int64_t> quarantined_frames_{0};

  // Degradation state. device_errors_ counts every failed SSD attempt
  // (lifetime, for stats and the cheap has-anything-changed check in
  // MaybeDegrade); degraded_partitions_ mirrors the per-partition flags so
  // degraded() and the auditor need no O(partitions) scan.
  std::atomic<int64_t> device_errors_{0};
  std::atomic<int64_t> degrade_scanned_{0};  // device_errors_ at last scan
  std::atomic<int64_t> degraded_partitions_{0};

  // Patrol cursor of the background scrubber. scrub_mu_ is held only for
  // the copy/advance arithmetic — never across a partition latch or device
  // I/O (see the latch-order spec).
  mutable TrackedMutex<LatchClass::kSsdScrub> scrub_mu_;
  size_t scrub_part_ TURBOBP_GUARDED_BY(scrub_mu_) = 0;
  int32_t scrub_rec_ TURBOBP_GUARDED_BY(scrub_mu_) = 0;
  // Liveness token for the scrub actor: scheduled events hold a weak_ptr,
  // so an event that outlives this cache (Crash() rebuilds the manager with
  // events still queued) no-ops instead of touching freed memory. Setting
  // the bool false (StopBackground) stops rescheduling without waiting.
  std::shared_ptr<bool> scrub_alive_;

  // Lost pages (dirty copies that died with the device). lost_live_ is a
  // lock-free emptiness guard so the hot read path skips fault_mu_ while
  // nothing has been lost (the overwhelmingly common case).
  mutable TrackedMutex<LatchClass::kSsdFault> fault_mu_;
  std::unordered_set<PageId> lost_pages_ TURBOBP_GUARDED_BY(fault_mu_);
  std::atomic<int64_t> lost_live_{0};

  // Stats counters: relaxed atomics, incremented from any thread (often
  // under a partition lock) and snapshotted by stats() without one.
  struct Counters {
    // Probe classifications: bumped once per TryReadPage outcome that lands
    // in hits or probe_misses (throttle skips and read errors classify as
    // neither). Incremented LAST, with release ordering, so a snapshot that
    // reads ops first (acquire) always observes hits + probe_misses >= ops
    // — the conservation invariant stats() promises even mid-probe.
    std::atomic<int64_t> ops{0};
    std::atomic<int64_t> hits{0};
    std::atomic<int64_t> hits_dirty{0};
    std::atomic<int64_t> probe_misses{0};
    std::atomic<int64_t> admissions{0};
    std::atomic<int64_t> evictions{0};
    std::atomic<int64_t> throttled{0};
    std::atomic<int64_t> rejected_sequential{0};
    std::atomic<int64_t> cleaner_disk_writes{0};
    std::atomic<int64_t> cleaner_io_requests{0};
    std::atomic<int64_t> invalidations{0};
    std::atomic<int64_t> device_read_errors{0};
    std::atomic<int64_t> device_write_errors{0};
    std::atomic<int64_t> read_retries{0};
    std::atomic<int64_t> frame_corruptions{0};
    std::atomic<int64_t> emergency_cleaned{0};
    std::atomic<int64_t> checkpoint_flush_failures{0};
    std::atomic<int64_t> partitions_degraded{0};
    std::atomic<int64_t> partitions_recovered{0};
    std::atomic<int64_t> scrub_frames_verified{0};
    std::atomic<int64_t> scrub_frames_repaired{0};
    std::atomic<int64_t> io_timeouts{0};
    std::atomic<int64_t> hedged_reads{0};

    static void Bump(std::atomic<int64_t>& c, int64_t by = 1) {
      c.fetch_add(by, std::memory_order_relaxed);
    }
    // Bumps a classification counter and then seals the probe into ops.
    void Classified(std::atomic<int64_t>& c) {
      c.fetch_add(1, std::memory_order_relaxed);
      ops.fetch_add(1, std::memory_order_release);
    }
  };
  mutable Counters counters_;

 private:
  // AdmitPage's body (everything under the partition latch); the public
  // wrapper runs journal maintenance after the latch is released.
  bool AdmitPageImpl(PageId pid, std::span<const uint8_t> data,
                     AccessKind kind, bool dirty, Lsn page_lsn,
                     IoContext& ctx);

  // One patrol step: verify the frame under the scrub cursor (advancing it).
  // Returns true when a frame's checksum verified. `buf` is the caller's
  // page-sized scratch buffer (reused across the tick).
  bool ScrubOneSlot(IoContext& ctx, std::vector<uint8_t>& buf)
      TURBOBP_EXCLUDES(TURBOBP_LATCH_CAP(LatchClass::kSsdPartition));
  // Re-seeds a quarantined-then-lost *clean* page from its disk copy into a
  // healthy frame (low-priority via the disk engine when configured).
  void RepairFrame(PageId pid, IoContext& ctx)
      TURBOBP_EXCLUDES(TURBOBP_LATCH_CAP(LatchClass::kSsdPartition));
  // Self-scheduling executor actor driving ScrubTick every scrub_interval.
  void ScrubStep();

  // RecoverPersistentState's re-attach step: verifies each entry against
  // its device frame and the disk, and restores, reseeds or drops it;
  // `stats` receives the restore/drop/reseed breakdown.
  void RestoreEntries(const std::vector<CheckpointEntry>& entries,
                      IoContext& ctx,
                      const std::unordered_map<PageId, Lsn>* max_update_lsn,
                      std::unordered_map<PageId, Lsn>* covered_lsn,
                      PersistentRestoreStats& stats);

  // Lazy-scan fallback for a torn/stale/absent journal: reads every frame
  // NOT claimed by `known` (may be null: scan everything), keeps the ones
  // whose self-identifying header checks out, and classifies them
  // clean/dirty against the current disk copy's LSN.
  std::vector<CheckpointEntry> LazyScanEntries(
      IoContext& ctx,
      const std::unordered_map<uint64_t, SsdMetadataJournal::RecoveredEntry>*
          known);

  friend class InvariantAuditor;  // read-only structural audits (src/debug)
  friend struct AuditAccess;      // corruption injection in auditor tests
};

}  // namespace turbobp

#endif  // TURBOBP_CORE_SSD_CACHE_BASE_H_
