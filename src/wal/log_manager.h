#ifndef TURBOBP_WAL_LOG_MANAGER_H_
#define TURBOBP_WAL_LOG_MANAGER_H_

#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <vector>

#include "common/types.h"
#include "debug/latch_order_checker.h"
#include "storage/io_context.h"
#include "storage/storage_device.h"

namespace turbobp {

enum class LogRecordType : uint8_t {
  kUpdate = 0,      // physical redo: bytes at (page_id, offset)
  kCommit = 1,
  kBeginCheckpoint = 2,
  kEndCheckpoint = 3,
};

// Physiological redo record. Updates carry the after-image bytes of the
// modified byte range (page splits log whole-page images), which is all a
// redo-only recovery pass needs; the workloads in this repo never roll back,
// so no undo information is kept (documented in DESIGN.md).
struct LogRecord {
  Lsn lsn = kInvalidLsn;
  LogRecordType type = LogRecordType::kUpdate;
  uint64_t txn_id = 0;
  PageId page_id = kInvalidPageId;
  uint32_t offset = 0;
  // CRC32-C over every other field, sealed at append time. A record in the
  // durable prefix whose stored checksum no longer matches its content is a
  // torn tail block: replay truncates the log there instead of applying
  // (or asserting on) garbage.
  uint32_t checksum = 0;
  std::vector<uint8_t> bytes;

  // 32-byte header + 4-byte checksum + after-image payload.
  size_t SizeOnDisk() const { return 36 + bytes.size(); }

  uint32_t ComputeChecksum() const;
  void SealChecksum() { checksum = ComputeChecksum(); }
  bool VerifyChecksum() const { return checksum == ComputeChecksum(); }
};

// Write-ahead log over a dedicated log device (the paper's setup uses one
// HDD exclusively for the DBMS log). Appends are buffered; FlushTo() forces
// the log through a given LSN with sequential page-sized writes, which is
// the WAL obligation the buffer pool and the LC cleaner discharge before
// writing any dirty page to the SSD or the disk (Section 2.4).
//
// Flushes use leader-based group commit (DESIGN.md §14): the first thread to
// find no flush in flight becomes the leader, computes the batch under mu_,
// and performs ONE device write covering every record appended so far with
// mu_ *released* — appenders keep appending and followers park on a condvar
// until the leader publishes the new durable LSN. kWal is therefore
// device-io-forbidden in the latch-order spec.
class LogManager {
 public:
  LogManager(StorageDevice* log_device);
  LogManager(const LogManager&) = delete;
  LogManager& operator=(const LogManager&) = delete;

  Lsn AppendUpdate(uint64_t txn_id, PageId pid, uint32_t offset,
                   std::span<const uint8_t> bytes) TURBOBP_EXCLUDES(mu_);
  Lsn AppendCommit(uint64_t txn_id) TURBOBP_EXCLUDES(mu_);
  Lsn AppendBeginCheckpoint() TURBOBP_EXCLUDES(mu_);
  Lsn AppendEndCheckpoint() TURBOBP_EXCLUDES(mu_);

  // Forces the log through `lsn`. Asynchronous in virtual time: consumes
  // log-device time, returns the completion time, leaves ctx.now alone.
  // Idempotent for already-durable LSNs. May block (condvar) behind an
  // in-flight leader write in real-thread mode.
  Time FlushTo(Lsn lsn, IoContext& ctx) TURBOBP_EXCLUDES(mu_);

  // Group commit: forces the whole log and blocks the client until durable.
  void CommitForce(IoContext& ctx) TURBOBP_EXCLUDES(mu_);

  Lsn current_lsn() const TURBOBP_EXCLUDES(mu_) {
    TrackedLockGuard lock(mu_);
    return next_lsn_;
  }
  Lsn durable_lsn() const TURBOBP_EXCLUDES(mu_) {
    TrackedLockGuard lock(mu_);
    return durable_lsn_;
  }
  bool IsDurable(Lsn lsn) const { return lsn <= durable_lsn(); }

  // Records logically in the log (including any truncated in-memory
  // prefix — truncation discards buffered copies, not log history) and
  // flush requests issued (stats).
  int64_t num_records() const TURBOBP_EXCLUDES(mu_) {
    TrackedLockGuard lock(mu_);
    return logical_records_;
  }
  int64_t flushes_issued() const TURBOBP_EXCLUDES(mu_) {
    TrackedLockGuard lock(mu_);
    return flushes_;
  }
  int64_t bytes_appended() const TURBOBP_EXCLUDES(mu_) {
    TrackedLockGuard lock(mu_);
    return static_cast<int64_t>(next_lsn_);
  }
  // Group-commit observability: flushes_issued() counts leader batches;
  // flush_waits() counts times a caller parked behind an in-flight batch.
  int64_t flush_waits() const TURBOBP_EXCLUDES(mu_) {
    TrackedLockGuard lock(mu_);
    return flush_waits_;
  }

  // --- record access ---------------------------------------------------------

  // Point-in-time copy of the buffered records, taken under mu_. Safe to
  // call while other threads append; this is the accessor every
  // steady-state caller must use.
  std::vector<LogRecord> records_snapshot() const TURBOBP_EXCLUDES(mu_) {
    TrackedLockGuard lock(mu_);
    return records_;
  }

  // Latch-free reference into the live record buffer — the documented
  // single-threaded fast path for recovery and the crash harness, both of
  // which run while no client executes (recovery replays before the system
  // opens; the harness observes from inside a crash point). Iterating this
  // while another thread appends is a data race; concurrent callers use
  // records_snapshot(). The structural checker audits the call sites.
  const std::vector<LogRecord>& records_for_recovery() const
      TURBOBP_NO_THREAD_SAFETY_ANALYSIS {
    return records_;
  }

  // --- in-memory tail bounding ----------------------------------------------

  // Drops the in-memory prefix of records that are durable AND strictly
  // below `horizon` (the redo horizon of the last completed checkpoint:
  // recovery never reads below it, so the buffered copies are dead weight a
  // long-running threaded soak would otherwise accumulate without bound).
  // Returns the number of records dropped. LSNs, durability and
  // num_records() are unaffected — only buffered copies are released.
  size_t TruncatePrefix(Lsn horizon) TURBOBP_EXCLUDES(mu_);

  // Records currently buffered in memory (bounded-memory assertions).
  size_t retained_records() const TURBOBP_EXCLUDES(mu_) {
    TrackedLockGuard lock(mu_);
    return records_.size();
  }
  int64_t records_truncated() const TURBOBP_EXCLUDES(mu_) {
    TrackedLockGuard lock(mu_);
    return records_truncated_;
  }

  // Simulates a crash: discards records that were never forced to the log
  // device. Returns the number of records lost.
  size_t DropUnflushed();

  // Torn-tail hardening (replay path): verifies the per-record checksum of
  // every record in the durable prefix, in order, and truncates the log at
  // the first bad record — that record and everything after it are dropped,
  // the durable LSN retreats to the last intact record, and new appends
  // reuse the reclaimed LSN space. A torn final log block is thereby
  // *recovered from* instead of asserted on. Idempotent; returns the number
  // of records dropped (0 on a clean log).
  size_t TruncateTornTail();

  // --- crash-harness interface (src/fault/crash_harness) --------------------

  // The durable-at-this-instant view of the log. Taken WITHOUT the WAL
  // latch: crash points inside the flush path fire while mu_ may be held,
  // so the observer cannot use the locking accessors. The simulation is
  // single-threaded per system; the harness is the only caller.
  struct CrashSnapshot {
    std::vector<LogRecord> records;
    Lsn durable_lsn = 0;
    Lsn next_lsn = 1;
  };
  CrashSnapshot SnapshotForCrash() const TURBOBP_NO_THREAD_SAFETY_ANALYSIS {
    return CrashSnapshot{records_, durable_lsn_, next_lsn_};
  }

  // Rebuilds a fresh LogManager's state from a crash snapshot, as if the
  // records were read back from the log device at restart. The caller may
  // have corrupted a record body (keeping its stale checksum) to model a
  // torn tail block; TruncateTornTail() then prunes it during replay.
  void RestoreDurableState(std::vector<LogRecord> records, Lsn durable_lsn);

 private:
  Lsn Append(LogRecord rec) TURBOBP_EXCLUDES(mu_);
  // Computes the device extent covering [durable_lsn_, target] and advances
  // the sequential log-device cursor.
  void StageDeviceWrite(Lsn target, uint64_t* first, uint32_t* npages)
      TURBOBP_REQUIRES(mu_);

  // WAL latch: serializes appends and the flush-protocol state. Acquired
  // under the buffer pool latch on the eviction path (kBufferPool -> kWal)
  // and standalone by checkpoints and group commit. Device-io-forbidden:
  // the group-commit leader drops mu_ for the batched log-device write.
  mutable TrackedMutex<LatchClass::kWal> mu_;
  StorageDevice* device_;
  std::vector<LogRecord> records_ TURBOBP_GUARDED_BY(mu_);
  Lsn next_lsn_ TURBOBP_GUARDED_BY(mu_) = 1;  // byte-offset LSN; 0 invalid
  Lsn durable_lsn_ TURBOBP_GUARDED_BY(mu_) = 0;
  // Start LSN of the last appended record (survives prefix truncation;
  // FlushTo clamps against it the way it used to clamp against
  // records_.back()).
  Lsn last_record_lsn_ TURBOBP_GUARDED_BY(mu_) = 0;
  // First retained LSN: records with lsn < base_lsn_ were truncated (all
  // durable). TruncateTornTail retreats durability no further than this.
  Lsn base_lsn_ TURBOBP_GUARDED_BY(mu_) = 1;
  // Wraps around the log device.
  uint64_t device_offset_pages_ TURBOBP_GUARDED_BY(mu_) = 0;
  int64_t flushes_ TURBOBP_GUARDED_BY(mu_) = 0;
  int64_t logical_records_ TURBOBP_GUARDED_BY(mu_) = 0;
  int64_t records_truncated_ TURBOBP_GUARDED_BY(mu_) = 0;
  int64_t flush_waits_ TURBOBP_GUARDED_BY(mu_) = 0;

  // Group-commit protocol state. flush_in_flight_ is true while a leader
  // writes to the device with mu_ released; followers park on flush_cv_
  // and re-check durable_lsn_ when notified. Completion of the flush that
  // established durable_lsn_, in virtual time (what a woken follower
  // returns as its flush completion).
  bool flush_in_flight_ TURBOBP_GUARDED_BY(mu_) = false;
  Time durable_completion_ TURBOBP_GUARDED_BY(mu_) = 0;
  std::condition_variable_any flush_cv_;
};

}  // namespace turbobp

#endif  // TURBOBP_WAL_LOG_MANAGER_H_
