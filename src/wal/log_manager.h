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
#include "wal/log_buffer.h"

namespace turbobp {

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

  // Point-in-time decoded copy of the buffered records, taken under mu_.
  // Safe to call while other threads append; tests use it to read the log.
  std::vector<LogRecord> records_snapshot() const TURBOBP_EXCLUDES(mu_);

  // Latch-free reference to the live record buffer — the documented
  // single-threaded fast path for recovery and the crash harness, both of
  // which run while no client executes (recovery replays before the system
  // opens; the harness observes from inside a crash point). Iterating this
  // while another thread appends is a data race; concurrent callers use
  // records_snapshot().
  const LogBuffer& records_for_recovery() const
      TURBOBP_NO_THREAD_SAFETY_ANALYSIS {
    return buf_;
  }

  // --- in-memory tail bounding ----------------------------------------------

  // Drops the in-memory prefix of records that are durable AND strictly
  // below `horizon` (the redo horizon of the last completed checkpoint:
  // recovery never reads below it, so the buffered copies are dead weight a
  // long-running threaded soak would otherwise accumulate without bound).
  // The head cursor moves record by record; whole segments behind it are
  // released for reuse. Returns the number of records dropped. LSNs,
  // durability and num_records() are unaffected — only buffered copies
  // are released.
  size_t TruncatePrefix(Lsn horizon) TURBOBP_EXCLUDES(mu_);

  // Records currently buffered in memory (bounded-memory assertions).
  size_t retained_records() const TURBOBP_EXCLUDES(mu_) {
    TrackedLockGuard lock(mu_);
    return retained_records_;
  }
  int64_t records_truncated() const TURBOBP_EXCLUDES(mu_) {
    TrackedLockGuard lock(mu_);
    return records_truncated_;
  }

  // Simulates a crash: discards records that were never forced to the log
  // device. Returns the number of records lost.
  size_t DropUnflushed() TURBOBP_EXCLUDES(mu_);

  // Torn-tail hardening (replay path): parses and verifies every record of
  // the durable prefix, in order (LogBuffer::Verify against the log
  // device's page size), and truncates the log at the first bad record —
  // that record and everything after it are dropped, the durable LSN
  // retreats to the last intact record, and new appends reuse the reclaimed
  // LSN space. A torn final log block is thereby *recovered from* instead of
  // asserted on. Idempotent; returns the number of records dropped (0 on a
  // clean log).
  size_t TruncateTornTail() TURBOBP_EXCLUDES(mu_);

  // --- crash-harness interface (src/fault/crash_harness) --------------------

  // The log as a power cut at this instant leaves it. Taken WITHOUT the WAL
  // latch: crash points inside the flush path fire while mu_ may be held,
  // so the observer cannot use the locking accessors. The simulation is
  // single-threaded per system; the harness is the only caller. The
  // snapshot shares the log's segments copy-on-write.
  struct CrashSnapshot {
    LogBuffer records;
    Lsn durable_lsn = 0;
  };
  CrashSnapshot SnapshotForCrash() const TURBOBP_NO_THREAD_SAFETY_ANALYSIS {
    return CrashSnapshot{buf_, durable_lsn_};
  }

  // Rebuilds a fresh LogManager's state from records read back from the
  // log device at restart. The caller may have damaged bytes of the records
  // (a torn tail block); TruncateTornTail() then prunes them during replay.
  void RestoreDurableState(LogBuffer records, Lsn durable_lsn)
      TURBOBP_EXCLUDES(mu_);

 private:
  Lsn Append(LogRecordType type, uint64_t txn_id, PageId pid, uint32_t offset,
             std::span<const uint8_t> payload) TURBOBP_EXCLUDES(mu_);
  // last_record_lsn_ of a log whose newest retained record starts at
  // `last` (kInvalidLsn when none is retained).
  Lsn LastRecordOr(Lsn last) const TURBOBP_REQUIRES(mu_) {
    return last != kInvalidLsn ? last
                               : (buf_.head() > 1 ? buf_.head() - 1 : 0);
  }
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
  // Largest update payload a record may carry: the log device's page size
  // (an update's after-image lies within one page).
  const uint32_t max_payload_;
  // The serialized records. Its head cursor is the first retained LSN:
  // records below it were truncated (all durable), and TruncateTornTail
  // retreats durability no further than it.
  LogBuffer buf_ TURBOBP_GUARDED_BY(mu_);
  Lsn next_lsn_ TURBOBP_GUARDED_BY(mu_) = 1;  // byte-offset LSN; 0 invalid
  Lsn durable_lsn_ TURBOBP_GUARDED_BY(mu_) = 0;
  // Start LSN of the last appended record (survives prefix truncation;
  // FlushTo clamps against it).
  Lsn last_record_lsn_ TURBOBP_GUARDED_BY(mu_) = 0;
  // Wraps around the log device.
  uint64_t device_offset_pages_ TURBOBP_GUARDED_BY(mu_) = 0;
  int64_t flushes_ TURBOBP_GUARDED_BY(mu_) = 0;
  int64_t logical_records_ TURBOBP_GUARDED_BY(mu_) = 0;
  int64_t records_truncated_ TURBOBP_GUARDED_BY(mu_) = 0;
  size_t retained_records_ TURBOBP_GUARDED_BY(mu_) = 0;
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
