#include "wal/log_manager.h"

#include <algorithm>

#include "common/status.h"
#include "fault/crash_point.h"

namespace turbobp {

namespace {
// Log pages carry no recoverable content in this model (the in-memory
// LogBuffer is the oracle); flushes write zeros of the right size to charge
// the device.
std::span<const uint8_t> ZeroPages(size_t need) {
  static thread_local std::vector<uint8_t> zeros;
  if (zeros.size() < need) zeros.assign(need, 0);
  return std::span<const uint8_t>(zeros.data(), need);
}
}  // namespace

LogManager::LogManager(StorageDevice* log_device)
    : device_(log_device),
      max_payload_(log_device != nullptr ? log_device->page_bytes() : 0) {
  TURBOBP_CHECK(log_device != nullptr);
}

Lsn LogManager::Append(LogRecordType type, uint64_t txn_id, PageId pid,
                       uint32_t offset, std::span<const uint8_t> payload) {
  TrackedLockGuard lock(mu_);
  const Lsn lsn = next_lsn_;
  buf_.Append(lsn, type, txn_id, pid, offset, payload);
  next_lsn_ += kLogHeaderBytes + payload.size();
  last_record_lsn_ = lsn;
  ++logical_records_;
  ++retained_records_;
  // The record exists in the log buffer but is not durable yet: a crash
  // here loses it (and everything after it) unless a later flush lands.
  TURBOBP_CRASH_POINT("wal/append");
  return lsn;
}

Lsn LogManager::AppendUpdate(uint64_t txn_id, PageId pid, uint32_t offset,
                             std::span<const uint8_t> bytes) {
  // The after-image lies within one page, as TruncateTornTail checks.
  TURBOBP_CHECK(uint64_t{offset} + bytes.size() <= max_payload_);
  return Append(LogRecordType::kUpdate, txn_id, pid, offset, bytes);
}

Lsn LogManager::AppendCommit(uint64_t txn_id) {
  return Append(LogRecordType::kCommit, txn_id, kInvalidPageId, 0, {});
}

Lsn LogManager::AppendBeginCheckpoint() {
  return Append(LogRecordType::kBeginCheckpoint, 0, kInvalidPageId, 0, {});
}

Lsn LogManager::AppendEndCheckpoint() {
  return Append(LogRecordType::kEndCheckpoint, 0, kInvalidPageId, 0, {});
}

void LogManager::StageDeviceWrite(Lsn target, uint64_t* first,
                                  uint32_t* npages) {
  // Durability is tracked by record-start LSN: flushing "to lsn" makes the
  // record beginning at lsn durable.
  const uint64_t pending_bytes = target - durable_lsn_;
  const uint32_t page_bytes = device_->page_bytes();
  *npages = static_cast<uint32_t>(
      std::max<uint64_t>(1, (pending_bytes + page_bytes - 1) / page_bytes));
  // The log is written sequentially; wrap around the device (log truncation
  // of the physical file is outside this model's scope).
  *first = device_offset_pages_;
  if (*first + *npages > device_->num_pages()) {
    *first = 0;
  }
  device_offset_pages_ =
      (*first + *npages) % std::max<uint64_t>(1, device_->num_pages());
}

// The group-commit protocol juggles mu_ around the device write and parks
// followers on flush_cv_, which Clang's thread-safety analysis cannot
// follow (std::unique_lock + condition_variable_any are unannotated).
// Discipline is enforced by the runtime latch-order checker, the TSan CI
// job, and the structural io-under-latch rule instead.
Time LogManager::FlushTo(Lsn lsn, IoContext& ctx)
    TURBOBP_NO_THREAD_SAFETY_ANALYSIS {
  std::unique_lock<TrackedMutex<LatchClass::kWal>> lock(mu_);
  // Clamp to the last appended record (robust to prefix truncation).
  lsn = std::min(lsn, last_record_lsn_);
  if (lsn <= durable_lsn_) return ctx.now;

  bool waited = false;
  for (;;) {
    if (lsn <= durable_lsn_) {
      // A leader's batch covered this LSN while we waited; its virtual
      // completion is the flush completion the caller observes.
      return waited ? std::max(ctx.now, durable_completion_) : ctx.now;
    }
    if (flush_in_flight_) {
      // Follower: a leader is writing with mu_ released. Park; the leader
      // batches everything appended before its write, so one wakeup
      // usually covers us.
      ++flush_waits_;
      waited = true;
      flush_cv_.wait(lock);
      continue;
    }
    // Leader: batch every record appended so far into one device write.
    flush_in_flight_ = true;
    const Lsn target = last_record_lsn_;
    uint64_t first = 0;
    uint32_t npages = 0;
    StageDeviceWrite(target, &first, &npages);
    if (ctx.charge) ++flushes_;
    lock.unlock();

    // About to force the log: nothing new is durable yet.
    TURBOBP_CRASH_POINT("wal/flush-begin");
    const size_t need = static_cast<size_t>(npages) * device_->page_bytes();
    const IoResult res =
        device_->Write(first, npages, ZeroPages(need), ctx.now, ctx.charge);
    // A failed log write means durability can no longer be promised; unlike
    // the SSD cache there is no degraded mode to fall back to.
    TURBOBP_CHECK_OK(res.status);
    // The device accepted the write but durability has not been
    // acknowledged: this is the torn-tail window — a crash here may leave
    // the final log block partially on the medium.
    TURBOBP_CRASH_POINT("wal/flush-device");
    // The leader rides out the write's modeled duration here, with mu_
    // released but flush_in_flight_ still set: commits arriving meanwhile
    // append, park on flush_cv_, and are covered by the *next* leader's
    // batch — this window is what makes group commit group. (Sim mode: only
    // advances ctx.now; threaded mode: wall-sleeps per real_sleep_scale.)
    ctx.Wait(res.time);

    lock.lock();
    durable_lsn_ = target;
    durable_completion_ = res.time;
    flush_in_flight_ = false;
    // The flushed prefix is now durable; pages covered by it may be written.
    TURBOBP_CRASH_POINT("wal/flush-durable");
    lock.unlock();
    // Notify with mu_ released: waking N followers into a held latch is the
    // classic hurry-up-and-wait storm — every wakeup would immediately block
    // on the relock and get billed as kWal contention.
    flush_cv_.notify_all();
    return res.time;  // target >= lsn: the batch covered the caller
  }
}

void LogManager::CommitForce(IoContext& ctx) {
  const Time completion = FlushTo(current_lsn(), ctx);
  // The commit's durability edge: the group-commit flush has been issued
  // and accounted; the client has not yet been released.
  TURBOBP_CRASH_POINT("wal/commit-force");
  ctx.Wait(completion);
}

std::vector<LogRecord> LogManager::records_snapshot() const {
  TrackedLockGuard lock(mu_);
  std::vector<LogRecord> out;
  out.reserve(retained_records_);
  for (const LogRecordView rec : buf_) out.push_back(rec.ToRecord());
  return out;
}

size_t LogManager::TruncatePrefix(Lsn horizon) {
  TrackedLockGuard lock(mu_);
  // Only records that are both durable and below the redo horizon may go:
  // recovery replays from the last completed checkpoint's begin record, and
  // DropUnflushed must still be able to cut the undurable tail.
  size_t dropped = 0;
  auto it = buf_.begin();
  while (it != buf_.end() && it.lsn() < horizon && it.lsn() <= durable_lsn_) {
    ++it;
    ++dropped;
  }
  if (dropped == 0) return 0;
  buf_.DropHead(it != buf_.end() ? it.lsn() : next_lsn_);
  retained_records_ -= dropped;
  records_truncated_ += static_cast<int64_t>(dropped);
  return dropped;
}

size_t LogManager::DropUnflushed() {
  TrackedLockGuard lock(mu_);
  // Everything after the record durable_lsn_ starts is lost; when that
  // record was truncated, every retained record is past it.
  auto cut = buf_.begin();
  if (cut != buf_.end() && cut.lsn() <= durable_lsn_) {
    cut = buf_.At(durable_lsn_);
    ++cut;
  }
  size_t dropped = 0;
  for (auto it = cut; it != buf_.end(); ++it) ++dropped;
  if (dropped > 0) buf_.CutTail(cut.lsn());
  retained_records_ -= dropped;
  logical_records_ -= static_cast<int64_t>(dropped);
  last_record_lsn_ = LastRecordOr(buf_.empty() ? kInvalidLsn : durable_lsn_);
  return dropped;
}

size_t LogManager::TruncateTornTail() {
  TrackedLockGuard lock(mu_);
  // Records past the durable prefix never reached the device: a crash
  // already discards them (see DropUnflushed); truncate here too so replay
  // sees one clean prefix.
  size_t intact = 0;
  Lsn last = kInvalidLsn;
  auto it = buf_.begin();
  for (; it != buf_.end(); ++it) {
    if (it.lsn() > durable_lsn_ || !buf_.Verify(it, max_payload_)) break;
    ++intact;
    last = it.lsn();
  }
  if (it == buf_.end()) return 0;
  const size_t dropped = retained_records_ - intact;
  // Durability retreats to the last intact record — but no further than the
  // truncated prefix boundary, which is durable by construction.
  const Lsn new_durable = LastRecordOr(last);
  next_lsn_ = it.lsn();  // reclaim the torn record's LSN space
  buf_.CutTail(next_lsn_);
  retained_records_ = intact;
  logical_records_ -= static_cast<int64_t>(dropped);
  last_record_lsn_ = new_durable;
  durable_lsn_ = std::min(durable_lsn_, new_durable);
  TURBOBP_CRASH_POINT("wal/truncate-tail");
  return dropped;
}

void LogManager::RestoreDurableState(LogBuffer records, Lsn durable_lsn) {
  TrackedLockGuard lock(mu_);
  buf_ = std::move(records);
  durable_lsn_ = durable_lsn;
  next_lsn_ = buf_.end_lsn();
  // Count by the length fields (the iteration stays inside the segments
  // even where a damaged length points elsewhere); TruncateTornTail
  // verifies the records.
  retained_records_ = 0;
  Lsn last = kInvalidLsn;
  for (auto it = buf_.begin(); it != buf_.end(); ++it) {
    ++retained_records_;
    last = it.lsn();
  }
  logical_records_ = static_cast<int64_t>(retained_records_);
  last_record_lsn_ = LastRecordOr(last);
}

}  // namespace turbobp
