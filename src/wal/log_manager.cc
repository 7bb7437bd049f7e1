#include "wal/log_manager.h"

#include <algorithm>
#include <cstring>

#include "common/checksum.h"
#include "common/status.h"
#include "fault/crash_point.h"

namespace turbobp {

uint32_t LogRecord::ComputeChecksum() const {
  // The header fields packed in order, with no padding, then the payload:
  // two CRC passes instead of one call per field, over the same bytes.
  const uint8_t type_byte = static_cast<uint8_t>(type);
  uint8_t header[sizeof(lsn) + sizeof(type_byte) + sizeof(txn_id) +
                 sizeof(page_id) + sizeof(offset)];
  size_t at = 0;
  auto put = [&](const void* field, size_t size) {
    std::memcpy(header + at, field, size);
    at += size;
  };
  put(&lsn, sizeof(lsn));
  put(&type_byte, sizeof(type_byte));
  put(&txn_id, sizeof(txn_id));
  put(&page_id, sizeof(page_id));
  put(&offset, sizeof(offset));
  return Crc32c(bytes.data(), bytes.size(), Crc32c(header, sizeof(header)));
}

namespace {
// Log pages carry no recoverable content in this model (records_ is the
// oracle); flushes write zeros of the right size to charge the device.
std::span<const uint8_t> ZeroPages(size_t need) {
  static thread_local std::vector<uint8_t> zeros;
  if (zeros.size() < need) zeros.assign(need, 0);
  return std::span<const uint8_t>(zeros.data(), need);
}
}  // namespace

LogManager::LogManager(StorageDevice* log_device) : device_(log_device) {
  TURBOBP_CHECK(log_device != nullptr);
}

Lsn LogManager::Append(LogRecord rec) {
  TrackedLockGuard lock(mu_);
  rec.lsn = next_lsn_;
  rec.SealChecksum();
  next_lsn_ += rec.SizeOnDisk();
  last_record_lsn_ = rec.lsn;
  records_.push_back(std::move(rec));
  ++logical_records_;
  // The record exists in the log buffer but is not durable yet: a crash
  // here loses it (and everything after it) unless a later flush lands.
  TURBOBP_CRASH_POINT("wal/append");
  return records_.back().lsn;
}

Lsn LogManager::AppendUpdate(uint64_t txn_id, PageId pid, uint32_t offset,
                             std::span<const uint8_t> bytes) {
  LogRecord rec;
  rec.type = LogRecordType::kUpdate;
  rec.txn_id = txn_id;
  rec.page_id = pid;
  rec.offset = offset;
  rec.bytes.assign(bytes.begin(), bytes.end());
  return Append(std::move(rec));
}

Lsn LogManager::AppendCommit(uint64_t txn_id) {
  LogRecord rec;
  rec.type = LogRecordType::kCommit;
  rec.txn_id = txn_id;
  return Append(std::move(rec));
}

Lsn LogManager::AppendBeginCheckpoint() {
  LogRecord rec;
  rec.type = LogRecordType::kBeginCheckpoint;
  return Append(std::move(rec));
}

Lsn LogManager::AppendEndCheckpoint() {
  LogRecord rec;
  rec.type = LogRecordType::kEndCheckpoint;
  return Append(std::move(rec));
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
  // Clamp to the last appended record (the historical records_.back()
  // clamp, robust to prefix truncation).
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

size_t LogManager::TruncatePrefix(Lsn horizon) {
  TrackedLockGuard lock(mu_);
  // Only records that are both durable and below the redo horizon may go:
  // recovery replays from the last completed checkpoint's begin record, and
  // DropUnflushed must still be able to pop the undurable tail.
  size_t keep = 0;
  while (keep < records_.size() && records_[keep].lsn < horizon &&
         records_[keep].lsn <= durable_lsn_) {
    ++keep;
  }
  if (keep == 0) return 0;
  base_lsn_ = keep < records_.size() ? records_[keep].lsn : next_lsn_;
  // erase() frees each dropped record's bytes and keeps the vector's
  // capacity: it stays at the peak reached between checkpoints instead of
  // regrowing by doubling after every one.
  records_.erase(records_.begin(), records_.begin() + keep);
  records_truncated_ += static_cast<int64_t>(keep);
  return keep;
}

size_t LogManager::DropUnflushed() {
  TrackedLockGuard lock(mu_);
  size_t dropped = 0;
  while (!records_.empty() && records_.back().lsn > durable_lsn_) {
    records_.pop_back();
    ++dropped;
  }
  logical_records_ -= static_cast<int64_t>(dropped);
  last_record_lsn_ = records_.empty() ? (base_lsn_ > 1 ? base_lsn_ - 1 : 0)
                                      : records_.back().lsn;
  return dropped;
}

size_t LogManager::TruncateTornTail() {
  TrackedLockGuard lock(mu_);
  size_t bad = records_.size();
  for (size_t i = 0; i < records_.size(); ++i) {
    if (records_[i].lsn > durable_lsn_) {
      // Past the durable prefix: a crash already discards these (see
      // DropUnflushed); truncate here too so replay sees one clean prefix.
      bad = i;
      break;
    }
    if (!records_[i].VerifyChecksum()) {
      bad = i;
      break;
    }
  }
  if (bad == records_.size()) return 0;
  const size_t dropped = records_.size() - bad;
  // Durability retreats to the last intact record — but no further than the
  // truncated prefix boundary, which is durable by construction.
  const Lsn new_durable =
      bad == 0 ? (base_lsn_ > 1 ? base_lsn_ - 1 : Lsn{0}) : records_[bad - 1].lsn;
  next_lsn_ = records_[bad].lsn;  // reclaim the torn record's LSN space
  records_.resize(bad);
  logical_records_ -= static_cast<int64_t>(dropped);
  last_record_lsn_ = records_.empty() ? (base_lsn_ > 1 ? base_lsn_ - 1 : 0)
                                      : records_.back().lsn;
  durable_lsn_ = std::min(durable_lsn_, new_durable);
  TURBOBP_CRASH_POINT("wal/truncate-tail");
  return dropped;
}

void LogManager::RestoreDurableState(std::vector<LogRecord> records,
                                     Lsn durable_lsn) {
  TrackedLockGuard lock(mu_);
  records_ = std::move(records);
  durable_lsn_ = durable_lsn;
  next_lsn_ = records_.empty()
                  ? Lsn{1}
                  : records_.back().lsn + records_.back().SizeOnDisk();
  logical_records_ = static_cast<int64_t>(records_.size());
  last_record_lsn_ = records_.empty() ? Lsn{0} : records_.back().lsn;
  // If the snapshot was itself a truncated suffix, everything below its
  // first record was durable before the crash.
  base_lsn_ = records_.empty() ? Lsn{1} : records_.front().lsn;
}

}  // namespace turbobp
