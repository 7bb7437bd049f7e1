#include "wal/checkpoint.h"

#include <algorithm>

#include "common/status.h"
#include "debug/invariant_auditor.h"
#include "fault/crash_point.h"

namespace turbobp {

namespace {
// TURBOBP_AUDIT builds cross-check the buffer pool and the SSD manager's
// structures at every checkpoint boundary: the checkpoint is the one moment
// the engine claims a consistent durable story, so an inconsistency here
// means a correctness bug upstream. No-op (and zero cost) otherwise.
void AuditAtCheckpointBoundary(BufferPool* pool, SsdManager* ssd,
                               [[maybe_unused]] const char* when) {
#ifdef TURBOBP_AUDIT
  const AuditReport report = InvariantAuditor::AuditSystem(*pool, ssd);
  if (!report.ok()) {
    const std::string msg =
        std::string("checkpoint ") + when + ": " + report.ToString();
    Panic(__FILE__, __LINE__, msg.c_str());
  }
#else
  (void)pool;
  (void)ssd;
#endif
}
}  // namespace

CheckpointManager::CheckpointManager(BufferPool* pool, SsdManager* ssd,
                                     LogManager* log, SimExecutor* executor)
    : pool_(pool), ssd_(ssd), log_(log), executor_(executor) {
  TURBOBP_CHECK(pool != nullptr);
  TURBOBP_CHECK(log != nullptr);
}

Time CheckpointManager::RunCheckpoint(IoContext& ctx) {
  const Time start = ctx.now;
  AuditAtCheckpointBoundary(pool_, ssd_, "begin");
  const Lsn begin_lsn = log_->AppendBeginCheckpoint();
  if (ssd_ != nullptr) ssd_->OnCheckpointBegin();
  // Begin record appended (not yet durable), LC admission of new dirty
  // pages stopped. A crash here leaves a begin with no end: the previous
  // completed checkpoint still governs recovery.
  TURBOBP_CRASH_POINT("ckpt/begin");

  const int64_t dirty_before = pool_->DirtyFrameCount();
  // Flush all dirty memory pages (sharp checkpoint); DW also pushes
  // checkpointed random pages into the SSD via OnCheckpointWrite.
  Time end = pool_->FlushAllDirty(ctx, /*for_checkpoint=*/true);
  stats_.pages_flushed_memory += dirty_before;
  // Every memory-dirty page is on disk; the SSD drain has not run yet.
  TURBOBP_CRASH_POINT("ckpt/after-pool-flush");

  if (ssd_ != nullptr) {
    // LC: the SSD may hold the newest copy of pages; they must reach disk.
    const int64_t ssd_dirty_before = ssd_->stats().dirty_frames;
    IoResult ssd_res{end, Status::Ok()};
    if (!skip_ssd_flush_for_test_) {
      ssd_res = ssd_->FlushAllDirty(ctx);
    }
    if (ssd_res.ok() && ssd_->stats().lost_pages > 0) {
      // Lost pages (dirty copies that died with the SSD) are healed by redo
      // from the previous completed checkpoint; advancing the recovery LSN
      // past their updates would strand them forever.
      ssd_res.status = Status::IoError("lost pages outstanding at checkpoint");
    }
    if (!ssd_res.ok()) {
      // Failed checkpoint, atomically: no end record is written, the
      // previous begin-LSN keeps governing recovery, and the error is
      // surfaced through checkpoints_failed here and
      // SsdManagerStats::checkpoint_flush_failures on the cache.
      ++stats_.checkpoints_failed;
      ssd_->OnCheckpointEnd();
      AuditAtCheckpointBoundary(pool_, ssd_, "abort");
      return std::max(end, ssd_res.time);
    }
    end = std::max(end, ssd_res.time);
    stats_.pages_flushed_ssd += ssd_dirty_before;
  }
  // The disk now holds every pre-checkpoint update (LC included); the end
  // record does not exist yet, so recovery would still redo the full tail.
  TURBOBP_CRASH_POINT("ckpt/after-ssd-flush");

  log_->AppendEndCheckpoint();
  // End record appended but not durable: the checkpoint must not count yet.
  TURBOBP_CRASH_POINT("ckpt/before-end-flush");
  // The end-checkpoint record must be durable for the checkpoint to count.
  end = std::max(end, log_->FlushTo(log_->current_lsn(), ctx));
  // The checkpoint's commit edge: from here on, recovery starts at this
  // begin record and everything older must already be on disk.
  TURBOBP_CRASH_POINT("ckpt/end-durable");

  if (ssd_ != nullptr) ssd_->OnCheckpointEnd();
  ++stats_.checkpoints_taken;
  const Time duration = end - start;
  stats_.total_duration += duration;
  stats_.max_duration = std::max(stats_.max_duration, duration);
  stats_.last_checkpoint_lsn = begin_lsn;
  completed_.push_back(begin_lsn);
  if (wal_truncation_) {
    // The checkpoint's commit edge passed: recovery starts at this begin
    // record, so the buffered copies below it (durable by construction —
    // FlushAllDirty forced the log through every flushed page's LSN, and
    // the end-record flush covered the rest) are dead weight. Release them.
    log_->TruncatePrefix(begin_lsn);
  }
  AuditAtCheckpointBoundary(pool_, ssd_, "end");
  return end;
}

void CheckpointManager::SchedulePeriodic(Time interval) {
  TURBOBP_CHECK(executor_ != nullptr);
  TURBOBP_CHECK(interval > 0);
  periodic_ = true;
  executor_->ScheduleAfter(interval, [this, interval] { PeriodicTick(interval); });
}

void CheckpointManager::PeriodicTick(Time interval) {
  if (!periodic_) return;
  IoContext ctx;
  ctx.now = executor_->now();
  ctx.executor = executor_;
  const Time end = RunCheckpoint(ctx);
  // Next checkpoint fires one interval after this one *finishes* (a
  // checkpoint that overruns the interval does not stack).
  executor_->ScheduleAt(std::max(end, executor_->now()) + interval,
                        [this, interval] { PeriodicTick(interval); });
}

}  // namespace turbobp
