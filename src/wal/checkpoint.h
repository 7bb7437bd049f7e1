#ifndef TURBOBP_WAL_CHECKPOINT_H_
#define TURBOBP_WAL_CHECKPOINT_H_

#include <vector>

#include "buffer/buffer_pool.h"
#include "common/types.h"
#include "core/ssd_manager.h"
#include "sim/sim_executor.h"
#include "wal/log_manager.h"

namespace turbobp {

struct CheckpointStats {
  int64_t checkpoints_taken = 0;
  // Checkpoints aborted because the SSD dirty-drain failed (device errors
  // past the bounded retry, degradation, or a lost dirty page). A failed
  // checkpoint writes no end record and does not advance last_checkpoint_lsn:
  // recovery redoes from the previous completed checkpoint, which is exactly
  // what heals the pages the drain could not land on disk.
  int64_t checkpoints_failed = 0;
  Time total_duration = 0;
  Time max_duration = 0;
  int64_t pages_flushed_memory = 0;
  int64_t pages_flushed_ssd = 0;  // LC: dirty SSD pages drained
  Lsn last_checkpoint_lsn = kInvalidLsn;
};

// Sharp checkpointing, as in SQL Server 2008 R2 (Section 3.2): every dirty
// page in the main-memory buffer pool is flushed to disk — and, under the
// LC design, every dirty page in the SSD buffer pool as well, which is why
// checkpoint dips are deepest for LC (Figures 6 and 9). Recovery then only
// needs to redo the log tail after the last completed checkpoint.
class CheckpointManager {
 public:
  CheckpointManager(BufferPool* pool, SsdManager* ssd, LogManager* log,
                    SimExecutor* executor);

  // Runs one sharp checkpoint at ctx.now. Returns the completion time of
  // the last flush write (the checkpoint's end).
  Time RunCheckpoint(IoContext& ctx);

  // Schedules periodic checkpoints every `interval` of virtual time,
  // starting one interval from now ("recovery interval" in the paper:
  // 40 minutes for TPC-E/H, effectively off for TPC-C).
  void SchedulePeriodic(Time interval);
  void StopPeriodic() { periodic_ = false; }

  const CheckpointStats& stats() const { return stats_; }

  // Begin-LSNs of completed checkpoints (recovery starts at the latest one
  // whose end record is durable).
  const std::vector<Lsn>& completed() const { return completed_; }

  // WAL in-memory prefix truncation: after a checkpoint completes, buffered
  // log records below its begin-LSN (all durable by the checkpoint's commit
  // edge) are released — recovery never replays below the last completed
  // checkpoint, so retaining them only grows memory without bound on long
  // threaded soaks. Default on; DbSystem turns it off for the persistent
  // SSD cache, whose warm restart scans the full durable log to build the
  // per-page max-update-LSN map that judges restored frames.
  void set_wal_truncation(bool on) { wal_truncation_ = on; }
  bool wal_truncation() const { return wal_truncation_; }

  // Negative-test backdoor (crash harness): deliberately SKIP the LC
  // SSD-dirty drain while still writing the end-checkpoint record — the
  // WAL-compliance bug the torture harness must be able to catch. Never set
  // outside tests.
  void set_skip_ssd_flush_for_test(bool v) { skip_ssd_flush_for_test_ = v; }

  // A restart replaces the SSD manager instance; re-point at the new one.
  void set_ssd_manager(SsdManager* ssd) { ssd_ = ssd; }

 private:
  void PeriodicTick(Time interval);

  BufferPool* pool_;
  SsdManager* ssd_;
  LogManager* log_;
  SimExecutor* executor_;
  bool periodic_ = false;
  bool wal_truncation_ = true;
  bool skip_ssd_flush_for_test_ = false;
  CheckpointStats stats_;
  std::vector<Lsn> completed_;
};

}  // namespace turbobp

#endif  // TURBOBP_WAL_CHECKPOINT_H_
