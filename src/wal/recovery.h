#ifndef TURBOBP_WAL_RECOVERY_H_
#define TURBOBP_WAL_RECOVERY_H_

#include <unordered_map>

#include "common/types.h"
#include "storage/disk_manager.h"
#include "wal/log_manager.h"

namespace turbobp {

struct RecoveryStats {
  Lsn redo_start_lsn = kInvalidLsn;
  int64_t records_scanned = 0;
  int64_t records_applied = 0;
  int64_t records_skipped_lsn = 0;  // page already newer (redo test failed)
  int64_t records_skipped_ssd = 0;  // covered by a restored SSD copy
  int64_t records_truncated = 0;    // torn-tail records pruned before redo
  int64_t pages_read = 0;
  int64_t pages_written = 0;
  Time elapsed = 0;
};

// Redo-only restart recovery (ARIES redo pass over physiological records).
//
// After a crash the buffer pool is discarded. The sharp checkpoint
// guarantees the disk is current as of the last completed checkpoint,
// except for pages whose newest copy is a dirty frame on a persistent SSD
// cache that survived the crash; this pass replays the durable log tail,
// applying each update record whose LSN is newer than the on-disk page LSN
// and skipping the records a re-attached SSD copy already contains
// (DbSystem::Recover wires the two together).
class RecoveryManager {
 public:
  RecoveryManager(DiskManager* disk, LogManager* log);

  // Replays the durable log from the latest completed checkpoint (or from
  // the beginning if none). Returns stats; ctx carries timing.
  //
  // The redo pass's page reads are batched through disk->io_engine(): the
  // records to replay are grouped into windows of distinct pages, each
  // window's pages are prefetched through the engine's deep queue (reads of
  // one page are also deduplicated within a window), and redo applies from
  // the prefetched images. Page writes stay synchronous, preserving the
  // per-record "recovery/redo-apply" idempotence edge.
  //
  // `redo_start_override` forces an earlier redo start (re-attached dirty
  // SSD frames may carry updates that predate the last checkpoint).
  // `covered_by_ssd` maps pages to the LSN up to which a restored SSD copy
  // already contains all updates: redo skips those records entirely (no
  // disk I/O), which is what makes a warm restart's recovery fast.
  RecoveryStats Recover(
      IoContext& ctx, Lsn redo_start_override = kInvalidLsn,
      const std::unordered_map<PageId, Lsn>* covered_by_ssd = nullptr);

 private:
  // Latest begin-checkpoint LSN whose matching end record is durable.
  Lsn FindRedoStart() const;

  DiskManager* disk_;
  LogManager* log_;
};

}  // namespace turbobp

#endif  // TURBOBP_WAL_RECOVERY_H_
