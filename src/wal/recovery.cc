#include "wal/recovery.h"

#include <algorithm>
#include <cstring>
#include <vector>

#include "common/status.h"
#include "fault/crash_point.h"
#include "storage/page.h"

namespace turbobp {

RecoveryManager::RecoveryManager(DiskManager* disk, LogManager* log)
    : disk_(disk), log_(log) {
  TURBOBP_CHECK(disk != nullptr);
  TURBOBP_CHECK(log != nullptr);
}

Lsn RecoveryManager::FindRedoStart() const {
  // The latest begin-checkpoint whose end record is durable: everything
  // before it is already on disk (sharp checkpoints). One forward pass: each
  // durable end record confirms the begin record seen last before it.
  // records_for_recovery(): recovery runs before the system opens, with no
  // concurrent appenders (the documented latch-free fast path).
  Lsn last_begin = kInvalidLsn;
  Lsn redo_start = kInvalidLsn;
  for (const LogRecordView rec : log_->records_for_recovery()) {
    if (!log_->IsDurable(rec.lsn)) break;
    if (rec.type == LogRecordType::kBeginCheckpoint) {
      last_begin = rec.lsn;
    } else if (rec.type == LogRecordType::kEndCheckpoint) {
      if (last_begin != kInvalidLsn) redo_start = last_begin;
    }
  }
  return redo_start;
}

RecoveryStats RecoveryManager::Recover(
    IoContext& ctx, const std::unordered_map<PageId, Lsn>* covered_by_ssd) {
  RecoveryStats stats;
  const Time start = ctx.now;
  stats.redo_start_lsn = FindRedoStart();

  const uint32_t page_bytes = disk_->page_bytes();

  // Filter pass (pure, no I/O): decide which records will enter redo and do
  // the scan bookkeeping. Separating it from the apply pass lets the
  // prefetch below see each window's page set up front.
  std::vector<LogRecordView> todo;
  for (const LogRecordView rec : log_->records_for_recovery()) {
    if (!log_->IsDurable(rec.lsn)) break;  // torn tail: stop at first gap
    if (stats.redo_start_lsn != kInvalidLsn && rec.lsn < stats.redo_start_lsn) {
      continue;
    }
    if (rec.type != LogRecordType::kUpdate) continue;
    ++stats.records_scanned;
    if (covered_by_ssd != nullptr) {
      const auto it = covered_by_ssd->find(rec.page_id);
      if (it != covered_by_ssd->end() && rec.lsn <= it->second) {
        // A restored (dirty) SSD copy already contains this update; the
        // cleaner will bring the disk forward later, exactly as if the
        // crash had never happened.
        ++stats.records_skipped_ssd;
        continue;
      }
    }
    todo.push_back(rec);
  }

  // Applies one record to the page image in `buf` and, if the redo test
  // passes, writes it back synchronously (the "recovery/redo-apply"
  // idempotence edge requires every applied record to be durable before the
  // next one).
  auto apply = [&](const LogRecordView& rec, std::span<uint8_t> buf) {
    PageView v(buf.data(), page_bytes);
    // Redo test: apply only if the on-disk page has not seen this update.
    if (v.header().page_id == rec.page_id && v.header().lsn >= rec.lsn) {
      ++stats.records_skipped_lsn;
      return;
    }
    TURBOBP_CHECK(rec.offset + rec.bytes.size() <= page_bytes);
    std::memcpy(buf.data() + rec.offset, rec.bytes.data(), rec.bytes.size());
    v.header().lsn = rec.lsn;
    v.SealChecksum();
    const IoResult w = disk_->WritePage(rec.page_id, buf, ctx);
    TURBOBP_CHECK_OK(w.status);
    ctx.Wait(w.time);  // recovery is single-threaded and synchronous
    ++stats.records_applied;
    ++stats.pages_written;
    // One redo step landed on disk. Crashing here and recovering again must
    // converge to the same state (idempotence: the page-LSN redo test skips
    // the already-applied prefix on the next pass).
    TURBOBP_CRASH_POINT("recovery/redo-apply");
  };

  // Deep-queue redo prefetch: group the redo stream into windows of up to
  // 2x the ring's depth DISTINCT pages, prefetch each window's pages
  // through the engine (contiguous runs coalesce into vectored reads,
  // scattered ones overlap across spindles), then apply from the cached
  // images. A record applies INTO its cached image, so a later record of
  // the same page within the window sees every earlier update — the
  // coherence rule that makes caching safe.
  AsyncIoEngine& engine = disk_->io_engine();
  const size_t window = static_cast<size_t>(engine.queue_depth()) * 2;
  std::unordered_map<PageId, std::vector<uint8_t>> cache;
  size_t i = 0;
  while (i < todo.size()) {
    cache.clear();
    std::vector<PageId> pids;
    size_t j = i;
    while (j < todo.size()) {
      const PageId pid = todo[j].page_id;
      if (!cache.contains(pid)) {
        if (pids.size() == window) break;
        cache.emplace(pid, std::vector<uint8_t>(page_bytes));
        pids.push_back(pid);
      }
      ++j;
    }
    std::sort(pids.begin(), pids.end());
    for (const PageId pid : pids) {
      AsyncIoRequest req;
      req.first_page = pid;
      req.num_pages = 1;
      req.out = cache[pid];
      req.on_complete = [](const IoCompletion& c) {
        TURBOBP_CHECK_OK(c.result.status);
      };
      engine.Submit(req, ctx);
    }
    ctx.Wait(engine.Drain(ctx));
    stats.pages_read += static_cast<int64_t>(pids.size());
    for (; i < j; ++i) apply(todo[i], cache[todo[i].page_id]);
  }
  stats.elapsed = ctx.now - start;
  return stats;
}

}  // namespace turbobp
