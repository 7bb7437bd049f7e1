#include "storage/disk_manager.h"

#include "common/status.h"
#include "fault/crash_point.h"

namespace turbobp {

DiskManager::DiskManager(StorageDevice* data, int queue_depth)
    : data_(data), engine_(data, queue_depth) {}

Status DiskManager::ReadPage(PageId pid, std::span<uint8_t> out,
                             IoContext& ctx) {
  return ReadPages(pid, 1, out, ctx);
}

Status DiskManager::ReadPages(PageId first, uint32_t n, std::span<uint8_t> out,
                              IoContext& ctx) {
  IoResult res;
  for (int attempt = 0; attempt < AsyncIoEngine::kRetryLimit; ++attempt) {
    if (attempt > 0) {
      io_retries_.fetch_add(1, std::memory_order_relaxed);
      if (ctx.charge) ctx.now += AsyncIoEngine::kRetryBackoff;
    }
    res = data_->Read(first, n, out, ctx.now, ctx.charge);
    if (res.ok() || res.status.IsUnavailable()) break;
  }
  if (ctx.charge) {
    reads_.fetch_add(1, std::memory_order_relaxed);
    pages_read_.fetch_add(n, std::memory_order_relaxed);
    if (n > 1) multi_page_reads_.fetch_add(1, std::memory_order_relaxed);
  }
  if (!res.ok()) {
    io_errors_.fetch_add(1, std::memory_order_relaxed);
    return res.status;
  }
  ctx.Wait(res.time);
  return Status::Ok();
}

IoResult DiskManager::WritePage(PageId pid, std::span<const uint8_t> data,
                                IoContext& ctx) {
  IoResult res;
  Time at = ctx.now;
  for (int attempt = 0; attempt < AsyncIoEngine::kRetryLimit; ++attempt) {
    if (attempt > 0) {
      io_retries_.fetch_add(1, std::memory_order_relaxed);
      if (ctx.charge) at += AsyncIoEngine::kRetryBackoff;
    }
    res = data_->Write(pid, 1, data, at, ctx.charge);
    if (res.ok() || res.status.IsUnavailable()) break;
  }
  if (ctx.charge) {
    writes_.fetch_add(1, std::memory_order_relaxed);
    pages_written_.fetch_add(1, std::memory_order_relaxed);
  }
  if (!res.ok()) io_errors_.fetch_add(1, std::memory_order_relaxed);
  // The page content has reached the durable disk array (heap, B+-tree,
  // checkpoint and redo writes all funnel through here).
  TURBOBP_CRASH_POINT("disk/write-pages");
  return res;
}

}  // namespace turbobp
