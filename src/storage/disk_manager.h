#ifndef TURBOBP_STORAGE_DISK_MANAGER_H_
#define TURBOBP_STORAGE_DISK_MANAGER_H_

#include <atomic>
#include <cstdint>
#include <span>

#include "io/async_io_engine.h"
#include "storage/io_context.h"
#include "storage/storage_device.h"

namespace turbobp {

// The disk manager of Figure 1: mediates all page I/O between the buffer
// manager and the database volume (typically a StripedDiskArray).
//
// Two paths reach the device. The blocking calls below issue one device
// request per call — including the multi-page vectored reads of the
// warm-up read expansion ("the disk can handle a single large I/O request
// more efficiently than multiple small I/O requests", Section 3.3.3). Bulk
// page I/O — read-ahead, checkpoint drain, LC group cleaning, scrub repair
// and recovery redo — goes through io_engine(), the one AsyncIoEngine this
// manager owns over the same device (DESIGN.md §12). Engine I/O bypasses
// the counters below by design; the engine keeps its own stats().
//
// The disk array is the durable home of every page, so transient device
// errors are absorbed with a bounded retry/backoff — AsyncIoEngine::
// kRetryLimit attempts, kRetryBackoff apart, here for the blocking calls and
// per request inside the engine; a request that still fails is surfaced to
// the caller, for whom a dead disk array (unlike a dead SSD cache) is fatal.
class DiskManager {
 public:
  // `queue_depth` is the ring size of io_engine().
  explicit DiskManager(StorageDevice* data, int queue_depth = 32);
  DiskManager(const DiskManager&) = delete;
  DiskManager& operator=(const DiskManager&) = delete;

  uint32_t page_bytes() const { return data_->page_bytes(); }
  uint64_t num_pages() const { return data_->num_pages(); }
  StorageDevice* device() { return data_; }
  // The async submit/reap engine over device(); see the class comment.
  AsyncIoEngine& io_engine() { return engine_; }

  // Blocking single-page read; advances ctx.now to completion. Like every
  // entry point below: never call with a buffer-pool shard latch held (the
  // PR-5 invariant, enforced by the EXCLUDES contracts).
  Status ReadPage(PageId pid, std::span<uint8_t> out, IoContext& ctx)
      TURBOBP_EXCLUDES(TURBOBP_LATCH_CAP(LatchClass::kBufferPool));

  // Blocking contiguous multi-page read as one device request.
  Status ReadPages(PageId first, uint32_t n, std::span<uint8_t> out,
                   IoContext& ctx)
      TURBOBP_EXCLUDES(TURBOBP_LATCH_CAP(LatchClass::kBufferPool));

  // Asynchronous write: consumes device time, returns the completion time,
  // leaves ctx.now unchanged.
  IoResult WritePage(PageId pid, std::span<const uint8_t> data, IoContext& ctx)
      TURBOBP_EXCLUDES(TURBOBP_LATCH_CAP(LatchClass::kBufferPool));

  Time EstimateReadTime(AccessKind kind) const {
    return data_->EstimateReadTime(kind);
  }

  int64_t reads_issued() const {
    return reads_.load(std::memory_order_relaxed);
  }
  int64_t writes_issued() const {
    return writes_.load(std::memory_order_relaxed);
  }
  int64_t pages_read() const {
    return pages_read_.load(std::memory_order_relaxed);
  }
  // Contiguous multi-page runs (n > 1) issued as ONE vectored device
  // request — the paper's trimming optimisation, counted per request rather
  // than per page so the accounting reflects what the device actually saw.
  int64_t multi_page_reads() const {
    return multi_page_reads_.load(std::memory_order_relaxed);
  }
  int64_t pages_written() const {
    return pages_written_.load(std::memory_order_relaxed);
  }
  int64_t io_retries() const {
    return io_retries_.load(std::memory_order_relaxed);
  }
  int64_t io_errors() const {
    return io_errors_.load(std::memory_order_relaxed);
  }

 private:
  StorageDevice* data_;
  AsyncIoEngine engine_;
  // Relaxed atomics: bumped concurrently once the buffer pool issues reads
  // and writes outside its shard latches.
  std::atomic<int64_t> reads_{0};
  std::atomic<int64_t> writes_{0};
  std::atomic<int64_t> pages_read_{0};
  std::atomic<int64_t> multi_page_reads_{0};
  std::atomic<int64_t> pages_written_{0};
  std::atomic<int64_t> io_retries_{0};
  std::atomic<int64_t> io_errors_{0};
};

}  // namespace turbobp

#endif  // TURBOBP_STORAGE_DISK_MANAGER_H_
