#ifndef TURBOBP_STORAGE_STORAGE_DEVICE_H_
#define TURBOBP_STORAGE_STORAGE_DEVICE_H_

#include <cstdint>
#include <span>

#include "common/status.h"
#include "common/types.h"
#include "debug/latch_order_checker.h"

namespace turbobp {

// Outcome of one device request: the virtual-time completion instant plus
// an error channel. A request can fail (flaky flash, a dead device); the
// fault-tolerance layer (src/fault, SsdCacheBase quarantine/degradation)
// turns these statuses into retries, disk fallbacks, or pass-through mode.
// Not [[nodiscard]]: the data movement has already happened by the time the
// result is returned, so fire-and-forget callers on devices that cannot
// fail (MemDevice, SimDevice) may legitimately drop it; paths that touch a
// possibly-faulty device must check `status`.
struct IoResult {
  Time time = 0;     // completion instant of the request
  Status status;     // kOk, kIoError (transient), kUnavailable (dead), ...
  // Instant the device began servicing the request (completion minus the
  // in-device service time; the gap from arrival to here is queue wait).
  // Hung-request detection keys deadlines off this rather than the arrival
  // instant, so queueing congestion — the throttle controller's business —
  // is never mistaken for device sickness. 0 means the device does not
  // model a queue; consumers fall back to the arrival instant.
  Time service_start = 0;

  bool ok() const { return status.ok(); }
};

// A page-addressed block device in virtual time.
//
// The contract separates data movement from timing: data transfers take
// effect immediately in call order (so content is sequentially consistent
// with the discrete-event schedule), while the returned completion time
// models when the request would finish on the physical device, given that
// it arrived at `now` and queued behind earlier requests. Callers that must
// wait for the data (buffer-pool miss reads) advance their client clock to
// the returned time; fire-and-forget callers (eviction write-back) schedule
// a completion event instead.
//
// `charge == false` performs the data movement without consuming device
// time; the loader uses it to populate multi-gigabyte databases for free.
//
// Read/Write carry TURBOBP_EXCLUDES over the buffer-pool shard, frame and
// WAL latch-class tokens: no pool latch may be held across a blocking
// device request (the PR-5 invariant), and since group commit moved the
// flush write outside LogManager::mu_, no WAL latch either — both proven
// at compile time under TURBOBP_THREAD_SAFETY=ON and structurally by the
// io-under-latch rule of tools/analysis/static_check.py.
class StorageDevice {
 public:
  virtual ~StorageDevice() = default;

  virtual uint64_t num_pages() const = 0;
  virtual uint32_t page_bytes() const = 0;

  // Reads `num_pages` pages starting at `first_page` into `out`
  // (num_pages * page_bytes() bytes) as one device request. On error the
  // contents of `out` are unspecified.
  virtual IoResult Read(uint64_t first_page, uint32_t num_pages,
                        std::span<uint8_t> out, Time now, bool charge = true)
      TURBOBP_EXCLUDES(TURBOBP_LATCH_CAP(LatchClass::kBufferPool),
                       TURBOBP_LATCH_CAP(LatchClass::kWal)) = 0;

  // Writes `num_pages` pages starting at `first_page` as one device request.
  // On error the write may have landed partially (torn); callers that care
  // must re-write or fall back to another copy.
  virtual IoResult Write(uint64_t first_page, uint32_t num_pages,
                         std::span<const uint8_t> data, Time now,
                         bool charge = true)
      TURBOBP_EXCLUDES(TURBOBP_LATCH_CAP(LatchClass::kBufferPool),
                       TURBOBP_LATCH_CAP(LatchClass::kWal)) = 0;

  // Number of requests pending (issued but not completed) at `now`. The SSD
  // throttle-control optimization (Section 3.3.2) keys off this.
  virtual int QueueLength(Time now) { return 0; }

  // Estimated single-page read service time for the given access kind.
  // Drives TAC's temperature increments and the generalized admission test.
  virtual Time EstimateReadTime(AccessKind kind) const { return 0; }
};

}  // namespace turbobp

#endif  // TURBOBP_STORAGE_STORAGE_DEVICE_H_
