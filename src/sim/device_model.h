#ifndef TURBOBP_SIM_DEVICE_MODEL_H_
#define TURBOBP_SIM_DEVICE_MODEL_H_

#include <cstdint>
#include <functional>
#include <queue>
#include <utility>
#include <vector>

#include "common/stats.h"
#include "common/types.h"

namespace turbobp {

// A single I/O request as seen by a device: a contiguous run of pages.
struct IoRequest {
  IoOp op = IoOp::kRead;
  uint64_t page_offset = 0;  // first page on this device
  uint32_t num_pages = 1;
};

// Service-time model interface. Implementations compute how long a request
// occupies the device, given the device's positioning state (for HDDs, the
// head position for sequential-run detection).
class DeviceModel {
 public:
  virtual ~DeviceModel() = default;

  // Service time for `req`; may update positioning state.
  virtual Time ServiceTime(const IoRequest& req) = 0;

  // Estimated service time for a 1-page access of the given kind, without
  // disturbing positioning state. Used by TAC's temperature accounting
  // ("milliseconds saved by reading the page from the SSD instead of the
  // disk") and by the admission policy's generalized cost test.
  virtual Time EstimateReadTime(AccessKind kind) const = 0;

  virtual void Reset() = 0;
};

// Mechanical-disk model: a request pays seek + rotational delay unless it
// starts exactly where the previous request on this spindle ended, plus a
// per-page transfer time. Parameters are calibrated so an 8-spindle stripe
// reproduces Table 1 of the paper (8KB pages, write caching off):
//   random read 1,015 IOPS   sequential read 26,370 IOPS
//   random write   895 IOPS  sequential write  9,463 IOPS
struct HddParams {
  // Positioning cost (seek + rotational latency), paid on discontinuity.
  Time seek_read = Micros(7577);
  Time seek_write = Micros(8095);
  // Transfer time per 8KB page.
  Time transfer_read_per_page = Micros(303);
  Time transfer_write_per_page = Micros(845);
  // Reference page size for the transfer constants; other page sizes scale
  // transfer time linearly.
  uint32_t reference_page_bytes = 8192;
  uint32_t page_bytes = 8192;
};

class HddModel : public DeviceModel {
 public:
  explicit HddModel(const HddParams& params = HddParams());

  Time ServiceTime(const IoRequest& req) override;
  Time EstimateReadTime(AccessKind kind) const override;
  void Reset() override;

 private:
  Time Transfer(IoOp op, uint32_t pages) const;

  HddParams params_;
  // The drive (command queue + controller) keeps several sequential
  // streams alive concurrently, so interleaved scans still stream. A
  // request continuing any tracked stream avoids the positioning cost.
  static constexpr int kStreams = 8;
  uint64_t stream_end_[kStreams];
  int next_stream_slot_ = 0;
};

// Flash-SSD model: no positioning cost; read and write have distinct
// per-page service times, with a small discount for sequential runs.
// Calibrated to the 160GB SLC Fusion ioDrive in Table 1:
//   random read 12,182 IOPS  sequential read 15,980 IOPS
//   random write 12,374 IOPS sequential write 14,965 IOPS
// Unlike disk transfer times, these costs are flash-latency-dominated and
// are NOT scaled with the configured page size.
struct SsdParams {
  Time read_random_per_page = Micros(82);
  Time read_sequential_per_page = Micros(63);
  Time write_random_per_page = Micros(81);
  Time write_sequential_per_page = Micros(67);
  uint32_t page_bytes = 8192;  // recorded for byte accounting only
};

class SsdModel : public DeviceModel {
 public:
  explicit SsdModel(const SsdParams& params = SsdParams());

  Time ServiceTime(const IoRequest& req) override;
  Time EstimateReadTime(AccessKind kind) const override;
  void Reset() override;

 private:
  SsdParams params_;
  uint64_t next_sequential_offset_ = UINT64_MAX;
};

// Work-conserving request schedule in virtual time for one device. A
// request arriving at `now` books the earliest idle interval of the
// device's timeline that fits its service time (modern I/O subsystems
// reorder queued requests — Native Command Queuing, which the paper cites
// in Section 2.2 — so an arrival never waits behind a request that was
// *booked* for a later instant). Tracks queue length (for the SSD
// throttle-control optimization, Section 3.3.2), busy time, and
// per-operation byte counts (for the I/O-traffic curves of Figure 8).
class DeviceTimeline {
 public:
  DeviceTimeline(DeviceModel* model, uint32_t page_bytes);

  // Schedules `req` arriving at `now`; returns its completion time. If
  // `service_start` is non-null it receives the instant the device begins
  // servicing the request (completion minus service time — the queue wait
  // is the gap from `now` to there).
  Time Schedule(const IoRequest& req, Time now, Time* service_start = nullptr);

  // Number of requests still pending (not yet completed) at `now`.
  int QueueLength(Time now);

  // Virtual time the device has spent servicing requests.
  Time busy_time() const { return busy_time_; }
  Time free_at() const { return free_at_; }
  int64_t num_requests(IoOp op) const {
    return op == IoOp::kRead ? reads_ : writes_;
  }
  int64_t bytes(IoOp op) const {
    return op == IoOp::kRead ? read_bytes_ : write_bytes_;
  }

  // Optional traffic recording: bytes per op land in these series.
  void AttachTraffic(TimeSeries* read_bytes, TimeSeries* write_bytes) {
    read_traffic_ = read_bytes;
    write_traffic_ = write_bytes;
  }

  void Reset();

 private:
  // Forgets the requests that completed at or before `now`.
  void DropCompleted(Time now);

  DeviceModel* model_;
  uint32_t page_bytes_;
  // Booked busy intervals [start, end), sorted by start (non-overlapping,
  // starts unique). Old intervals are coalesced when the vector grows,
  // which only overstates contiguous busy spans (conservative).
  std::vector<std::pair<Time, Time>> busy_;
  Time free_at_ = 0;  // end of the latest booked interval
  Time busy_time_ = 0;
  int64_t reads_ = 0;
  int64_t writes_ = 0;
  int64_t read_bytes_ = 0;
  int64_t write_bytes_ = 0;
  // Completion times of requests not yet seen to complete (earliest on
  // top); QueueLength counts them.
  std::priority_queue<Time, std::vector<Time>, std::greater<>>
      pending_completions_;
  TimeSeries* read_traffic_ = nullptr;
  TimeSeries* write_traffic_ = nullptr;
};

}  // namespace turbobp

#endif  // TURBOBP_SIM_DEVICE_MODEL_H_
