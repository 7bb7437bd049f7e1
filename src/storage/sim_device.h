#ifndef TURBOBP_STORAGE_SIM_DEVICE_H_
#define TURBOBP_STORAGE_SIM_DEVICE_H_

#include <memory>
#include <utility>

#include "sim/device_model.h"
#include "storage/mem_device.h"
#include "storage/storage_device.h"

namespace turbobp {

// A storage device with simulated service times: an in-memory page store
// (lazily materialized) combined with a calibrated DeviceModel and a FIFO
// DeviceTimeline. One SimDevice models one spindle or one SSD.
//
// Thread-safe for concurrent Read/Write/QueueLength (real-thread driver
// mode): the store is internally latched and a device-class latch serializes
// timeline bookings. timeline()/store() direct access and crash
// snapshot/restore remain single-threaded operations (setup, harness).
class SimDevice : public StorageDevice {
 public:
  SimDevice(uint64_t num_pages, uint32_t page_bytes,
            std::unique_ptr<DeviceModel> model);

  uint64_t num_pages() const override { return store_.num_pages(); }
  uint32_t page_bytes() const override { return store_.page_bytes(); }

  IoResult Read(uint64_t first_page, uint32_t num_pages,
                std::span<uint8_t> out, Time now, bool charge = true) override;
  IoResult Write(uint64_t first_page, uint32_t num_pages,
                 std::span<const uint8_t> data, Time now,
                 bool charge = true) override;

  int QueueLength(Time now) override {
    TrackedLockGuard lock(mu_);
    return timeline_.QueueLength(now);
  }
  Time EstimateReadTime(AccessKind kind) const override {
    return model_->EstimateReadTime(kind);
  }

  MemDevice& store() { return store_; }
  // Setup/teardown path (traffic attachment, bench inspection): callers run
  // before client threads start or after they join.
  DeviceTimeline& timeline() TURBOBP_NO_THREAD_SAFETY_ANALYSIS {
    return timeline_;
  }

  // Crash simulation (src/fault/crash_harness): copy-on-write snapshot and
  // restore of the store's written chunks (MemDevice::SnapshotContent), so a
  // capture costs one pointer per chunk. The persistent SSD cache depends on
  // this covering the *whole* device — frame area plus the metadata-journal
  // region carved out at the tail — so a restored device replays exactly
  // what a power cut left behind. An empty Content wipes the device.
  MemDevice::Content SnapshotContent() const {
    return store_.SnapshotContent();
  }
  void RestoreContent(MemDevice::Content content) {
    store_.RestoreContent(std::move(content));
  }

 private:
  MemDevice store_;
  std::unique_ptr<DeviceModel> model_;
  // Innermost latch (kDevice, same rank as the store's own): taken only
  // around timeline bookings, never while the store latch is held.
  mutable TrackedMutex<LatchClass::kDevice> mu_;
  DeviceTimeline timeline_ TURBOBP_GUARDED_BY(mu_);
};

}  // namespace turbobp

#endif  // TURBOBP_STORAGE_SIM_DEVICE_H_
