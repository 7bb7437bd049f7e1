#ifndef TURBOBP_CORE_LAZY_CLEANING_H_
#define TURBOBP_CORE_LAZY_CLEANING_H_

#include <vector>

#include "core/ssd_cache_base.h"
#include "sim/sim_executor.h"

namespace turbobp {

// The lazy-cleaning (LC) design of Section 2.3.3: dirty pages evicted from
// the memory buffer pool are written *only* to the SSD (a write-back
// cache), and a background lazy-cleaning thread copies dirty SSD pages to
// the database on disk later. LC wins on update-intensive, highly skewed
// workloads (TPC-C: up to 9.4x over noSSD, 6.8x over TAC) because hot dirty
// pages are re-read and re-dirtied many times on the SSD before ever paying
// a disk write.
//
// The cleaner wakes when the dirty fraction of the SSD exceeds lambda and
// cleans until slightly below it (Section 2.3.3), gathering up to alpha
// dirty pages with consecutive disk addresses per disk write (group
// cleaning, Section 3.3.5). Since pages cannot move device-to-device
// directly, each cleaned page is read from the SSD into memory first.
//
// Checkpoint integration (Section 3.2): a sharp checkpoint must also flush
// every dirty SSD page to disk, and LC stops caching new dirty pages while
// a checkpoint is in progress.
class LazyCleaningCache : public SsdCacheBase {
 public:
  LazyCleaningCache(StorageDevice* ssd_device, DiskManager* disk,
                    const SsdCacheOptions& options, SimExecutor* executor);

  SsdDesign design() const override { return SsdDesign::kLazyCleaning; }

  EvictionOutcome OnEvictDirty(PageId pid, std::span<const uint8_t> data,
                               AccessKind kind, Lsn page_lsn,
                               IoContext& ctx) override;

  void OnCheckpointBegin() override {
    in_checkpoint_.store(true, std::memory_order_release);
  }
  void OnCheckpointEnd() override {
    in_checkpoint_.store(false, std::memory_order_release);
  }
  // Drains every dirty SSD frame to disk for the sharp checkpoint. Failure
  // is atomic from the checkpoint's point of view: a non-kOk status (device
  // errors past the bounded retry, degradation, or a dirty frame lost
  // mid-drain) means the checkpoint must not advance the recovery LSN.
  IoResult FlushAllDirty(IoContext& ctx) override;

  // Cleaner observability (Figure 7 reports the cleaner's disk IOPS).
  int64_t cleaner_wakeups() const { return cleaner_wakeups_.load(); }
  bool cleaner_running() const { return cleaner_running_.load(); }

  // The cleaner stops this fraction of S below lambda (~0.01%).
  static constexpr double kWatermarkGap = 0.0001;

  // Thresholds in frames.
  int64_t HighWatermark() const {
    return static_cast<int64_t>(options_.lc_dirty_fraction *
                                static_cast<double>(options_.num_frames));
  }
  int64_t LowWatermark() const {
    return std::max<int64_t>(
        0, HighWatermark() -
               static_cast<int64_t>(kWatermarkGap *
                                    static_cast<double>(options_.num_frames)));
  }

 private:
  // Starts the cleaner actor if the dirty count crossed the high watermark.
  void MaybeWakeCleaner(Time now);
  // One cleaner iteration: clean one group, then reschedule at the disk
  // write's completion (the cleaner is paced by the disk).
  void CleanerStep();
  // Cleans one group starting from the oldest dirty page; returns the disk
  // write completion time, or 0 if there was nothing to clean.
  Time CleanOneGroup(IoContext& ctx);

  // Oldest dirty page across partitions; fills part/rec. Returns false if
  // no dirty pages exist.
  bool OldestDirty(Partition** part, int32_t* rec);

  // Emergency cleaner flush (degradation, Section 2.3's safety argument):
  // LC's dirty frames hold the only current copies, so before the failing
  // partition goes silent every readable dirty frame is copied to disk;
  // unreadable ones become lost pages. Runs under the partition latch that
  // DegradePartition holds across salvage+purge+publish — the rest of the
  // cache keeps serving untouched.
  void OnPartitionDegrade(Partition& part, IoContext& ctx)
      TURBOBP_REQUIRES(part.mu) override;

  std::atomic<bool> in_checkpoint_{false};
  std::atomic<bool> cleaner_running_{false};
  std::atomic<int64_t> cleaner_wakeups_{0};
};

}  // namespace turbobp

#endif  // TURBOBP_CORE_LAZY_CLEANING_H_
