#ifndef TURBOBP_STORAGE_STRIPED_ARRAY_H_
#define TURBOBP_STORAGE_STRIPED_ARRAY_H_

#include <memory>
#include <vector>

#include "sim/device_model.h"
#include "storage/sim_device.h"
#include "storage/storage_device.h"

namespace turbobp {

// RAID-0 stripe over N simulated spindles, mirroring the paper's setup of a
// database file group striped across eight 7,200rpm SATA drives. A stripe
// unit of `stripe_pages` consecutive pages lives on one spindle; successive
// units round-robin across spindles. Multi-page requests are split into
// per-spindle sub-requests which proceed in parallel; the completion time is
// the latest sub-completion. Per-spindle FIFO queues preserve the
// sequential-run detection that gives striped disks their sequential-read
// cost advantage over the SSD (the premise of the admission policy).
class StripedDiskArray : public StorageDevice {
 public:
  struct Options {
    int num_spindles = 8;
    uint32_t stripe_pages = 8;  // 64KB units at 8KB pages
    HddParams hdd;
  };

  StripedDiskArray(uint64_t num_pages, uint32_t page_bytes,
                   const Options& options);

  uint64_t num_pages() const override { return num_pages_; }
  uint32_t page_bytes() const override { return page_bytes_; }

  IoResult Read(uint64_t first_page, uint32_t num_pages,
                std::span<uint8_t> out, Time now, bool charge = true) override;
  IoResult Write(uint64_t first_page, uint32_t num_pages,
                 std::span<const uint8_t> data, Time now,
                 bool charge = true) override;

  int QueueLength(Time now) override;
  Time EstimateReadTime(AccessKind kind) const override;

  int num_spindles() const { return static_cast<int>(spindles_.size()); }
  SimDevice& spindle(int i) { return *spindles_[i]; }

  // Attaches aggregate traffic recording across all spindles.
  void AttachTraffic(TimeSeries* read_bytes, TimeSeries* write_bytes);

  // Aggregate counters across spindles.
  int64_t TotalRequests(IoOp op) const;
  int64_t TotalBytes(IoOp op) const;
  Time TotalBusyTime() const;

  // The synthesizer is installed on every spindle's backing store, keyed by
  // the *logical* page id (callers think in logical pages).
  void SetSynthesizer(MemDevice::Synthesizer s);

  // Crash simulation (src/fault/crash_harness): per-spindle copy-on-write
  // snapshots of the written chunks (MemDevice::Content) — the exact bytes a
  // power cut at this instant leaves on the platters. Restoring onto a
  // fresh array of the same geometry rebuilds that durable state; the
  // synthesizer still covers never-written pages.
  struct Content {
    std::vector<MemDevice::Content> spindles;
  };
  Content SnapshotContent() const;
  void RestoreContent(const Content& content);

 private:
  struct Mapping {
    int spindle;
    uint64_t local_page;
  };
  Mapping Map(uint64_t logical_page) const;

  // Runs `fn(spindle, local_first, count, data_offset_pages)` for each
  // maximal per-spindle contiguous run of [first, first+n).
  template <typename Fn>
  void ForEachRun(uint64_t first, uint32_t n, Fn&& fn) const;

  const uint64_t num_pages_;
  const uint32_t page_bytes_;
  const uint32_t stripe_pages_;
  std::vector<std::unique_ptr<SimDevice>> spindles_;
};

}  // namespace turbobp

#endif  // TURBOBP_STORAGE_STRIPED_ARRAY_H_
