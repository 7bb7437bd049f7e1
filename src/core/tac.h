#ifndef TURBOBP_CORE_TAC_H_
#define TURBOBP_CORE_TAC_H_

#include <atomic>
#include <memory>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "core/ssd_cache_base.h"
#include "sim/sim_executor.h"

namespace turbobp {

// Temperature-Aware Caching (Canim et al., VLDB 2010), re-implemented as in
// Section 2.5 of the paper:
//
//   (i)   On a buffer-pool miss the temperature of the page's *extent*
//         (32 consecutive disk pages) is incremented by the milliseconds
//         saved by reading the page from the SSD instead of the disk.
//   (ii)  A page is written to the SSD immediately after it is read from
//         disk (write-through on the read path). Before the SSD is full all
//         pages are admitted; afterwards only pages whose extent is hotter
//         than the coldest valid SSD page, which is then replaced.
//   (iii) When a buffer-pool page is updated, the SSD copy is *logically*
//         invalidated: marked invalid but not evicted — which is why TAC
//         wastes SSD space under update-intensive workloads (7.4-10.4GB of
//         the 140GB SSD on TPC-C, per the paper).
//   (iv)  When a dirty page is evicted it goes to disk as usual; if an
//         invalid version sits in the SSD it is also re-written there.
//
// The immediate write after the disk read contends with forward processing
// for the page latch (the paper measured ~25% longer latch waits); modeled
// here by registering the admission write's completion as LatchBusyUntil.
class TacCache : public SsdCacheBase {
 public:
  TacCache(StorageDevice* ssd_device, DiskManager* disk,
           const SsdCacheOptions& options, SimExecutor* executor,
           uint64_t db_pages);

  // Pages per temperature extent.
  static constexpr PageId kExtentPages = 32;

  SsdDesign design() const override { return SsdDesign::kTac; }

  void OnBufferPoolMiss(PageId pid, AccessKind kind, IoContext& ctx) override;
  void OnDiskRead(PageId pid, std::span<const uint8_t> data, AccessKind kind,
                  IoContext& ctx) override;
  void OnPageDirtied(PageId pid) override;
  void OnEvictClean(PageId pid, std::span<const uint8_t> data, AccessKind kind,
                    IoContext& ctx) override;
  EvictionOutcome OnEvictDirty(PageId pid, std::span<const uint8_t> data,
                               AccessKind kind, Lsn page_lsn,
                               IoContext& ctx) override;
  Time LatchBusyUntil(PageId pid, Time now) override;

  double ExtentTemperature(PageId pid) const {
    return temperatures_[pid / kExtentPages].load(std::memory_order_relaxed);
  }
  // SSD frames wasted on logically-invalid pages (Section 2.5 ablation).
  int64_t wasted_frames() const { return invalid_frames_.load(); }

 protected:
  // TAC replaces the *coldest valid* SSD page by extent temperature, not
  // the LRU-2 victim: its heaps order by the records' temperature snapshots
  // (the SsdCacheBase temperature key), refreshed lazily here.
  int32_t PickVictim(Partition& part) override;

 private:
  // Per-extent temperatures, accrued concurrently by every client's miss
  // path; CAS-added, read relaxed (a slightly stale read only shifts an
  // admission decision by one access, which the policy tolerates).
  std::unique_ptr<std::atomic<double>[]> temperatures_;
  // Admission writes scheduled but not yet started, keyed by a generation
  // so a delayed commit can only consume the exact pending entry it was
  // scheduled for. Dirtying the page erases the entry, permanently
  // abandoning that admission (Section 4.2): the buffered clean image is
  // stale the moment the page is modified, whether or not the page is
  // later evicted and re-read.
  std::unordered_map<PageId, uint64_t> pending_admissions_
      TURBOBP_GUARDED_BY(latch_mu_);
  uint64_t admission_generation_ TURBOBP_GUARDED_BY(latch_mu_) = 0;
  // Pending/completed admission writes: pid -> latch release time.
  std::unordered_map<PageId, Time> latch_busy_ TURBOBP_GUARDED_BY(latch_mu_);
  TrackedMutex<LatchClass::kTacLatch> latch_mu_;
};

}  // namespace turbobp

#endif  // TURBOBP_CORE_TAC_H_
