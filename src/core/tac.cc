#include "core/tac.h"

#include <algorithm>

#include "common/status.h"
#include "fault/crash_point.h"

namespace turbobp {

namespace {
// Gap between a disk read finishing and TAC's admission write grabbing the
// page latch. SQL Server's asynchronous I/O leaves such a window; if a
// transaction dirties the page first, the admission is abandoned
// (Section 4.2's explanation of why DW beats TAC on TPC-C).
constexpr Time kAdmissionDelay = Micros(200);
}  // namespace

TacCache::TacCache(StorageDevice* ssd_device, DiskManager* disk,
                   const SsdCacheOptions& options, SimExecutor* executor,
                   uint64_t db_pages, int extent_pages)
    : SsdCacheBase(ssd_device, disk, options, executor,
                   /*temperature_key=*/true),
      extent_pages_(extent_pages) {
  TURBOBP_CHECK(extent_pages > 0);
  const uint64_t extents = db_pages / static_cast<uint64_t>(extent_pages) + 1;
  temperatures_ = std::make_unique<std::atomic<double>[]>(extents);
}

void TacCache::OnBufferPoolMiss(PageId pid, AccessKind kind, IoContext& ctx) {
  // Temperature accrual: milliseconds saved by an SSD read vs. a disk read.
  const Time disk_us = disk_->EstimateReadTime(kind);
  const Time ssd_us = ssd_device_->EstimateReadTime(kind);
  const double saved_ms =
      std::max<double>(0.0, static_cast<double>(disk_us - ssd_us) / 1000.0);
  std::atomic<double>& t =
      temperatures_[pid / static_cast<PageId>(extent_pages_)];
  double cur = t.load(std::memory_order_relaxed);
  while (!t.compare_exchange_weak(cur, cur + saved_ms,
                                  std::memory_order_relaxed)) {
  }
}

void TacCache::OnDiskRead(PageId pid, std::span<const uint8_t> data,
                          AccessKind kind, IoContext& ctx) {
  if (!ctx.charge) return;  // loader traffic never populates the cache
  MaybeDegrade(ctx);
  if (degraded()) return;
  const double temp = ExtentTemperature(pid);
  Partition& part = PartitionFor(pid);
  {
    TrackedLockGuard lock(part.mu);
    const int32_t existing = part.table.Lookup(pid);
    if (existing != -1 &&
        part.table.record(existing).state != SsdFrameState::kInvalid) {
      return;  // already cached and valid
    }
    // Before the partition is full, all pages are admitted. Afterwards,
    // admit only if the page's extent is hotter than the coldest valid SSD
    // page (which PickVictim will then replace).
    if (part.table.used() >= part.table.capacity()) {
      const int32_t coldest = PickVictim(part);
      if (coldest == -1 || temp <= part.heap.KeyOf(coldest)) {
        return;  // not hot enough
      }
    }
  }

  if (ThrottleBlocks(ctx.now)) {
    Counters::Bump(counters_.throttled);
    return;
  }

  // Admission proceeds after a short delay (the latch-gap pathology). If
  // the page is dirtied in the meantime, the write is abandoned.
  std::vector<uint8_t> copy(data.begin(), data.end());
  const double snapshot = temp;
  uint64_t generation = 0;
  {
    TrackedLockGuard glock(latch_mu_);
    generation = ++admission_generation_;
    pending_admissions_[pid] = generation;
  }
  auto commit = [this, pid, snapshot, generation,
                 copy = std::move(copy)]() mutable {
    {
      TrackedLockGuard glock(latch_mu_);
      const auto pending = pending_admissions_.find(pid);
      if (pending == pending_admissions_.end() ||
          pending->second != generation) {
        return;  // abandoned (page dirtied) or superseded by a newer read
      }
      pending_admissions_.erase(pending);
    }
    Partition& p = PartitionFor(pid);
    {
      TrackedLockGuard lock(p.mu);
      const int32_t existing = p.table.Lookup(pid);
      if (existing != -1) return;  // raced (dirtied -> invalid, or admitted)
    }
    IoContext ctx2;
    ctx2.now = executor_ != nullptr ? executor_->now() : 0;
    ctx2.executor = executor_;
    if (AdmitPage(pid, std::span<const uint8_t>(copy), AccessKind::kRandom,
                  /*dirty=*/false, kInvalidLsn, ctx2)) {
      Partition& pp = PartitionFor(pid);
      TrackedLockGuard lock(pp.mu);
      const int32_t rec = pp.table.Lookup(pid);
      if (rec != -1) {
        SsdFrameRecord& r = pp.table.record(rec);
        r.temperature = snapshot;
        pp.heap.UpdateKey(rec);
        TrackedLockGuard llock(latch_mu_);
        latch_busy_[pid] = r.ready_at;
      }
    }
  };
  if (executor_ != nullptr) {
    executor_->ScheduleAt(std::max(ctx.now + kAdmissionDelay, executor_->now()),
                          std::move(commit));
  } else {
    commit();
  }
}

void TacCache::OnPageDirtied(PageId pid) {
  // Cancel any scheduled admission write: its buffered image is now stale.
  {
    TrackedLockGuard glock(latch_mu_);
    pending_admissions_.erase(pid);
  }
  ClearLostPage(pid);  // the rewrite supersedes any lost SSD copy
  if (degraded()) return;
  Partition& part = PartitionFor(pid);
  TrackedLockGuard lock(part.mu);
  const int32_t rec = part.table.Lookup(pid);
  if (rec == -1) return;
  SsdFrameRecord& r = part.table.record(rec);
  if (r.state == SsdFrameState::kInvalid ||
      r.state == SsdFrameState::kQuarantined) {
    return;
  }
  // Logical invalidation (Section 2.5): mark invalid but keep the frame,
  // wasting SSD space until the page is re-written.
  r.state = SsdFrameState::kInvalid;
  part.heap.Remove(rec);
  invalid_frames_.fetch_add(1);
  // The frame must not be re-attached on a warm restart: its content is
  // about to be superseded in the buffer pool.
  NoteJournalErase(FrameOf(part, rec));
  Counters::Bump(counters_.invalidations);
}

void TacCache::OnEvictClean(PageId pid, std::span<const uint8_t> data,
                            AccessKind kind, IoContext& ctx) {
  // TAC admits on the read path, not on clean evictions.
}

EvictionOutcome TacCache::OnEvictDirty(PageId pid,
                                       std::span<const uint8_t> data,
                                       AccessKind kind, Lsn page_lsn,
                                       IoContext& ctx) {
  MaybeDegrade(ctx);
  EvictionOutcome outcome;
  outcome.write_to_disk = true;  // write-through, as in a traditional DBMS
  if (degraded()) return outcome;
  Partition& part = PartitionFor(pid);
  {
    TrackedLockGuard lock(part.mu);
    const int32_t rec = part.table.Lookup(pid);
    if (rec == -1) return outcome;  // no invalid version -> not on the SSD
    SsdFrameRecord& r = part.table.record(rec);
    if (r.state != SsdFrameState::kInvalid) return outcome;
    if (ThrottleBlocks(ctx.now)) {
      Counters::Bump(counters_.throttled);
      return outcome;
    }
    // Re-validate with the fresh content — but only once the write succeeded
    // (a failed write leaves possibly-torn bytes; the frame stays invalid).
    const IoResult w = WriteFrame(part, rec, data, ctx);
    if (!w.ok()) return outcome;
    // The fresh content is on the SSD but the record still says kInvalid: a
    // crash in this window leaves the frame invalid (never served), which is
    // exactly the pre-write state — benign in both directions.
    TURBOBP_CRASH_POINT("tac/revalidate-write");
    r.state = SsdFrameState::kClean;
    r.Touch(ctx.now);
    // Record the content LSN (like every other clean admission): the warm
    // restart verifies a restored frame's header against it.
    r.page_lsn = page_lsn;
    r.temperature = ExtentTemperature(pid);
    part.heap.InsertClean(rec);
    invalid_frames_.fetch_sub(1);
    r.ready_at = w.time;
    NoteJournalPut(FrameOf(part, rec), pid, page_lsn, /*dirty=*/false);
    outcome.cached_on_ssd = true;
    Counters::Bump(counters_.admissions);
  }
  MaintainJournal(ctx);
  return outcome;
}

int32_t TacCache::PickVictim(Partition& part) {
  int32_t coldest = part.heap.CleanRoot();
  for (int guard = 0; guard < 64 && coldest != -1; ++guard) {
    SsdFrameRecord& c = part.table.record(coldest);
    const double live = ExtentTemperature(c.page_id);
    if (live == c.temperature) return coldest;
    c.temperature = live;
    part.heap.UpdateKey(coldest);
    coldest = part.heap.CleanRoot();
  }
  return coldest;
}

Time TacCache::LatchBusyUntil(PageId pid, Time now) {
  TrackedLockGuard lock(latch_mu_);
  if (latch_busy_.size() > 8192) {
    for (auto it = latch_busy_.begin(); it != latch_busy_.end();) {
      it = it->second <= now ? latch_busy_.erase(it) : std::next(it);
    }
  }
  auto it = latch_busy_.find(pid);
  if (it == latch_busy_.end()) return 0;
  if (it->second <= now) {
    latch_busy_.erase(it);
    return 0;
  }
  return it->second;
}

}  // namespace turbobp
