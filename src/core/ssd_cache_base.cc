#include "core/ssd_cache_base.h"

#include <algorithm>
#include <cstring>
#include <optional>

#include "common/status.h"
#include "fault/crash_point.h"
#include "io/async_io_engine.h"
#include "sim/sim_executor.h"
#include "storage/page.h"

namespace turbobp {

SsdCacheBase::SsdCacheBase(StorageDevice* ssd_device, DiskManager* disk,
                           const SsdCacheOptions& options,
                           SimExecutor* executor, bool temperature_key)
    : options_(options),
      ssd_device_(ssd_device),
      disk_(disk),
      executor_(executor) {
  TURBOBP_CHECK(ssd_device != nullptr);
  TURBOBP_CHECK(options.num_frames > 0);
  TURBOBP_CHECK(options.num_partitions > 0);
  TURBOBP_CHECK(options.io_retry_limit > 0);
  TURBOBP_CHECK(ssd_device->num_pages() >=
                static_cast<uint64_t>(options.num_frames));
  const int n = options.num_partitions;
  const int64_t per_part = (options.num_frames + n - 1) / n;
  int64_t base = 0;
  for (int i = 0; i < n; ++i) {
    const int64_t cap = std::min<int64_t>(per_part, options.num_frames - base);
    if (cap <= 0) break;
    auto part = std::make_unique<Partition>(static_cast<int32_t>(cap),
                                            temperature_key);
    part->frame_base = base;
    base += cap;
    partitions_.push_back(std::move(part));
  }
  if (options.persistent_cache) {
    const uint32_t region_pages = SsdMetadataJournal::RegionPagesFor(
        options.num_frames, ssd_device->page_bytes());
    TURBOBP_CHECK(ssd_device->num_pages() >=
                  static_cast<uint64_t>(options.num_frames) + region_pages);
    journal_ = std::make_unique<SsdMetadataJournal>(
        ssd_device, static_cast<uint64_t>(options.num_frames), region_pages,
        [this] {
          std::vector<SsdMetadataJournal::Record> recs;
          for (const CheckpointEntry& e : SnapshotForCheckpoint()) {
            SsdMetadataJournal::Record r;
            r.frame = e.frame;
            r.page_id = e.page_id;
            r.page_lsn = e.page_lsn;
            r.dirty = e.dirty;
            recs.push_back(r);
          }
          return recs;
        });
  }
  if (options.scrub_interval > 0 && executor_ != nullptr) {
    // Self-scheduling patrol actor (paced like LC's cleaner). Caller-driven
    // setups (tests, the chaos soak) leave scrub_interval at 0 and call
    // ScrubTick themselves. The weak liveness token lets a queued event
    // outlive this cache (Crash() rebuilds the manager) without firing into
    // freed memory, and StopBackground() stops the rescheduling chain.
    scrub_alive_ = std::make_shared<bool>(true);
    std::weak_ptr<bool> alive = scrub_alive_;
    executor_->ScheduleAt(executor_->now() + options.scrub_interval,
                          [this, alive] {
                            const auto a = alive.lock();
                            if (a != nullptr && *a) ScrubStep();
                          });
  }
}

SsdProbe SsdCacheBase::Probe(PageId pid) const {
  // A lost page still looks "newer than disk": the disk copy is stale and
  // the prefetch/expansion paths must not install it.
  if (IsLostPage(pid)) return SsdProbe::kNewerCopy;
  if (degraded()) return SsdProbe::kAbsent;
  const Partition& part = PartitionFor(pid);
  if (part.degraded.load(std::memory_order_acquire)) return SsdProbe::kAbsent;
  TrackedLockGuard lock(part.mu);
  const int32_t rec = part.table.Lookup(pid);
  if (rec == -1) return SsdProbe::kAbsent;
  switch (part.table.record(rec).state) {
    case SsdFrameState::kClean:
      return SsdProbe::kCleanCopy;
    case SsdFrameState::kDirty:
      return SsdProbe::kNewerCopy;
    default:
      return SsdProbe::kAbsent;
  }
}

bool SsdCacheBase::TryReadPage(PageId pid, std::span<uint8_t> out,
                               IoContext& ctx, Status* error) {
  MaybeDegrade(ctx);
  if (IsLostPage(pid)) {
    // The only current copy died with its SSD frame; the disk copy is
    // stale. Serving either would be silent corruption.
    if (error != nullptr) {
      *error = Status::IoError("newest copy of page lost with the ssd");
    }
    return false;
  }
  if (degraded()) {
    counters_.Classified(counters_.probe_misses);
    return false;
  }
  Partition& part = PartitionFor(pid);
  if (part.degraded.load(std::memory_order_acquire)) {
    // Safe to skip the latch: the flag is published only after the
    // partition was salvaged and purged under it (DegradePartition), so
    // observing it proves the partition holds nothing newer than disk. A
    // reader racing with an in-flight degrade sees the flag still false,
    // queues on the latch below, and finds an empty table.
    counters_.Classified(counters_.probe_misses);
    return false;
  }
  TrackedLockGuard lock(part.mu);
  const int32_t rec = part.table.Lookup(pid);
  if (rec == -1) {
    counters_.Classified(counters_.probe_misses);
    return false;
  }
  SsdFrameRecord& r = part.table.record(rec);
  if (r.state != SsdFrameState::kClean && r.state != SsdFrameState::kDirty) {
    counters_.Classified(counters_.probe_misses);
    return false;
  }
  const bool must_read = r.state == SsdFrameState::kDirty;
  // Throttle control (Section 3.3.2): when the SSD queue is saturated, read
  // from disk instead — unless the SSD copy is newer (correctness).
  if (!must_read && ThrottleBlocks(ctx.now)) {
    Counters::Bump(counters_.throttled);
    return false;
  }
  if (r.ready_at > ctx.now) {
    // The admission write that created this copy has not completed.
    if (!must_read) return false;  // clean copy also lives on disk
    ctx.Wait(r.ready_at);          // dirty copy exists only here
  }
  // A clean frame's disk copy is identical, so its read may hedge to disk
  // at the deadline; a dirty frame's may not (the SSD holds the only copy).
  const Status read =
      ReadFrameVerified(part, rec, pid, out, ctx, /*hedge_ok=*/!must_read);
  if (read.ok()) {
    r.Touch(ctx.now);
    part.heap.UpdateKey(rec);
    counters_.Classified(counters_.hits);
    // The paper attributes LC's TPC-C win to re-referenced dirty SSD pages
    // ("about 83% of the total SSD references are to dirty SSD pages").
    if (must_read) Counters::Bump(counters_.hits_dirty);
    return true;
  }
  if (read.IsCorruption()) {
    // The frame itself is bad (latent corruption or an old torn write that
    // survives re-reads): take it out of service for good.
    QuarantineFrameLocked(part, rec);
    if (must_read) RecordLostPage(pid);
  }
  if (must_read && error != nullptr) {
    *error = read.IsCorruption()
                 ? Status::IoError("newest copy of page lost with the ssd")
                 : read;
  }
  // Clean copies fall back to the (identical) disk copy: no client-visible
  // error, the read path simply misses.
  return false;
}

void SsdCacheBase::OnPageDirtied(PageId pid) {
  // A page being rewritten in the pool supersedes any lost SSD copy (the
  // NewPage full-rewrite path; partial updates cannot reach a lost page
  // because its fetch fails).
  ClearLostPage(pid);
  if (degraded()) return;
  Invalidate(pid);
}

void SsdCacheBase::Invalidate(PageId pid) {
  Partition& part = PartitionFor(pid);
  TrackedLockGuard lock(part.mu);
  const int32_t rec = part.table.Lookup(pid);
  if (rec == -1) return;
  ReleaseFrameLocked(part, rec);
  Counters::Bump(counters_.invalidations);
}

void SsdCacheBase::OnEvictClean(PageId pid, std::span<const uint8_t> data,
                                AccessKind kind, IoContext& ctx) {
  MaybeDegrade(ctx);
  if (degraded()) return;
  if (!AdmissionAllows(kind)) {
    Counters::Bump(counters_.rejected_sequential);
    return;
  }
  if (ThrottleBlocks(ctx.now)) {
    Counters::Bump(counters_.throttled);
    return;
  }
  AdmitPage(pid, data, kind, /*dirty=*/false, kInvalidLsn, ctx);
}

bool SsdCacheBase::AdmissionAllows(AccessKind kind) {
  // Aggressive filling (Section 3.3.1): cache everything until the SSD is
  // tau full; afterwards only randomly-accessed pages qualify, because only
  // those are faster to re-read from the SSD than from the striped disks.
  const int64_t used = used_frames_.load();
  if (static_cast<double>(used) <
      options_.aggressive_fill * static_cast<double>(options_.num_frames)) {
    return true;
  }
  return kind == AccessKind::kRandom;
}

bool SsdCacheBase::ThrottleBlocks(Time now) {
  return ssd_device_->QueueLength(now) > options_.throttle_queue_limit;
}

int32_t SsdCacheBase::PickVictim(Partition& part) {
  return part.heap.CleanRoot();
}

void SsdCacheBase::DetachRecord(Partition& part, int32_t rec) {
  if (part.heap.Contains(rec)) part.heap.Remove(rec);
  part.table.RemoveHash(rec);
}

void SsdCacheBase::ReleaseFrameLocked(Partition& part, int32_t rec) {
  if (part.table.record(rec).state == SsdFrameState::kDirty) {
    dirty_frames_.fetch_sub(1);
  }
  DetachRecord(part, rec);
  part.table.PushFree(rec);
  used_frames_.fetch_sub(1);
  NoteJournalErase(FrameOf(part, rec));
}

bool SsdCacheBase::AdmitPage(PageId pid, std::span<const uint8_t> data,
                             AccessKind kind, bool dirty, Lsn page_lsn,
                             IoContext& ctx) {
  const bool admitted = AdmitPageImpl(pid, data, kind, dirty, page_lsn, ctx);
  // Journal maintenance runs after the partition latch is released (the
  // staged records were published under it; the device writes must not be).
  MaintainJournal(ctx);
  return admitted;
}

bool SsdCacheBase::AdmitPageImpl(PageId pid, std::span<const uint8_t> data,
                                 AccessKind kind, bool dirty, Lsn page_lsn,
                                 IoContext& ctx) {
  MaybeDegrade(ctx);
  if (degraded()) return false;
  Partition& part = PartitionFor(pid);
  if (part.degraded.load(std::memory_order_acquire)) return false;
  TrackedLockGuard lock(part.mu);
  if (part.degraded.load(std::memory_order_acquire)) {
    // The partition degraded while we queued on its latch (the pre-latch
    // check above is only a fast path). It has already been purged and the
    // pass-through flag published, so admitting now would strand a frame no
    // reader can see — for a dirty page, that frame would silently hold the
    // only current copy. Decline; dirty evictions fall back to disk.
    return false;
  }
  int32_t rec = part.table.Lookup(pid);
  if (rec != -1) {
    // Already cached. A clean re-admission is content-identical: refresh
    // usage only. A dirty admission over an existing entry supersedes it.
    SsdFrameRecord& r = part.table.record(rec);
    if (r.state == SsdFrameState::kInvalid) return false;  // TAC handles
    r.Touch(ctx.now);
    if (dirty) {
      const IoResult w = WriteFrame(part, rec, data, ctx);
      if (!w.ok()) {
        // The frame content is now suspect (possibly torn); drop the entry
        // so the caller writes the page to disk instead.
        ReleaseFrameLocked(part, rec);
        return false;
      }
      if (r.state != SsdFrameState::kDirty) {
        r.state = SsdFrameState::kDirty;
        dirty_frames_.fetch_add(1);
        if (part.heap.Contains(rec) && !part.heap.IsDirtySide(rec)) {
          part.heap.Remove(rec);
          part.heap.InsertDirty(rec);
        }
      } else {
        part.heap.UpdateKey(rec);  // the Touch above moved its LRU-2 key
      }
      r.page_lsn = page_lsn;
      r.ready_at = w.time;
      NoteJournalPut(FrameOf(part, rec), pid, page_lsn, /*dirty=*/true);
    } else {
      part.heap.UpdateKey(rec);
    }
    return true;
  }

  rec = part.table.PopFree();
  if (rec == -1) {
    const int32_t victim = PickVictim(part);
    if (victim == -1) return false;  // nothing replaceable (all dirty)
    ReleaseFrameLocked(part, victim);
    Counters::Bump(counters_.evictions);
    rec = part.table.PopFree();
    TURBOBP_CHECK(rec != -1);
  }

  // Land the content before installing the mapping: a failed or torn write
  // must leave no record claiming the frame holds `pid`.
  const IoResult w = WriteFrame(part, rec, data, ctx);
  if (!w.ok()) {
    part.table.PushFree(rec);
    return false;
  }
  used_frames_.fetch_add(1);

  SsdFrameRecord& r = part.table.record(rec);
  r.page_id = pid;
  r.kind = kind;
  // Record the page's LSN even for clean admissions (read from the page
  // header): a warm restart needs it to prove a restored copy is still the
  // newest version of the page.
  r.page_lsn = page_lsn != kInvalidLsn
                   ? page_lsn
                   : PageView(const_cast<uint8_t*>(data.data()),
                              static_cast<uint32_t>(data.size()))
                         .header()
                         .lsn;
  r.state = dirty ? SsdFrameState::kDirty : SsdFrameState::kClean;
  r.access[0] = r.access[1] = 0;
  r.Touch(ctx.now);
  part.table.InsertHash(rec);
  if (dirty) {
    dirty_frames_.fetch_add(1);
    part.heap.InsertDirty(rec);
  } else {
    part.heap.InsertClean(rec);
  }
  r.ready_at = w.time;
  NoteJournalPut(FrameOf(part, rec), pid, r.page_lsn, dirty);
  Counters::Bump(counters_.admissions);
  // Mapping installed over freshly-landed frame content. For LC dirty
  // admissions this is the moment the SSD becomes the page's newest copy.
  TURBOBP_CRASH_POINT("ssd/admit");
  return true;
}

IoResult SsdCacheBase::WriteFrame(Partition& part, int32_t rec,
                                  std::span<const uint8_t> data,
                                  IoContext& ctx) {
  IoResult res;
  Time at = ctx.now;
  for (int attempt = 0; attempt < options_.io_retry_limit; ++attempt) {
    if (attempt > 0 && ctx.charge) at += SsdCacheOptions::kIoRetryBackoff;
    res = ssd_device_->Write(FrameOf(part, rec), 1, data, at, ctx.charge);
    // The frame content just landed on the SSD medium (the partition latch
    // is held; the observer must not re-enter the cache).
    TURBOBP_CRASH_POINT("ssd/frame-write");
    if (res.ok()) return res;
    Counters::Bump(counters_.device_write_errors);
    RecordDeviceError(part, at);
    // A failed attempt still occupies the device until its completion time;
    // the next attempt's backoff counts from there, not from submission.
    if (ctx.charge) at = std::max(at, res.time);
    if (res.status.IsUnavailable()) break;  // dead device: retries are moot
  }
  return res;
}

Status SsdCacheBase::ReadFrameVerified(Partition& part, int32_t rec, PageId pid,
                                       std::span<uint8_t> out, IoContext& ctx,
                                       bool hedge_ok) {
  Status last;
  for (int attempt = 0; attempt < options_.io_retry_limit; ++attempt) {
    if (attempt > 0) {
      Counters::Bump(counters_.read_retries);
      if (ctx.charge) ctx.now += SsdCacheOptions::kIoRetryBackoff;
    }
    const Time issued = ctx.now;
    const IoResult res =
        ssd_device_->Read(FrameOf(part, rec), 1, out, ctx.now, ctx.charge);
    if (!res.ok()) {
      last = res.status;
      Counters::Bump(counters_.device_read_errors);
      RecordDeviceError(part, ctx.now);
      // A failed attempt still occupied the device until its completion
      // time: charge it, so latency spikes and retry backoff compose the
      // same way on failing and succeeding attempts.
      ctx.Wait(res.time);
      if (res.status.IsUnavailable()) break;
      continue;
    }
    // The deadline clock starts when the device begins *servicing* the
    // request, not when it arrives: time spent queued behind other traffic
    // is congestion (the throttle controller's business), and counting it
    // as sickness makes a busy cache degrade its own healthy partitions —
    // a self-sustaining cascade, since every purge-and-refill adds more
    // queueing. Devices that do not model a queue report service_start=0
    // and fall back to the arrival instant.
    const Time svc_begin = std::max(issued, res.service_start);
    if (options_.read_deadline > 0 && ctx.charge &&
        res.time > svc_begin + options_.read_deadline) {
      // The device answered, but too late: a hung request. Charge the
      // partition's budget either way; for clean frames (the disk copy
      // is identical) hedge the read to disk at the deadline instead of
      // waiting out the stall.
      const Time deadline_at = svc_begin + options_.read_deadline;
      Counters::Bump(counters_.io_timeouts);
      RecordDeviceError(part, deadline_at);
      if (hedge_ok) {
        ctx.Wait(deadline_at);
        // Scratch buffer: a failed hedge must not clobber the SSD data that
        // the fall-through verification below still wants to inspect.
        std::vector<uint8_t> hedge_buf(out.size());
        const Status ds = disk_->ReadPage(pid, hedge_buf, ctx);
        if (ds.ok()) {
          const PageView dv(hedge_buf.data(),
                            static_cast<uint32_t>(hedge_buf.size()));
          if (dv.IsIntactCopyOf(pid)) {
            std::memcpy(out.data(), hedge_buf.data(), out.size());
            Counters::Bump(counters_.hedged_reads);
            return Status::Ok();
          }
        }
        // The disk hedge failed too; fall through and wait out the SSD
        // read — its data may still verify.
      }
    }
    ctx.Wait(res.time);
    const PageView v(out.data(), static_cast<uint32_t>(out.size()));
    if (v.IsIntactCopyOf(pid)) return Status::Ok();
    // A checksum mismatch may be a transient transfer flip (the medium is
    // fine) — a re-read decides. Persistent mismatch means the frame holds
    // damaged content.
    last = Status::Corruption("ssd frame failed checksum verification");
    Counters::Bump(counters_.frame_corruptions);
    RecordDeviceError(part, ctx.now);
  }
  return last.ok() ? Status::IoError("ssd frame read failed") : last;
}

void SsdCacheBase::QuarantineFrameLocked(Partition& part, int32_t rec) {
  SsdFrameRecord& r = part.table.record(rec);
  TURBOBP_CHECK(r.state != SsdFrameState::kFree &&
                r.state != SsdFrameState::kQuarantined);
  if (r.state == SsdFrameState::kDirty) dirty_frames_.fetch_sub(1);
  if (r.state == SsdFrameState::kInvalid) invalid_frames_.fetch_sub(1);
  DetachRecord(part, rec);
  // The record is deliberately NOT pushed onto the free list: the frame's
  // flash cells are suspect and must never hold a page again. It still
  // counts toward table.used() (the auditor's free+used==capacity balance),
  // tracked separately by quarantined_frames_.
  r.page_id = kInvalidPageId;
  r.page_lsn = kInvalidLsn;
  r.ready_at = 0;
  r.state = SsdFrameState::kQuarantined;
  used_frames_.fetch_sub(1);
  quarantined_frames_.fetch_add(1);
  NoteJournalErase(FrameOf(part, rec));
}

void SsdCacheBase::QuarantineRestoredFrame(Partition& part, int32_t rec) {
  SsdFrameRecord& r = part.table.record(rec);
  // The record was just taken off the free list and never entered service:
  // no detach, no used-frame decrement — only the permanent out-of-service
  // marking (the auditor's free+used==capacity balance still holds, with
  // the record counted on the used side as quarantined).
  TURBOBP_CHECK(r.state == SsdFrameState::kFree);
  r.page_id = kInvalidPageId;
  r.page_lsn = kInvalidLsn;
  r.ready_at = 0;
  r.state = SsdFrameState::kQuarantined;
  quarantined_frames_.fetch_add(1);
}

void SsdCacheBase::RecordDeviceError(Partition& part, Time now) {
  device_errors_.fetch_add(1, std::memory_order_relaxed);
  // Time-decayed budget: a fresh window opens when the previous one lapsed.
  // All relaxed — in a race two errors may split across adjacent windows,
  // which only delays the degradation verdict by one event.
  const Time start = part.window_start.load(std::memory_order_relaxed);
  if (now - start > options_.error_window) {
    part.window_start.store(now, std::memory_order_relaxed);
    part.window_errors.store(1, std::memory_order_relaxed);
  } else {
    part.window_errors.fetch_add(1, std::memory_order_relaxed);
  }
  part.last_error_at.store(now, std::memory_order_relaxed);
}

void SsdCacheBase::RecordJournalError(Time now) {
  // The journal region shares the medium with every partition's frames:
  // charge all budgets (matching the old cache-global accounting).
  for (auto& partp : partitions_) RecordDeviceError(*partp, now);
}

int64_t SsdCacheBase::WindowErrors(const Partition& part, Time now) const {
  const Time start = part.window_start.load(std::memory_order_relaxed);
  if (now - start > options_.error_window) return 0;  // window lapsed
  return part.window_errors.load(std::memory_order_relaxed);
}

void SsdCacheBase::MaybeDegrade(IoContext& ctx) {
  // Cheap hot-path early-out: nothing to scan unless an error landed since
  // the last sweep.
  const int64_t events = device_errors_.load(std::memory_order_relaxed);
  if (events == degrade_scanned_.load(std::memory_order_relaxed)) return;
  degrade_scanned_.store(events, std::memory_order_relaxed);
  for (auto& partp : partitions_) {
    Partition& part = *partp;
    if (part.degraded.load(std::memory_order_acquire)) continue;
    if (WindowErrors(part, ctx.now) < options_.degrade_error_limit) continue;
    DegradePartition(part, ctx);
  }
}

void SsdCacheBase::DegradePartition(Partition& part, IoContext& ctx) {
  bool expected = false;
  if (!part.degrading.compare_exchange_strong(expected, true,
                                              std::memory_order_acq_rel)) {
    return;
  }
  {
    TrackedLockGuard lock(part.mu);
    // Salvage while the device may still answer (LC writes this partition's
    // dirty frames — the only newer copies — to disk), then purge (pass-
    // through writes go to disk, so any frame left behind would serve stale
    // data after a later re-enable), and only then publish the flag, all
    // under one latch hold. Readers treat part.degraded == true as a
    // license to skip the latch and fall back to disk; publishing it before
    // the salvage completed handed them stale disk copies of pages whose
    // only current version was a dirty frame still awaiting salvage.
    OnPartitionDegrade(part, ctx);
    PurgePartitionLocked(part);
    part.degraded.store(true, std::memory_order_release);
  }
  degraded_partitions_.fetch_add(1, std::memory_order_acq_rel);
  Counters::Bump(counters_.partitions_degraded);
  MaintainJournal(ctx);
}

void SsdCacheBase::PurgePartitionLocked(Partition& part) {
  for (int32_t rec = 0; rec < part.capacity; ++rec) {
    SsdFrameRecord& r = part.table.record(rec);
    if (r.state == SsdFrameState::kFree ||
        r.state == SsdFrameState::kQuarantined) {
      continue;
    }
    if (r.state == SsdFrameState::kDirty) {
      // Defensive: the salvage hook already wrote (or lost-page-recorded)
      // every dirty frame; a frame still dirty here lost its only copy.
      RecordLostPage(r.page_id);
    }
    if (r.state == SsdFrameState::kInvalid) invalid_frames_.fetch_sub(1);
    ReleaseFrameLocked(part, rec);
  }
}

void SsdCacheBase::TryHealPartition(Partition& part, IoContext& ctx) {
  // Hysteresis gate 1: a minimum quiet window since the last error.
  if (ctx.now - part.last_error_at.load(std::memory_order_relaxed) <
      options_.quiet_window) {
    return;
  }
  // Canary probe: write a self-checksummed throwaway page to a free frame
  // and read it back. kInvalidPageId keeps a crash-surviving canary from
  // being re-attached by the lazy restart scan.
  int32_t rec = -1;
  {
    TrackedLockGuard lock(part.mu);
    rec = part.table.PopFree();
  }
  if (rec == -1) return;  // every cell quarantined: unhealable
  const uint32_t page_bytes = ssd_device_->page_bytes();
  std::vector<uint8_t> buf(page_bytes);
  PageView v(buf.data(), page_bytes);
  v.Format(kInvalidPageId, PageType::kRaw);
  std::memset(v.payload(), 0xC5, v.payload_bytes());
  v.SealChecksum();
  const IoResult w =
      ssd_device_->Write(FrameOf(part, rec), 1, buf, ctx.now, ctx.charge);
  // The canary just landed on (or bounced off) the suspect medium; a crash
  // here must leave recovery unaffected: the frame is free-listed and the
  // canary page self-identifies as no page at all.
  TURBOBP_CRASH_POINT("ssd/canary-write");
  bool probe_ok = false;
  if (w.ok()) {
    ctx.Wait(w.time);
    std::vector<uint8_t> readback(page_bytes);
    const IoResult r =
        ssd_device_->Read(FrameOf(part, rec), 1, readback, ctx.now, ctx.charge);
    if (r.ok()) {
      ctx.Wait(r.time);
      const PageView rv(readback.data(), page_bytes);
      probe_ok = rv.VerifyChecksum() &&
                 std::memcmp(readback.data(), buf.data(), page_bytes) == 0;
    }
  }
  {
    TrackedLockGuard lock(part.mu);
    part.table.PushFree(rec);
  }
  if (!probe_ok) {
    // The probe itself is evidence the medium is still sick; the error
    // extends the quiet window.
    RecordDeviceError(part, ctx.now);
    return;
  }
  // Hysteresis gate 2: the decayed budget must sit at or below the recover
  // threshold (<< degrade threshold), so a marginal device cannot flap.
  if (WindowErrors(part, ctx.now) > SsdCacheOptions::kRecoverErrorLimit) return;
  part.window_errors.store(0, std::memory_order_relaxed);
  part.window_start.store(ctx.now, std::memory_order_relaxed);
  part.degraded.store(false, std::memory_order_release);
  degraded_partitions_.fetch_sub(1, std::memory_order_acq_rel);
  Counters::Bump(counters_.partitions_recovered);
  // Re-arm the degrade sequence last: clearing it earlier would let a
  // concurrent DegradePartition re-run salvage+purge on a partition whose
  // pass-through flag is still up and double-count the gauges above.
  part.degrading.store(false, std::memory_order_release);
  // The partition is live again (empty, journal-consistent). A crash here
  // re-degrades nothing: restart sees an empty healthy partition.
  TURBOBP_CRASH_POINT("ssd/reenable");
  MaintainJournal(ctx, /*force=*/true);
}

int SsdCacheBase::ScrubTick(IoContext& ctx) {
  MaybeDegrade(ctx);
  // No degraded() early-out: canary probes must keep running when every
  // partition is degraded, or nothing would ever heal.
  int verified = 0;
  if (!partitions_.empty()) {
    std::vector<uint8_t> buf(ssd_device_->page_bytes());
    const int budget = std::max(1, options_.scrub_frames_per_tick);
    for (int i = 0; i < budget; ++i) {
      if (ScrubOneSlot(ctx, buf)) ++verified;
    }
  }
  if (degraded_partitions_.load(std::memory_order_acquire) > 0) {
    for (auto& partp : partitions_) {
      if (partp->degraded.load(std::memory_order_acquire)) {
        TryHealPartition(*partp, ctx);
      }
    }
  }
  MaintainJournal(ctx);
  return verified;
}

bool SsdCacheBase::ScrubOneSlot(IoContext& ctx, std::vector<uint8_t>& buf) {
  size_t pi;
  int32_t rec;
  {
    // scrub_mu_ guards only the cursor copy/advance — released before the
    // partition latch or any device call (latch-order spec, rank 6).
    TrackedLockGuard lock(scrub_mu_);
    if (scrub_part_ >= partitions_.size()) scrub_part_ = 0;
    pi = scrub_part_;
    rec = scrub_rec_;
    if (rec + 1 >= partitions_[pi]->capacity) {
      scrub_rec_ = 0;
      scrub_part_ = (pi + 1) % partitions_.size();
    } else {
      scrub_rec_ = rec + 1;
    }
  }
  Partition& part = *partitions_[pi];
  if (part.degraded.load(std::memory_order_acquire)) return false;
  PageId repair_pid = kInvalidPageId;
  bool ok = false;
  {
    TrackedLockGuard lock(part.mu);
    if (rec >= part.table.capacity()) return false;
    SsdFrameRecord& r = part.table.record(rec);
    if (r.state != SsdFrameState::kClean &&
        r.state != SsdFrameState::kDirty) {
      return false;  // free/invalid/quarantined: nothing to verify
    }
    if (r.ready_at > ctx.now) return false;  // admission write in flight
    const bool was_dirty = r.state == SsdFrameState::kDirty;
    const PageId pid = r.page_id;
    const Status vs = ReadFrameVerified(part, rec, pid, buf, ctx);
    if (vs.ok()) {
      Counters::Bump(counters_.scrub_frames_verified);
      ok = true;
    } else if (vs.IsCorruption()) {
      // Latent corruption caught by patrol, not by a client read.
      QuarantineFrameLocked(part, rec);
      if (was_dirty) {
        RecordLostPage(pid);  // the only copy died in place
      } else {
        repair_pid = pid;  // the disk copy is identical: re-seed it
      }
    }
    // Transient device errors: leave the frame alone — the budget was
    // charged; a client read (or the next patrol lap) retries.
  }
  if (repair_pid != kInvalidPageId) RepairFrame(repair_pid, ctx);
  return ok;
}

void SsdCacheBase::RepairFrame(PageId pid, IoContext& ctx) {
  std::vector<uint8_t> buf(disk_->page_bytes());
  // Patrol repairs ride the disk engine's low-priority lane: they must
  // never starve foreground I/O.
  AsyncIoEngine& engine = disk_->io_engine();
  AsyncIoRequest req;
  req.op = IoOp::kRead;
  req.first_page = pid;
  req.num_pages = 1;
  req.out = std::span<uint8_t>(buf);
  req.low_priority = true;
  Status rs = Status::Ok();
  req.on_complete = [&rs](const IoCompletion& c) { rs = c.result.status; };
  engine.Submit(req, ctx);
  ctx.Wait(engine.Drain(ctx));
  if (!rs.ok()) return;  // disk unreadable: the quarantine already happened
  const PageView v(buf.data(), disk_->page_bytes());
  if (!v.IsIntactCopyOf(pid)) return;
  if (AdmitPage(pid, buf, AccessKind::kRandom, /*dirty=*/false, kInvalidLsn,
                ctx)) {
    // The repaired copy sits on a healthy frame and its journal record is
    // staged; a crash here re-runs at most the (idempotent) re-admission.
    TURBOBP_CRASH_POINT("ssd/scrub-repair");
    Counters::Bump(counters_.scrub_frames_repaired);
  }
}

void SsdCacheBase::DegradePartitionAt(size_t index, IoContext& ctx) {
  TURBOBP_CHECK(index < partitions_.size());
  DegradePartition(*partitions_[index], ctx);
}

void SsdCacheBase::ScrubStep() {
  // Runs through every degradation (that is the healer) until
  // StopBackground() or the cache's destruction.
  IoContext ctx;
  ctx.now = executor_->now();
  ctx.executor = executor_;
  ScrubTick(ctx);
  std::weak_ptr<bool> alive = scrub_alive_;
  executor_->ScheduleAt(executor_->now() + options_.scrub_interval,
                        [this, alive] {
                          const auto a = alive.lock();
                          if (a != nullptr && *a) ScrubStep();
                        });
}

bool SsdCacheBase::IsLostPage(PageId pid) const {
  if (lost_live_.load(std::memory_order_acquire) == 0) return false;
  TrackedLockGuard lock(fault_mu_);
  return lost_pages_.contains(pid);
}

std::vector<PageId> SsdCacheBase::LostPages() const {
  TrackedLockGuard lock(fault_mu_);
  return std::vector<PageId>(lost_pages_.begin(), lost_pages_.end());
}

void SsdCacheBase::RecordLostPage(PageId pid) {
  TrackedLockGuard lock(fault_mu_);
  if (lost_pages_.insert(pid).second) {
    lost_live_.fetch_add(1, std::memory_order_release);
  }
}

void SsdCacheBase::ClearLostPage(PageId pid) {
  if (lost_live_.load(std::memory_order_acquire) == 0) return;
  TrackedLockGuard lock(fault_mu_);
  if (lost_pages_.erase(pid) > 0) {
    lost_live_.fetch_sub(1, std::memory_order_release);
  }
}

std::vector<SsdManager::CheckpointEntry> SsdCacheBase::SnapshotForCheckpoint()
    const {
  std::vector<CheckpointEntry> entries;
  for (const auto& part : partitions_) {
    TrackedLockGuard lock(part->mu);
    for (int32_t rec = 0; rec < part->table.capacity(); ++rec) {
      const SsdFrameRecord& r = part->table.record(rec);
      if (r.state != SsdFrameState::kClean && r.state != SsdFrameState::kDirty) {
        continue;
      }
      CheckpointEntry e;
      e.page_id = r.page_id;
      e.frame = FrameOf(*part, rec);
      e.dirty = r.state == SsdFrameState::kDirty;
      e.page_lsn = r.page_lsn;
      entries.push_back(e);
    }
  }
  return entries;
}

void SsdCacheBase::RestoreEntries(
    const std::vector<CheckpointEntry>& entries, IoContext& ctx,
    const std::unordered_map<PageId, Lsn>* max_update_lsn,
    std::unordered_map<PageId, Lsn>* covered_lsn,
    PersistentRestoreStats& stats) {
  std::vector<uint8_t> buf(ssd_device_->page_bytes());
  std::vector<uint8_t> disk_buf(disk_->page_bytes());
  // The LSN of the disk's intact image of the entry's page (one charged
  // disk read); nullopt when the disk copy is unreadable or damaged.
  const auto disk_lsn = [&](const CheckpointEntry& e) -> std::optional<Lsn> {
    if (!disk_->ReadPage(e.page_id, disk_buf, ctx).ok()) return std::nullopt;
    const PageView dv(disk_buf.data(), disk_->page_bytes());
    if (!dv.IsIntactCopyOf(e.page_id)) return std::nullopt;
    return dv.header().lsn;
  };
  for (const CheckpointEntry& e : entries) {
    // A journal entry may name any page id; only a page of the database can
    // be cached (the same bound LazyScanEntries applies to frame headers).
    if (e.page_id >= disk_->num_pages()) {
      ++stats.dropped_verification;
      continue;
    }
    Partition& part = PartitionFor(e.page_id);
    const int64_t rec64 = static_cast<int64_t>(e.frame) - part.frame_base;
    if (rec64 < 0 || rec64 >= part.table.capacity()) continue;
    const int32_t rec = static_cast<int32_t>(rec64);
    TrackedLockGuard lock(part.mu);
    if (part.table.Lookup(e.page_id) != -1) continue;  // duplicate entry
    // The exact record index must be free for the frame mapping to hold.
    // Thread through the free list directly: pop until the target surfaces,
    // re-pushing the others (after a restart all records are free).
    std::vector<int32_t> popped;
    int32_t got = -1;
    while ((got = part.table.PopFree()) != -1 && got != rec) {
      popped.push_back(got);
    }
    for (int32_t other : popped) part.table.PushFree(other);
    if (got != rec) continue;  // record occupied or quarantined: stale entry
    // Trust but verify: the frame may have been recycled after its journal
    // record was written, or damaged while the cache was down. Reads are charged
    // (restart-time work). A raw read distinguishes the two cheaply: a
    // valid checksum naming a different page/LSN is a *recycled* frame
    // (healthy cells, silent drop); only a failed read or bad checksum is
    // escalated to the verified-retry path, whose persistent-corruption
    // verdict quarantines the frame.
    const IoResult rres =
        ssd_device_->Read(e.frame, 1, buf, ctx.now, ctx.charge);
    bool checksum_ok = false;
    if (rres.ok()) {
      ctx.Wait(rres.time);
      checksum_ok =
          PageView(buf.data(), ssd_device_->page_bytes()).VerifyChecksum();
    } else {
      Counters::Bump(counters_.device_read_errors);
      RecordDeviceError(part, ctx.now);
    }
    if (!rres.ok() || !checksum_ok) {
      const Status vs = ReadFrameVerified(part, rec, e.page_id, buf, ctx);
      if (vs.IsCorruption()) {
        if (PageView(buf.data(), ssd_device_->page_bytes()).VerifyChecksum()) {
          // Valid content for a different page: recycled, healthy cells.
          part.table.PushFree(rec);
          continue;
        }
        // Persistently damaged content: out of service for good — the bug
        // this path used to have was silently dropping such frames back
        // onto the free list, re-exposing the bad cells to new admissions.
        QuarantineRestoredFrame(part, rec);
        ++stats.dropped_verification;
        continue;
      }
      if (!vs.ok()) {  // device error past bounded retry
        part.table.PushFree(rec);
        ++stats.dropped_verification;
        continue;
      }
    }
    const PageView v(buf.data(), ssd_device_->page_bytes());
    if (v.header().page_id != e.page_id || v.header().lsn != e.page_lsn) {
      // The frame's self-identifying header does not back the entry's
      // claim: a verification drop.
      part.table.PushFree(rec);
      ++stats.dropped_verification;
      continue;
    }
    // Only a disk copy intact at exactly the entry's LSN proves a "clean"
    // claim. An older one means the journal ran ahead of the disk write
    // (write-through designs journal the admission first): covering the
    // entry would let redo skip an update the disk never received. A newer
    // one means the entry is stale (erases go unwritten while the whole
    // cache is degraded), and once the log is truncated the disk copy is the
    // only evidence of that. Redo rebuilds the page from the disk.
    if (!e.dirty && disk_lsn(e) != e.page_lsn) {
      part.table.PushFree(rec);
      ++stats.dropped_verification;
      continue;
    }
    // The page's newest update in the retained log (which starts at the
    // last completed checkpoint).
    Lsn newest = kInvalidLsn;
    if (max_update_lsn != nullptr) {
      const auto it = max_update_lsn->find(e.page_id);
      if (it != max_update_lsn->end()) newest = it->second;
    }
    // A dirty entry whose own update is not in the retained log predates
    // the last completed checkpoint, which drained it to disk: nothing to
    // restore, and no disk write either (the disk copy is at least as new).
    if (e.dirty && max_update_lsn != nullptr && newest < e.page_lsn) {
      part.table.PushFree(rec);
      ++stats.dropped_verification;
      continue;
    }
    if (newest > e.page_lsn) {
      part.table.PushFree(rec);
      // The copy is stale for serving reads, but it is still a valid page
      // image at its LSN: seed the disk with it when the disk copy is older
      // (dirty copies may predate the disk by a long stretch of skipped
      // redo), and let redo roll the page forward from there. A disk copy
      // at least as new must stay: the entry may be a stale journal record
      // (erases go unwritten while the whole cache is degraded) whose page
      // a completed checkpoint has since written, and redo starts after
      // that checkpoint. (An unreadable disk copy compares as older.)
      if (e.dirty && !(disk_lsn(e) >= e.page_lsn)) {
        const IoResult w = disk_->WritePage(e.page_id, buf, ctx);
        TURBOBP_CHECK_OK(w.status);
        ctx.Wait(w.time);
        // The superseded dirty image is on disk; redo (which starts after
        // restore) rolls the page forward from it. A crash before this
        // write replays the same restore path, so the reseed is idempotent.
        TURBOBP_CRASH_POINT("ssd/restore-reseed");
        ++stats.reseeded;
      }
      if (covered_lsn != nullptr) {
        Lsn& cl = (*covered_lsn)[e.page_id];
        cl = std::max(cl, e.page_lsn);
      }
      continue;
    }
    SsdFrameRecord& r = part.table.record(rec);
    r.page_id = e.page_id;
    r.kind = AccessKind::kRandom;
    r.page_lsn = e.page_lsn;
    // Superseded entries were handled above, so each surviving copy is the
    // newest version of its page. Dirty entries stay dirty: the SSD still holds the only current
    // copy, the redo pass skips the records it covers, and the cleaner
    // carries on copying it to disk as before the crash.
    r.state = e.dirty ? SsdFrameState::kDirty : SsdFrameState::kClean;
    r.access[0] = r.access[1] = 0;
    r.Touch(ctx.now);
    r.ready_at = 0;  // content verified on the device: serveable immediately
    part.table.InsertHash(rec);
    if (e.dirty) {
      dirty_frames_.fetch_add(1);
      part.heap.InsertDirty(rec);
    } else {
      part.heap.InsertClean(rec);
    }
    used_frames_.fetch_add(1);
    if (covered_lsn != nullptr) {
      Lsn& cl = (*covered_lsn)[e.page_id];
      cl = std::max(cl, e.page_lsn);
    }
    ++stats.restored;
  }
}

std::vector<SsdManager::CheckpointEntry> SsdCacheBase::LazyScanEntries(
    IoContext& ctx,
    const std::unordered_map<uint64_t, SsdMetadataJournal::RecoveredEntry>*
        known) {
  // Fallback for a torn/stale/absent journal: every frame header is
  // self-identifying (page id + LSN + checksum), so the frame area itself
  // is a slow second copy of the buffer table. Unmaterialized frames fail
  // the checksum (all-zero pages do not self-verify) and are skipped.
  std::vector<CheckpointEntry> found;
  std::vector<uint8_t> buf(ssd_device_->page_bytes());
  std::vector<uint8_t> disk_buf(disk_->page_bytes());
  for (const auto& partp : partitions_) {
    Partition& part = *partp;
    TrackedLockGuard lock(part.mu);
    for (int32_t rec = 0; rec < part.table.capacity(); ++rec) {
      const uint64_t frame = FrameOf(part, rec);
      if (known != nullptr && known->contains(frame)) continue;
      const IoResult rres =
          ssd_device_->Read(frame, 1, buf, ctx.now, ctx.charge);
      if (!rres.ok()) {
        Counters::Bump(counters_.device_read_errors);
        RecordDeviceError(part, ctx.now);
        continue;
      }
      ctx.Wait(rres.time);
      const PageView v(buf.data(), ssd_device_->page_bytes());
      if (!v.VerifyChecksum()) continue;
      const PageId pid = v.header().page_id;
      if (pid == kInvalidPageId || pid >= disk_->num_pages()) continue;
      // Classify against the current disk copy: same LSN means the frame is
      // a clean duplicate; an older disk copy (or an unreadable one) means
      // the frame is the newer image and must come back dirty; a newer disk
      // copy means the frame is a stale leftover.
      const Status ds = disk_->ReadPage(pid, disk_buf, ctx);
      if (ds.ok()) {
        const PageView dv(disk_buf.data(), disk_->page_bytes());
        if (dv.IsIntactCopyOf(pid)) {
          if (dv.header().lsn > v.header().lsn) continue;  // stale leftover
          if (dv.header().lsn == v.header().lsn) {
            CheckpointEntry e;
            e.page_id = pid;
            e.frame = frame;
            e.dirty = false;
            e.page_lsn = v.header().lsn;
            found.push_back(e);
            continue;
          }
        }
      }
      CheckpointEntry e;
      e.page_id = pid;
      e.frame = frame;
      e.dirty = true;  // the SSD holds the newest (or only readable) image
      e.page_lsn = v.header().lsn;
      found.push_back(e);
    }
  }
  return found;
}

bool SsdCacheBase::RecoverPersistentState(
    Lsn horizon, IoContext& ctx,
    const std::unordered_map<PageId, Lsn>* max_update_lsn,
    std::unordered_map<PageId, Lsn>* covered_lsn,
    PersistentRestoreStats* out) {
  if (journal_ == nullptr || degraded()) return false;
  PersistentRestoreStats local;
  PersistentRestoreStats& st = out != nullptr ? *out : local;
  st = PersistentRestoreStats{};
  const SsdMetadataJournal::RecoveredState jr = journal_->Recover(ctx);
  st.journal_valid = jr.valid;
  st.journal_epoch = jr.epoch;
  st.journal_torn = jr.torn_tail;
  st.journal_stale = jr.fell_back;
  st.entries_recovered = jr.entries.size();
  // Only LC leaves frames whose content is newer than the disk; for the
  // other designs a dirty marker can only be a journal-lag artifact, and
  // re-attaching it dirty would wrongly shadow the disk. Redo heals
  // whatever such a drop loses.
  const bool keep_dirty = design() == SsdDesign::kLazyCleaning;
  std::vector<CheckpointEntry> entries;
  entries.reserve(jr.entries.size());
  const auto filter_add = [&](const CheckpointEntry& e) {
    // The no-frame-newer-than-durable rule: a frame whose LSN exceeds the
    // WAL durable horizon reflects updates that did not survive the crash;
    // serving it would resurrect rolled-back state. The WAL rule makes
    // this impossible for frames written before the crash, so any match is
    // a torn/garbled mapping — drop it.
    if (e.page_lsn != kInvalidLsn && e.page_lsn > horizon) {
      ++st.dropped_beyond_horizon;
      return;
    }
    if (e.dirty && !keep_dirty) return;
    entries.push_back(e);
  };
  for (const auto& [frame, re] : jr.entries) {
    CheckpointEntry e;
    e.page_id = re.page_id;
    e.frame = frame;
    e.dirty = re.dirty;
    e.page_lsn = re.page_lsn;
    filter_add(e);
  }
  if (jr.incomplete()) {
    st.scan_fallback = true;
    for (const CheckpointEntry& e :
         LazyScanEntries(ctx, jr.valid ? &jr.entries : nullptr)) {
      filter_add(e);
    }
  }
  // Newest image of each page first: RestoreEntries keeps the first
  // attachment of a page and drops later duplicates.
  std::sort(entries.begin(), entries.end(),
            [](const CheckpointEntry& a, const CheckpointEntry& b) {
              if (a.page_id != b.page_id) return a.page_id < b.page_id;
              return a.page_lsn > b.page_lsn;
            });
  // The restore stages no journal record per re-attached frame: the
  // compaction below snapshots the final table in one sweep instead.
  RestoreEntries(entries, ctx, max_update_lsn, covered_lsn, st);
  const IoResult c = journal_->Compact(ctx);
  if (!c.ok()) {
    Counters::Bump(counters_.device_write_errors);
    RecordJournalError(ctx.now);
  }
  return true;
}

void SsdCacheBase::MaintainJournal(IoContext& ctx, bool force) {
  if (journal_ == nullptr || degraded()) return;
  const IoResult r = journal_->Maintain(ctx, force);
  if (!r.ok()) {
    // Journal write failures are advisory for the cache (a stale journal
    // only costs warm-restart coverage) but still count toward the device's
    // degradation budget: the journal shares the medium with the frames.
    Counters::Bump(counters_.device_write_errors);
    RecordJournalError(ctx.now);
  }
}

IoResult SsdCacheBase::FlushAllDirty(IoContext& ctx) {
  // CW/DW/TAC have no dirty frames to drain, so for them the checkpoint
  // hook is purely the journal force-flush point (LC chains here from its
  // own drain). Journal failures must not fail the checkpoint: the journal
  // is a warm-restart hint, never a durability dependency.
  MaintainJournal(ctx, /*force=*/true);
  return IoResult{ctx.now, Status::Ok()};
}

SsdManagerStats SsdCacheBase::stats() const {
  const auto ld = [](const std::atomic<int64_t>& c) {
    return c.load(std::memory_order_relaxed);
  };
  SsdManagerStats s;
  // Consistent snapshot under concurrency: ops is bumped last (release) by
  // every probe classification and read first here (acquire), so even a
  // single pass observes hits + probe_misses >= ops. The re-read at the end
  // of the pass upgrades that to a stable snapshot — if ops did not move
  // while the other counters were copied, no classification ran and the
  // pass is atomic; otherwise retry (bounded: under a continuous write
  // storm the ordered single pass is still invariant-preserving).
  for (int attempt = 0; attempt < 4; ++attempt) {
    s.ops = counters_.ops.load(std::memory_order_acquire);
    s.hits = ld(counters_.hits);
    s.probe_misses = ld(counters_.probe_misses);
    if (counters_.ops.load(std::memory_order_acquire) == s.ops) break;
  }
  s.hits_dirty = ld(counters_.hits_dirty);
  s.admissions = ld(counters_.admissions);
  s.evictions = ld(counters_.evictions);
  s.throttled = ld(counters_.throttled);
  s.rejected_sequential = ld(counters_.rejected_sequential);
  s.cleaner_disk_writes = ld(counters_.cleaner_disk_writes);
  s.cleaner_io_requests = ld(counters_.cleaner_io_requests);
  s.invalidations = ld(counters_.invalidations);
  s.used_frames = used_frames_.load();
  s.dirty_frames = dirty_frames_.load();
  s.invalid_frames = invalid_frames_.load();
  s.capacity_frames = options_.num_frames;
  s.device_read_errors = ld(counters_.device_read_errors);
  s.device_write_errors = ld(counters_.device_write_errors);
  s.read_retries = ld(counters_.read_retries);
  s.frame_corruptions = ld(counters_.frame_corruptions);
  s.quarantined_frames = quarantined_frames_.load();
  s.lost_pages = lost_live_.load();
  s.emergency_cleaned = ld(counters_.emergency_cleaned);
  s.checkpoint_flush_failures = ld(counters_.checkpoint_flush_failures);
  s.degraded = degraded();
  s.partitions_degraded = ld(counters_.partitions_degraded);
  s.partitions_recovered = ld(counters_.partitions_recovered);
  s.scrub_frames_verified = ld(counters_.scrub_frames_verified);
  s.scrub_frames_repaired = ld(counters_.scrub_frames_repaired);
  s.io_timeouts = ld(counters_.io_timeouts);
  s.hedged_reads = ld(counters_.hedged_reads);
  if (journal_ != nullptr) {
    s.journal_records_appended = journal_->records_appended();
    s.journal_pages_written = journal_->pages_written();
    s.journal_compactions = journal_->compactions();
    s.journal_write_errors = journal_->write_errors();
  }
  return s;
}

}  // namespace turbobp
