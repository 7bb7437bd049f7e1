#include "core/lazy_cleaning.h"

#include <algorithm>

#include "common/status.h"
#include "fault/crash_point.h"
#include "io/async_io_engine.h"
#include "storage/page.h"

namespace turbobp {

LazyCleaningCache::LazyCleaningCache(StorageDevice* ssd_device,
                                     DiskManager* disk,
                                     const SsdCacheOptions& options,
                                     SimExecutor* executor)
    : SsdCacheBase(ssd_device, disk, options, executor) {
  TURBOBP_CHECK(disk != nullptr);
}

EvictionOutcome LazyCleaningCache::OnEvictDirty(PageId pid,
                                                std::span<const uint8_t> data,
                                                AccessKind kind, Lsn page_lsn,
                                                IoContext& ctx) {
  MaybeDegrade(ctx);
  EvictionOutcome outcome;
  // Degraded: behave exactly like NoSsdManager (the caller writes to disk).
  if (degraded()) return outcome;
  // While a checkpoint runs, LC stops caching new dirty pages (Section 3.2).
  const bool in_ckpt = in_checkpoint_.load(std::memory_order_acquire);
  const bool allowed =
      !in_ckpt && AdmissionAllows(kind) && !ThrottleBlocks(ctx.now);
  if (allowed &&
      AdmitPage(pid, data, kind, /*dirty=*/true, page_lsn, ctx)) {
    // The SSD absorbed the page: no disk write now; the cleaner (or a
    // checkpoint) will copy it to disk eventually.
    outcome.write_to_disk = false;
    outcome.cached_on_ssd = true;
    MaybeWakeCleaner(ctx.now);
  } else {
    outcome.write_to_disk = true;
    if (!in_ckpt) {
      if (!AdmissionAllows(kind)) {
        Counters::Bump(counters_.rejected_sequential);
      } else if (ThrottleBlocks(ctx.now)) {
        Counters::Bump(counters_.throttled);
      }
    }
  }
  return outcome;
}

void LazyCleaningCache::MaybeWakeCleaner(Time now) {
  if (dirty_frames_.load() <= HighWatermark()) return;
  if (cleaner_running_.exchange(true, std::memory_order_acq_rel)) return;
  cleaner_wakeups_.fetch_add(1, std::memory_order_relaxed);
  if (executor_ != nullptr) {
    executor_->ScheduleAt(std::max(now, executor_->now()),
                          [this] { CleanerStep(); });
  } else {
    // No executor (real-file mode): clean synchronously to the watermark.
    IoContext ctx;
    ctx.now = now;
    while (dirty_frames_.load() > LowWatermark()) {
      if (CleanOneGroup(ctx) == 0) break;
    }
    cleaner_running_.store(false, std::memory_order_release);
  }
}

void LazyCleaningCache::CleanerStep() {
  if (dirty_frames_.load() <= LowWatermark()) {
    cleaner_running_.store(false, std::memory_order_release);
    return;
  }
  IoContext ctx;
  ctx.now = executor_->now();
  ctx.executor = executor_;
  const Time done = CleanOneGroup(ctx);
  if (done == 0) {
    cleaner_running_.store(false, std::memory_order_release);
    return;
  }
  // The cleaner processes one group at a time, paced by the disk write; this
  // is what consumes a visible share of disk bandwidth once lambda is
  // crossed (the throughput drop in Figure 6(a)).
  executor_->ScheduleAt(std::max(done, executor_->now()),
                        [this] { CleanerStep(); });
}

bool LazyCleaningCache::OldestDirty(Partition** part, int32_t* rec) {
  double best_key = 0;
  *part = nullptr;
  *rec = -1;
  for (auto& p : partitions_) {
    TrackedLockGuard lock(p->mu);
    const int32_t root = p->heap.DirtyRoot();
    if (root == -1) continue;
    const double key = p->heap.KeyOf(root);
    if (*rec == -1 || key < best_key) {
      best_key = key;
      *part = p.get();
      *rec = root;
    }
  }
  return *rec != -1;
}

Time LazyCleaningCache::CleanOneGroup(IoContext& ctx) {
  if (degraded()) return 0;  // the degrade path already drained what it could
  Partition* seed_part;
  int32_t seed_rec;
  if (!OldestDirty(&seed_part, &seed_rec)) return 0;

  PageId seed_pid;
  {
    TrackedLockGuard lock(seed_part->mu);
    // Re-validate under the lock (the root may have moved).
    if (seed_part->table.record(seed_rec).state != SsdFrameState::kDirty) {
      return ctx.now + 1;  // retry next step
    }
    seed_pid = seed_part->table.record(seed_rec).page_id;
  }

  // Group cleaning (Section 3.3.5): gather up to alpha dirty SSD pages with
  // *consecutive disk addresses* starting at the seed, so the copy-out is
  // one large sequential disk write.
  const uint32_t page_bytes = disk_->page_bytes();
  // Staging for the whole group; page k of the group lands in slot k.
  std::vector<uint8_t> buffer(
      static_cast<size_t>(options_.lc_group_pages) * page_bytes);
  // What was staged, with the record's page id and LSN at staging time —
  // the mark-clean pass below uses them to detect frames re-dirtied (or
  // recycled) between the SSD read and the re-acquired latch.
  struct Staged {
    Partition* part;
    int32_t rec;
    PageId pid;
    Lsn lsn_at_stage;
  };
  std::vector<Staged> group;
  Time last_ssd_read = ctx.now;
  for (int i = 0; i < options_.lc_group_pages; ++i) {
    const PageId pid = seed_pid + static_cast<PageId>(i);
    Partition& part = PartitionFor(pid);
    TrackedLockGuard lock(part.mu);
    const int32_t rec = part.table.Lookup(pid);
    if (rec == -1 ||
        part.table.record(rec).state != SsdFrameState::kDirty) {
      if (i == 0) return ctx.now + 1;  // seed vanished; retry
      break;
    }
    // Pages cannot move between devices directly: read the dirty page from
    // the SSD into memory first — verified, so a corrupt frame is never
    // copied over the disk's (older but intact) version of the page.
    IoContext read_ctx = ctx;
    const Status rs = ReadFrameVerified(
        part, rec, pid,
        std::span<uint8_t>(buffer.data() + group.size() * page_bytes,
                           page_bytes),
        read_ctx);
    if (!rs.ok()) {
      if (rs.IsCorruption()) {
        // The only current copy is damaged beyond re-reading.
        QuarantineFrameLocked(part, rec);
        RecordLostPage(pid);
      }
      if (i == 0 && group.empty()) {
        // Nothing gathered; transient errors retry next step (quarantine
        // above guarantees progress for persistent corruption).
        return degraded() ? 0 : ctx.now + 1;
      }
      break;
    }
    last_ssd_read = std::max(last_ssd_read, read_ctx.now);
    group.push_back({&part, rec, pid, part.table.record(rec).page_lsn});
  }
  if (group.empty()) return degraded() ? 0 : ctx.now + 1;

  // The group is staged in memory; nothing has reached the disk yet. A
  // crash here loses no durability (the SSD still holds the dirty copies,
  // and the log covers them from the previous checkpoint).
  TURBOBP_CRASH_POINT("lc/clean-read");

  // The group's disk write, arriving after the SSD reads finished: one
  // engine request per group page. (The WAL rule was satisfied when these
  // pages were first admitted: the buffer pool forces the log before any
  // dirty-page write.) Healthy groups reach the device as coalesced
  // vectored writes, but a transient EIO makes the engine split the batch
  // and retry ONLY the failing page, never re-writing its already-durable
  // neighbours.
  IoContext write_ctx = ctx;
  write_ctx.now = last_ssd_read;
  AsyncIoEngine& engine = disk_->io_engine();
  for (size_t i = 0; i < group.size(); ++i) {
    AsyncIoRequest req;
    req.op = IoOp::kWrite;
    req.first_page = group[i].pid;
    req.num_pages = 1;
    req.data =
        std::span<const uint8_t>(buffer.data() + i * page_bytes, page_bytes);
    req.on_complete = [](const IoCompletion& c) {
      // The disk array is the durable home; failure past the engine's
      // bounded per-request retry has no fallback.
      TURBOBP_CHECK_OK(c.result.status);
    };
    engine.Submit(req, write_ctx);
  }
  const Time done = engine.Drain(write_ctx);
  // The SSD→disk copy landed but the frames are still marked dirty: a crash
  // here must be harmless in either direction (the copy is idempotent).
  TURBOBP_CRASH_POINT("lc/clean-disk-write");

  // Mark the group clean: move records from the dirty heap to the clean heap.
  for (size_t i = 0; i < group.size(); ++i) {
    Partition& part = *group[i].part;
    const int32_t rec = group[i].rec;
    // The LSN of the image that actually reached the disk, read from the
    // staged copy's own header.
    const Lsn staged_lsn =
        PageView(buffer.data() + i * page_bytes, page_bytes).header().lsn;
    TrackedLockGuard lock(part.mu);
    SsdFrameRecord& r = part.table.record(rec);
    if (r.state != SsdFrameState::kDirty) continue;  // raced with invalidate
    if (r.page_id != group[i].pid || r.page_lsn != group[i].lsn_at_stage) {
      // The frame was re-dirtied with a newer image (or recycled for a
      // different page) after we staged it; the disk now holds the older
      // copy, so the frame must stay dirty (the cleaner will revisit it).
      continue;
    }
    r.state = SsdFrameState::kClean;
    // Track the staged image's content LSN: the metadata journal and the
    // warm restart verify a restored frame's on-page header against it.
    r.page_lsn = staged_lsn;
    dirty_frames_.fetch_sub(1);
    part.heap.DirtyToClean(rec);
    NoteJournalPut(FrameOf(part, rec), r.page_id, staged_lsn,
                   /*dirty=*/false);
  }
  Counters::Bump(counters_.cleaner_disk_writes,
                 static_cast<int64_t>(group.size()));
  Counters::Bump(counters_.cleaner_io_requests);
  // Group fully cleaned and accounted (dirty counters decremented).
  TURBOBP_CRASH_POINT("lc/clean-marked");
  MaintainJournal(ctx);
  return done;
}

void LazyCleaningCache::OnPartitionDegrade(Partition& part, IoContext& ctx) {
  // Emergency cleaner flush for one partition: its dirty frames hold the
  // *only* current copies of their pages. Salvage every frame that still
  // reads back verifiably (bounded retries absorb transient errors) to
  // disk; the rest become lost pages, served only by a hard error until
  // WAL redo or a full rewrite supersedes them. The caller
  // (DegradePartition) holds part.mu across salvage, purge and the
  // pass-through publish, so no reader can observe the flag while a dirty
  // frame still waits here.
  std::vector<uint8_t> buf(disk_->page_bytes());
  for (int32_t rec = 0; rec < part.table.capacity(); ++rec) {
    SsdFrameRecord& r = part.table.record(rec);
    if (r.state != SsdFrameState::kDirty) continue;
    const PageId pid = r.page_id;
    const Status rs = ReadFrameVerified(part, rec, pid, buf, ctx);
    if (rs.ok()) {
      const IoResult w = disk_->WritePage(pid, buf, ctx);
      TURBOBP_CHECK_OK(w.status);
      ctx.Wait(w.time);
      // The salvage copy reached the disk; the frame is still marked
      // dirty, so a crash in either half of this window is idempotent.
      TURBOBP_CRASH_POINT("lc/degrade-salvage");
      r.state = SsdFrameState::kClean;
      r.page_lsn = PageView(buf.data(), disk_->page_bytes()).header().lsn;
      dirty_frames_.fetch_sub(1);
      part.heap.DirtyToClean(rec);
      Counters::Bump(counters_.emergency_cleaned);
    } else {
      QuarantineFrameLocked(part, rec);
      RecordLostPage(pid);
    }
  }
}

IoResult LazyCleaningCache::FlushAllDirty(IoContext& ctx) {
  Time last = ctx.now;
  const int64_t lost_before = lost_live_.load(std::memory_order_acquire);
  int stalls = 0;
  while (dirty_frames_.load() > 0) {
    const int64_t dirty_before = dirty_frames_.load();
    IoContext step_ctx = ctx;
    step_ctx.now = ctx.now;
    const Time done = CleanOneGroup(step_ctx);
    if (done == 0) break;  // degraded mid-drain; salvage took the rest
    last = std::max(last, done);
    // The checkpoint drains the SSD as fast as the devices allow; each
    // group's I/O lands on the device timelines, so the elapsed time is
    // captured by the returned completion times.
    ctx.now = std::max(ctx.now, step_ctx.now);
    if (dirty_frames_.load() >= dirty_before) {
      // A CleanOneGroup round that cleaned nothing (transient read errors
      // retry forever from the cleaner's point of view). Bound the stall:
      // a checkpoint must fail rather than spin on a flaky device.
      if (++stalls > options_.io_retry_limit) break;
    } else {
      stalls = 0;
    }
  }
  // Failure is atomic for the caller: any dirty frame left on the SSD — or
  // quarantined mid-drain (its updates are stranded above the disk copy) —
  // means the disk is NOT current, and the checkpoint must keep the old
  // recovery LSN so redo from the previous checkpoint heals those pages.
  Status status = Status::Ok();
  if (dirty_frames_.load() > 0) {
    status = degraded()
                 ? Status::Unavailable("SSD degraded mid checkpoint flush")
                 : Status::IoError("dirty SSD frames not drained");
  } else if (lost_live_.load(std::memory_order_acquire) > lost_before) {
    status = Status::IoError("dirty SSD frame lost during checkpoint flush");
  }
  if (!status.ok()) Counters::Bump(counters_.checkpoint_flush_failures);
  // Chain to the base hook: the checkpoint is also the journal's force-flush
  // point (persistent cache). Its outcome never overrides the drain status.
  SsdCacheBase::FlushAllDirty(ctx);
  return IoResult{last, status};
}

}  // namespace turbobp
