#include "buffer/buffer_pool.h"

#include <algorithm>
#include <chrono>
#include <cstring>

#include "common/status.h"
#include "fault/crash_point.h"
#include "io/async_io_engine.h"

namespace turbobp {

// ------------------------------------------------------------- PageGuard

PageGuard& PageGuard::operator=(PageGuard&& other) noexcept {
  if (this != &other) {
    Release();
    pool_ = other.pool_;
    frame_ = other.frame_;
    other.pool_ = nullptr;
    other.frame_ = -1;
  }
  return *this;
}

PageId PageGuard::page_id() const {
  TURBOBP_DCHECK(valid());
  return pool_->frames_[frame_].page_id;
}

PageView PageGuard::view() {
  TURBOBP_DCHECK(valid());
  return PageView(pool_->FrameSpan(frame_));
}

const PageView PageGuard::view() const {
  TURBOBP_DCHECK(valid());
  return PageView(pool_->FrameSpan(frame_));
}

Lsn PageGuard::LogUpdate(uint64_t txn_id, uint32_t offset, uint32_t len) {
  TURBOBP_DCHECK(valid());
  return pool_->LogUpdateInternal(frame_, txn_id, offset, len);
}

void PageGuard::MarkDirtyUnlogged() {
  TURBOBP_DCHECK(valid());
  pool_->MarkDirtyInternal(frame_, kInvalidLsn);
}

void PageGuard::Release() {
  if (pool_ != nullptr) {
    pool_->Unpin(frame_);
    pool_ = nullptr;
    frame_ = -1;
  }
}

// ------------------------------------------------------------ BufferPool

BufferPool::BufferPool(const Options& options, DiskManager* disk,
                       LogManager* log, SsdManager* ssd)
    : options_(options), disk_(disk), log_(log), ssd_(ssd) {
  TURBOBP_CHECK(disk != nullptr);
  TURBOBP_CHECK(options.num_frames > 0);
  TURBOBP_CHECK(options.page_bytes == disk->page_bytes());
  if (ssd_ == nullptr) ssd_ = &fallback_ssd_;
  arena_.resize(options.num_frames * static_cast<size_t>(options.page_bytes));
  frames_ = std::make_unique<Frame[]>(options.num_frames);
  page_table_.assign(disk->num_pages(), -1);

  // Page-table/free-list shards: one per 16 frames, capped at 16 (small
  // pools keep a single shard, preserving the exact single-list replacement
  // order the unit tests pin down).
  const uint64_t shards =
      std::clamp<uint64_t>(options.num_frames / 16, 1, 16);
  shards_.reserve(shards);
  for (uint64_t s = 0; s < shards; ++s) {
    auto sh = std::make_unique<Shard>();
    sh->frame_begin = static_cast<int32_t>(options.num_frames * s / shards);
    sh->frame_end = static_cast<int32_t>(options.num_frames * (s + 1) / shards);
    // Descending push so the lowest-numbered frame of the shard pops first
    // (the unit tests pin the frame-0-first fill order).
    for (int32_t i = sh->frame_end - 1; i >= sh->frame_begin; --i) {
      sh->free_list.push_back(i);
      frames_[i].shard = static_cast<int32_t>(s);
    }
    shards_.push_back(std::move(sh));
  }
  free_frames_.store(static_cast<int64_t>(options.num_frames),
                     std::memory_order_relaxed);
}

void BufferPool::MapLocked(Shard& sh, PageId pid, int32_t frame) {
  int32_t& slot = Slot(sh, pid);
  TURBOBP_DCHECK(slot < 0);
  slot = frame;
  ++sh.mapped;
}

void BufferPool::UnmapLocked(Shard& sh, PageId pid) {
  int32_t& slot = Slot(sh, pid);
  TURBOBP_DCHECK(slot >= 0);
  slot = -1;
  --sh.mapped;
}

BufferPool::ShardLock BufferPool::LockShard(const Shard& sh) const {
  ShardLock lock(sh.mu, std::try_to_lock);
  if (!lock.owns_lock()) {
    const auto t0 = std::chrono::steady_clock::now();
    lock.lock();
    const auto dt = std::chrono::steady_clock::now() - t0;
    StatCounters::Bump(counters_.pool_latch_waits);
    StatCounters::Bump(
        counters_.pool_latch_wait_ns,
        std::chrono::duration_cast<std::chrono::nanoseconds>(dt).count());
  }
  return lock;
}

void BufferPool::Touch(Frame& f, Time now) {
  f.access_history[1] = f.access_history[0];
  f.access_history[0] = now;
  ++f.touch_stamp;
}

void BufferPool::VerifyFrameChecksum(int32_t frame, PageId pid) const {
  const PageView v(FrameSpan(frame));
  if (v.IsIntactCopyOf(pid)) return;
  const PageId got = v.header().page_id;
  if (got == kInvalidPageId) return;  // never-formatted page
  if (got != pid) Panic(__FILE__, __LINE__, "device returned the wrong page");
  Panic(__FILE__, __LINE__, "page checksum mismatch: stale or torn copy");
}

void BufferPool::SettleLocked(Shard& sh) {
  ++sh.avail_signals;
  if (sh.waiters > 0) sh.avail_cv.notify_all();
}

void BufferPool::AwaitSettleLocked(Shard& sh, ShardLock& lock) {
  const int64_t seen = sh.avail_signals;
  ++sh.waiters;
  while (sh.avail_signals == seen) sh.avail_cv.wait(lock);
  --sh.waiters;
}

void BufferPool::WaitForFrame(Shard& sh, int32_t frame, ShardLock& lock,
                              IoContext& ctx, int* spins) {
  if (ctx.executor != nullptr) {
    // Sim mode: executor events run to completion, so an in-flight frame is
    // only observable across a client's own re-entry; waiting in virtual
    // time suffices. The spin guard catches a frame that never settles.
    const Time ready = frames_[frame].ready_at;
    lock.unlock();
    ctx.Wait(ready);
    if (++*spins > 1000) {
      Panic(__FILE__, __LINE__, "in-flight frame failed to settle (sim)");
    }
    return;
  }
  AwaitSettleLocked(sh, lock);
  lock.unlock();
}

void BufferPool::WaitWhileWriting(Shard& sh, int32_t frame, ShardLock& lock) {
  while (frames_[frame].state == FrameState::kWriting) {
    AwaitSettleLocked(sh, lock);
  }
}

void BufferPool::ResetFrameLocked(Frame& f) {
  f.page_id = kInvalidPageId;
  f.dirty = false;
  f.pin_count = 0;
  f.kind = AccessKind::kRandom;
  f.access_history[0] = f.access_history[1] = 0;
  f.touch_stamp = 0;
  f.ready_at = 0;
  f.state = FrameState::kFree;
}

void BufferPool::ReleaseClaimedLocked(Shard& sh, int32_t frame) {
  ResetFrameLocked(frames_[frame]);
  sh.free_list.push_back(frame);
  free_frames_.fetch_add(1, std::memory_order_relaxed);
  --sh.transient;
  SettleLocked(sh);
}

PageGuard BufferPool::FinishRead(int32_t frame, uint32_t pins, AccessKind kind,
                                 IoContext& ctx) {
  Shard& sh = ShardOfFrame(frame);
  ShardLock lock = LockShard(sh);
  Frame& f = frames_[frame];
  TURBOBP_DCHECK(f.state == FrameState::kReading);
  TURBOBP_DCHECK(pins <= 1);
  f.dirty = false;
  f.pin_count = pins;
  f.kind = kind;
  f.access_history[0] = f.access_history[1] = 0;
  Touch(f, ctx.now);
  f.ready_at = ctx.now;
  f.state = FrameState::kResident;
  --sh.transient;
  SettleLocked(sh);
  return pins > 0 ? PageGuard(this, frame) : PageGuard();
}

void BufferPool::AbortRead(int32_t frame, PageId pid) {
  Shard& sh = ShardOfFrame(frame);
  ShardLock lock = LockShard(sh);
  Frame& f = frames_[frame];
  if (Slot(sh, pid) == frame) UnmapLocked(sh, pid);
  ResetFrameLocked(f);
  sh.free_list.push_back(frame);
  free_frames_.fetch_add(1, std::memory_order_relaxed);
  --sh.transient;
  SettleLocked(sh);
}

void BufferPool::InstallExpandedPage(PageId p, const uint8_t* bytes,
                                     IoContext& ctx) {
  Shard& sh = *shards_[ShardOf(p)];
  ShardLock lock = LockShard(sh);
  if (Slot(sh, p) >= 0) return;
  if (sh.free_list.empty()) return;  // speculative pages only: never evict
  const int32_t fr = sh.free_list.back();
  sh.free_list.pop_back();
  free_frames_.fetch_sub(1, std::memory_order_relaxed);
  std::memcpy(FrameData(fr), bytes, options_.page_bytes);
  VerifyFrameChecksum(fr, p);
  Frame& f = frames_[fr];
  f.page_id = p;
  f.dirty = false;
  f.pin_count = 0;
  // Speculative neighbours arrive via one big I/O: treat as sequential so
  // they do not pollute the SSD admission policy.
  f.kind = AccessKind::kSequential;
  f.access_history[0] = f.access_history[1] = 0;
  Touch(f, ctx.now);
  f.state = FrameState::kResident;
  MapLocked(sh, p, fr);
  StatCounters::Bump(counters_.expanded_pages);
}

PageGuard BufferPool::FetchPage(PageId pid, AccessKind kind, IoContext& ctx,
                                Status* out_error) {
  TURBOBP_CHECK(pid < page_table_.size());
  if (ctx.charge) ctx.now += kHitCpu;
  Shard& sh = *shards_[ShardOf(pid)];
  int32_t frame = -1;
  int spins = 0;
  for (;;) {
    ShardLock lock = LockShard(sh);
    const int32_t found = Slot(sh, pid);
    if (found >= 0) {
      Frame& f = frames_[found];
      const FrameState st = f.state;
      if (st == FrameState::kReading || st == FrameState::kEvicting) {
        // Another client's I/O is in flight on this page: wait for it to
        // settle (the shard latch is released while asleep), then re-probe
        // — the page is resident after a read, gone after an evict.
        WaitForFrame(sh, found, lock, ctx, &spins);
        continue;
      }
      Touch(f, ctx.now);
      f.kind = kind;
      ++f.pin_count;
      counters_.Classified(counters_.hits);
      lock.unlock();
      // TAC pathology (Section 2.5): a pending SSD admission write holds the
      // page latch; only the client touching that page waits for it — with
      // every pool latch released.
      const Time busy = ssd_->LatchBusyUntil(pid, ctx.now);
      if (busy > ctx.now && ctx.charge) {
        counters_.latch_wait_time.fetch_add(busy - ctx.now,
                                            std::memory_order_relaxed);
        ctx.latch_wait += busy - ctx.now;
        ctx.Wait(busy);
      }
      return PageGuard(this, found);
    }

    frame = ClaimFrame(sh, lock, ctx, /*may_wait=*/true);
    if (Slot(sh, pid) >= 0) {
      // The claim dropped the latch (eviction or wait) and another client
      // published this page meanwhile; retry as a hit.
      ReleaseClaimedLocked(sh, frame);
      continue;
    }
    // Publish the read-pending placeholder: a concurrent fetch of this page
    // now waits on the frame instead of issuing a second device read.
    Frame& f = frames_[frame];
    f.page_id = pid;
    f.kind = kind;
    f.ready_at = ctx.now;
    f.state = FrameState::kReading;
    MapLocked(sh, pid, frame);
    // Commitment point: this call is a miss (counted exactly once even if
    // the claim retried above).
    counters_.Classified(counters_.misses);
    break;
  }

  // Miss path, Section 2.2 — no pool latch held across any of the I/O below.
  ssd_->OnBufferPoolMiss(pid, kind, ctx);

  Status ssd_error;
  if (ssd_->TryReadPage(pid, FrameSpan(frame), ctx, &ssd_error)) {
    // TryReadPage verified the image where it left the device.
    StatCounters::Bump(counters_.ssd_hits);
    return FinishRead(frame, 1, kind, ctx);
  }
  if (!ssd_error.ok()) {
    // The only current copy of this page sat in a dirty SSD frame that
    // could not be salvaged; the disk version is stale, so serving it would
    // silently corrupt the database. Surface a hard error instead.
    AbortRead(frame, pid);
    if (out_error != nullptr) {
      *out_error = ssd_error;
      return PageGuard();
    }
    Panic(__FILE__, __LINE__, "page unreadable: newest copy lost with the SSD");
  }

  // Read from disk. While the pool still has free frames SQL Server 2008 R2
  // expands every single-page read into an aligned multi-page read.
  constexpr uint32_t expand = kExpandReadPages;
  const bool can_expand =
      options_.expand_reads_until_warm &&
      !warmed_up_.load(std::memory_order_relaxed) &&
      free_frames_.load(std::memory_order_relaxed) >=
          static_cast<int64_t>(expand);
  if (can_expand) {
    const PageId block_first = pid - pid % expand;
    const uint32_t count = static_cast<uint32_t>(
        std::min<uint64_t>(expand, disk_->num_pages() - block_first));
    static thread_local std::vector<uint8_t> scratch;
    scratch.resize(static_cast<size_t>(count) * options_.page_bytes);
    TURBOBP_CHECK_OK(disk_->ReadPages(block_first, count, scratch, ctx));
    StatCounters::Bump(counters_.disk_page_reads, count);
    for (uint32_t i = 0; i < count; ++i) {
      const PageId p = block_first + i;
      if (p == pid) continue;  // the requested page lands in our claim below
      // Never install a speculative disk copy that the SSD supersedes (a
      // restored dirty SSD page after a warm restart): the disk version is
      // stale; a future fetch must take the SSD path.
      if (ssd_->Probe(p) == SsdProbe::kNewerCopy) continue;
      InstallExpandedPage(
          p, scratch.data() + static_cast<size_t>(i) * options_.page_bytes,
          ctx);
    }
    std::memcpy(
        FrameData(frame),
        scratch.data() + static_cast<size_t>(pid - block_first) *
                             options_.page_bytes,
        options_.page_bytes);
  } else {
    TURBOBP_CHECK_OK(disk_->ReadPage(pid, FrameSpan(frame), ctx));
    StatCounters::Bump(counters_.disk_page_reads);
  }
  VerifyFrameChecksum(frame, pid);
  ssd_->OnDiskRead(pid, FrameSpan(frame), kind, ctx);
  return FinishRead(frame, 1, kind, ctx);
}

PageGuard BufferPool::NewPage(PageId pid, PageType type, IoContext& ctx) {
  TURBOBP_CHECK(pid < page_table_.size());
  Shard& sh = *shards_[ShardOf(pid)];
  int spins = 0;
  for (;;) {
    ShardLock lock = LockShard(sh);
    int32_t frame = Slot(sh, pid);
    if (frame >= 0) {
      Frame& stale = frames_[frame];
      const FrameState st = stale.state;
      if (st != FrameState::kResident) {
        WaitForFrame(sh, frame, lock, ctx, &spins);
        continue;
      }
      // A speculative multi-page read (expansion / read-ahead) may have
      // pulled this not-yet-allocated page in as a formatted free page;
      // reclaim the frame in place.
      TURBOBP_CHECK(stale.pin_count == 0);
      TURBOBP_CHECK(!stale.dirty);
      UnmapLocked(sh, pid);
      ++sh.transient;  // claimed by us until installed below
    } else {
      frame = ClaimFrame(sh, lock, ctx, /*may_wait=*/true);
      if (Slot(sh, pid) >= 0) {
        ReleaseClaimedLocked(sh, frame);
        continue;
      }
    }
    PageView v(FrameSpan(frame));
    v.Format(pid, type);
    Frame& f = frames_[frame];
    f.page_id = pid;
    f.kind = AccessKind::kRandom;
    f.access_history[0] = f.access_history[1] = 0;
    Touch(f, ctx.now);
    // A brand-new page exists nowhere else: it is dirty from birth, and any
    // stale SSD copy of a recycled page id must go.
    f.dirty = true;
    f.pin_count = 1;
    f.state = FrameState::kResident;
    --sh.transient;
    MapLocked(sh, pid, frame);
    SettleLocked(sh);
    ssd_->OnPageDirtied(pid);
    return PageGuard(this, frame);
  }
}

void BufferPool::PrefetchRange(PageId first, uint32_t n, IoContext& ctx) {
  if (n == 0) return;
  TURBOBP_CHECK(first + n <= disk_->num_pages());

  // Claim a frame and publish a read-pending placeholder for every page not
  // already resident (or in flight), and ask the SSD what it knows.
  struct Pending {
    PageId pid;
    int32_t frame;
    SsdProbe probe;
  };
  std::vector<Pending> pages;
  pages.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    const PageId p = first + i;
    Shard& sh = *shards_[ShardOf(p)];
    ShardLock lock = LockShard(sh);
    if (Slot(sh, p) >= 0) continue;
    // Read-ahead is advisory: skip pages rather than stall behind a shard
    // whose frames are all pinned or in flight.
    const int32_t fr = ClaimFrame(sh, lock, ctx, /*may_wait=*/false);
    if (fr < 0) continue;
    if (Slot(sh, p) >= 0) {  // claim's eviction lost a publish race
      ReleaseClaimedLocked(sh, fr);
      continue;
    }
    Frame& f = frames_[fr];
    f.page_id = p;
    f.kind = AccessKind::kSequential;
    f.ready_at = ctx.now;
    f.state = FrameState::kReading;
    MapLocked(sh, p, fr);
    lock.unlock();
    pages.push_back({p, fr, ssd_->Probe(p)});
  }
  if (pages.empty()) return;

  auto read_via_ssd = [&](const Pending& ent) -> bool {
    if (!ssd_->TryReadPage(ent.pid, FrameSpan(ent.frame), ctx)) return false;
    StatCounters::Bump(counters_.ssd_hits);
    FinishRead(ent.frame, 0, AccessKind::kSequential, ctx);
    StatCounters::Bump(counters_.prefetch_pages);
    return true;
  };

  // Trim leading and trailing pages that the SSD can serve (Section 3.3.3):
  // the disk handles one large I/O better than several small ones, so only
  // the ends of the request are peeled off.
  size_t lo = 0;
  size_t hi = pages.size();
  while (lo < hi && pages[lo].probe != SsdProbe::kAbsent &&
         read_via_ssd(pages[lo])) {
    ++lo;
  }
  while (hi > lo && pages[hi - 1].probe != SsdProbe::kAbsent &&
         read_via_ssd(pages[hi - 1])) {
    --hi;
  }
  if (lo >= hi) return;

  // One engine request per pending page, installed from the completion
  // callback. The engine coalesces contiguous runs into vectored device ops
  // bounded by its stripe-sized batch limit, so a 64-page window becomes
  // several independent ops that a deep queue runs on all spindles at once,
  // overlapping the SSD-split and gap-split fragments. Callbacks take shard
  // latches, so no pool latch may be held here.
  AsyncIoEngine& engine = disk_->io_engine();
  uint32_t submitted = 0;
  for (size_t i = lo; i < hi; ++i) {
    const Pending& ent = pages[i];
    if (ent.probe == SsdProbe::kNewerCopy) {
      // The SSD holds a newer version (LC): the disk copy is stale, so the
      // page is read from the SSD instead. If that read fails (lost page on
      // a dying SSD), drop the placeholder — installing the stale disk copy
      // would corrupt the database; a later FetchPage surfaces the hard
      // error.
      if (!read_via_ssd(ent)) AbortRead(ent.frame, ent.pid);
      continue;
    }
    AsyncIoRequest req;
    req.op = IoOp::kRead;
    req.first_page = ent.pid;
    req.num_pages = 1;
    req.out = FrameSpan(ent.frame);
    req.on_complete = [this, &ctx, ent](const IoCompletion& c) {
      TURBOBP_CHECK_OK(c.result.status);
      VerifyFrameChecksum(ent.frame, ent.pid);
      ssd_->OnDiskRead(ent.pid, FrameSpan(ent.frame), AccessKind::kSequential,
                       ctx);
      FinishRead(ent.frame, 0, AccessKind::kSequential, ctx);
      StatCounters::Bump(counters_.prefetch_pages);
    };
    engine.Submit(req, ctx);
    ++submitted;
  }
  if (submitted > 0) {
    StatCounters::Bump(counters_.disk_page_reads, submitted);
    ctx.Wait(engine.Drain(ctx));
  }
}

bool BufferPool::Contains(PageId pid) const {
  TURBOBP_CHECK(pid < page_table_.size());
  const Shard& sh = *shards_[ShardOf(pid)];
  ShardLock lock = LockShard(sh);
  return Slot(sh, pid) >= 0;
}

int64_t BufferPool::DirtyFrameCount() const {
  int64_t n = 0;
  for (const auto& shp : shards_) {
    ShardLock lock = LockShard(*shp);
    for (int32_t i = shp->frame_begin; i < shp->frame_end; ++i) {
      const Frame& f = frames_[i];
      if (f.page_id != kInvalidPageId && f.dirty) ++n;
    }
  }
  return n;
}

int64_t BufferPool::UsedFrameCount() const {
  int64_t n = 0;
  for (const auto& shp : shards_) {
    ShardLock lock = LockShard(*shp);
    n += shp->mapped;
  }
  return n;
}

int32_t BufferPool::ClaimFrame(Shard& sh, ShardLock& lock, IoContext& ctx,
                               bool may_wait) {
  int fruitless = 0;
  for (;;) {
    if (!sh.free_list.empty()) {
      const int32_t frame = sh.free_list.back();
      sh.free_list.pop_back();
      free_frames_.fetch_sub(1, std::memory_order_relaxed);
      ++sh.transient;
      return frame;
    }
    warmed_up_.store(true, std::memory_order_relaxed);
    // Pop LRU-2 victims until a currently-valid entry surfaces; rebuild the
    // heap from scratch when it runs dry (stale entries are simply dropped).
    for (int attempts = 0; attempts < 3; ++attempts) {
      while (!sh.victim_heap.empty()) {
        const VictimEntry e = sh.victim_heap.top();
        sh.victim_heap.pop();
        const Frame& f = frames_[e.frame];
        if (f.page_id == kInvalidPageId || f.pin_count > 0 ||
            f.touch_stamp != e.stamp ||
            f.state != FrameState::kResident) {
          continue;  // stale or unusable entry
        }
        EvictFrameLocked(sh, lock, e.frame, ctx);
        return e.frame;
      }
      RebuildVictimHeapLocked(sh);
    }
    if (!may_wait) return -1;
    if (ctx.executor != nullptr) {
      // Sim mode runs one client at a time: nobody else can unpin a frame,
      // so waiting is hopeless.
      Panic(__FILE__, __LINE__, "buffer pool exhausted: all frames pinned");
    }
    // Real threads: a frame may be mid-I/O, or pinned by a guard about to
    // be released. Wait for a claimability signal; panic only after a
    // signal-free grace period — then every frame really is stuck pinned.
    const int64_t signals_before = sh.avail_signals;
    if (sh.transient == 0 && ++fruitless > 50) {
      Panic(__FILE__, __LINE__, "buffer pool exhausted: all frames pinned");
    }
    ++sh.waiters;
    sh.avail_cv.wait_for(lock, std::chrono::milliseconds(20));
    --sh.waiters;
    if (sh.avail_signals != signals_before || sh.transient > 0) fruitless = 0;
  }
}

void BufferPool::RebuildVictimHeapLocked(Shard& sh) {
  sh.victim_heap = {};
  for (int32_t i = sh.frame_begin; i < sh.frame_end; ++i) {
    const Frame& f = frames_[i];
    if (f.page_id == kInvalidPageId || f.pin_count > 0 ||
        f.state != FrameState::kResident) {
      continue;
    }
    sh.victim_heap.push(VictimEntry{VictimKey(f), f.touch_stamp, i});
  }
}

void BufferPool::EvictFrameLocked(Shard& sh, ShardLock& lock, int32_t frame,
                                  IoContext& ctx) {
  Frame& f = frames_[frame];
  TURBOBP_DCHECK(f.pin_count == 0);
  const PageId pid = f.page_id;
  const AccessKind kind = f.kind;
  const bool dirty = f.dirty;
  // The page-table entry stays mapped while the I/O runs: a concurrent
  // fetch of this page waits on the frame instead of reading a disk copy
  // that is not durable yet.
  f.state = FrameState::kEvicting;
  ++sh.transient;
  lock.unlock();

  // Loader-mode evictions (population) bypass the SSD manager entirely:
  // every measured run starts from a cold SSD buffer pool, as in the paper
  // (the DBMS is restarted between runs).
  if (!dirty) {
    // A clean frame already carries a valid checksum: it was verified where
    // it entered, or sealed by the flush that cleaned it.
    StatCounters::Bump(counters_.evictions_clean);
    if (ctx.charge) ssd_->OnEvictClean(pid, FrameSpan(frame), kind, ctx);
  } else {
    StatCounters::Bump(counters_.evictions_dirty);
    PageView v(FrameSpan(frame));
    v.SealChecksum();
    const Lsn page_lsn = v.header().lsn;
    // WAL rule (Section 2.4): the log must be durable through the page's
    // LSN before the page is written to the SSD or the disk. The page
    // write's arrival time is therefore the log flush's completion.
    const Time log_done =
        log_ != nullptr ? log_->FlushTo(page_lsn, ctx) : ctx.now;
    // WAL obligation discharged, page not yet written anywhere (the window
    // where the log alone carries the update). No pool latch is held; the
    // frame is fenced off as kEvicting.
    TURBOBP_CRASH_POINT("bp/evict-after-wal");
    IoContext write_ctx = ctx;
    write_ctx.now = std::max(ctx.now, log_done);
    EvictionOutcome outcome;  // loader mode: straight to disk
    if (ctx.charge) {
      outcome =
          ssd_->OnEvictDirty(pid, FrameSpan(frame), kind, page_lsn, write_ctx);
    }
    if (outcome.write_to_disk) {
      // The disk array is the durable home; its failure has no fallback.
      TURBOBP_CHECK_OK(
          disk_->WritePage(pid, FrameSpan(frame), write_ctx).status);
      // The dirty eviction reached the disk (write-through designs).
      TURBOBP_CRASH_POINT("bp/evict-disk-write");
    }
  }

  lock.lock();
  UnmapLocked(sh, pid);
  ResetFrameLocked(f);
  // The frame stays claimed by the caller (still counted in sh.transient);
  // waiters on the evicted page re-probe and miss.
  SettleLocked(sh);
}

Time BufferPool::FlushAllDirty(IoContext& ctx, bool for_checkpoint) {
  AsyncIoEngine& engine = disk_->io_engine();
  Time last = ctx.now;
  struct Staged {
    PageId pid = kInvalidPageId;
    int32_t frame = -1;
    AccessKind kind = AccessKind::kRandom;
    Lsn lsn = kInvalidLsn;
    std::vector<uint8_t> snapshot;
  };
  // A window of ~2x the ring keeps the device saturated while bounding the
  // staging memory to a few dozen page images.
  const size_t window = static_cast<size_t>(engine.queue_depth()) * 2;
  std::vector<Staged> staged;
  staged.reserve(window);

  auto flush_window = [&]() {
    if (staged.empty()) return;
    // Sorting by page id lets the engine coalesce contiguous dirty runs
    // into vectored writes.
    std::sort(staged.begin(), staged.end(),
              [](const Staged& a, const Staged& b) { return a.pid < b.pid; });
    // WAL rule, once per window: the log must be durable through every
    // staged page's LSN BEFORE any write is acknowledged to the queue (the
    // sim backend may move bytes to the device inside Submit). Forcing to
    // the window maximum over-forces at worst, never under-forces.
    Lsn max_lsn = kInvalidLsn;
    for (const Staged& s : staged) max_lsn = std::max(max_lsn, s.lsn);
    const Time log_done =
        log_ != nullptr ? log_->FlushTo(max_lsn, ctx) : ctx.now;
    IoContext io_ctx = ctx;
    io_ctx.now = std::max(ctx.now, log_done);
    for (Staged& s : staged) {
      AsyncIoRequest req;
      req.op = IoOp::kWrite;
      req.first_page = s.pid;
      req.num_pages = 1;
      req.data = std::span<const uint8_t>(s.snapshot);
      // `staged` gains no elements until the window drains: the pointer
      // stays valid for the callback's lifetime.
      Staged* sp = &s;
      req.on_complete = [this, &ctx, for_checkpoint,
                         sp](const IoCompletion& c) {
        TURBOBP_CHECK_OK(c.result.status);
        // One dirty frame flushed, others may still be dirty in memory
        // only. No pool latch is held (the engine dropped its own latch
        // before calling back).
        TURBOBP_CRASH_POINT("bp/flush-page");
        if (for_checkpoint) {
          IoContext ck_ctx = ctx;
          ssd_->OnCheckpointWrite(sp->pid,
                                  std::span<const uint8_t>(sp->snapshot),
                                  sp->kind, sp->lsn, ck_ctx);
          StatCounters::Bump(counters_.checkpoint_writes);
        }
        Shard& sh = ShardOfFrame(sp->frame);
        ShardLock lock = LockShard(sh);
        Frame& f = frames_[sp->frame];
        f.dirty = false;
        f.state = FrameState::kResident;
        --sh.transient;
        SettleLocked(sh);
      };
      engine.Submit(req, io_ctx);
    }
    last = std::max(last, engine.Drain(io_ctx));
    staged.clear();
  };

  for (const auto& shp : shards_) {
    Shard& sh = *shp;
    for (int32_t i = sh.frame_begin; i < sh.frame_end; ++i) {
      {
        ShardLock lock = LockShard(sh);
        Frame& f = frames_[i];
        if (f.page_id == kInvalidPageId || !f.dirty ||
            f.state != FrameState::kResident) {
          continue;  // empty, clean, or already being written elsewhere
        }
        Staged s;
        s.pid = f.page_id;
        s.frame = i;
        s.kind = f.kind;
        // kWriting until the completion callback settles the frame: still
        // readable and pinnable, but not evictable, not re-dirtyable
        // (MarkDirty waits), and not double-flushable.
        f.state = FrameState::kWriting;
        ++sh.transient;
        // Seal the frame itself, not just the snapshot: the frame turns
        // clean when the write lands, and a clean frame must carry a valid
        // checksum (its eviction hands the bytes to the SSD unsealed).
        PageView v(FrameSpan(i));
        v.SealChecksum();
        s.lsn = v.header().lsn;
        s.snapshot.assign(FrameData(i), FrameData(i) + options_.page_bytes);
        staged.push_back(std::move(s));
      }
      if (staged.size() >= window) flush_window();
    }
  }
  flush_window();
  return last;
}

void BufferPool::Reset() {
  for (const auto& shp : shards_) {
    Shard& sh = *shp;
    ShardLock lock = LockShard(sh);
    sh.victim_heap = {};
    sh.free_list.clear();
    sh.transient = 0;
    for (int32_t i = sh.frame_end - 1; i >= sh.frame_begin; --i) {
      // Every mapped entry of the shard names a frame of the shard that
      // holds its page (the auditor's page-table rules).
      const PageId pid = frames_[i].page_id;
      if (pid != kInvalidPageId && Slot(sh, pid) == i) UnmapLocked(sh, pid);
      ResetFrameLocked(frames_[i]);
      sh.free_list.push_back(i);
    }
    TURBOBP_CHECK(sh.mapped == 0);
    SettleLocked(sh);
  }
  free_frames_.store(static_cast<int64_t>(options_.num_frames),
                     std::memory_order_relaxed);
  warmed_up_.store(false, std::memory_order_relaxed);
}

void BufferPool::Unpin(int32_t frame) {
  Shard& sh = ShardOfFrame(frame);
  ShardLock lock = LockShard(sh);
  Frame& f = frames_[frame];
  TURBOBP_DCHECK(f.pin_count > 0);
  if (--f.pin_count == 0) SettleLocked(sh);
}

Lsn BufferPool::LogUpdateInternal(int32_t frame, uint64_t txn_id,
                                  uint32_t offset, uint32_t len) {
  TURBOBP_CHECK(log_ != nullptr);
  Shard& sh = ShardOfFrame(frame);
  ShardLock lock = LockShard(sh);
  WaitWhileWriting(sh, frame, lock);
  Frame& f = frames_[frame];
  TURBOBP_CHECK(offset + len <= options_.page_bytes);
  const Lsn lsn = log_->AppendUpdate(
      txn_id, f.page_id, offset,
      std::span<const uint8_t>(FrameData(frame) + offset, len));
  MarkDirtyLocked(frame, lsn);
  return lsn;
}

void BufferPool::MarkDirtyInternal(int32_t frame, Lsn lsn) {
  Shard& sh = ShardOfFrame(frame);
  ShardLock lock = LockShard(sh);
  WaitWhileWriting(sh, frame, lock);
  MarkDirtyLocked(frame, lsn);
}

void BufferPool::MarkDirtyLocked(int32_t frame, Lsn lsn) {
  Frame& f = frames_[frame];
  PageView v(FrameSpan(frame));
  if (!f.dirty) {
    f.dirty = true;
    // Clean -> dirty transition: the SSD copy (if any) is now stale and is
    // invalidated immediately (physically by CW/DW/LC, logically by TAC).
    ssd_->OnPageDirtied(f.page_id);
  }
  v.header().version++;
  if (lsn != kInvalidLsn) v.header().lsn = lsn;
}

BufferPoolStats BufferPool::stats() const {
  BufferPoolStats s;
  // Consistent snapshot under concurrency: ops is bumped last (release) by
  // every fetch classification and read first here (acquire), so even a
  // single pass observes hits + misses >= ops. The re-read at the end of
  // the pass upgrades that to a stable snapshot — ops unchanged means no
  // classification ran while hits/misses were copied; otherwise retry
  // (bounded: the ordered single pass is already invariant-preserving).
  for (int attempt = 0; attempt < 4; ++attempt) {
    s.ops = counters_.ops.load(std::memory_order_acquire);
    s.hits = counters_.hits.load(std::memory_order_relaxed);
    s.misses = counters_.misses.load(std::memory_order_relaxed);
    if (counters_.ops.load(std::memory_order_acquire) == s.ops) break;
  }
  s.ssd_hits = counters_.ssd_hits.load(std::memory_order_relaxed);
  s.disk_page_reads = counters_.disk_page_reads.load(std::memory_order_relaxed);
  s.evictions_clean = counters_.evictions_clean.load(std::memory_order_relaxed);
  s.evictions_dirty = counters_.evictions_dirty.load(std::memory_order_relaxed);
  s.prefetch_pages = counters_.prefetch_pages.load(std::memory_order_relaxed);
  s.expanded_pages = counters_.expanded_pages.load(std::memory_order_relaxed);
  s.checkpoint_writes =
      counters_.checkpoint_writes.load(std::memory_order_relaxed);
  s.latch_wait_time = counters_.latch_wait_time.load(std::memory_order_relaxed);
  s.pool_latch_waits =
      counters_.pool_latch_waits.load(std::memory_order_relaxed);
  s.pool_latch_wait_ns =
      counters_.pool_latch_wait_ns.load(std::memory_order_relaxed);
  return s;
}

void BufferPool::ResetStats() {
  counters_.ops.store(0, std::memory_order_relaxed);
  counters_.hits.store(0, std::memory_order_relaxed);
  counters_.misses.store(0, std::memory_order_relaxed);
  counters_.ssd_hits.store(0, std::memory_order_relaxed);
  counters_.disk_page_reads.store(0, std::memory_order_relaxed);
  counters_.evictions_clean.store(0, std::memory_order_relaxed);
  counters_.evictions_dirty.store(0, std::memory_order_relaxed);
  counters_.prefetch_pages.store(0, std::memory_order_relaxed);
  counters_.expanded_pages.store(0, std::memory_order_relaxed);
  counters_.checkpoint_writes.store(0, std::memory_order_relaxed);
  counters_.latch_wait_time.store(0, std::memory_order_relaxed);
  counters_.pool_latch_waits.store(0, std::memory_order_relaxed);
  counters_.pool_latch_wait_ns.store(0, std::memory_order_relaxed);
}

}  // namespace turbobp
