#ifndef TURBOBP_BUFFER_BUFFER_POOL_H_
#define TURBOBP_BUFFER_BUFFER_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <queue>
#include <span>
#include <vector>

#include "common/types.h"
#include "core/ssd_manager.h"
#include "debug/latch_order_checker.h"
#include "storage/disk_manager.h"
#include "storage/io_context.h"
#include "storage/page.h"
#include "wal/log_manager.h"

namespace turbobp {

class BufferPool;
class InvariantAuditor;
struct AuditAccess;

// RAII pin on a buffer frame. While a guard is alive the frame cannot be
// evicted. Mutations must go through BeginWrite()/FinishWrite() so the
// dirty bit, the SSD invalidation hook, the page LSN and the WAL record are
// maintained in the right order.
class PageGuard {
 public:
  PageGuard() = default;
  PageGuard(BufferPool* pool, int32_t frame) : pool_(pool), frame_(frame) {}
  PageGuard(const PageGuard&) = delete;
  PageGuard& operator=(const PageGuard&) = delete;
  PageGuard(PageGuard&& other) noexcept { *this = std::move(other); }
  PageGuard& operator=(PageGuard&& other) noexcept;
  ~PageGuard() { Release(); }

  bool valid() const { return pool_ != nullptr; }
  PageId page_id() const;
  PageView view();
  const PageView view() const;

  // Marks the frame dirty (invalidating any SSD copy on the clean->dirty
  // transition), logs the byte range [offset, offset+len) of the *new*
  // content as a physical redo record, and stamps the page LSN.
  // Call after mutating the page content in place.
  Lsn LogUpdate(uint64_t txn_id, uint32_t offset, uint32_t len);

  // Marks dirty and stamps an LSN without logging (pages created and fully
  // rebuilt by recovery-exempt paths, e.g. the loader).
  void MarkDirtyUnlogged();

  void Release();

 private:
  BufferPool* pool_ = nullptr;
  int32_t frame_ = -1;
};

// Snapshot of the pool's counters. The live counters are relaxed atomics
// mutated concurrently by every client; stats() copies them out so callers
// never read a torn or racing value.
struct BufferPoolStats {
  // Fetch classifications: hits + misses >= ops holds in EVERY snapshot,
  // including one taken mid-fetch from another thread (equality at
  // quiescence). A naive field-by-field relaxed copy can tear and break
  // it; stats() orders and retries its reads to keep it.
  int64_t ops = 0;
  int64_t hits = 0;
  int64_t misses = 0;
  int64_t ssd_hits = 0;          // misses served by the SSD manager
  int64_t disk_page_reads = 0;   // pages read from disk (incl. expansions)
  int64_t evictions_clean = 0;
  int64_t evictions_dirty = 0;
  int64_t prefetch_pages = 0;    // pages brought in via PrefetchRange
  int64_t expanded_pages = 0;    // speculative neighbours from warm-up reads
  int64_t checkpoint_writes = 0;
  Time latch_wait_time = 0;      // stalls behind SSD admission writes (TAC)
  // Contention on the pool's shard latches themselves (real-thread mode;
  // always zero in the single-threaded simulator).
  int64_t pool_latch_waits = 0;
  int64_t pool_latch_wait_ns = 0;
};

// Main-memory buffer pool with an SSD-manager extension point (Figure 1).
//
// Page fetch flow (Section 2.2): probe the pool; on a miss, ask the SSD
// manager for the page; otherwise read it from disk (and let the SSD
// manager see the disk read, which is where TAC admits). On eviction, dirty
// pages first satisfy the WAL rule and are then offered to the SSD manager,
// whose design (CW / DW / LC / TAC) decides what is written where.
//
// Replacement is LRU-2 via a lazily rebuilt victim heap keyed on each
// frame's penultimate access time.
//
// The page table is direct: one entry per disk page, so FetchPage, NewPage
// and Contains panic on a page id past the disk's end, in every build.
//
// Concurrency (DESIGN.md §10): the page table, free list and victim heap are
// sharded by page id, and no shard latch is ever held across device I/O.
// Each frame carries a small I/O state machine (kFree -> kReading ->
// kResident -> kEvicting); a fetch that misses publishes a kReading
// placeholder, drops the shard latch for the SSD/disk read, then re-latches
// to install. A second fetch of an in-flight page sleeps on its shard's
// wait channel until a frame of the shard settles, then re-probes.
class BufferPool {
 public:
  struct Options {
    uint64_t num_frames = 1024;
    uint32_t page_bytes = 8192;
    // SQL Server 2008 R2 behaviour observed in Figure 8: while the pool has
    // free frames, every single-page read is expanded to an aligned
    // kExpandReadPages read.
    bool expand_reads_until_warm = true;
  };
  // Pages per warm-up expanded read (Options::expand_reads_until_warm).
  static constexpr uint32_t kExpandReadPages = 8;
  // CPU charge for an in-memory page access.
  static constexpr Time kHitCpu = Micros(2);

  // PrefetchRange and FlushAllDirty submit through disk->io_engine()
  // (DESIGN.md §12).
  BufferPool(const Options& options, DiskManager* disk, LogManager* log,
             SsdManager* ssd);
  BufferPool(const BufferPool&) = delete;
  BufferPool& operator=(const BufferPool&) = delete;

  uint32_t page_bytes() const { return options_.page_bytes; }
  uint64_t num_frames() const { return options_.num_frames; }
  SsdManager* ssd_manager() { return ssd_; }

  // Swaps the SSD manager (used when simulating a DBMS restart, which
  // reformats the SSD buffer pool — no design reuses its contents).
  void set_ssd_manager(SsdManager* ssd) { ssd_ = ssd ? ssd : &fallback_ssd_; }

  // Fetches and pins a page. `kind` records how the caller reached the page
  // (random lookup vs. sequential read-ahead) — the SSD admission policy
  // keys off it. When the page is unreadable (its only current copy sat in
  // a dirty SSD frame that died with the device) the fetch cannot be served:
  // with `out_error` set, the error is reported there and an invalid guard
  // is returned; with `out_error == nullptr` the process panics.
  // NOTE on TURBOBP_NO_THREAD_SAFETY_ANALYSIS below: the pool's per-frame
  // I/O state machine juggles std::unique_lock (drop the shard latch across
  // device I/O, re-take it to install/settle), which Clang's analysis cannot
  // model — libstdc++'s unique_lock carries no annotations. These paths are
  // covered instead by the structural checker (tools/analysis/
  // static_check.py, io-under-latch + latch-order rules over lock-scope
  // nesting) and by the runtime LatchOrderChecker.
  PageGuard FetchPage(PageId pid, AccessKind kind, IoContext& ctx,
                      Status* out_error = nullptr)
      TURBOBP_NO_THREAD_SAFETY_ANALYSIS;

  // Allocates a frame for a brand-new page (no disk read) and formats it.
  // The page is born dirty (it exists nowhere else yet).
  PageGuard NewPage(PageId pid, PageType type, IoContext& ctx)
      TURBOBP_NO_THREAD_SAFETY_ANALYSIS;

  // Sequential read-ahead: brings [first, first+n) into the pool, unpinned,
  // marked kSequential. Leading and trailing pages the SSD can serve are
  // trimmed off (Section 3.3.3); the rest are read through the disk engine,
  // which coalesces contiguous runs into vectored device ops. Blocks the
  // client until the data is available.
  void PrefetchRange(PageId first, uint32_t n, IoContext& ctx)
      TURBOBP_NO_THREAD_SAFETY_ANALYSIS;

  bool Contains(PageId pid) const TURBOBP_NO_THREAD_SAFETY_ANALYSIS;
  int64_t DirtyFrameCount() const TURBOBP_NO_THREAD_SAFETY_ANALYSIS;
  int64_t UsedFrameCount() const TURBOBP_NO_THREAD_SAFETY_ANALYSIS;

  // Flushes every dirty frame to disk (sharp checkpoint / shutdown): stages
  // dirty frames in windows of twice the engine's depth, forces the WAL once
  // per window, submits per-page writes through the disk engine (which
  // coalesces contiguous runs) and settles each frame from its completion
  // callback. Returns the completion time of the last write. When
  // `for_checkpoint`, routes each flushed page through
  // SsdManager::OnCheckpointWrite.
  Time FlushAllDirty(IoContext& ctx, bool for_checkpoint)
      TURBOBP_NO_THREAD_SAFETY_ANALYSIS;

  // Crash simulation: drops all frames, including dirty ones. Must not run
  // concurrently with in-flight fetches or flushes.
  void Reset() TURBOBP_NO_THREAD_SAFETY_ANALYSIS;

  BufferPoolStats stats() const;
  void ResetStats();

 private:
  friend class PageGuard;
  friend class InvariantAuditor;  // read-only structural audits (src/debug)
  friend struct AuditAccess;      // corruption injection in auditor tests

  // Per-frame I/O state machine (DESIGN.md §10). Read and written only under
  // the owning shard's latch.
  enum class FrameState : uint8_t {
    kFree = 0,      // no page: on the free list, or claimed by an operation
    kReading = 1,   // placeholder published, device read in flight
    kResident = 2,  // content valid
    kWriting = 3,   // checkpoint/shutdown flush in flight: still readable and
                    // pinnable, but not evictable or re-dirtyable
    kEvicting = 4,  // eviction I/O in flight: unreadable, settles to kFree
  };

  struct Frame {
    PageId page_id = kInvalidPageId;
    bool dirty = false;
    uint32_t pin_count = 0;
    AccessKind kind = AccessKind::kRandom;
    Time access_history[2] = {0, 0};  // [0]=last, [1]=previous (LRU-2)
    uint64_t touch_stamp = 0;         // bumped per access; victim-heap tag
    int32_t shard = 0;                // owning shard (fixed at construction)
    FrameState state = FrameState::kFree;
    // Sim mode: projected completion time of the in-flight I/O.
    Time ready_at = 0;
  };

  struct VictimEntry {
    Time key;
    uint64_t stamp;
    int32_t frame;
    bool operator>(const VictimEntry& o) const {
      return key != o.key ? key > o.key : frame > o.frame;
    }
  };

  using ShardMutex = TrackedMutex<LatchClass::kBufferPool>;
  using ShardLock = std::unique_lock<ShardMutex>;

  // One shard of the page table / free list / victim heap, covering the
  // contiguous frame range [frame_begin, frame_end) and the page-table
  // entries of the pages p with ShardOf(p) == this shard.
  struct Shard {
    mutable ShardMutex mu;
    // The shard's one wait channel (real threads only): signalled by every
    // settle of one of its frames (in-flight I/O done, frame freed, unpin to
    // zero). Claimers and frame waiters both sleep here under mu.
    std::condition_variable_any avail_cv;
    // Bumped per settle; a waiter's predicate is "the counter moved".
    int64_t avail_signals TURBOBP_GUARDED_BY(mu) = 0;
    int64_t waiters TURBOBP_GUARDED_BY(mu) = 0;
    // Frames mid-I/O (kReading/kWriting/kEvicting) plus frames claimed off
    // the free list or out of an eviction but not yet installed/released.
    int64_t transient TURBOBP_GUARDED_BY(mu) = 0;
    // Page-table entries of this shard that map a frame.
    int64_t mapped TURBOBP_GUARDED_BY(mu) = 0;
    std::vector<int32_t> free_list TURBOBP_GUARDED_BY(mu);
    std::priority_queue<VictimEntry, std::vector<VictimEntry>,
                        std::greater<VictimEntry>>
        victim_heap TURBOBP_GUARDED_BY(mu);
    // Fixed at construction; read latch-free.
    int32_t frame_begin = 0;
    int32_t frame_end = 0;
  };

  // Live counters (relaxed atomics; see BufferPoolStats for the snapshot).
  struct StatCounters {
    // Fetch classifications: bumped once per FetchPage hit/miss commitment,
    // LAST and with release ordering, so a snapshot reading ops first
    // (acquire) always observes hits + misses >= ops.
    std::atomic<int64_t> ops{0};
    std::atomic<int64_t> hits{0};
    std::atomic<int64_t> misses{0};
    std::atomic<int64_t> ssd_hits{0};
    std::atomic<int64_t> disk_page_reads{0};
    std::atomic<int64_t> evictions_clean{0};
    std::atomic<int64_t> evictions_dirty{0};
    std::atomic<int64_t> prefetch_pages{0};
    std::atomic<int64_t> expanded_pages{0};
    std::atomic<int64_t> checkpoint_writes{0};
    std::atomic<Time> latch_wait_time{0};
    std::atomic<int64_t> pool_latch_waits{0};
    std::atomic<int64_t> pool_latch_wait_ns{0};

    static void Bump(std::atomic<int64_t>& c, int64_t by = 1) {
      c.fetch_add(by, std::memory_order_relaxed);
    }
    // Bumps a classification counter and then seals the fetch into ops.
    void Classified(std::atomic<int64_t>& c) {
      c.fetch_add(1, std::memory_order_relaxed);
      ops.fetch_add(1, std::memory_order_release);
    }
  };

  uint8_t* FrameData(int32_t frame) const {
    return const_cast<uint8_t*>(arena_.data()) +
           static_cast<size_t>(frame) * options_.page_bytes;
  }
  std::span<uint8_t> FrameSpan(int32_t frame) const {
    return {FrameData(frame), options_.page_bytes};
  }

  size_t ShardOf(PageId pid) const {
    return static_cast<size_t>((pid * 0x9E3779B97F4A7C15ull) >> 32) %
           shards_.size();
  }
  Shard& ShardOfFrame(int32_t frame) const {
    return *shards_[static_cast<size_t>(frames_[frame].shard)];
  }

  // The page-table entry of `pid`, owned by shard `sh` (= ShardOf(pid)):
  // the frame holding the page (or its in-flight I/O), or -1 if unmapped.
  int32_t& Slot(const Shard& sh, PageId pid) const TURBOBP_REQUIRES(sh.mu) {
    TURBOBP_DCHECK(shards_[ShardOf(pid)].get() == &sh);
    return page_table_[pid];
  }
  void MapLocked(Shard& sh, PageId pid, int32_t frame) TURBOBP_REQUIRES(sh.mu);
  void UnmapLocked(Shard& sh, PageId pid) TURBOBP_REQUIRES(sh.mu);

  // Locks a shard, accounting contended acquisitions (the pool-latch-wait
  // metric the latch-decomposition ablation reports). Returns ownership via
  // std::unique_lock, which the thread-safety analysis cannot track — hence
  // the NO_TSA here and on every caller above/below.
  ShardLock LockShard(const Shard& sh) const TURBOBP_NO_THREAD_SAFETY_ANALYSIS;

  void Touch(Frame& f, Time now);
  // LRU-2 key: penultimate access time (0 while seen only once).
  Time VictimKey(const Frame& f) const { return f.access_history[1]; }

  // Claims a frame of `sh` for the caller (free list first, then LRU-2
  // eviction — which drops and re-takes `lock` around the eviction I/O).
  // With `may_wait`, blocks until a frame can be claimed (panics only when
  // every frame stays pinned); otherwise returns -1 when nothing is
  // immediately claimable. The claimed frame is kFree, off the free list,
  // unmapped, and counted in sh.transient until installed or released.
  int32_t ClaimFrame(Shard& sh, ShardLock& lock, IoContext& ctx,
                     bool may_wait) TURBOBP_REQUIRES(sh.mu)
      TURBOBP_NO_THREAD_SAFETY_ANALYSIS;
  // Evicts the (resident, unpinned) frame: marks it kEvicting, releases the
  // latch for the WAL flush + SSD/disk write, re-latches, unmaps and resets
  // it. The page-table entry stays mapped during the I/O so a concurrent
  // fetch of the page waits instead of reading a not-yet-durable disk copy.
  // On return the frame is claimed by the caller.
  void EvictFrameLocked(Shard& sh, ShardLock& lock, int32_t frame,
                        IoContext& ctx) TURBOBP_REQUIRES(sh.mu)
      TURBOBP_NO_THREAD_SAFETY_ANALYSIS;
  void RebuildVictimHeapLocked(Shard& sh) TURBOBP_REQUIRES(sh.mu);

  // Returns a claimed frame to the free list (lost a publish race).
  void ReleaseClaimedLocked(Shard& sh, int32_t frame) TURBOBP_REQUIRES(sh.mu);
  // Resets a frame's metadata (leaves state kFree).
  void ResetFrameLocked(Frame& f);

  // Completion half of the read protocol, shared by FetchPage (one pin) and
  // read-ahead (no pin): re-latches, flips the kReading placeholder to
  // kResident with `pins` pins and access `kind`, and settles the shard. Returns the pin as a guard (invalid when `pins` is 0).
  PageGuard FinishRead(int32_t frame, uint32_t pins, AccessKind kind,
                       IoContext& ctx) TURBOBP_NO_THREAD_SAFETY_ANALYSIS;
  // Failure half: unmaps the placeholder and frees the frame.
  void AbortRead(int32_t frame, PageId pid) TURBOBP_NO_THREAD_SAFETY_ANALYSIS;

  // Installs one speculative neighbour page from a warm-up expanded read
  // (free-list frames only; never evicts).
  void InstallExpandedPage(PageId p, const uint8_t* bytes, IoContext& ctx)
      TURBOBP_NO_THREAD_SAFETY_ANALYSIS;

  // Waits out the in-flight I/O on `frame` of shard `sh`; returns with
  // `lock` released, and the caller re-probes. Sim mode waits in virtual
  // time until the frame's ready_at; `spins` guards against a frame that
  // never settles (impossible unless an event yields mid-I/O, which the
  // executor's run-to-completion model forbids). Real threads sleep until
  // the next settle of the shard.
  void WaitForFrame(Shard& sh, int32_t frame, ShardLock& lock, IoContext& ctx,
                    int* spins) TURBOBP_NO_THREAD_SAFETY_ANALYSIS;
  // Blocks while the frame is mid-flush (kWriting). Re-dirtying a page
  // under an in-flight checkpoint write must wait for the write so the
  // flushed image is a clean prefix of the page's history.
  void WaitWhileWriting(Shard& sh, int32_t frame, ShardLock& lock)
      TURBOBP_NO_THREAD_SAFETY_ANALYSIS;
  // Sleeps on the shard's channel until the next settle. The settle runs
  // under the same latch the predicate is checked under, so no wakeup can
  // be missed.
  static void AwaitSettleLocked(Shard& sh, ShardLock& lock)
      TURBOBP_NO_THREAD_SAFETY_ANALYSIS;
  // Publishes a settle of one of the shard's frames: bumps avail_signals
  // and wakes the shard's waiters, if any.
  static void SettleLocked(Shard& sh) TURBOBP_REQUIRES(sh.mu);

  // Panics unless the frame holds an intact copy of `pid` (a never-
  // formatted page passes). Run once on every disk read; SSD hits arrive
  // verified by TryReadPage.
  void VerifyFrameChecksum(int32_t frame, PageId pid) const;

  void Unpin(int32_t frame) TURBOBP_NO_THREAD_SAFETY_ANALYSIS;
  Lsn LogUpdateInternal(int32_t frame, uint64_t txn_id, uint32_t offset,
                        uint32_t len) TURBOBP_NO_THREAD_SAFETY_ANALYSIS;
  void MarkDirtyInternal(int32_t frame, Lsn lsn)
      TURBOBP_NO_THREAD_SAFETY_ANALYSIS;
  // Requires the frame's owning shard latch (not nameable here: the shard is
  // frame-indexed); the structural checker pins the callers.
  void MarkDirtyLocked(int32_t frame, Lsn lsn);

  Options options_;
  DiskManager* disk_;
  LogManager* log_;
  SsdManager* ssd_;
  NoSsdManager fallback_ssd_;  // used when ssd == nullptr

  std::vector<uint8_t> arena_;
  std::unique_ptr<Frame[]> frames_;
  std::vector<std::unique_ptr<Shard>> shards_;
  // Direct page table, one entry per disk page (see Slot). Sized once.
  mutable std::vector<int32_t> page_table_;

  std::atomic<bool> warmed_up_{false};  // pool filled once (stops expansion)
  std::atomic<int64_t> free_frames_{0};  // total across shards (expansion gate)
  // Cache-line aligned: every fetch on every thread bumps these, so they
  // must not share a line with the read-mostly members above. (Unaligned,
  // an 8-byte shrink of Options moved them and cost perfbench's threaded
  // tpcc_mem_mt about 8% host throughput on a 4-core VM.)
  alignas(64) mutable StatCounters counters_;
};

}  // namespace turbobp

#endif  // TURBOBP_BUFFER_BUFFER_POOL_H_
