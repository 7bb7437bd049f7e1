#ifndef TURBOBP_DEBUG_LATCH_ORDER_CHECKER_H_
#define TURBOBP_DEBUG_LATCH_ORDER_CHECKER_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "common/thread_annotations.h"

namespace turbobp {

// Every latch in the engine belongs to one of these classes. The acquisition
// discipline is the enum order: a thread may only acquire a latch whose class
// is *greater* than every latch class it already holds, and must never hold
// two latches of the same class (the code is written so that same-class
// latches — e.g. two SSD partitions — are acquired one at a time).
//
// The table below is the SINGLE SOURCE OF TRUTH for that discipline. It is
// parsed by tools/analysis/static_check.py (latch-order and io-under-latch
// rules) and mirrored — not restated — by the DESIGN.md §7 capability map.
// Three layers enforce it: this runtime checker (observed schedules), Clang
// Thread Safety Analysis via the annotations on TrackedMutex below
// (compile time, TURBOBP_THREAD_SAFETY=ON), and the structural checker
// (lock-scope nesting over the whole tree, no schedule needed). Edit the
// table, and all three follow.
//
// `device-io` says whether blocking StorageDevice/DiskManager calls are
// permitted while a latch of that class is held:
//   forbidden — the PR-5 invariant; fetch/evict drop the latch first.
//   allowed   — I/O under the latch is that component's design (the WAL
//               serializes flushes behind mu_; an SSD partition owns its
//               slice of the device; FaultInjectingDevice wraps the base
//               device call to order fault decisions with I/O).
//
// BEGIN LATCH ORDER SPEC (machine-readable; keep column alignment free-form,
// one row per class, fields separated by whitespace)
//   rank  class          owner-latch                      device-io
//   0     kBufferPool    BufferPool::Shard::mu            forbidden
//   1     kWal           LogManager::mu_                  forbidden
//   2     kSsdPartition  SsdCacheBase::Partition::mu      allowed
//   3     kSsdJournal    SsdMetadataJournal::mu_          forbidden
//   4     kSsdFault      SsdCacheBase::fault_mu_          forbidden
//   5     kSsdScrub      SsdCacheBase::scrub_mu_          forbidden
//   6     kTacLatch      TacCache::latch_mu_              forbidden
//   7     kIoEngine      AsyncIoEngine::mu_               forbidden
//   8     kFaultDevice   FaultInjectingDevice::mu_        allowed
//   9     kDevice        storage-device internals         allowed
// END LATCH ORDER SPEC
//
// Notes per class: kBufferPool is outermost and never held across device
// I/O (claimers and waiters for a frame's in-flight I/O sleep on the
// shard's condvar under this latch); kWal covers buffered appends (which
// may run under a pool shard latch, kBufferPool -> kWal) and the
// group-commit protocol state — the flush leader computes its batch under
// mu_ but performs the log-device write with mu_ *released* (followers park
// on a condvar), so device I/O under kWal is forbidden, with no
// exception; kSsdJournal guards the persistent-metadata journal's
// in-memory staging state only — sealed pages are written to the device
// *after* the latch is dropped (publish-then-seal), hence device-io
// forbidden; kSsdFault guards the lost-page set and degradation state;
// kSsdScrub guards only the scrubber's patrol cursor — held strictly for
// the cursor copy/advance arithmetic and released before any partition
// latch or device call (it is a leaf in practice; no other latch is ever
// taken under it), hence device-io forbidden; kTacLatch guards the
// pending-admission latch table; kIoEngine guards the
// async engine's submission/completion queues only — the engine DROPS its
// mutex before every device call and before invoking completion callbacks
// (which re-enter the frame state machine and may take rank-0 latches on a
// fresh stack), hence device-io forbidden; kDevice is innermost
// (MemDevice internals).
enum class LatchClass : uint8_t {
  kBufferPool = 0,
  kWal = 1,
  kSsdPartition = 2,
  kSsdJournal = 3,
  kSsdFault = 4,
  kSsdScrub = 5,
  kTacLatch = 6,
  kIoEngine = 7,
  kFaultDevice = 8,
  kDevice = 9,
};
inline constexpr int kNumLatchClasses = 10;

const char* ToString(LatchClass c);

// Runtime lock-order checker. Threads report every tracked acquisition and
// release; the checker maintains the global directed graph of observed
// "held A while acquiring B" edges and flags
//   * cycles (an edge whose reverse path already exists), and
//   * same-class nesting (a potential deadlock without address ordering).
// Checking costs one relaxed atomic load per lock operation when disabled;
// it is enabled by default in debug and TURBOBP_AUDIT builds and can be
// toggled at runtime (tests enable it explicitly so they work in every
// build type).
class LatchOrderChecker {
 public:
  static LatchOrderChecker& Instance();

  static void OnAcquire(LatchClass c);
  static void OnRelease(LatchClass c);

  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  // When set, a detected violation panics instead of being recorded
  // (the mode the TURBOBP_AUDIT build runs tests in).
  void set_abort_on_violation(bool on) { abort_on_violation_ = on; }

  int64_t violation_count() const;
  std::vector<std::string> violations() const;

  // Clears the observed-order graph and recorded violations (tests).
  void Reset();

 private:
  LatchOrderChecker();

  void RecordAcquire(LatchClass c);
  void RecordRelease(LatchClass c);
  // True if a path to -> ... -> from exists in the observed-edge graph.
  bool PathExists(int from, int to) const;
  void AddViolation(const std::string& msg);

  std::atomic<bool> enabled_;
  bool abort_on_violation_ = false;
  mutable std::mutex mu_;  // leaf lock: guards the graph and violation log
  bool edges_[kNumLatchClasses][kNumLatchClasses] = {};
  std::vector<std::string> violations_;
};

// Per-latch-class contention accounting. TrackedMutex takes the try_lock
// fast path first; only a *contended* acquisition pays two steady_clock
// reads and lands here, so the single-threaded simulator never records
// anything and the hot uncontended path costs one extra try_lock. The
// threaded driver snapshots/deltas this around a run to attribute wall time
// to latch classes (the derived latch-wait breakdown in
// BENCH_scaleout_threads.json).
struct LatchWaitSnapshot {
  int64_t waits[kNumLatchClasses] = {};
  int64_t wait_ns[kNumLatchClasses] = {};
};

class LatchWaitStats {
 public:
  static LatchWaitStats& Instance();

  void RecordWait(LatchClass c, int64_t ns) {
    const int i = static_cast<int>(c);
    waits_[i].fetch_add(1, std::memory_order_relaxed);
    wait_ns_[i].fetch_add(ns, std::memory_order_relaxed);
  }

  LatchWaitSnapshot Snapshot() const {
    LatchWaitSnapshot s;
    for (int i = 0; i < kNumLatchClasses; ++i) {
      s.waits[i] = waits_[i].load(std::memory_order_relaxed);
      s.wait_ns[i] = wait_ns_[i].load(std::memory_order_relaxed);
    }
    return s;
  }

  void Reset() {
    for (int i = 0; i < kNumLatchClasses; ++i) {
      waits_[i].store(0, std::memory_order_relaxed);
      wait_ns_[i].store(0, std::memory_order_relaxed);
    }
  }

 private:
  LatchWaitStats() = default;
  std::atomic<int64_t> waits_[kNumLatchClasses] = {};
  std::atomic<int64_t> wait_ns_[kNumLatchClasses] = {};
};

// Drop-in std::mutex replacement that reports its class to the
// LatchOrderChecker. Satisfies Lockable, so std::unique_lock works unchanged
// (the buffer pool's lock-juggling paths rely on that). Under Clang with
// TURBOBP_THREAD_SAFETY=ON the mutex is additionally a *capability*: each
// lock() acquires both this instance and the phantom per-class token
// (LatchClassCap), so guarded fields, REQUIRES contracts on *Locked helpers,
// and the EXCLUDES contracts on the blocking storage entry points are all
// checked at compile time. Prefer TrackedLockGuard (below) over
// std::lock_guard for plain scoped acquisition — the analysis cannot see
// through libstdc++'s unannotated lock_guard.
template <LatchClass kClass>
class TURBOBP_CAPABILITY("latch") TrackedMutex {
 public:
  void lock() TURBOBP_ACQUIRE(this, TURBOBP_LATCH_CAP(kClass)) {
    LatchOrderChecker::OnAcquire(kClass);
    if (mu_.try_lock()) return;
    const auto t0 = std::chrono::steady_clock::now();
    mu_.lock();
    const auto waited = std::chrono::steady_clock::now() - t0;
    LatchWaitStats::Instance().RecordWait(
        kClass,
        std::chrono::duration_cast<std::chrono::nanoseconds>(waited).count());
  }
  bool try_lock() TURBOBP_TRY_ACQUIRE(true, this, TURBOBP_LATCH_CAP(kClass)) {
    if (!mu_.try_lock()) return false;
    LatchOrderChecker::OnAcquire(kClass);
    return true;
  }
  void unlock() TURBOBP_RELEASE(this, TURBOBP_LATCH_CAP(kClass)) {
    mu_.unlock();
    LatchOrderChecker::OnRelease(kClass);
  }

 private:
  std::mutex mu_;
};

// Scoped acquisition of a TrackedMutex, visible to the thread-safety
// analysis (std::lock_guard on a TrackedMutex locks correctly at runtime
// but is invisible to Clang's TSA, which silently weakens every
// GUARDED_BY it should have discharged). CTAD makes it a drop-in:
//   TrackedLockGuard lock(mu_);
template <LatchClass kClass>
class TURBOBP_SCOPED_CAPABILITY TrackedLockGuard {
 public:
  explicit TrackedLockGuard(TrackedMutex<kClass>& mu)
      TURBOBP_ACQUIRE(mu, TURBOBP_LATCH_CAP(kClass))
      : mu_(mu) {
    mu_.lock();
  }
  ~TrackedLockGuard() TURBOBP_RELEASE() { mu_.unlock(); }

  TrackedLockGuard(const TrackedLockGuard&) = delete;
  TrackedLockGuard& operator=(const TrackedLockGuard&) = delete;

 private:
  TrackedMutex<kClass>& mu_;
};

}  // namespace turbobp

#endif  // TURBOBP_DEBUG_LATCH_ORDER_CHECKER_H_
