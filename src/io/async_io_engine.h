#ifndef TURBOBP_IO_ASYNC_IO_ENGINE_H_
#define TURBOBP_IO_ASYNC_IO_ENGINE_H_

#include <condition_variable>
#include <deque>
#include <functional>
#include <map>
#include <span>
#include <vector>

#include "common/types.h"
#include "debug/latch_order_checker.h"
#include "storage/io_context.h"
#include "storage/storage_device.h"

namespace turbobp {

// Ticket for one submitted request; 0 is never issued.
using IoToken = uint64_t;

// One harvested completion. `result.time` is the virtual-time instant the
// request finished on the device; `result.status` carries any per-request
// fault that survived the engine's bounded retry.
struct IoCompletion {
  IoToken token = 0;
  uint64_t tag = 0;          // caller-chosen correlation value
  IoOp op = IoOp::kRead;
  PageId first_page = 0;
  uint32_t num_pages = 0;
  IoResult result;
};

// Invoked while the completion is harvested, with NO engine latch held (and,
// per the submission contract, no pool latch on the stack): the callback may
// re-enter the buffer pool's frame state machine, take shard latches, or
// touch SSD partitions.
using IoCompletionFn = std::function<void(const IoCompletion&)>;

// One request on the submission queue. Exactly one of `out` / `data` is
// meaningful, by op. The spans must stay valid until this request's
// completion has been reaped: a deep queue defers the device transfer past
// Submit (writes gather from `data` at issue time, coalesced reads scatter
// into `out`).
struct AsyncIoRequest {
  IoOp op = IoOp::kRead;
  PageId first_page = 0;
  uint32_t num_pages = 1;
  std::span<uint8_t> out{};         // kRead destination
  std::span<const uint8_t> data{};  // kWrite source
  uint64_t tag = 0;
  IoCompletionFn on_complete;       // optional
  // Background lane (scrub patrol, repairs): popped only when the normal
  // submission queue is empty, so maintenance I/O never starves foreground
  // work. Each lane has its own queue_depth worth of staging room.
  bool low_priority = false;
};

// io_uring-shaped asynchronous I/O engine over one StorageDevice: a
// submission queue, a bounded set of device-issued requests ("the ring", at
// most `queue_depth` in flight), and a completion queue harvested by
// Reap/Drain. See DESIGN.md §12.
//
// Deterministic virtual time: an issued request calls the device
// synchronously, on the submitting or reaping thread (data movement is
// immediate per the StorageDevice contract), and records the device-model
// completion instant. Queue depth is modelled temporally — when the ring is
// full the next request is issued at the earliest in-flight completion, so
// depth 1 degenerates to a call-and-wait serial loop while depth 32 keeps
// all spindles of a striped array busy.
//
// Coalescing: contiguous same-op runs on the submission queue are merged
// into one vectored device request (the paper's multi-page trimming applied
// at the engine level), bounded by kMaxCoalescedPages. A coalesced batch
// that fails is split and re-issued per request, so one flaky page never
// re-writes its already-durable neighbours (the per-request bounded-retry
// contract the checkpoint drain relies on).
//
// Latch discipline (LATCH ORDER SPEC, class kIoEngine, device-io forbidden):
// the engine mutex guards only queue state. It is dropped before every
// device call and before every completion callback. Submit/Reap/Drain must
// not be called while holding a buffer-pool shard latch or an SSD
// partition latch — enforced by the TSA EXCLUDES contracts below and the
// async-io rule of tools/analysis/static_check.py.
//
// Crash semantics: a write acknowledged by Submit but not yet issued has
// performed no device transfer, so a crash at that instant loses it — the
// WAL rule (log durable through the page LSN before Submit) is what makes
// that loss recoverable. TURBOBP_CRASH_POINT("io/queued-write") marks the
// staged-not-issued window and "io/submitted-write" the issued-not-reaped
// window; the restart matrix sweeps both.
class AsyncIoEngine {
 public:
  // Largest coalesced run: one striped-array stripe unit.
  static constexpr uint32_t kMaxCoalescedPages = 8;
  // Transient-error policy of every disk I/O, shared with DiskManager's
  // blocking calls: up to kRetryLimit device issues per request,
  // kRetryBackoff of virtual time apart (kIoError only; kUnavailable is a
  // dead device and never retried).
  static constexpr int kRetryLimit = 3;
  static constexpr Time kRetryBackoff = Millis(1);

  // Snapshot of the engine counters (taken under the engine mutex).
  struct Stats {
    int64_t submitted = 0;          // requests accepted
    int64_t completed = 0;          // completions delivered to callers
    int64_t device_ops = 0;         // vectored device requests issued
    int64_t coalesced_batches = 0;  // device ops that merged >1 request
    int64_t coalesced_pages = 0;    // pages carried by those merged ops
    int64_t queue_full_waits = 0;   // submissions that found the ring full
    int64_t retries = 0;            // per-request re-issues after kIoError
    int64_t errors = 0;             // completions delivered with !ok()
  };

  // `queue_depth`: device-issued requests in flight.
  explicit AsyncIoEngine(StorageDevice* device, int queue_depth = 32);
  AsyncIoEngine(const AsyncIoEngine&) = delete;
  AsyncIoEngine& operator=(const AsyncIoEngine&) = delete;

  StorageDevice* device() { return device_; }
  int queue_depth() const { return queue_depth_; }

  // Enqueues a request; returns its token. Never fails or blocks: when the
  // ring is full the request waits on the submission queue and is issued at
  // the virtual-time instant a slot frees.
  // NOTE on TURBOBP_NO_THREAD_SAFETY_ANALYSIS here and below: the engine
  // juggles std::unique_lock across the device call and the completion
  // callbacks, which Clang's analysis cannot model; the structural checker
  // (io-under-latch + async-io rules) covers these paths instead.
  IoToken Submit(const AsyncIoRequest& req, IoContext& ctx)
      TURBOBP_EXCLUDES(TURBOBP_LATCH_CAP(LatchClass::kBufferPool),
                       TURBOBP_LATCH_CAP(LatchClass::kSsdPartition))
          TURBOBP_NO_THREAD_SAFETY_ANALYSIS;

  // Harvests up to `max` completions whose device finish time is <=
  // `deadline`. Completion callbacks run here, latch-free, in
  // device-completion order.
  std::vector<IoCompletion> Reap(int max, Time deadline, IoContext& ctx)
      TURBOBP_EXCLUDES(TURBOBP_LATCH_CAP(LatchClass::kBufferPool),
                       TURBOBP_LATCH_CAP(LatchClass::kSsdPartition))
          TURBOBP_NO_THREAD_SAFETY_ANALYSIS;

  // Reaps everything (including bounded retries) and returns only once
  // nothing is outstanding — a completion another thread harvested is
  // waited for until its callback has returned. Returns the completion
  // instant of the last request, or ctx.now if nothing was outstanding.
  // Never call from a completion callback of the same engine: the drain
  // would wait on its own delivery.
  Time Drain(IoContext& ctx)
      TURBOBP_EXCLUDES(TURBOBP_LATCH_CAP(LatchClass::kBufferPool),
                       TURBOBP_LATCH_CAP(LatchClass::kSsdPartition))
          TURBOBP_NO_THREAD_SAFETY_ANALYSIS;

  // Requests accepted whose completion callbacks have not yet returned:
  // staged, mid device call, in flight, harvestable, or mid delivery on
  // some thread.
  int64_t Outstanding() const TURBOBP_NO_THREAD_SAFETY_ANALYSIS;
  bool Idle() const { return Outstanding() == 0; }

  // Crash simulation: drops all queued and in-flight bookkeeping without
  // delivering completions (issued requests have already moved their
  // data; staged requests vanish, exactly like power loss with a volatile
  // submission queue). Waits out device calls and callbacks running on
  // other threads first. Only meaningful between operations.
  void Reset() TURBOBP_NO_THREAD_SAFETY_ANALYSIS;

  Stats stats() const TURBOBP_NO_THREAD_SAFETY_ANALYSIS;

 private:
  using EngineMutex = TrackedMutex<LatchClass::kIoEngine>;
  using EngineLock = std::unique_lock<EngineMutex>;

  struct Pending {
    IoToken token = 0;
    AsyncIoRequest req;
    bool charge = true;
    int attempts = 0;        // device issues so far
    Time not_before = 0;     // retry backoff floor for the next issue
    bool no_coalesce = false;  // split retry: must be issued alone
  };

  // One vectored device op: the coalesced run it carries and, once issued,
  // its result.
  struct Batch {
    std::vector<Pending> reqs;
    uint32_t total_pages = 0;
    IoOp op = IoOp::kRead;
    bool charge = true;
    IoResult result;
  };

  // Pops a maximal coalescable run off the submission queues (normal lane
  // first; the low-priority lane is drained only when the normal lane is
  // empty).
  Batch PopBatchLocked() TURBOBP_REQUIRES(mu_);
  bool HasStagedLocked() const TURBOBP_REQUIRES(mu_) {
    return !staged_.empty() || !staged_low_.empty();
  }
  // Performs the blocking device call for `batch` arriving at `at`
  // (gathers writes / scatters coalesced reads through a bounce buffer).
  // Called with no engine latch held.
  IoResult IssueBatch(Batch& batch, Time at);
  // Issues staged batches while the ring has room, advancing the engine
  // clock to `now`. Each device call runs with mu_ released and
  // counted in issuing_.
  void Kick(Time now) TURBOBP_NO_THREAD_SAFETY_ANALYSIS;
  // Moves one harvestable batch out of the ring. Returns false when nothing
  // completes by `deadline`. A transiently-failed batch is re-staged (split
  // if coalesced) instead of being delivered.
  bool HarvestOne(Time deadline, std::vector<IoCompletion>* out)
      TURBOBP_NO_THREAD_SAFETY_ANALYSIS;
  // Builds the per-request completions for a finished batch and invokes
  // callbacks. Called with no engine latch held; the batch stays counted in
  // delivering_ and outstanding_ until it returns.
  void Deliver(Batch batch, std::vector<IoCompletion>* out);

  StorageDevice* device_;
  const int queue_depth_;

  mutable EngineMutex mu_;
  std::deque<Pending> staged_ TURBOBP_GUARDED_BY(mu_);
  // Low-priority lane (AsyncIoRequest::low_priority): background scrub and
  // repair traffic, issued only when `staged_` is empty. Retries of either
  // lane re-stage at the front of `staged_` — a request that already made
  // it to the device has earned its slot.
  std::deque<Pending> staged_low_ TURBOBP_GUARDED_BY(mu_);
  // In-flight and harvestable batches keyed by completion instant. The ring
  // bound compares issued_.size() against queue_depth: a batch occupies its
  // slot until harvested, like an unreaped CQE pinning its ring entry.
  std::multimap<Time, Batch> issued_ TURBOBP_GUARDED_BY(mu_);
  Time clock_ TURBOBP_GUARDED_BY(mu_) = 0;  // engine virtual time
  Time last_completion_ TURBOBP_GUARDED_BY(mu_) = 0;
  IoToken next_token_ TURBOBP_GUARDED_BY(mu_) = 1;
  Stats stats_ TURBOBP_GUARDED_BY(mu_);
  // Requests accepted by Submit and not yet through Deliver (what
  // Outstanding reports). Dropped only after the callbacks return.
  int64_t outstanding_ TURBOBP_GUARDED_BY(mu_) = 0;
  // Batches some thread holds with mu_ released: mid device call in Kick
  // (each occupies a ring slot) or mid callbacks in Deliver.
  // Nobody else can reap them, so Drain and Reset wait for these to drop.
  int issuing_ TURBOBP_GUARDED_BY(mu_) = 0;
  int delivering_ TURBOBP_GUARDED_BY(mu_) = 0;
  // issued_ gained a completion, or issuing_/delivering_ dropped.
  std::condition_variable_any reap_cv_;
};

}  // namespace turbobp

#endif  // TURBOBP_IO_ASYNC_IO_ENGINE_H_
