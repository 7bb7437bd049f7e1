#ifndef TURBOBP_SIM_SIM_EXECUTOR_H_
#define TURBOBP_SIM_SIM_EXECUTOR_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <mutex>
#include <queue>
#include <vector>

#include "common/types.h"

namespace turbobp {

// Discrete-event executor driving all virtual time in the system.
//
// Benchmarks model N concurrent database clients as actors: each actor runs
// one step (a bounded burst of page accesses), consults the device timelines
// for the completion time of any I/O it had to wait on, and reschedules its
// next step at that completion time. Background activity (asynchronous
// eviction writes, the lazy-cleaning thread, periodic checkpoints) is
// likewise scheduled as events. Events fire in (time, insertion-sequence)
// order, so runs are fully deterministic.
//
// Thread safety: the queue is protected by an internal mutex and now() is an
// atomic read, so OS threads may ScheduleAt/ScheduleAfter concurrently with
// one pump thread running events (the real-thread driver mode: clients run
// on their own threads with ctx.executor == nullptr while a single pump
// thread advances the executor for background actors). Events themselves
// run OUTSIDE the mutex. Only one thread may call RunOne/RunUntil/
// RunUntilIdle at a time. In concurrent mode (set_concurrent(true)) a
// schedule time in the past is clamped to now() instead of asserting —
// client wall-clocks legitimately trail the pump's virtual clock slightly;
// the strict t >= now() check stays on in the deterministic simulator where
// a past-time schedule is a bug.
//
// Cache-line aligned: the pump thread writes mu_ and now_ while every client
// thread reads now() and schedules, so they must not share a line with the
// read-mostly state an owner such as DbSystem lays out around them. (A
// 16-byte shift of SystemConfig in front of an unaligned executor cost
// perfbench's threaded tpcc_mem_mt about 10% host throughput on a 4-core
// VM.)
class alignas(64) SimExecutor {
 public:
  SimExecutor() = default;
  SimExecutor(const SimExecutor&) = delete;
  SimExecutor& operator=(const SimExecutor&) = delete;

  Time now() const { return now_.load(std::memory_order_relaxed); }

  // Real-thread mode switch: tolerate slightly-stale schedule times (clamp
  // to now() instead of CHECK-failing). Set before client threads start.
  void set_concurrent(bool on) { concurrent_ = on; }

  // Schedules fn at absolute virtual time t (>= now, clamped if concurrent).
  void ScheduleAt(Time t, std::function<void()> fn);
  void ScheduleAfter(Time delay, std::function<void()> fn) {
    ScheduleAt(now() + delay, std::move(fn));
  }

  // Runs the earliest pending event, advancing now() to its time.
  // Returns false if no events remain.
  bool RunOne();

  // Runs all events with time <= t, then sets now() = t.
  void RunUntil(Time t);

  // Runs until no events remain.
  void RunUntilIdle();

  size_t num_pending() const {
    std::lock_guard<std::mutex> lock(mu_);
    return queue_.size();
  }
  uint64_t num_executed() const {
    return executed_.load(std::memory_order_relaxed);
  }

 private:
  struct Event {
    Time time;
    uint64_t seq;
    std::function<void()> fn;
  };
  struct Later {
    bool operator()(const Event& a, const Event& b) const {
      if (a.time != b.time) return a.time > b.time;
      return a.seq > b.seq;
    }
  };

  // Pops the earliest event with time <= bound (or any event when bound is
  // kMaxTime) and advances now(); returns false if none qualifies.
  bool PopReady(Time bound, Event* out);

  mutable std::mutex mu_;
  std::atomic<Time> now_{0};
  std::atomic<uint64_t> executed_{0};
  bool concurrent_ = false;
  uint64_t next_seq_ = 0;
  std::priority_queue<Event, std::vector<Event>, Later> queue_;
};

}  // namespace turbobp

#endif  // TURBOBP_SIM_SIM_EXECUTOR_H_
