#ifndef TURBOBP_STORAGE_IO_CONTEXT_H_
#define TURBOBP_STORAGE_IO_CONTEXT_H_

#include <chrono>
#include <cstdint>
#include <thread>

#include "common/types.h"

namespace turbobp {

class SimExecutor;

// Per-client execution context threaded through every storage operation.
//
// `now` is the client's virtual clock: blocking operations (buffer-pool miss
// reads, commit log forces) advance it to the operation's completion time;
// asynchronous operations (eviction write-back, lazy cleaning) consume
// device time but leave the client clock alone.
//
// `charge == false` puts the context in loader mode: data moves, but no
// device time is consumed and the clock never advances. The workload
// populators use this to build multi-gigabyte databases instantly.
struct IoContext {
  Time now = 0;
  bool charge = true;
  SimExecutor* executor = nullptr;  // for scheduling async completions

  // Real-thread mode (executor == nullptr): when > 0, Wait() additionally
  // sleeps the OS thread for (completion - now) * real_sleep_scale of wall
  // time, so modelled device latency manifests as real latency and thread
  // scale-out measures genuine overlap. Deltas below kRealSleepMinUs are
  // skipped — an OS sleep costs ~50us of scheduler quantum anyway, and
  // sub-quantum sleeps would only add noise. 0 (the default) preserves the
  // pure virtual-time semantics everywhere else.
  static constexpr Time kRealSleepMinUs = 50;
  double real_sleep_scale = 0.0;

  // Wall anchor for real-thread mode: virtual time `wall_base` corresponds
  // to steady-clock instant `wall_epoch`. When set, Wait() only sleeps the
  // portion of a modelled completion that wall time has not already covered
  // — without it, real blocking that does not advance `now` (parking on the
  // group-commit condvar, queueing on an OS mutex) would be re-paid as
  // modelled sleep on the next Wait(), double-charging every commit.
  bool wall_anchored = false;
  Time wall_base = 0;
  std::chrono::steady_clock::time_point wall_epoch{};

  Time WallNow() const {
    return wall_base +
           static_cast<Time>(
               std::chrono::duration_cast<std::chrono::microseconds>(
                   std::chrono::steady_clock::now() - wall_epoch)
                   .count());
  }

  // Time spent waiting on page latches (TAC ablation), summed per run by
  // the workload layer.
  Time latch_wait = 0;

  // Blocks the client until `completion`.
  void Wait(Time completion) {
    if (!charge || completion <= now) return;
    Time delta = completion - now;
    now = completion;
    if (executor == nullptr && real_sleep_scale > 0) {
      if (wall_anchored) {
        // Only the part of the modelled completion still in the wall future
        // costs a sleep; time already burned blocking for real (condvar
        // parks, mutex queues) is not re-paid.
        const Time wall = WallNow();
        if (completion <= wall) return;
        delta = completion - wall;
      }
      if (delta >= kRealSleepMinUs) {
        std::this_thread::sleep_for(std::chrono::microseconds(
            static_cast<int64_t>(static_cast<double>(delta) *
                                 real_sleep_scale)));
      }
    }
  }
};

}  // namespace turbobp

#endif  // TURBOBP_STORAGE_IO_CONTEXT_H_
