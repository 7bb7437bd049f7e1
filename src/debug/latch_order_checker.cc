#include "debug/latch_order_checker.h"

#include <algorithm>

#include "common/status.h"

namespace turbobp {

namespace {
// Latch classes currently held by this thread, in acquisition order. A plain
// array avoids a thread_local vector's allocation in instrumented hot paths;
// depth is bounded by the number of classes (same-class nesting is itself a
// violation, reported once and then tolerated).
struct HeldStack {
  LatchClass held[2 * kNumLatchClasses];
  int depth = 0;
};
thread_local HeldStack tls_held;
}  // namespace

const char* ToString(LatchClass c) {
  switch (c) {
    case LatchClass::kBufferPool: return "buffer-pool";
    case LatchClass::kWal: return "wal";
    case LatchClass::kSsdPartition: return "ssd-partition";
    case LatchClass::kSsdJournal: return "ssd-journal";
    case LatchClass::kSsdFault: return "ssd-fault";
    case LatchClass::kSsdScrub: return "ssd-scrub";
    case LatchClass::kTacLatch: return "tac-latch";
    case LatchClass::kIoEngine: return "io-engine";
    case LatchClass::kFaultDevice: return "fault-device";
    case LatchClass::kDevice: return "device";
  }
  return "?";
}

LatchOrderChecker::LatchOrderChecker() {
#if defined(TURBOBP_AUDIT) || !defined(NDEBUG)
  enabled_.store(true, std::memory_order_relaxed);
#else
  enabled_.store(false, std::memory_order_relaxed);
#endif
}

LatchOrderChecker& LatchOrderChecker::Instance() {
  static LatchOrderChecker checker;
  return checker;
}

LatchWaitStats& LatchWaitStats::Instance() {
  static LatchWaitStats stats;
  return stats;
}

void LatchOrderChecker::OnAcquire(LatchClass c) {
  LatchOrderChecker& self = Instance();
  if (!self.enabled()) return;
  self.RecordAcquire(c);
}

void LatchOrderChecker::OnRelease(LatchClass c) {
  LatchOrderChecker& self = Instance();
  if (!self.enabled()) return;
  self.RecordRelease(c);
}

bool LatchOrderChecker::PathExists(int from, int to) const {
  // DFS over at most kNumLatchClasses nodes; mu_ is held by the caller.
  bool seen[kNumLatchClasses] = {};
  int stack[kNumLatchClasses];
  int top = 0;
  stack[top++] = from;
  seen[from] = true;
  while (top > 0) {
    const int node = stack[--top];
    if (node == to) return true;
    for (int next = 0; next < kNumLatchClasses; ++next) {
      if (edges_[node][next] && !seen[next]) {
        seen[next] = true;
        stack[top++] = next;
      }
    }
  }
  return false;
}

void LatchOrderChecker::AddViolation(const std::string& msg) {
  // mu_ is held by the caller.
  if (abort_on_violation_) {
    Panic(__FILE__, __LINE__, msg.c_str());
  }
  violations_.push_back(msg);
}

void LatchOrderChecker::RecordAcquire(LatchClass c) {
  HeldStack& held = tls_held;
  const int ci = static_cast<int>(c);
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (int i = 0; i < held.depth; ++i) {
      const int hi = static_cast<int>(held.held[i]);
      if (hi == ci) {
        if (!edges_[ci][ci]) {
          edges_[ci][ci] = true;
          AddViolation(std::string("same-class latch nesting: ") +
                       ToString(c) + " acquired while already held");
        }
        continue;
      }
      if (!edges_[hi][ci]) {
        // New ordering edge hi -> ci: a cycle exists iff ci already reaches
        // hi through previously observed edges.
        if (PathExists(ci, hi)) {
          AddViolation(std::string("latch order cycle: acquired ") +
                       ToString(c) + " while holding " +
                       ToString(held.held[i]) + ", but the opposite order " +
                       ToString(c) + " -> " + ToString(held.held[i]) +
                       " was observed earlier");
        }
        edges_[hi][ci] = true;
      }
    }
  }
  if (held.depth < static_cast<int>(sizeof(held.held) / sizeof(held.held[0]))) {
    held.held[held.depth++] = c;
  }
}

void LatchOrderChecker::RecordRelease(LatchClass c) {
  HeldStack& held = tls_held;
  // Locks are almost always released LIFO; tolerate out-of-order release
  // (and a release with no matching acquire, which can happen if checking
  // was enabled while locks were already held).
  for (int i = held.depth - 1; i >= 0; --i) {
    if (held.held[i] == c) {
      for (int j = i; j + 1 < held.depth; ++j) held.held[j] = held.held[j + 1];
      --held.depth;
      return;
    }
  }
}

int64_t LatchOrderChecker::violation_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return static_cast<int64_t>(violations_.size());
}

std::vector<std::string> LatchOrderChecker::violations() const {
  std::lock_guard<std::mutex> lock(mu_);
  return violations_;
}

void LatchOrderChecker::Reset() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& row : edges_) std::fill(std::begin(row), std::end(row), false);
  violations_.clear();
}

}  // namespace turbobp
