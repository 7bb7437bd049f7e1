#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

// Host-time spans recorded from the benchmark's side of each layer
// boundary. Spans are aggregated in memory per kind (calls, total time and
// the part of that time covered by child spans), so a layer's self time is
// total minus child time. Recording is off unless Tracer::Enable(true).
//
// Each thread keeps its own totals and its own open-span stack; Totals()
// merges them and must only be called once the recording threads have been
// joined (or, single-threaded, between spans).

#include <array>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

namespace perfbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

enum class SpanKind : int {
  kOp = 0,        // one transaction (or TPC-H query) in the Workload wrapper
  kCheckpoint,    // CheckpointManager::RunCheckpoint from the bench's event
  kTryRead,       // SsdManager::TryReadPage
  kEvictDirty,    // SsdManager::OnEvictDirty
  kEvictClean,    // SsdManager::OnEvictClean
  kDiskReadHook,  // SsdManager::OnDiskRead
  kFlushDirty,    // SsdManager::FlushAllDirty (the checkpoint's SSD drain)
  kNumKinds,
};

struct SpanTotals {
  int64_t calls = 0;
  int64_t total_ns = 0;
  int64_t child_ns = 0;
};

using SpanTable =
    std::array<SpanTotals, static_cast<size_t>(SpanKind::kNumKinds)>;

inline void AddSpans(const SpanTable& x, SpanTable* sum) {
  for (size_t k = 0; k < x.size(); ++k) {
    (*sum)[k].calls += x[k].calls;
    (*sum)[k].total_ns += x[k].total_ns;
    (*sum)[k].child_ns += x[k].child_ns;
  }
}

class Tracer {
 public:
  static void Enable(bool on) { enabled_ = on; }
  static bool enabled() { return enabled_; }

  // Per-thread table, registered on first use so it outlives its thread.
  static SpanTable& Local() {
    thread_local std::shared_ptr<SpanTable> table = Register();
    return *table;
  }

  static SpanTable Totals() {
    std::lock_guard<std::mutex> lock(mu_);
    SpanTable sum{};
    for (const auto& t : tables_) AddSpans(*t, &sum);
    return sum;
  }

  static void Reset() {
    std::lock_guard<std::mutex> lock(mu_);
    for (auto& t : tables_) t->fill(SpanTotals{});
  }

 private:
  static std::shared_ptr<SpanTable> Register() {
    auto t = std::make_shared<SpanTable>();
    std::lock_guard<std::mutex> lock(mu_);
    tables_.push_back(t);
    return t;
  }

  static inline bool enabled_ = false;
  static inline std::mutex mu_;
  static inline std::vector<std::shared_ptr<SpanTable>> tables_;
};

// RAII span. Nested spans on one thread form the parent chain; a span's
// duration is charged to its parent's child time when it closes.
class Span {
 public:
  explicit Span(SpanKind kind) : kind_(kind), on_(Tracer::enabled()) {
    if (!on_) return;
    parent_ = current_;
    current_ = this;
    start_ns_ = NowNs();
  }
  ~Span() {
    if (!on_) return;
    const int64_t d = NowNs() - start_ns_;
    SpanTotals& t = Tracer::Local()[static_cast<size_t>(kind_)];
    ++t.calls;
    t.total_ns += d;
    t.child_ns += child_ns_;
    if (parent_ != nullptr) parent_->child_ns_ += d;
    current_ = parent_;
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  static inline thread_local Span* current_ = nullptr;

  SpanKind kind_;
  bool on_;
  Span* parent_ = nullptr;
  int64_t start_ns_ = 0;
  int64_t child_ns_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
