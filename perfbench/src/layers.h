#ifndef PERFBENCH_LAYERS_H_
#define PERFBENCH_LAYERS_H_

// Forwarding decorators the benchmark installs at two public layer
// boundaries: the Workload a Driver runs (one sample, and when tracing one
// span, per transaction) and the SsdManager the buffer pool and checkpoint
// manager call (one span per pool -> SSD call). Both only forward, so a
// traced run performs exactly the virtual-time work of an untraced one.

#include <cstdint>
#include <string>
#include <vector>

#include "trace.h"
#include "turbobp.h"

namespace perfbench {

// Raw per-operation sample: host nanoseconds, virtual microseconds and the
// virtual instant the operation completed.
struct OpSample {
  int64_t host_ns = 0;
  turbobp::Time virt_us = 0;
  turbobp::Time end = 0;
};

class SampledWorkload : public turbobp::Workload {
 public:
  // One sample vector per client id; in threaded mode each OS thread owns
  // one client id, so no two threads touch the same vector. Each vector is
  // sized and touched here for `capacity_per_client` samples, so the
  // benchmark's own memory is the same whatever the throughput (a client
  // that outgrows it still keeps every sample).
  SampledWorkload(turbobp::Workload* inner, int num_clients,
                  size_t capacity_per_client)
      : inner_(inner), samples_(static_cast<size_t>(num_clients)) {
    for (auto& s : samples_) {
      s.resize(capacity_per_client);
      s.clear();
    }
  }

  std::string name() const override { return inner_->name(); }
  bool thread_safe() const override { return inner_->thread_safe(); }

  bool RunTransaction(int client_id, turbobp::IoContext& ctx) override {
    const turbobp::Time v0 = ctx.now;
    const int64_t h0 = NowNs();
    bool metric = false;
    {
      Span span(SpanKind::kOp);
      metric = inner_->RunTransaction(client_id, ctx);
    }
    samples_[static_cast<size_t>(client_id)].push_back(
        OpSample{NowNs() - h0, ctx.now - v0, ctx.now});
    return metric;
  }

  // Samples per client id. Read once the driver has returned.
  const std::vector<std::vector<OpSample>>& samples() const {
    return samples_;
  }
  int64_t count() const {
    int64_t n = 0;
    for (const auto& s : samples_) n += static_cast<int64_t>(s.size());
    return n;
  }

 private:
  turbobp::Workload* inner_;
  std::vector<std::vector<OpSample>> samples_;
};

class TracingSsdManager : public turbobp::SsdManager {
 public:
  explicit TracingSsdManager(turbobp::SsdManager* inner) : inner_(inner) {}

  turbobp::SsdDesign design() const override { return inner_->design(); }
  turbobp::SsdProbe Probe(turbobp::PageId pid) const override {
    return inner_->Probe(pid);
  }
  bool TryReadPage(turbobp::PageId pid, std::span<uint8_t> out,
                   turbobp::IoContext& ctx,
                   turbobp::Status* error = nullptr) override {
    Span span(SpanKind::kTryRead);
    return inner_->TryReadPage(pid, out, ctx, error);
  }
  void OnBufferPoolMiss(turbobp::PageId pid, turbobp::AccessKind kind,
                        turbobp::IoContext& ctx) override {
    inner_->OnBufferPoolMiss(pid, kind, ctx);
  }
  void OnDiskRead(turbobp::PageId pid, std::span<const uint8_t> data,
                  turbobp::AccessKind kind, turbobp::IoContext& ctx) override {
    Span span(SpanKind::kDiskReadHook);
    inner_->OnDiskRead(pid, data, kind, ctx);
  }
  void OnPageDirtied(turbobp::PageId pid) override {
    inner_->OnPageDirtied(pid);
  }
  void OnEvictClean(turbobp::PageId pid, std::span<const uint8_t> data,
                    turbobp::AccessKind kind,
                    turbobp::IoContext& ctx) override {
    Span span(SpanKind::kEvictClean);
    inner_->OnEvictClean(pid, data, kind, ctx);
  }
  turbobp::EvictionOutcome OnEvictDirty(turbobp::PageId pid,
                                        std::span<const uint8_t> data,
                                        turbobp::AccessKind kind,
                                        turbobp::Lsn page_lsn,
                                        turbobp::IoContext& ctx) override {
    Span span(SpanKind::kEvictDirty);
    return inner_->OnEvictDirty(pid, data, kind, page_lsn, ctx);
  }
  void OnCheckpointBegin() override { inner_->OnCheckpointBegin(); }
  void OnCheckpointEnd() override { inner_->OnCheckpointEnd(); }
  void OnCheckpointWrite(turbobp::PageId pid, std::span<const uint8_t> data,
                         turbobp::AccessKind kind, turbobp::Lsn page_lsn,
                         turbobp::IoContext& ctx) override {
    inner_->OnCheckpointWrite(pid, data, kind, page_lsn, ctx);
  }
  turbobp::IoResult FlushAllDirty(turbobp::IoContext& ctx) override {
    Span span(SpanKind::kFlushDirty);
    return inner_->FlushAllDirty(ctx);
  }
  std::vector<CheckpointEntry> SnapshotForCheckpoint() const override {
    return inner_->SnapshotForCheckpoint();
  }
  size_t RestoreFromCheckpoint(
      const std::vector<CheckpointEntry>& entries, turbobp::IoContext& ctx,
      const std::unordered_map<turbobp::PageId, turbobp::Lsn>* max_update_lsn,
      std::unordered_map<turbobp::PageId, turbobp::Lsn>* covered_lsn)
      override {
    return inner_->RestoreFromCheckpoint(entries, ctx, max_update_lsn,
                                         covered_lsn);
  }
  bool RecoverPersistentState(
      turbobp::Lsn horizon, turbobp::IoContext& ctx,
      const std::unordered_map<turbobp::PageId, turbobp::Lsn>* max_update_lsn,
      std::unordered_map<turbobp::PageId, turbobp::Lsn>* covered_lsn,
      turbobp::PersistentRestoreStats* out) override {
    return inner_->RecoverPersistentState(horizon, ctx, max_update_lsn,
                                          covered_lsn, out);
  }
  turbobp::Time LatchBusyUntil(turbobp::PageId pid,
                               turbobp::Time now) override {
    return inner_->LatchBusyUntil(pid, now);
  }
  turbobp::SsdManagerStats stats() const override { return inner_->stats(); }
  bool degraded() const override { return inner_->degraded(); }
  void StopBackground() override { inner_->StopBackground(); }

 private:
  turbobp::SsdManager* inner_;
};

}  // namespace perfbench

#endif  // PERFBENCH_LAYERS_H_
