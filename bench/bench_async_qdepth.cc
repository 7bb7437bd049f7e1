// Queue-depth sweep for the async I/O engine (DESIGN.md §12): the same two
// deep-queue consumers — a TPC-H-style sequential scan driven by
// read-ahead, and a checkpoint drain over scattered dirty pages — run at
// engine depths {1, 8, 32} over the paper's 8-spindle striped disk array.
// Depth 1 degenerates to the old call-and-wait serial loop; a deep queue
// must keep every spindle busy. CI's bench-quick step asserts depth 32 is
// at least 1.5x depth 1 on both scenarios.

#include <algorithm>
#include <cstdio>
#include <memory>
#include <set>
#include <vector>

#include "bench/bench_util.h"
#include "common/rng.h"
#include "io/async_io_engine.h"
#include "storage/page.h"
#include "storage/striped_array.h"

namespace turbobp {
namespace {

constexpr uint32_t kPage = 1024;
constexpr uint64_t kDbPages = 1 << 14;
constexpr uint64_t kFrames = 512;
constexpr uint32_t kWindow = 64;  // read-ahead request size (pages)

struct DepthResult {
  int depth = 0;
  Time scan = 0;
  Time drain = 0;
  AsyncIoEngine::Stats stats;
};

DepthResult MeasureDepth(int depth) {
  StripedDiskArray::Options dopt;  // 8 spindles, 8-page stripe unit
  dopt.hdd.page_bytes = kPage;
  StripedDiskArray disks(kDbPages, kPage, dopt);
  disks.SetSynthesizer([](uint64_t page, std::span<uint8_t> out) {
    PageView v(out.data(), kPage);
    v.Format(static_cast<PageId>(page), PageType::kRaw);
    v.SealChecksum();
  });
  SimDevice log_dev(1 << 16, kPage,
                    std::make_unique<HddModel>(HddParams{.page_bytes = kPage}));
  DiskManager disk(&disks, depth);
  LogManager log(&log_dev);
  BufferPool::Options bopt;
  bopt.num_frames = kFrames;
  bopt.page_bytes = kPage;
  BufferPool pool(bopt, &disk, &log, nullptr);

  DepthResult r;
  r.depth = depth;

  // --- TPC-H-style sequential scan: read-ahead windows over a contiguous
  // table extent, each window a PrefetchRange the engine splits into
  // stripe-unit batches running on all spindles at once.
  const uint64_t scan_pages = bench::QuickMode() ? 1024 : 4096;
  {
    IoContext ctx;
    const Time start = ctx.now;
    for (uint64_t first = 0; first + kWindow <= scan_pages;
         first += kWindow) {
      pool.PrefetchRange(static_cast<PageId>(first), kWindow, ctx);
    }
    r.scan = ctx.now - start;
  }

  // --- Checkpoint drain: scattered dirty pages (the hard case — random
  // positioning cost per page, nothing to coalesce), flushed by
  // FlushAllDirty through the engine's submission window.
  pool.Reset();
  const int dirty_pages = bench::QuickMode() ? 96 : 256;
  {
    IoContext load;
    load.charge = false;  // populate the dirty set for free
    Rng rng(7);
    std::set<PageId> pids;
    while (static_cast<int>(pids.size()) < dirty_pages) {
      pids.insert(static_cast<PageId>(rng.Uniform(kDbPages)));
    }
    for (const PageId pid : pids) {
      PageGuard g = pool.FetchPage(pid, AccessKind::kRandom, load);
      g.view().payload()[0] = static_cast<uint8_t>(pid);
      g.LogUpdate(1, kPageHeaderSize, 1);
    }
    IoContext ctx;
    r.drain = pool.FlushAllDirty(ctx, /*for_checkpoint=*/false) - ctx.now;
  }

  r.stats = disk.io_engine().stats();
  return r;
}

void Run() {
  bench::PrintHeader(
      "Async I/O engine: queue-depth sweep (read-ahead scan + checkpoint "
      "drain)",
      "deep-queue submit/reap over the 8-spindle striped array; depth 1 is "
      "the serial call-and-wait baseline");

  const int depths[] = {1, 8, 32};
  std::vector<DepthResult> results;
  for (const int d : depths) results.push_back(MeasureDepth(d));
  const DepthResult& base = results.front();

  TextTable table({"queue depth", "scan (ms)", "scan speedup", "drain (ms)",
                   "drain speedup", "device ops", "coalesced batches"});
  std::vector<std::string> json;
  for (const DepthResult& r : results) {
    const double scan_speedup =
        static_cast<double>(base.scan) / static_cast<double>(r.scan);
    const double drain_speedup =
        static_cast<double>(base.drain) / static_cast<double>(r.drain);
    table.AddRow({std::to_string(r.depth), TextTable::Fmt(ToMillis(r.scan), 2),
                  TextTable::Fmt(scan_speedup, 2),
                  TextTable::Fmt(ToMillis(r.drain), 2),
                  TextTable::Fmt(drain_speedup, 2),
                  std::to_string(r.stats.device_ops),
                  std::to_string(r.stats.coalesced_batches)});
    std::string j = "{";
    bench::JsonAdd(j, "depth", static_cast<int64_t>(r.depth));
    bench::JsonAdd(j, "scan_ms", ToMillis(r.scan));
    bench::JsonAdd(j, "scan_speedup_vs_depth1", scan_speedup);
    bench::JsonAdd(j, "drain_ms", ToMillis(r.drain));
    bench::JsonAdd(j, "drain_speedup_vs_depth1", drain_speedup);
    bench::JsonAdd(j, "device_ops", r.stats.device_ops);
    bench::JsonAdd(j, "coalesced_batches", r.stats.coalesced_batches);
    bench::JsonAdd(j, "coalesced_pages", r.stats.coalesced_pages);
    bench::JsonAdd(j, "retries", r.stats.retries);
    j += "}";
    json.push_back(j);
  }
  std::printf("%s\n", table.ToString().c_str());
  std::printf(
      "Expected shape: depth 1 serializes every request behind the previous\n"
      "completion; depth 32 keeps all 8 spindles busy, so both the scan and\n"
      "the scattered drain finish several times faster (>= 1.5x is the CI\n"
      "regression bar).\n\n");
  bench::WriteJson("async_qdepth", json);
}

}  // namespace
}  // namespace turbobp

int main() {
  turbobp::Run();
  return 0;
}
