// Real-thread scale-out: N OS-thread clients against one shared DbSystem.
//
// Unlike the paper-figure benches (virtual time, sim executor), this one
// measures the engine itself: wall-clock TPC-C throughput with 1/4/8 OS
// threads over a DRAM-resident database (bp_frames >= db_pages, so after
// warmup no run is device-bound and the scaling curve isolates software
// contention). Partitioned TPC-C pins each client to a home warehouse —
// the workload itself does not serialize, so whatever does not scale is an
// engine latch.
//
// Evidence emitted to BENCH_scaleout_threads.json:
//   * one row per design (noSSD/DW/LC/TAC) x thread count with rates and a
//     per-latch-class wait breakdown (waits + wait_ms per LatchClass),
//   * derived rows: speedup_8t_vs_1t per design (CI guards >= 2x),
//   * a group-commit row at 8 threads on the paper-era HDD log: CI holds
//     its kWal wait to an absolute budget, which a log-device write issued
//     under the WAL latch would blow through.

#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "bench_util.h"
#include "debug/latch_order_checker.h"

namespace turbobp {
namespace bench {
namespace {

struct RunSpec {
  SsdDesign design;
  int threads;
  // The scaling sweep runs with an SSD-class log device: with the default
  // HDD model the log disk's ~10 MB/s write bandwidth caps TPC-C at ~2.4k
  // txns/s regardless of thread count, and the curve measures the modeled
  // spindle instead of the engine. The group-commit row keeps the paper-era
  // HDD log: a slow device write is what would hurt if it were ever issued
  // under the WAL latch again.
  bool fast_log = true;
};

DriverResult RunScaleout(const RunSpec& spec, Time wall_duration) {
  TpccConfig tpcc;
  tpcc.warehouses = 8;  // one home warehouse per thread at the widest run
  tpcc.row_scale = 0.05;
  tpcc.seed = 42;
  tpcc.partition_by_client = true;

  SystemConfig config;
  config.page_bytes = kPageBytes;
  config.db_pages = TpccWorkload::EstimateDbPages(tpcc, kPageBytes);
  config.bp_frames = config.db_pages + 64;  // DRAM-resident by construction
  config.ssd_frames = static_cast<int64_t>(config.db_pages / 2);
  config.design = spec.design;
  config.ssd_options.lc_dirty_fraction = 0.01;
  if (spec.fast_log) {
    // SSD-class commit log (see RunSpec::fast_log). Group commit still pays
    // real per-flush latency — it just is not a bandwidth wall.
    config.log_params.seek_write = Micros(30);
    config.log_params.seek_read = Micros(30);
    config.log_params.transfer_write_per_page = Micros(40);
    config.log_params.transfer_read_per_page = Micros(40);
  }

  DbSystem system(config);
  Database db(&system);
  TpccWorkload::Populate(&db, tpcc);
  TpccWorkload workload(&db, tpcc);

  // Warm the pool before the clock starts: the run is DRAM-resident by
  // construction, but a cold pool would pay every first-touch miss as a
  // real-wall HDD seek inside the timed window (~8 ms each), drowning the
  // contention signal. The sweep is uncharged — no device time is booked.
  {
    IoContext warm = system.MakeContext(/*charge=*/false);
    BufferPool& pool = system.buffer_pool();
    for (PageId pid = 0; pid < config.db_pages; ++pid) {
      PageGuard g = pool.FetchPage(pid, AccessKind::kSequential, warm);
    }
  }

  DriverOptions opts;
  opts.threads = spec.threads;
  opts.duration = wall_duration;
  opts.sample_width = Millis(100);
  opts.steady_window = wall_duration / 2;
  opts.record_traffic = false;
  // Modeled device time burns real wall time (1 virtual us = 1 wall us):
  // a commit's log write costs what the dedicated log disk model says it
  // costs. Without this every device op is wall-free and the scaling curve
  // measures nothing but lock-acquisition overhead.
  opts.real_sleep_scale = 1.0;
  Driver driver(&system, &workload, opts);
  return driver.Run();
}

void AddLatchBreakdown(std::string& j, const LatchWaitSnapshot& lw) {
  for (int i = 0; i < kNumLatchClasses; ++i) {
    if (lw.waits[i] == 0 && lw.wait_ns[i] == 0) continue;
    const std::string base = std::string("latch_") +
                             ToString(static_cast<LatchClass>(i));
    JsonAdd(j, (base + "_waits").c_str(), lw.waits[i]);
    JsonAdd(j, (base + "_wait_ms").c_str(),
            static_cast<double>(lw.wait_ns[i]) / 1e6);
  }
}

int Main() {
  PrintHeader("Real-thread scale-out: N OS-thread TPC-C clients",
              "engine evidence (no paper figure); group-commit kWal wait");
  const Time wall = QuickMode() ? Millis(600) : Millis(2000);

  const SsdDesign designs[] = {SsdDesign::kNoSsd, SsdDesign::kDualWrite,
                               SsdDesign::kLazyCleaning, SsdDesign::kTac};
  const int thread_counts[] = {1, 4, 8};

  std::vector<std::string> items;
  std::map<std::string, double> rate_1t;
  std::map<std::string, double> rate_8t;

  std::printf("%-8s %6s %12s %12s %14s %14s\n", "design", "thr", "txns",
              "rate/s", "kWal_wait_ms", "pool_wait_ms");
  for (SsdDesign design : designs) {
    for (int threads : thread_counts) {
      const DriverResult r = RunScaleout({design, threads}, wall);
      const double kwal_ms =
          static_cast<double>(
              r.latch_waits.wait_ns[static_cast<int>(LatchClass::kWal)]) /
          1e6;
      const double pool_ms =
          static_cast<double>(
              r.latch_waits
                  .wait_ns[static_cast<int>(LatchClass::kBufferPool)]) /
          1e6;
      std::printf("%-8s %6d %12lld %12.0f %14.2f %14.2f\n", r.design.c_str(),
                  threads, static_cast<long long>(r.total_txns),
                  r.overall_rate, kwal_ms, pool_ms);
      if (threads == 1) rate_1t[r.design] = r.overall_rate;
      if (threads == 8) rate_8t[r.design] = r.overall_rate;

      std::string j = ResultJson(r);
      j.pop_back();  // reopen the object for the scale-out fields
      JsonAdd(j, "row", std::string("scaleout"), true);
      JsonAdd(j, "threads", static_cast<int64_t>(threads));
      JsonAdd(j, "mode", std::string("group"), true);
      AddLatchBreakdown(j, r.latch_waits);
      j += "}";
      items.push_back(j);
    }
  }

  std::printf("\nscaling (8 threads vs 1, overall rate):\n");
  for (const auto& [design, r1] : rate_1t) {
    const double speedup = r1 > 0 ? rate_8t[design] / r1 : 0.0;
    std::printf("  %-8s %.2fx\n", design.c_str(), speedup);
    std::string j = "{";
    JsonAdd(j, "row", std::string("speedup"), true);
    JsonAdd(j, "design", design, true);
    JsonAdd(j, "rate_1t", r1);
    JsonAdd(j, "rate_8t", rate_8t[design]);
    JsonAdd(j, "speedup_8t_vs_1t", speedup);
    items.push_back(j + "}");
  }

  // Group commit at 8 threads on the HDD log: the flush leader writes the
  // batched records with the WAL latch released and parks followers on a
  // condvar, so kWal wall-clock wait stays small even behind a slow log.
  std::printf("\ngroup commit (LC, 8 threads, HDD log):\n");
  const DriverResult r =
      RunScaleout({SsdDesign::kLazyCleaning, 8, /*fast_log=*/false}, wall);
  const double kwal_ms =
      static_cast<double>(
          r.latch_waits.wait_ns[static_cast<int>(LatchClass::kWal)]) /
      1e6;
  std::printf("  rate %9.0f/s  kWal wait %10.2f ms (%lld waits)\n",
              r.overall_rate, kwal_ms,
              static_cast<long long>(
                  r.latch_waits.waits[static_cast<int>(LatchClass::kWal)]));
  std::string j = ResultJson(r);
  j.pop_back();
  JsonAdd(j, "row", std::string("group_commit"), true);
  JsonAdd(j, "threads", static_cast<int64_t>(8));
  JsonAdd(j, "mode", std::string("group"), true);
  AddLatchBreakdown(j, r.latch_waits);
  j += "}";
  items.push_back(j);

  WriteJson("scaleout_threads", items);
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace turbobp

int main() { return turbobp::bench::Main(); }
