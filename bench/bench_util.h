#ifndef TURBOBP_BENCH_BENCH_UTIL_H_
#define TURBOBP_BENCH_BENCH_UTIL_H_

// Shared setup for the paper-reproduction bench harnesses.
//
// Sizes reproduce the paper's hardware at 1/400 scale *in page counts*
// (Section 4.1: 20GB DBMS buffer pool, 140GB of a 160GB SLC Fusion ioDrive
// as the SSD buffer pool, databases of 100-415GB striped over eight
// 7,200rpm drives, a dedicated log disk):
//     buffer pool   20GB  = 2,621,440 pages -> 6,554 frames
//     SSD pool     140GB = 18,350,080 pages -> 45,875 frames (S)
//     TPC-C DBs    100/200/400GB -> 32,768 / 65,536 / 131,072 pages
//     TPC-E DBs    115/230/415GB -> 37,683 / 75,367 / 135,988 pages
//     TPC-H DBs     45/160GB     -> 14,745 / 52,429 pages
// Virtual durations are the paper's divided by 60 (10h -> 600s) unless
// TURBOBP_QUICK=1 shrinks them 4x for smoke runs.

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "common/stats.h"
#include "engine/database.h"
#include "workload/driver.h"
#include "workload/tpcc.h"
#include "workload/tpce.h"
#include "workload/tpch.h"

namespace turbobp {
namespace bench {

inline constexpr uint32_t kPageBytes = 1024;
inline constexpr uint64_t kBpFrames = 6554;
inline constexpr int64_t kSsdFrames = 45875;
inline constexpr int kClients = 25;

inline bool QuickMode() {
  const char* v = std::getenv("TURBOBP_QUICK");
  return v != nullptr && v[0] == '1';
}

inline Time ScaledDuration(Time full) { return QuickMode() ? full / 4 : full; }

// Paper database-size targets (pages).
inline constexpr uint64_t kTpccPages[3] = {32768, 65536, 131072};
inline constexpr const char* kTpccLabels[3] = {"1K warehouses (100GB)",
                                               "2K warehouses (200GB)",
                                               "4K warehouses (400GB)"};
inline constexpr uint64_t kTpcePages[3] = {37683, 75367, 135988};
inline constexpr const char* kTpceLabels[3] = {"10K customers (115GB)",
                                               "20K customers (230GB)",
                                               "40K customers (415GB)"};
inline constexpr uint64_t kTpchPages[2] = {14745, 52429};
inline constexpr const char* kTpchLabels[2] = {"30 SF (45GB)",
                                               "100 SF (160GB)"};

inline SystemConfig BaseSystem(SsdDesign design, uint64_t db_pages,
                               double lc_lambda) {
  SystemConfig config;
  config.page_bytes = kPageBytes;
  config.db_pages = db_pages;
  config.bp_frames = kBpFrames;
  config.ssd_frames = kSsdFrames;
  config.design = design;
  config.ssd_options.lc_dirty_fraction = lc_lambda;  // Table 2: 1% E/H, 50% C
  return config;
}

// Finds a TPC-C row_scale whose database lands on `target_pages`.
inline TpccConfig TpccForPages(int warehouses, uint64_t target_pages,
                               uint64_t seed = 42) {
  TpccConfig config;
  config.warehouses = warehouses;
  config.seed = seed;
  double lo = 1e-4, hi = 1.0;
  for (int iter = 0; iter < 48; ++iter) {
    config.row_scale = (lo + hi) / 2;
    const uint64_t pages = TpccWorkload::EstimateDbPages(config, kPageBytes);
    if (pages < target_pages) {
      lo = config.row_scale;
    } else {
      hi = config.row_scale;
    }
  }
  config.row_scale = lo;
  return config;
}

inline TpceConfig TpceForPages(int64_t customers, uint64_t target_pages,
                               uint64_t seed = 7) {
  TpceConfig config;
  config.customers = customers;
  config.seed = seed;
  int64_t lo = 1, hi = 1 << 20;
  while (lo < hi) {
    config.trades_per_customer = (lo + hi + 1) / 2;
    if (TpceWorkload::EstimateDbPages(config, kPageBytes) <= target_pages) {
      lo = config.trades_per_customer;
    } else {
      hi = config.trades_per_customer - 1;
    }
  }
  config.trades_per_customer = lo;
  return config;
}

inline TpchConfig TpchForPages(double sf, uint64_t target_pages, int streams,
                               uint64_t seed = 11) {
  TpchConfig config;
  config.scale_factor = sf;
  config.streams = streams;
  config.seed = seed;
  double lo = 1e-7, hi = 1.0;
  for (int iter = 0; iter < 48; ++iter) {
    config.row_scale = (lo + hi) / 2;
    if (TpchWorkload::EstimateDbPages(config, kPageBytes) < target_pages) {
      lo = config.row_scale;
    } else {
      hi = config.row_scale;
    }
  }
  config.row_scale = lo;
  return config;
}

// Builds, populates and runs one OLTP configuration; returns the result.
template <typename WorkloadT, typename ConfigT>
DriverResult RunOltp(SsdDesign design, const ConfigT& wl_config,
                     uint64_t db_pages_hint, double lc_lambda, Time duration,
                     Time ckpt_interval, DriverOptions driver_opts = {}) {
  const uint64_t db_pages =
      std::max<uint64_t>(WorkloadT::EstimateDbPages(wl_config, kPageBytes),
                         db_pages_hint);
  DbSystem system(BaseSystem(design, db_pages, lc_lambda));
  Database db(&system);
  WorkloadT::Populate(&db, wl_config);
  WorkloadT workload(&db, wl_config);
  if (ckpt_interval > 0) system.checkpoint().SchedulePeriodic(ckpt_interval);
  driver_opts.num_clients = kClients;
  driver_opts.duration = duration;
  if (driver_opts.steady_window == Seconds(60) && duration < Seconds(120)) {
    driver_opts.steady_window = duration / 4;
  }
  Driver driver(&system, &workload, driver_opts);
  return driver.Run();
}

// ---------------------------------------------------------------- JSON out
//
// Each bench emits machine-readable evidence next to its text tables:
// WriteJson("ablation_latch_waits", items) writes BENCH_ablation_latch_waits
// .json in the working directory, one JSON object per item. CI asserts the
// file exists and is non-empty; A/B comparisons diff two such files.

inline void JsonAdd(std::string& j, const char* key, const std::string& val,
                    bool quote) {
  if (j.size() > 1) j += ",";
  j += "\"";
  j += key;
  j += quote ? "\":\"" : "\":";
  j += val;
  if (quote) j += "\"";
}

inline void JsonAdd(std::string& j, const char* key, double val) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.4f", val);
  JsonAdd(j, key, buf, false);
}

inline void JsonAdd(std::string& j, const char* key, int64_t val) {
  JsonAdd(j, key, std::to_string(val), false);
}

// Adds the shard-latch contention counters.
inline void AddPoolLatchFields(std::string& j, const BufferPoolStats& bp) {
  JsonAdd(j, "pool_latch_waits", bp.pool_latch_waits);
  JsonAdd(j, "pool_latch_wait_ms",
          static_cast<double>(bp.pool_latch_wait_ns) / 1e6);
}

// Adds the SSD self-healing counters.
inline void AddSsdHealthFields(std::string& j, const SsdManagerStats& ssd) {
  JsonAdd(j, "ssd_partitions_degraded", ssd.partitions_degraded);
  JsonAdd(j, "ssd_partitions_recovered", ssd.partitions_recovered);
  JsonAdd(j, "ssd_scrub_frames_verified", ssd.scrub_frames_verified);
  JsonAdd(j, "ssd_scrub_frames_repaired", ssd.scrub_frames_repaired);
  JsonAdd(j, "ssd_io_timeouts", ssd.io_timeouts);
  JsonAdd(j, "ssd_hedged_reads", ssd.hedged_reads);
}

// Renders one driver run as a JSON object.
inline std::string ResultJson(const DriverResult& r) {
  std::string j = "{";
  JsonAdd(j, "workload", r.workload, true);
  JsonAdd(j, "design", r.design, true);
  JsonAdd(j, "total_txns", r.total_txns);
  JsonAdd(j, "metric_txns", r.metric_txns);
  JsonAdd(j, "steady_rate", r.steady_rate);
  JsonAdd(j, "overall_rate", r.overall_rate);
  JsonAdd(j, "total_latch_wait_ms", ToMillis(r.total_latch_wait));
  JsonAdd(j, "bp_hits", r.bp.hits);
  JsonAdd(j, "bp_misses", r.bp.misses);
  JsonAdd(j, "bp_hit_rate",
          static_cast<double>(r.bp.hits) /
              std::max<int64_t>(1, r.bp.hits + r.bp.misses));
  JsonAdd(j, "ssd_hit_rate",
          static_cast<double>(r.bp.ssd_hits) /
              std::max<int64_t>(1, r.bp.misses));
  JsonAdd(j, "bp_latch_wait_ms", ToMillis(r.bp.latch_wait_time));
  AddPoolLatchFields(j, r.bp);
  AddSsdHealthFields(j, r.ssd);
  j += "}";
  return j;
}

inline void WriteJson(const std::string& name,
                      const std::vector<std::string>& items) {
  const std::string path = "BENCH_" + name + ".json";
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return;
  }
  std::fprintf(f, "[\n");
  for (size_t i = 0; i < items.size(); ++i) {
    std::fprintf(f, "  %s%s\n", items[i].c_str(),
                 i + 1 < items.size() ? "," : "");
  }
  std::fprintf(f, "]\n");
  std::fclose(f);
  std::printf("JSON evidence written to %s\n", path.c_str());
}

inline void PrintHeader(const std::string& title, const std::string& paper) {
  std::printf("==============================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("Paper reference: %s\n", paper.c_str());
  if (QuickMode()) std::printf("(TURBOBP_QUICK=1: shortened run)\n");
  std::printf("==============================================================\n");
}

}  // namespace bench
}  // namespace turbobp

#endif  // TURBOBP_BENCH_BENCH_UTIL_H_
