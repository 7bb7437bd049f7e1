// perfbench: the measuring program behind perfbench/run.py.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             --param key=value ...
//
// run.py passes each workload's set-up from perfbench/workloads.json as
// --param pairs. The program builds and populates the system kSetups
// times (set-up time is their median), runs one timed phase against the
// public API and checks the outcome. With --trace 0 it reports the
// end-to-end metrics. With --trace 1 it runs the phase twice on fresh
// set-ups, untraced and then traced, checks that both did identical
// virtual-time work, and reports the per-layer metrics. Human-readable
// lines go to stderr; the last line on stdout is the result as JSON.

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"
#include "debug/invariant_auditor.h"
#include "layers.h"
#include "micro.h"
#include "trace.h"
#include "turbobp.h"

namespace perfbench {
namespace {

using namespace turbobp;  // NOLINT(google-build-using-namespace)
using turbobp::bench::kPageBytes;
using turbobp::bench::TpccForPages;
using turbobp::bench::TpchForPages;

// Set-ups per end-to-end run; setup_s is their median.
constexpr int kSetups = 3;
// The log device is a ring of this many pages (16 MiB at 1 KiB pages)
// rather than the default 1 Mi: its pages live in memory, and a smaller
// ring bounds what long runs hold.
constexpr uint64_t kLogDevicePages = 16384;
// Every workload forces the log at each commit, as in the paper.
constexpr bool kCommitForce = true;
// Per-op sample buffers are sized before the timed phase for these rates,
// well above the measured ones: tpcc_lc completes ~48 transactions per
// client per virtual second, a tpcc_mem_mt thread ~6k per wall second
// (one thread alone ~17k).
constexpr double kSimSamplesPerClientVirtS = 160;
constexpr double kThreadSamplesPerClientS = 25000;

[[noreturn]] void Die(const std::string& msg) {
  std::fprintf(stderr, "perfbench: %s\n", msg.c_str());
  std::exit(2);
}

// ------------------------------------------------------------------ params

class Params {
 public:
  void Set(const std::string& kv) {
    const size_t eq = kv.find('=');
    if (eq == std::string::npos) Die("--param wants key=value, got " + kv);
    kv_[kv.substr(0, eq)] = kv.substr(eq + 1);
  }
  const std::string& Str(const std::string& key) const {
    auto it = kv_.find(key);
    if (it == kv_.end()) Die("missing --param " + key);
    return it->second;
  }
  double Num(const std::string& key) const {
    char* end = nullptr;
    const double v = std::strtod(Str(key).c_str(), &end);
    if (end == nullptr || *end != '\0') Die("--param " + key + " is not a number");
    return v;
  }
  int64_t Int(const std::string& key) const {
    return static_cast<int64_t>(std::llround(Num(key)));
  }

 private:
  std::map<std::string, std::string> kv_;
};

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  Params params;
};

Args ParseArgs(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Die("flag " + flag + " needs a value");
    const std::string v = argv[++i];
    if (flag == "--workload") {
      a.workload = v;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      a.seconds = std::strtod(v.c_str(), nullptr);
    } else if (flag == "--trace") {
      a.trace = v == "1";
    } else if (flag == "--param") {
      a.params.Set(v);
    } else {
      Die("unknown flag " + flag);
    }
  }
  if (a.workload.empty()) Die("--workload is required");
  if (a.seconds <= 0) Die("--seconds must be positive");
  return a;
}

// ------------------------------------------------------------ statistics

// Exact quantile of raw samples, interpolating linearly between order
// statistics (Python's statistics.quantiles "inclusive" method). Sorts
// `v` in place.
double Quantile(std::vector<double>* v, double q) {
  if (v->empty()) return 0.0;
  std::sort(v->begin(), v->end());
  const double pos = q * static_cast<double>(v->size() - 1);
  const size_t i = static_cast<size_t>(pos);
  if (i + 1 >= v->size()) return v->back();
  return (*v)[i] + (pos - static_cast<double>(i)) * ((*v)[i + 1] - (*v)[i]);
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// --------------------------------------------------------- system set-up

SsdDesign ParseDesign(const std::string& s) {
  for (SsdDesign d : {SsdDesign::kNoSsd, SsdDesign::kCleanWrite,
                      SsdDesign::kDualWrite, SsdDesign::kLazyCleaning,
                      SsdDesign::kTac}) {
    if (s == ToString(d)) return d;
  }
  Die("unknown design " + s);
}

SystemConfig MakeSystemConfig(const Params& p, uint64_t volume_pages,
                              uint64_t bp_frames, int64_t ssd_frames) {
  SystemConfig c;
  c.page_bytes = kPageBytes;
  c.db_pages = volume_pages;
  c.bp_frames = bp_frames;
  c.ssd_frames = ssd_frames;
  c.design = ParseDesign(p.Str("design"));
  // λ, the dirty share of the SSD at which the LC cleaner starts.
  if (c.design == SsdDesign::kLazyCleaning) {
    c.ssd_options.lc_dirty_fraction = p.Num("lc_lambda");
  }
  c.log_device_pages = kLogDevicePages;
  const std::string& log = p.Str("log_model");
  if (log == "fast") {
    // SSD-class commit log, as in bench_scaleout_threads: the HDD log's
    // bandwidth would otherwise cap in-memory TPC-C at the modeled spindle.
    c.log_params.seek_write = Micros(30);
    c.log_params.seek_read = Micros(30);
    c.log_params.transfer_write_per_page = Micros(40);
    c.log_params.transfer_read_per_page = Micros(40);
  } else if (log != "hdd") {
    Die("unknown log_model " + log);
  }
  return c;
}

// ------------------------------------------------------ counter snapshots

struct Counters {
  int64_t disk_reads = 0;
  int64_t disk_pages_read = 0;
  int64_t disk_pages_written = 0;
  AsyncIoEngine::Stats io{};
  int64_t wal_records = 0;
  int64_t wal_flushes = 0;
  int64_t wal_bytes = 0;
  CheckpointStats ckpt{};
  SsdManagerStats ssd{};
  LatchWaitSnapshot latch{};
  uint64_t events = 0;

  static Counters Take(DbSystem& s) {
    Counters c;
    // Device-level totals: the async engine writes to the array directly,
    // past the DiskManager's counters.
    const StripedDiskArray& disks = s.disk_array();
    const int64_t page_bytes = s.config().page_bytes;
    c.disk_reads = disks.TotalRequests(IoOp::kRead);
    c.disk_pages_read = disks.TotalBytes(IoOp::kRead) / page_bytes;
    c.disk_pages_written = disks.TotalBytes(IoOp::kWrite) / page_bytes;
    if (s.disk_io_engine() != nullptr) c.io = s.disk_io_engine()->stats();
    c.wal_records = s.log().num_records();
    c.wal_flushes = s.log().flushes_issued();
    c.wal_bytes = s.log().bytes_appended();
    c.ckpt = s.checkpoint().stats();
    c.ssd = s.ssd_manager().stats();
    c.latch = LatchWaitStats::Instance().Snapshot();
    c.events = s.executor().num_executed();
    return c;
  }
};

// Virtual-time work a phase did. Tracing only forwards calls, so a traced
// phase must reproduce these exactly.
struct VirtualCounters {
  int64_t ops = 0;
  int64_t bp_hits = 0;
  int64_t ssd_hits = 0;
  int64_t disk_reads = 0;
  int64_t wal_bytes = 0;
  Time end = 0;

  bool operator==(const VirtualCounters&) const = default;
  std::string ToString() const {
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "ops=%lld bp_hits=%lld ssd_hits=%lld disk_reads=%lld "
                  "wal_bytes=%lld end_us=%lld",
                  static_cast<long long>(ops), static_cast<long long>(bp_hits),
                  static_cast<long long>(ssd_hits),
                  static_cast<long long>(disk_reads),
                  static_cast<long long>(wal_bytes),
                  static_cast<long long>(end));
    return buf;
  }
};

VirtualCounters VirtualWork(DbSystem& s, int64_t ops, const Counters& c0) {
  const BufferPoolStats bp = s.buffer_pool().stats();
  const Counters c1 = Counters::Take(s);
  return VirtualCounters{ops, bp.hits, bp.ssd_hits,
                         c1.disk_reads - c0.disk_reads,
                         c1.wal_bytes - c0.wal_bytes, s.executor().now()};
}

// ------------------------------------------------------------ phase result

struct PhaseResult {
  int64_t ops = 0;               // operations attempted
  int64_t failed = 0;            // operations or checks that failed
  std::vector<std::string> problems;
  double host_ops_per_s = 0.0;
  double host_us_p50 = 0.0;      // per-op host time quantiles
  double host_us_p99 = 0.0;
  double virt_ms_p50 = 0.0;      // per-op virtual time quantiles
  double virt_ms_p99 = 0.0;
  double virt_score = 0.0;       // tpmC or QphH
  // Read right after the timed phase, before any result processing.
  double peak_rss_mb = 0.0;
  // Whether the phase is a deterministic function of the seed (sim
  // executor); only then must a traced rerun reproduce `virt` exactly.
  bool deterministic = true;
  VirtualCounters virt;
  std::vector<Metric> layer;     // per-layer metrics of the phase

  void Fail(const std::string& what, int64_t count = 1) {
    problems.push_back(what);
    failed += count;
  }
  void SetQuantiles(std::vector<double>* host_us, std::vector<double>* virt_ms) {
    host_us_p50 = Quantile(host_us, 0.50);
    host_us_p99 = Quantile(host_us, 0.99);
    virt_ms_p50 = Quantile(virt_ms, 0.50);
    virt_ms_p99 = Quantile(virt_ms, 0.99);
  }
};

// Post-run correctness gate shared by every workload: the invariant
// auditor over the pool and the real (undecorated) SSD manager, no failed
// checkpoint, no lost page, no device error.
void CheckSystem(DbSystem& s, PhaseResult* r) {
  const AuditReport audit =
      InvariantAuditor::AuditSystem(s.buffer_pool(), &s.ssd_manager());
  if (!audit.ok()) {
    r->Fail("invariant audit: " + audit.ToString(),
            static_cast<int64_t>(audit.violations().size()));
  }
  const CheckpointStats ck = s.checkpoint().stats();
  if (ck.checkpoints_failed > 0) {
    r->Fail("failed checkpoints", ck.checkpoints_failed);
  }
  const SsdManagerStats ssd = s.ssd_manager().stats();
  if (ssd.lost_pages > 0) r->Fail("lost pages", ssd.lost_pages);
  const int64_t dev_errors = ssd.device_read_errors + ssd.device_write_errors +
                             s.disk_manager().io_errors();
  if (dev_errors > 0) r->Fail("device errors", dev_errors);
}

// Sums the pool statistics of consecutive driver runs (each resets them).
void AddPoolStats(const BufferPoolStats& x, BufferPoolStats* sum) {
  sum->ops += x.ops;
  sum->hits += x.hits;
  sum->misses += x.misses;
  sum->ssd_hits += x.ssd_hits;
  sum->evictions_dirty += x.evictions_dirty;
  sum->prefetch_pages += x.prefetch_pages;
}

// Per-layer metrics of one phase from counter deltas, pool stats and span
// totals. `background_ns` is host time outside op and checkpoint spans, or
// -1 where it cannot be separated (real threads).
std::vector<Metric> LayerMetrics(const Counters& c0, const Counters& c1,
                                 const BufferPoolStats& bp, int64_t ops,
                                 const SpanTable& spans, int64_t background_ns) {
  const double n = static_cast<double>(std::max<int64_t>(ops, 1));
  auto span = [&spans](SpanKind k) -> const SpanTotals& {
    return spans[static_cast<size_t>(k)];
  };
  auto ms = [](int64_t ns) { return static_cast<double>(ns) / 1e6; };
  auto latch_ms = [&](LatchClass c) {
    const int i = static_cast<int>(c);
    return ms(c1.latch.wait_ns[i] - c0.latch.wait_ns[i]);
  };
  const SpanTotals& op = span(SpanKind::kOp);
  std::vector<Metric> m = {
      {"workload.self_host_us_per_op",
       Ratio(static_cast<double>(op.total_ns - op.child_ns) / 1e3,
             static_cast<double>(op.calls)),
       "us"},
      {"buffer.hit_rate",
       Ratio(static_cast<double>(bp.hits), static_cast<double>(bp.hits + bp.misses)),
       "ratio"},
      {"buffer.fetches_per_op", static_cast<double>(bp.ops) / n, "count"},
      {"buffer.dirty_evictions_per_op", static_cast<double>(bp.evictions_dirty) / n,
       "count"},
      {"buffer.prefetch_pages_per_op", static_cast<double>(bp.prefetch_pages) / n,
       "count"},
      {"buffer.latch_wait_ms", latch_ms(LatchClass::kBufferPool), "ms"},
      {"core.ssd_hit_rate",
       Ratio(static_cast<double>(c1.ssd.hits - c0.ssd.hits),
             static_cast<double>(c1.ssd.hits + c1.ssd.probe_misses - c0.ssd.hits -
                                 c0.ssd.probe_misses)),
       "ratio"},
      {"core.admissions_per_op",
       static_cast<double>(c1.ssd.admissions - c0.ssd.admissions) / n, "count"},
      {"core.rejected_sequential",
       static_cast<double>(c1.ssd.rejected_sequential - c0.ssd.rejected_sequential),
       "count"},
      {"core.cleaner_pages_per_request",
       Ratio(static_cast<double>(c1.ssd.cleaner_disk_writes - c0.ssd.cleaner_disk_writes),
             static_cast<double>(c1.ssd.cleaner_io_requests - c0.ssd.cleaner_io_requests)),
       "count"},
      {"wal.records_per_flush",
       Ratio(static_cast<double>(c1.wal_records - c0.wal_records),
             static_cast<double>(c1.wal_flushes - c0.wal_flushes)),
       "count"},
      {"wal.bytes_per_op", static_cast<double>(c1.wal_bytes - c0.wal_bytes) / n,
       "bytes"},
      {"wal.latch_wait_ms", latch_ms(LatchClass::kWal), "ms"},
      {"wal.ckpt_count",
       static_cast<double>(c1.ckpt.checkpoints_taken - c0.ckpt.checkpoints_taken),
       "count"},
      {"wal.ckpt_host_ms", ms(span(SpanKind::kCheckpoint).total_ns), "ms"},
      {"wal.ckpt_max_virt_s", ToSeconds(c1.ckpt.max_duration), "s"},
      {"wal.ckpt_pages_flushed",
       static_cast<double>(c1.ckpt.pages_flushed_memory + c1.ckpt.pages_flushed_ssd -
                           c0.ckpt.pages_flushed_memory - c0.ckpt.pages_flushed_ssd),
       "count"},
      {"io.pages_per_device_op",
       Ratio(static_cast<double>(c1.io.submitted - c0.io.submitted),
             static_cast<double>(c1.io.device_ops - c0.io.device_ops)),
       "count"},
      {"io.queue_full_waits",
       static_cast<double>(c1.io.queue_full_waits - c0.io.queue_full_waits), "count"},
      {"storage.disk_reads_per_op",
       static_cast<double>(c1.disk_reads - c0.disk_reads) / n, "count"},
      {"storage.disk_pages_per_read",
       Ratio(static_cast<double>(c1.disk_pages_read - c0.disk_pages_read),
             static_cast<double>(c1.disk_reads - c0.disk_reads)),
       "count"},
      {"storage.disk_pages_written_per_op",
       static_cast<double>(c1.disk_pages_written - c0.disk_pages_written) / n,
       "count"},
      {"sim.events_per_op", static_cast<double>(c1.events - c0.events) / n, "count"},
      {"sim.background_host_ms", background_ns < 0 ? 0.0 : ms(background_ns), "ms"},
  };
  const std::pair<const char*, SpanKind> core_spans[] = {
      {"core.try_read", SpanKind::kTryRead},
      {"core.evict_dirty", SpanKind::kEvictDirty},
      {"core.evict_clean", SpanKind::kEvictClean},
      {"core.disk_read_hook", SpanKind::kDiskReadHook},
      {"core.flush_dirty", SpanKind::kFlushDirty},
  };
  for (const auto& [name, kind] : core_spans) {
    m.push_back({std::string(name) + "_host_ms", ms(span(kind).total_ns), "ms"});
    m.push_back({std::string(name) + "_calls",
                 static_cast<double>(span(kind).calls), "count"});
  }
  return m;
}

// Periodic sharp checkpoints as a benchmark-owned executor event (the
// cadence of CheckpointManager::SchedulePeriodic: the next one fires one
// interval after the previous one finished), so the traced run can span
// RunCheckpoint and, inside it, the SSD drain.
class CheckpointSchedule {
 public:
  CheckpointSchedule(DbSystem* system, Time interval, Time first, Time stop_at)
      : system_(system), interval_(interval), stop_at_(stop_at) {
    if (interval_ > 0) {
      system_->executor().ScheduleAfter(first, [this] { Tick(); });
    }
  }
  // The pending tick must fire (and retire) before this object dies: call
  // Stop(), then drain the executor.
  void Stop() { stopped_ = true; }

 private:
  void Tick() {
    SimExecutor& ex = system_->executor();
    if (stopped_ || ex.now() >= stop_at_) return;
    IoContext ctx = system_->MakeContext();
    Time end = 0;
    {
      Span span(SpanKind::kCheckpoint);
      end = system_->checkpoint().RunCheckpoint(ctx);
    }
    ex.ScheduleAt(std::max(end, ex.now()) + interval_, [this] { Tick(); });
  }

  DbSystem* system_;
  Time interval_;
  Time stop_at_;
  bool stopped_ = false;
};

// Installs the tracing SSD decorator on the pool and the checkpoint
// manager for the lifetime of the object, and turns span recording on.
class TracedScope {
 public:
  TracedScope(DbSystem* system, bool traced)
      : system_(system), decorator_(&system->ssd_manager()), traced_(traced) {
    Tracer::Reset();
    if (!traced_) return;
    system_->buffer_pool().set_ssd_manager(&decorator_);
    system_->checkpoint().set_ssd_manager(&decorator_);
    Tracer::Enable(true);
  }
  ~TracedScope() { Finish(); }
  // Stops recording and restores the real SSD manager; returns the spans.
  SpanTable Finish() {
    if (traced_) {
      Tracer::Enable(false);
      system_->buffer_pool().set_ssd_manager(&system_->ssd_manager());
      system_->checkpoint().set_ssd_manager(&system_->ssd_manager());
      traced_ = false;
    }
    return Tracer::Totals();
  }
  TracedScope(const TracedScope&) = delete;
  TracedScope& operator=(const TracedScope&) = delete;

 private:
  DbSystem* system_;
  TracingSsdManager decorator_;
  bool traced_;
};

// ---------------------------------------------------------------- benches

class Bench {
 public:
  Bench(const Args& args) : args_(args), p_(args.params) {}
  virtual ~Bench() = default;
  Bench(const Bench&) = delete;
  Bench& operator=(const Bench&) = delete;

  // Builds, populates and (where the workload says so) warms the system.
  virtual void Setup() = 0;
  // The timed phase plus its correctness checks.
  virtual PhaseResult Measure(bool traced) = 0;

  DbSystem& system() { return *system_; }
  Database& db() { return *db_; }

 protected:
  void BuildSystem(const SystemConfig& config) {
    system_ = std::make_unique<DbSystem>(config);
    db_ = std::make_unique<Database>(system_.get());
  }
  // The sim workloads' volume is at least the paper-scale db_pages, in a
  // pool and SSD of the workload's pool_frames and ssd_frames.
  SystemConfig SimSystemConfig(uint64_t volume_pages) const {
    return MakeSystemConfig(p_, volume_pages,
                            static_cast<uint64_t>(p_.Int("pool_frames")),
                            p_.Int("ssd_frames"));
  }

  const Args& args_;
  const Params& p_;
  std::unique_ptr<DbSystem> system_;
  std::unique_ptr<Database> db_;
};

// Sim-executor TPC-C: `clients` closed-loop clients with no think time for
// a virtual window of seconds * virt_s_per_s, checkpoints every ckpt_s.
class TpccSimBench : public Bench {
 public:
  using Bench::Bench;

  void Setup() override {
    const uint64_t pages = static_cast<uint64_t>(p_.Int("db_pages"));
    tpcc_ = TpccForPages(static_cast<int>(p_.Int("warehouses")), pages, args_.seed);
    tpcc_.commit_force = kCommitForce;
    BuildSystem(SimSystemConfig(
        std::max(pages, TpccWorkload::EstimateDbPages(tpcc_, kPageBytes))));
    TpccWorkload::Populate(db_.get(), tpcc_);
    workload_ = std::make_unique<TpccWorkload>(db_.get(), tpcc_);
  }

  PhaseResult Measure(bool traced) override {
    PhaseResult r;
    DbSystem& s = *system_;
    const int clients = static_cast<int>(p_.Int("clients"));
    const double window_s = args_.seconds * p_.Num("virt_s_per_s");
    const Time window = Seconds(window_s);
    TracedScope scope(&s, traced);
    SampledWorkload sampled(
        workload_.get(), clients,
        static_cast<size_t>(window_s * kSimSamplesPerClientVirtS));
    DriverOptions o;
    o.num_clients = clients;
    o.duration = window;
    o.sample_width = Seconds(1);
    o.steady_window = window / 2;
    o.record_traffic = false;
    const Counters c0 = Counters::Take(s);
    s.buffer_pool().ResetStats();
    const Time start = s.executor().now();
    const Time interval = Seconds(p_.Num("ckpt_s"));
    CheckpointSchedule ckpt(&s, interval, interval, start + window);
    const int64_t h0 = NowNs();
    const DriverResult dr = Driver(&s, &sampled, o).Run();
    const int64_t host_ns = NowNs() - h0;
    r.peak_rss_mb = PeakRssMb();
    const SpanTable spans = scope.Finish();
    const Counters c1 = Counters::Take(s);

    r.ops = dr.total_txns;
    r.host_ops_per_s = Ratio(static_cast<double>(r.ops), static_cast<double>(host_ns) / 1e9);
    // Host times of every transaction. Virtual latencies describe the
    // steady state: transactions that completed in the trailing half of
    // the window, the one tpmC is averaged over.
    const Time steady_from = start + window - o.steady_window;
    std::vector<double> host_us, virt_ms;
    host_us.reserve(static_cast<size_t>(sampled.count()));
    for (const auto& client : sampled.samples()) {
      for (const OpSample& x : client) {
        host_us.push_back(static_cast<double>(x.host_ns) / 1e3);
        if (x.end > steady_from && x.end <= start + window) {
          virt_ms.push_back(static_cast<double>(x.virt_us) / 1e3);
        }
      }
    }
    r.SetQuantiles(&host_us, &virt_ms);
    r.virt_score = dr.steady_rate * 60.0;  // tpmC
    r.virt = VirtualWork(s, r.ops, c0);
    const int64_t background =
        host_ns - spans[static_cast<size_t>(SpanKind::kOp)].total_ns -
        spans[static_cast<size_t>(SpanKind::kCheckpoint)].total_ns;
    r.layer = LayerMetrics(c0, c1, s.buffer_pool().stats(), r.ops, spans, background);

    CheckTpccCounts(*workload_, dr.total_txns, sampled.count(), &r);
    CheckSystem(s, &r);
    return r;
  }

  // Every transaction the driver counted ran through the wrapper and is
  // counted by exactly one TPC-C transaction type.
  static void CheckTpccCounts(const TpccWorkload& w, int64_t driver_total,
                              int64_t wrapped, PhaseResult* r) {
    const int64_t by_type = w.new_orders() + w.payments() + w.order_statuses() +
                            w.deliveries() + w.stock_levels();
    if (by_type != driver_total || wrapped != driver_total) {
      r->Fail("TPC-C counts disagree: by type " + std::to_string(by_type) +
                  ", driver " + std::to_string(driver_total) + ", wrapper " +
                  std::to_string(wrapped),
              std::max<int64_t>(1, std::llabs(by_type - driver_total)));
    }
  }

 private:
  TpccConfig tpcc_;
  std::unique_ptr<TpccWorkload> workload_;
};

// Sim-executor TPC-H: the Power and Throughput tests (QphH), then
// `sweep_rounds` rounds of the 22 queries, one at a time in a seeded
// order, which give the per-query samples.
class TpchSimBench : public Bench {
 public:
  using Bench::Bench;

  void Setup() override {
    const uint64_t pages = static_cast<uint64_t>(p_.Int("db_pages"));
    // One fixed database and query set. With per-seed query parameters,
    // QphH and the sweep's median query move between seeds by up to a
    // third, far past any useful bound.
    tpch_ = TpchForPages(p_.Num("scale_factor"), pages,
                         static_cast<int>(p_.Int("streams")),
                         static_cast<uint64_t>(p_.Int("generator_seed")));
    // Room past the loaded tables for RF1's inserts.
    BuildSystem(SimSystemConfig(pages + pages / 8 + 64));
    TpchWorkload::Populate(db_.get(), tpch_);
    workload_ = std::make_unique<TpchWorkload>(db_.get(), tpch_);
  }

  PhaseResult Measure(bool traced) override {
    PhaseResult r;
    DbSystem& s = *system_;
    SimExecutor& ex = s.executor();
    const int rounds = static_cast<int>(p_.Int("sweep_rounds"));
    std::vector<double> host_us, virt_ms;
    host_us.reserve(static_cast<size_t>(rounds * TpchWorkload::kNumQueries));
    virt_ms.reserve(host_us.capacity());
    TracedScope scope(&s, traced);
    const Counters c0 = Counters::Take(s);
    s.buffer_pool().ResetStats();

    // The seed places the first checkpoint within one interval, and orders
    // the query sweep below.
    Rng rng(args_.seed * 1000003 + 7);
    const Time interval = Seconds(p_.Num("ckpt_s"));
    const int64_t h0 = NowNs();
    CheckpointSchedule ckpt(&s, interval,
                            interval / 2 + static_cast<Time>(rng.Uniform(
                                               static_cast<uint64_t>(interval))),
                            kTimeMax);
    const TpchTestResult full = workload_->RunFullBenchmark();
    ckpt.Stop();
    s.ssd_manager().StopBackground();
    ex.RunUntilIdle();

    // Per-query samples: host and virtual time of each query alone.
    const int64_t h1 = NowNs();
    int64_t swept = 0;
    for (int round = 0; round < rounds; ++round) {
      std::vector<int> order;
      for (int q = 1; q <= TpchWorkload::kNumQueries; ++q) order.push_back(q);
      for (size_t i = order.size() - 1; i > 0; --i) {
        std::swap(order[i], order[rng.Uniform(i + 1)]);
      }
      for (int q : order) {
        IoContext ctx = s.MakeContext();
        const Time v0 = ctx.now;
        const int64_t q0 = NowNs();
        {
          Span span(SpanKind::kOp);
          workload_->RunQuery(q, ctx);
        }
        host_us.push_back(static_cast<double>(NowNs() - q0) / 1e3);
        virt_ms.push_back(ToMillis(ctx.now - v0));
        ex.RunUntil(ctx.now);
        ++swept;
      }
    }
    const int64_t h2 = NowNs();
    r.peak_rss_mb = PeakRssMb();
    const SpanTable spans = scope.Finish();
    const Counters c1 = Counters::Take(s);

    const int64_t full_ops = static_cast<int64_t>(full.power_timings.size()) +
                             (TpchWorkload::kNumQueries + 2) * tpch_.streams;
    r.ops = full_ops + swept;
    r.host_ops_per_s = Ratio(static_cast<double>(r.ops), static_cast<double>(h2 - h0) / 1e9);
    r.SetQuantiles(&host_us, &virt_ms);
    r.virt_score = full.qphh;
    r.virt = VirtualWork(s, r.ops, c0);
    const int64_t background =
        (h2 - h1) - spans[static_cast<size_t>(SpanKind::kOp)].total_ns;
    r.layer = LayerMetrics(c0, c1, s.buffer_pool().stats(), r.ops, spans, background);

    // The Power test ran RF1, Q1..Q22 and RF2 (ids 23 and 24) once each,
    // the Throughput test finished, and the sweep ran every query.
    std::vector<int> seen(TpchWorkload::kNumQueries + 3, 0);
    for (const TpchQueryResult& q : full.power_timings) {
      if (q.query >= 1 && q.query <= TpchWorkload::kNumQueries + 2 && q.elapsed > 0) {
        ++seen[static_cast<size_t>(q.query)];
      }
    }
    for (int q = 1; q <= TpchWorkload::kNumQueries + 2; ++q) {
      if (seen[static_cast<size_t>(q)] != 1) {
        r.Fail("TPC-H power test: query " + std::to_string(q) + " ran " +
               std::to_string(seen[static_cast<size_t>(q)]) + " times");
      }
    }
    if (full.throughput_elapsed <= 1 || !(full.qphh > 0) || !std::isfinite(full.qphh)) {
      r.Fail("TPC-H throughput test did not complete");
    }
    if (swept != int64_t{rounds} * TpchWorkload::kNumQueries) r.Fail("query sweep incomplete");
    CheckSystem(s, &r);
    return r;
  }

 private:
  TpchConfig tpch_;
  std::unique_ptr<TpchWorkload> workload_;
};

// Real-thread partitioned TPC-C over a pool that holds the whole database
// (warmed uncharged at set-up): `clients` OS threads run for --seconds of
// wall time with modeled device waits not slept (real_sleep_scale 0). The
// threaded driver anchors its virtual clock to the wall, so this workload's
// "virtual" metrics carry no signal of their own: tpmC per wall minute is
// a fixed multiple of host_ops_per_s, and the per-op latencies are the
// wrapper's host samples.
class TpccThreadsBench : public Bench {
 public:
  using Bench::Bench;

  void Setup() override {
    tpcc_.warehouses = static_cast<int>(p_.Int("warehouses"));
    tpcc_.row_scale = p_.Num("row_scale");
    tpcc_.seed = args_.seed;
    tpcc_.commit_force = kCommitForce;
    tpcc_.partition_by_client = true;
    const uint64_t pages = TpccWorkload::EstimateDbPages(tpcc_, kPageBytes);
    // DRAM-resident by construction, sized as in bench_scaleout_threads.
    BuildSystem(MakeSystemConfig(p_, pages, pages + 64,
                                 static_cast<int64_t>(pages / 2)));
    TpccWorkload::Populate(db_.get(), tpcc_);
    workload_ = std::make_unique<TpccWorkload>(db_.get(), tpcc_);
    IoContext warm = system_->MakeContext(/*charge=*/false);
    for (PageId pid = 0; pid < pages; ++pid) {
      PageGuard g = system_->buffer_pool().FetchPage(pid, AccessKind::kSequential, warm);
    }
  }

  PhaseResult Measure(bool traced) override {
    PhaseResult r;
    r.deterministic = false;
    DbSystem& s = *system_;
    const int threads = static_cast<int>(p_.Int("clients"));
    // Slices of slice_s wall seconds with a sharp checkpoint after each
    // (outside the host timing). The threaded driver must not checkpoint
    // while clients run, and without checkpoints the WAL's in-memory record
    // buffer is never truncated; short slices keep that buffer, which grows
    // with throughput, a small share of peak RSS. Each host metric is the
    // median over slices, so a burst of host noise spoils a few slices, not
    // the run.
    SampledWorkload sampled(
        workload_.get(), threads,
        static_cast<size_t>(args_.seconds * kThreadSamplesPerClientS));
    const double slice_s = p_.Num("slice_s");
    const size_t num_slices = static_cast<size_t>(std::ceil(args_.seconds / slice_s - 1e-9));
    std::vector<double> ops_per_s, new_orders_per_s;
    ops_per_s.reserve(num_slices);
    new_orders_per_s.reserve(num_slices);
    // Where each slice ends in each client's sample vector.
    std::vector<std::vector<size_t>> slice_ends(num_slices,
                                                std::vector<size_t>(static_cast<size_t>(threads)));
    const Counters c0 = Counters::Take(s);
    BufferPoolStats bp{};
    SpanTable spans{};
    for (size_t slice = 0; slice < num_slices; ++slice) {
      const double left = args_.seconds - static_cast<double>(slice) * slice_s;
      DriverOptions o;
      o.threads = threads;
      o.duration = Seconds(std::min(slice_s, left));
      o.sample_width = Millis(100);
      o.steady_window = o.duration;
      o.record_traffic = false;
      o.real_sleep_scale = 0.0;
      TracedScope scope(&s, traced);
      s.buffer_pool().ResetStats();
      const int64_t h0 = NowNs();
      const DriverResult dr = Driver(&s, &sampled, o).Run();
      const double host_s = static_cast<double>(NowNs() - h0) / 1e9;
      r.ops += dr.total_txns;
      ops_per_s.push_back(Ratio(static_cast<double>(dr.total_txns), host_s));
      new_orders_per_s.push_back(Ratio(static_cast<double>(dr.metric_txns), host_s));
      for (size_t c = 0; c < slice_ends[slice].size(); ++c) {
        slice_ends[slice][c] = sampled.samples()[c].size();
      }
      AddPoolStats(s.buffer_pool().stats(), &bp);
      {
        Span span(SpanKind::kCheckpoint);
        IoContext ctx = s.MakeContext();
        s.checkpoint().RunCheckpoint(ctx);
      }
      AddSpans(scope.Finish(), &spans);
    }
    r.peak_rss_mb = PeakRssMb();
    const Counters c1 = Counters::Take(s);

    std::vector<double> p50s, p99s, slice_us;
    std::vector<size_t> begin(static_cast<size_t>(threads), 0);
    for (const std::vector<size_t>& ends : slice_ends) {
      slice_us.clear();
      for (size_t c = 0; c < ends.size(); ++c) {
        const std::vector<OpSample>& v = sampled.samples()[c];
        for (size_t i = begin[c]; i < ends[c]; ++i) {
          slice_us.push_back(static_cast<double>(v[i].host_ns) / 1e3);
        }
        begin[c] = ends[c];
      }
      p50s.push_back(Quantile(&slice_us, 0.50));
      p99s.push_back(Quantile(&slice_us, 0.99));
    }
    r.host_ops_per_s = Quantile(&ops_per_s, 0.5);
    r.host_us_p50 = Quantile(&p50s, 0.5);
    r.host_us_p99 = Quantile(&p99s, 0.5);
    // The driver's clock is the wall: the virtual figures are the host ones
    // rescaled (see the class comment).
    r.virt_ms_p50 = r.host_us_p50 / 1e3;
    r.virt_ms_p99 = r.host_us_p99 / 1e3;
    r.virt_score = Quantile(&new_orders_per_s, 0.5) * 60.0;  // tpmC
    r.layer = LayerMetrics(c0, c1, bp, r.ops, spans, -1);

    TpccSimBench::CheckTpccCounts(*workload_, r.ops, sampled.count(), &r);
    CheckSystem(s, &r);
    return r;
  }

 private:
  TpccConfig tpcc_;
  std::unique_ptr<TpccWorkload> workload_;
};

std::unique_ptr<Bench> MakeBench(const Args& args) {
  const std::string& kind = args.params.Str("kind");
  if (kind == "tpcc_sim") return std::make_unique<TpccSimBench>(args);
  if (kind == "tpch_sim") return std::make_unique<TpchSimBench>(args);
  if (kind == "tpcc_threads") return std::make_unique<TpccThreadsBench>(args);
  Die("unknown kind " + kind);
}

// ----------------------------------------------------------------- output

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.10g", v);
  return buf;
}

void PrintResult(bool correct, int64_t attempted, int64_t failed,
                 const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::fprintf(stderr, "  %-36s %16.4f %s\n", m.name.c_str(), m.value,
                 m.unit.c_str());
  }
  std::string j = "{\"correct\": ";
  j += correct ? "true" : "false";
  j += ", \"attempted\": " + std::to_string(attempted);
  j += ", \"failed\": " + std::to_string(failed);
  j += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) j += ", ";
    j += "\"" + metrics[i].name + "\": {\"value\": " + JsonNumber(metrics[i].value) +
         ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  j += "}}";
  std::printf("%s\n", j.c_str());
  std::fflush(stdout);
}

void Report(const PhaseResult& r) {
  for (const std::string& p : r.problems) {
    std::fprintf(stderr, "perfbench: FAILED CHECK: %s\n", p.c_str());
  }
}

int RunEndToEnd(const Args& args) {
  std::vector<double> setup_s;
  std::unique_ptr<Bench> bench;
  for (int i = 0; i < kSetups; ++i) {
    bench.reset();
    bench = MakeBench(args);
    const int64_t t0 = NowNs();
    bench->Setup();
    setup_s.push_back(static_cast<double>(NowNs() - t0) / 1e9);
  }
  const PhaseResult r = bench->Measure(/*traced=*/false);
  Report(r);
  const std::vector<Metric> metrics = {
      {"setup_s", Quantile(&setup_s, 0.5), "s"},
      {"host_ops_per_s", r.host_ops_per_s, "1/s"},
      {"host_op_us_p50", r.host_us_p50, "us"},
      {"host_op_us_p99", r.host_us_p99, "us"},
      {"virt_tpmc_or_qphh", r.virt_score, "score"},
      {"virt_op_ms_p50", r.virt_ms_p50, "ms"},
      {"virt_op_ms_p99", r.virt_ms_p99, "ms"},
      {"peak_rss_mb", r.peak_rss_mb, "MB"},
  };
  std::fprintf(stderr, "perfbench %s seed=%llu: %lld ops, %lld failed, error_rate %.6f\n",
               args.workload.c_str(), static_cast<unsigned long long>(args.seed),
               static_cast<long long>(r.ops), static_cast<long long>(r.failed),
               static_cast<double>(r.failed) / static_cast<double>(std::max<int64_t>(1, r.ops)));
  PrintResult(r.failed == 0, std::max<int64_t>(1, r.ops), r.failed, metrics);
  return r.failed == 0 ? 0 : 1;
}

int RunTraced(const Args& args) {
  std::unique_ptr<Bench> plain = MakeBench(args);
  plain->Setup();
  const PhaseResult base = plain->Measure(/*traced=*/false);
  const double base_rate = base.host_ops_per_s;
  plain.reset();

  std::unique_ptr<Bench> bench = MakeBench(args);
  bench->Setup();
  PhaseResult r = bench->Measure(/*traced=*/true);
  const double traced_rate = r.host_ops_per_s;
  Report(base);
  Report(r);
  if (r.deterministic && !(r.virt == base.virt)) {
    r.Fail("traced run diverged in virtual time: untraced " + base.virt.ToString() +
           " vs traced " + r.virt.ToString());
    Report(r);
  }
  std::vector<Metric> metrics = r.layer;
  const std::vector<Metric> loops =
      IsolatedLayerLoops(bench->system(), bench->db(), args.seed);
  metrics.insert(metrics.end(), loops.begin(), loops.end());
  const int64_t attempted = std::max<int64_t>(1, base.ops + r.ops);
  const int64_t failed = base.failed + r.failed;
  metrics.push_back({"workload.untraced_host_ops_per_s", base_rate, "1/s"});
  metrics.push_back({"workload.traced_host_ops_per_s", traced_rate, "1/s"});
  metrics.push_back({"workload.trace_overhead_pct",
                     Ratio(base_rate - traced_rate, base_rate) * 100.0, "%"});
  metrics.push_back({"workload.error_rate",
                     static_cast<double>(failed) / static_cast<double>(attempted), "ratio"});
  PrintResult(failed == 0, attempted, failed, metrics);
  return failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  const perfbench::Args args = perfbench::ParseArgs(argc, argv);
  return args.trace ? perfbench::RunTraced(args) : perfbench::RunEndToEnd(args);
}
