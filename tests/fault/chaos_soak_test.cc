// Chaos soak: a seeded multi-phase fault storm (hung requests, then a hard
// error burst) targets one partition's frame range while a mixed
// admit/read workload runs against a shadow oracle. The cache must stay
// live (no fetch ever waits out a stuck request: the read deadline + disk
// hedge bound every op), stay exact (every hit returns the admitted bytes,
// every refusal is a clean miss), degrade ONLY the stormed partition, and —
// once the storm passes — heal: canary probes re-enable every degraded
// partition, after which the cache serves hits again and the auditor finds
// its structure clean. CI's chaos-soak job widens the seed set via
// TURBOBP_CHAOS_SEEDS.

#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <memory>
#include <vector>

#include "core/clean_write.h"
#include "core/dual_write.h"
#include "core/lazy_cleaning.h"
#include "debug/invariant_auditor.h"
#include "fault/fault_injecting_device.h"
#include "sim/sim_executor.h"
#include "storage/page.h"
#include "storage/sim_device.h"

namespace turbobp {
namespace {

constexpr uint32_t kPage = 512;
constexpr int kNumPids = 20;
constexpr Time kSoakEnd = Seconds(10);
constexpr Time kStep = Millis(25);
// A stuck request hangs for 5s; the deadline + hedge must complete every
// fetch far under this, so a single blown bound fails the liveness check.
constexpr Time kStuckDelay = Seconds(5);
constexpr Time kLivenessBound = Seconds(1);

std::vector<uint64_t> SeedsFromEnv() {
  const char* env = std::getenv("TURBOBP_CHAOS_SEEDS");
  if (env == nullptr || *env == '\0') return {1, 2};
  std::vector<uint64_t> seeds;
  uint64_t current = 0;
  bool in_number = false;
  for (const char* p = env;; ++p) {
    if (*p >= '0' && *p <= '9') {
      current = current * 10 + static_cast<uint64_t>(*p - '0');
      in_number = true;
    } else {
      if (in_number) seeds.push_back(current);
      current = 0;
      in_number = false;
      if (*p == '\0') break;
    }
  }
  return seeds.empty() ? std::vector<uint64_t>{1, 2} : seeds;
}

// Two-phase storm over partition 0's contiguous frame range (16 frames /
// 2 partitions: device pages [0, 7]). Phase 1 produces only hung requests
// (the shape only I/O deadlines catch — no error is ever returned); phase 2
// is a hard error burst. Between the storm's end and the soak's end the
// partition has quiet time to heal.
FaultPlan StormPlan(uint64_t seed) {
  FaultPlan plan;
  plan.seed = seed;
  plan.stuck_delay = kStuckDelay;
  FaultWindow stuck;
  stuck.begin = Seconds(2);
  stuck.end = Seconds(3);
  stuck.first_page = 0;
  stuck.last_page = 7;
  stuck.stuck_io_rate = 0.8;
  FaultWindow errors;
  errors.begin = Seconds(3);
  errors.end = Seconds(6);
  errors.first_page = 0;
  errors.last_page = 7;
  errors.transient_error_rate = 0.7;
  errors.bit_flip_rate = 0.2;
  plan.windows = {stuck, errors};
  return plan;
}

class ChaosSoakTest : public ::testing::TestWithParam<SsdDesign> {
 protected:
  void SetUp() override {
    executor_ = std::make_unique<SimExecutor>();
    ssd_dev_ = std::make_unique<SimDevice>(64, kPage,
                                           std::make_unique<SsdModel>());
    disk_dev_ = std::make_unique<SimDevice>(1 << 12, kPage,
                                            std::make_unique<HddModel>());
    disk_ = std::make_unique<DiskManager>(disk_dev_.get());
    opts_.num_frames = 16;
    opts_.num_partitions = 2;
    opts_.aggressive_fill = 0.95;
    opts_.throttle_queue_limit = 1000;
    opts_.lc_dirty_fraction = 0.5;
    opts_.lc_group_pages = 4;
    opts_.io_retry_limit = 2;
    opts_.degrade_error_limit = 4;
    opts_.error_window = Seconds(2);
    opts_.quiet_window = Millis(500);
    opts_.read_deadline = Millis(20);
    opts_.scrub_frames_per_tick = 8;
    // Every page the soak touches lives on disk with identical content:
    // clean-frame semantics (and the hedge / scrub-repair paths) depend on
    // the disk copy being current.
    IoContext setup{.now = 0, .charge = false, .executor = executor_.get()};
    for (PageId pid = 1; pid <= kNumPids; ++pid) {
      disk_->WritePage(pid, Oracle(pid), setup);
    }
  }

  void Build(const FaultPlan& plan) {
    fault_dev_ = std::make_unique<FaultInjectingDevice>(ssd_dev_.get(), plan);
    switch (GetParam()) {
      case SsdDesign::kCleanWrite:
        cache_ = std::make_unique<CleanWriteCache>(
            fault_dev_.get(), disk_.get(), opts_, executor_.get());
        break;
      case SsdDesign::kDualWrite:
        cache_ = std::make_unique<DualWriteCache>(
            fault_dev_.get(), disk_.get(), opts_, executor_.get());
        break;
      case SsdDesign::kLazyCleaning:
        cache_ = std::make_unique<LazyCleaningCache>(
            fault_dev_.get(), disk_.get(), opts_, executor_.get());
        break;
      default:
        FAIL() << "unsupported design for this fixture";
    }
  }

  std::vector<uint8_t> Oracle(PageId pid) {
    std::vector<uint8_t> buf(kPage);
    PageView v(buf.data(), kPage);
    v.Format(pid, PageType::kRaw);
    std::memset(v.payload(), static_cast<uint8_t>(0x40 + pid),
                v.payload_bytes());
    v.SealChecksum();
    return buf;
  }

  IoContext Ctx(Time now) {
    IoContext ctx;
    ctx.now = std::max(now, executor_->now());
    ctx.executor = executor_.get();
    return ctx;
  }

  SsdCacheBase& cache() { return *static_cast<SsdCacheBase*>(cache_.get()); }

  // One soak pass: pre-storm warmup, the storm, and the post-storm tail,
  // with the patrol scrubber ticking throughout. Returns the worst
  // single-fetch virtual-time cost observed (the liveness signal).
  Time RunSoak(uint64_t seed, int64_t* post_storm_hits = nullptr) {
    uint64_t rng = seed * 0x9E3779B97F4A7C15ull + 1;
    const auto next = [&rng] {
      rng ^= rng << 13;
      rng ^= rng >> 7;
      rng ^= rng << 17;
      return rng;
    };
    Time max_fetch = 0;
    for (Time t = 0; t < kSoakEnd; t += kStep) {
      const PageId pid = 1 + next() % kNumPids;
      IoContext ctx = Ctx(t);
      if (next() % 4 == 0) {
        const std::vector<uint8_t> page = Oracle(pid);
        cache_->OnEvictClean(pid, page, AccessKind::kRandom, ctx);
      } else {
        std::vector<uint8_t> out(kPage);
        const Time begin = ctx.now;
        Status error;
        const bool hit = cache_->TryReadPage(pid, out, ctx, &error);
        max_fetch = std::max(max_fetch, ctx.now - begin);
        if (hit) {
          EXPECT_EQ(out, Oracle(pid)) << "seed " << seed << " pid " << pid;
          if (post_storm_hits != nullptr && t >= Seconds(7)) {
            ++*post_storm_hits;
          }
        } else {
          // Clean-page traffic: a refusal must be a plain miss (the disk
          // copy is current), never a hard error.
          EXPECT_TRUE(error.ok()) << "seed " << seed << ": "
                                  << error.ToString();
        }
      }
      if (t % Millis(100) == 0) {
        IoContext sctx = Ctx(t);
        cache().ScrubTick(sctx);
      }
    }
    return max_fetch;
  }

  std::unique_ptr<SimExecutor> executor_;
  std::unique_ptr<SimDevice> ssd_dev_;
  std::unique_ptr<SimDevice> disk_dev_;
  std::unique_ptr<DiskManager> disk_;
  std::unique_ptr<FaultInjectingDevice> fault_dev_;
  SsdCacheOptions opts_;
  std::unique_ptr<SsdManager> cache_;
};

TEST_P(ChaosSoakTest, StormDegradesHealsAndStaysExact) {
  for (const uint64_t seed : SeedsFromEnv()) {
    SetUp();  // fresh devices per seed
    Build(StormPlan(seed));

    int64_t post_storm_hits = 0;
    const Time max_fetch = RunSoak(seed, &post_storm_hits);

    // Liveness: a stuck request hangs 5s, yet no fetch may cost anywhere
    // near that — the deadline fires and the hedge serves from disk.
    EXPECT_LE(max_fetch, kLivenessBound)
        << "seed " << seed << ": a fetch waited out a hung request";
    EXPECT_GT(fault_dev_->fault_stats().stuck_ios, 0)
        << "seed " << seed << ": the storm produced no hung requests";

    // The storm must have been strong enough to take partition 0 down, and
    // the deadline machinery must have engaged on the way.
    SsdManagerStats s = cache_->stats();
    EXPECT_GE(s.partitions_degraded, 1)
        << "seed " << seed << ": storm never degraded a partition";
    EXPECT_GT(s.io_timeouts, 0) << "seed " << seed;
    EXPECT_GT(s.hedged_reads, 0) << "seed " << seed;

    // Drain the recovery: quiet time plus patrol ticks until every
    // partition is back. Bounded — failing to heal is a test failure, not
    // a hang.
    Time t = kSoakEnd;
    for (int i = 0; i < 60 && cache().degraded_partition_count() > 0; ++i) {
      t += Millis(250);
      IoContext ctx = Ctx(t);
      cache().ScrubTick(ctx);
    }
    EXPECT_EQ(cache().degraded_partition_count(), 0)
        << "seed " << seed << ": a partition never re-enabled";
    EXPECT_FALSE(cache_->degraded()) << "seed " << seed;
    s = cache_->stats();
    EXPECT_EQ(s.partitions_recovered, s.partitions_degraded)
        << "seed " << seed;

    // Healed means SERVING: re-admissions into the recovered partition take
    // and read back exact.
    int64_t healed_hits = 0;
    for (PageId pid = 1; pid <= kNumPids; ++pid) {
      IoContext ctx = Ctx(t + Seconds(1));
      cache_->OnEvictClean(pid, Oracle(pid), AccessKind::kRandom, ctx);
      std::vector<uint8_t> out(kPage);
      IoContext rctx = Ctx(t + Seconds(2));
      if (cache_->TryReadPage(pid, out, rctx)) {
        EXPECT_EQ(out, Oracle(pid)) << "seed " << seed << " pid " << pid;
        ++healed_hits;
      }
    }
    EXPECT_GT(healed_hits, 0)
        << "seed " << seed << ": healed cache serves nothing";
    (void)post_storm_hits;  // informational; healed_hits is the hard check

    const AuditReport audit = InvariantAuditor::AuditSsdCache(cache());
    EXPECT_TRUE(audit.ok()) << "seed " << seed << ": " << audit.ToString();
  }
}

INSTANTIATE_TEST_SUITE_P(AllCacheDesigns, ChaosSoakTest,
                         ::testing::Values(SsdDesign::kCleanWrite,
                                           SsdDesign::kDualWrite,
                                           SsdDesign::kLazyCleaning),
                         [](const auto& param_info) {
                           return std::string(ToString(param_info.param));
                         });

}  // namespace
}  // namespace turbobp
