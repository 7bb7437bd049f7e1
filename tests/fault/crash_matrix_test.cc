// The ISSUE's crash matrix: for every SSD design, crash at every
// instrumented durability-ordering edge (fault/crash_point.h), with a clean
// and a torn log tail, recover, and hold recovery to the oracle — exact
// durable contents, clean invariant audit, convergent and idempotent redo.
// The default run is the quick one-seed subset; scripts/crash_torture.sh
// sets TURBOBP_TORTURE_FULL / TURBOBP_TORTURE_SEEDS for the full sweep.

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "engine/database.h"
#include "fault/crash_harness.h"
#include "fault/crash_point.h"

namespace turbobp {
namespace {

class CrashMatrixTest : public ::testing::TestWithParam<SsdDesign> {};

TEST_P(CrashMatrixTest, RecoversAtEveryCrashPointCleanAndTorn) {
  if (!CrashPointsCompiledIn()) {
    GTEST_SKIP() << "built with TURBOBP_CRASH_POINTS=OFF";
  }
  const TortureSweep sweep = TortureSweepFromEnv({1});
  for (const uint64_t seed : sweep.seeds) {
    CrashHarnessOptions opts;
    opts.design = GetParam();
    opts.seed = seed;
    CrashHarness harness(opts);
    const CrashMatrixResult m = harness.RunMatrix(/*quick=*/!sweep.full);
    // Each failure already carries its {design, crash_point, hit, seed,
    // torn} tuple — exactly what scripts/crash_torture.sh greps for.
    for (const std::string& f : m.failures) ADD_FAILURE() << f;
    EXPECT_GE(m.points_covered, 15)
        << "design " << ToString(GetParam()) << " seed " << seed
        << " exercised too few crash points";
    EXPECT_GT(m.scenarios_run, 2 * m.points_covered);
  }
}

INSTANTIATE_TEST_SUITE_P(AllDesigns, CrashMatrixTest,
                         ::testing::Values(SsdDesign::kNoSsd,
                                           SsdDesign::kCleanWrite,
                                           SsdDesign::kDualWrite,
                                           SsdDesign::kLazyCleaning,
                                           SsdDesign::kTac),
                         [](const auto& param_info) {
                           return std::string(ToString(param_info.param));
                         });

TEST(CrashPointCoverageTest, UnionAcrossDesignsCoversEveryDurabilityEdge) {
  if (!CrashPointsCompiledIn()) {
    GTEST_SKIP() << "built with TURBOBP_CRASH_POINTS=OFF";
  }
  std::set<std::string> all;
  for (const SsdDesign design :
       {SsdDesign::kNoSsd, SsdDesign::kCleanWrite, SsdDesign::kDualWrite,
        SsdDesign::kLazyCleaning, SsdDesign::kTac}) {
    CrashHarnessOptions opts;
    opts.design = design;
    CrashHarness harness(opts);
    for (const auto& [point, hits] : harness.ProbeCrashPoints()) {
      EXPECT_GT(hits, 0);
      all.insert(point);
    }
  }
  EXPECT_GE(all.size(), 18u);
  // The load-bearing edges of every subsystem must be present by name.
  for (const char* point :
       {"wal/append", "wal/flush-begin", "wal/flush-device",
        "wal/flush-durable", "wal/commit-force", "ckpt/begin",
        "ckpt/after-pool-flush", "ckpt/after-ssd-flush",
        "ckpt/before-end-flush", "ckpt/end-durable", "bp/evict-after-wal",
        "bp/flush-page", "disk/write-pages", "ssd/frame-write", "ssd/admit",
        "lc/clean-disk-write", "heap/append", "btree/split"}) {
    EXPECT_TRUE(all.contains(point)) << "crash point never fired: " << point;
  }
}

// The harness must be able to CATCH a recovery bug, not just bless correct
// code: an LC checkpoint that skips the SSD-dirty drain but still writes
// its end record advances the recovery LSN past updates whose newest copy
// died with the SSD — a crash right after that checkpoint must surface an
// oracle violation.
TEST(CrashMatrixNegativeTest, BrokenLcCheckpointIsCaught) {
  if (!CrashPointsCompiledIn()) {
    GTEST_SKIP() << "built with TURBOBP_CRASH_POINTS=OFF";
  }
  bool caught = false;
  for (uint64_t seed = 1; seed <= 3 && !caught; ++seed) {
    CrashHarnessOptions opts;
    opts.design = SsdDesign::kLazyCleaning;
    opts.seed = seed;
    opts.break_lc_checkpoint = true;
    CrashHarness harness(opts);
    const CrashScenarioResult r =
        harness.RunScenario("ckpt/end-durable", /*hit=*/1, Restart{});
    ASSERT_TRUE(r.triggered);
    caught = !r.ok();
  }
  EXPECT_TRUE(caught) << "deliberately broken LC checkpoint (skipped "
                         "SSD-dirty drain) produced no oracle violation";
}

// Control for the negative test: the same backdoor is harmless for a design
// with no dirty SSD pages, so a violation above really is the LC drain's.
TEST(CrashMatrixNegativeTest, SkippedDrainIsHarmlessWithoutDirtySsdPages) {
  if (!CrashPointsCompiledIn()) {
    GTEST_SKIP() << "built with TURBOBP_CRASH_POINTS=OFF";
  }
  CrashHarnessOptions opts;
  opts.design = SsdDesign::kCleanWrite;
  opts.break_lc_checkpoint = true;
  CrashHarness harness(opts);
  const CrashScenarioResult r =
      harness.RunScenario("ckpt/end-durable", /*hit=*/1, Restart{});
  ASSERT_TRUE(r.triggered);
  for (const std::string& f : r.failures) ADD_FAILURE() << f;
}

// Without the persistent cache the SSD is reformatted at restart: there is
// no surviving image to damage, so asking for a damaged one is a misuse.
TEST(CrashHarnessDeathTest, DamagedSsdRestartNeedsThePersistentCache) {
  CrashHarnessOptions opts;
  opts.design = SsdDesign::kLazyCleaning;
  CrashHarness harness(opts);
  EXPECT_DEATH(harness.RunScenario("end-of-workload", /*hit=*/1,
                                   {.ssd = SsdRestartFault::kWiped}),
               "persistent_ssd");
}

}  // namespace
}  // namespace turbobp
