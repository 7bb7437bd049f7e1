// The restart-torture matrix for the persistent SSD cache: run each design
// with persistent_ssd_cache on, cut power, damage the surviving SSD image in
// each of five ways ({clean, torn journal tail, stale journal + newer
// frames, corrupted frame header, wiped device}), and hold warm recovery to
// the oracle —
// exact contents through the buffer pool, the horizon rule (no re-attached
// frame beyond the WAL durable horizon), clean audits including per-frame
// header verification, convergent and idempotent redo. Damage may cost
// warmth (fewer frames re-attached), never correctness.

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "engine/database.h"
#include "fault/crash_harness.h"
#include "fault/crash_point.h"

namespace turbobp {
namespace {

constexpr char kEndPoint[] = "end-of-workload";

constexpr SsdRestartFault kAllFaults[] = {
    SsdRestartFault::kClean, SsdRestartFault::kTornJournalTail,
    SsdRestartFault::kStaleJournal, SsdRestartFault::kCorruptFrameHeader,
    SsdRestartFault::kWiped};

std::vector<uint64_t> SeedsFromEnv() {
  const char* env = std::getenv("TURBOBP_TORTURE_SEEDS");
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

// The default run is the quick subset; CI's restart-torture job sets
// TURBOBP_TORTURE_FULL / TURBOBP_TORTURE_SEEDS for the full sweep.
bool FullSweep() {
  const char* env = std::getenv("TURBOBP_TORTURE_FULL");
  return env != nullptr && *env != '\0' && *env != '0';
}

CrashHarnessOptions PersistentOptions(SsdDesign design, uint64_t seed) {
  CrashHarnessOptions opts;
  opts.design = design;
  opts.seed = seed;
  opts.persistent_ssd = true;
  return opts;
}

class RestartMatrixTest : public ::testing::TestWithParam<SsdDesign> {};

// {design} x {fault} x {seed} at the maximal-redo-tail crash (quiescent end
// of workload, largest surviving SSD population).
TEST_P(RestartMatrixTest, WarmRestartSurvivesEveryRestartFault) {
  if (!CrashPointsCompiledIn()) {
    GTEST_SKIP() << "built with TURBOBP_CRASH_POINTS=OFF";
  }
  for (const uint64_t seed : SeedsFromEnv()) {
    for (const SsdRestartFault fault : kAllFaults) {
      CrashHarness harness(PersistentOptions(GetParam(), seed));
      const CrashScenarioResult r =
          harness.RunWarmRestartScenario(kEndPoint, /*hit=*/1, fault);
      ASSERT_TRUE(r.triggered);
      for (const std::string& f : r.failures) ADD_FAILURE() << f;
      EXPECT_GT(r.oracle_cells, 0);

      if (fault == SsdRestartFault::kClean) {
        // An undamaged image must actually warm the cache: the journal is
        // adopted and at least one frame survives reconciliation.
        EXPECT_TRUE(r.persistent.journal_valid)
            << ToString(GetParam()) << " seed " << seed;
        EXPECT_GT(r.persistent.restored, 0u)
            << ToString(GetParam()) << " seed " << seed
            << " warm restart re-attached nothing";
      }
      if (fault == SsdRestartFault::kStaleJournal && r.ssd_fault_armed) {
        // A destroyed seal forces the fallback ladder: older epoch or no
        // journal, supplemented by the lazy frame scan.
        EXPECT_TRUE(r.persistent.scan_fallback)
            << ToString(GetParam()) << " seed " << seed;
      }
      if (fault == SsdRestartFault::kCorruptFrameHeader && r.ssd_fault_armed) {
        // The damaged frame must be caught by content verification (and
        // counted), not silently served.
        EXPECT_GE(r.persistent.dropped_verification, 1u)
            << ToString(GetParam()) << " seed " << seed;
      }
      if (fault == SsdRestartFault::kWiped) {
        // A replaced device holds nothing to re-attach: the disk and the
        // WAL alone carried the exact oracle above.
        EXPECT_FALSE(r.persistent.journal_valid)
            << ToString(GetParam()) << " seed " << seed;
        EXPECT_EQ(r.persistent.restored, 0u)
            << ToString(GetParam()) << " seed " << seed;
      }
    }
  }
}

// Crash-during-heal: with the self-healing exercise armed, the workload
// corrupts a clean frame mid-run (scrub quarantines and repairs it) and
// degrades partition 0 (a later canary probe re-enables it), so the three
// healing crash points fire. Power cuts at each of them — the repaired
// admission staged but maybe unjournaled, the canary freshly landed on the
// device, the partition just re-enabled — must recover oracle-exact under
// every restart fault: healing is journal-consistent, never a correctness
// hazard.
TEST_P(RestartMatrixTest, CrashDuringHealRecoversExact) {
  if (!CrashPointsCompiledIn()) {
    GTEST_SKIP() << "built with TURBOBP_CRASH_POINTS=OFF";
  }
  for (const uint64_t seed : SeedsFromEnv()) {
    CrashHarnessOptions opts = PersistentOptions(GetParam(), seed);
    opts.exercise_healing = true;
    CrashHarness harness(opts);
    const auto points = harness.ProbeCrashPoints();
    ASSERT_TRUE(points.contains("ssd/scrub-repair"))
        << ToString(GetParam()) << " seed " << seed
        << ": patrol never repaired the corrupted frame";
    ASSERT_TRUE(points.contains("ssd/canary-write"))
        << ToString(GetParam()) << " seed " << seed
        << ": no canary probe reached the device";
    ASSERT_TRUE(points.contains("ssd/reenable"))
        << ToString(GetParam()) << " seed " << seed
        << ": the degraded partition never re-enabled";
    for (const char* point :
         {"ssd/scrub-repair", "ssd/canary-write", "ssd/reenable"}) {
      for (const SsdRestartFault fault : kAllFaults) {
        const CrashScenarioResult r =
            harness.RunWarmRestartScenario(point, /*hit=*/1, fault);
        ASSERT_TRUE(r.triggered) << point;
        for (const std::string& f : r.failures) ADD_FAILURE() << f;
        EXPECT_GT(r.oracle_cells, 0);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllSsdDesigns, RestartMatrixTest,
                         ::testing::Values(SsdDesign::kCleanWrite,
                                           SsdDesign::kDualWrite,
                                           SsdDesign::kLazyCleaning,
                                           SsdDesign::kTac),
                         [](const auto& param_info) {
                           return std::string(ToString(param_info.param));
                         });

// The full warm matrix for the richest design: every crash point that fires
// under persistent LC (including the journal's own durability edges) x every
// restart fault.
TEST(RestartTortureMatrixTest, LazyCleaningWarmMatrixAcrossCrashPoints) {
  if (!CrashPointsCompiledIn()) {
    GTEST_SKIP() << "built with TURBOBP_CRASH_POINTS=OFF";
  }
  CrashHarness harness(PersistentOptions(SsdDesign::kLazyCleaning, 1));
  const CrashMatrixResult m = harness.RunWarmRestartMatrix(!FullSweep());
  for (const std::string& f : m.failures) ADD_FAILURE() << f;
  EXPECT_GE(m.points_covered, 10);
  EXPECT_GT(m.scenarios_run, 4 * m.points_covered);
}

// Warm restart before ANY completed checkpoint: redo has no checkpoint to
// start from and must scan the whole log. A dropped journal entry (e.g. a
// frame whose header fails verification) then forces redo to rebuild that
// page from its disk base — the log prefix below the restored frames'
// min-dirty LSN must NOT be skipped, or the dropped page silently loses its
// earliest committed updates. (Regression: the redo-start override used to
// replace the "no checkpoint: scan from the beginning" sentinel.)
TEST(RestartTortureMatrixTest, NoCheckpointWarmRestartCoversDroppedFrames) {
  if (!CrashPointsCompiledIn()) {
    GTEST_SKIP() << "built with TURBOBP_CRASH_POINTS=OFF";
  }
  for (const uint64_t seed : SeedsFromEnv()) {
    for (const SsdRestartFault fault :
         {SsdRestartFault::kClean, SsdRestartFault::kCorruptFrameHeader}) {
      CrashHarnessOptions opts =
          PersistentOptions(SsdDesign::kLazyCleaning, seed);
      opts.checkpoint_every = 0;  // crash before any checkpoint exists
      CrashHarness harness(opts);
      const CrashScenarioResult r =
          harness.RunWarmRestartScenario(kEndPoint, /*hit=*/1, fault);
      ASSERT_TRUE(r.triggered);
      for (const std::string& f : r.failures) ADD_FAILURE() << f;
      EXPECT_GT(r.oracle_cells, 0);
    }
  }
}

// The async I/O engine's submission queue is volatile: a write acknowledged
// by Submit but not yet issued has moved no bytes, so a crash on the
// "io/queued-write" edge loses it outright — it must NOT be treated as
// durable. The WAL rule (log forced through the window's max LSN before any
// Submit) is what makes the loss recoverable; this scenario holds recovery
// to the exact-oracle standard on both engine edges, cold and warm.
TEST(RestartTortureMatrixTest, QueuedButUnsubmittedWriteIsNotDurable) {
  if (!CrashPointsCompiledIn()) {
    GTEST_SKIP() << "built with TURBOBP_CRASH_POINTS=OFF";
  }
  CrashHarness harness(PersistentOptions(SsdDesign::kLazyCleaning, 1));
  const auto points = harness.ProbeCrashPoints();
  ASSERT_TRUE(points.contains("io/queued-write"))
      << "checkpoint drain never staged a write on the engine";
  ASSERT_TRUE(points.contains("io/submitted-write"))
      << "engine never issued a write to the device";

  for (const char* point : {"io/queued-write", "io/submitted-write"}) {
    // Cold: the SSD is reformatted, redo alone rebuilds the lost write.
    CrashHarnessOptions cold;
    cold.design = SsdDesign::kLazyCleaning;
    cold.seed = 1;
    CrashScenarioResult r =
        CrashHarness(cold).RunScenario(point, /*hit=*/1, /*torn_tail=*/false);
    ASSERT_TRUE(r.triggered) << point;
    for (const std::string& f : r.failures) ADD_FAILURE() << f;
    EXPECT_GT(r.oracle_cells, 0);

    // Warm: surviving SSD frames re-attach around the lost disk write.
    r = harness.RunWarmRestartScenario(point, /*hit=*/1,
                                       SsdRestartFault::kClean);
    ASSERT_TRUE(r.triggered) << point;
    for (const std::string& f : r.failures) ADD_FAILURE() << f;
    EXPECT_GT(r.oracle_cells, 0);
  }
}

// The warm verifier must report a recovery bug, labelled with its restart
// fault, rather than crash or flood: the broken LC checkpoint (no SSD-dirty
// drain) with a wiped SSD leaves disk + WAL short of updates whose only copy
// died with the device. Every failure carries the warm label, and the
// oracle check stops after its bounded share.
TEST(RestartTortureMatrixTest, WarmFailuresCarryTheRestartFaultLabel) {
  if (!CrashPointsCompiledIn()) {
    GTEST_SKIP() << "built with TURBOBP_CRASH_POINTS=OFF";
  }
  bool caught = false;
  for (uint64_t seed = 1; seed <= 3 && !caught; ++seed) {
    CrashHarnessOptions opts =
        PersistentOptions(SsdDesign::kLazyCleaning, seed);
    opts.break_lc_checkpoint = true;
    const CrashScenarioResult r = CrashHarness(opts).RunWarmRestartScenario(
        "ckpt/end-durable", /*hit=*/1, SsdRestartFault::kWiped);
    ASSERT_TRUE(r.triggered);
    caught = !r.ok();
    int oracle_failures = 0;
    for (const std::string& f : r.failures) {
      EXPECT_NE(f.find(" warm ssd_fault=wiped] "), std::string::npos) << f;
      if (f.find("] oracle") != std::string::npos) ++oracle_failures;
    }
    EXPECT_LE(oracle_failures, 8);
  }
  EXPECT_TRUE(caught) << "broken LC checkpoint with a wiped SSD produced no "
                         "warm oracle violation";
}

// Persistent mode must not regress the classic crash-matrix contract: the
// full crash matrix (clean and torn log tails) stays exact with the journal
// running underneath — its recovery is now warm, so the oracle reads through
// the buffer pool — and the journal's durability edges fire.
TEST(RestartTortureMatrixTest, PersistentModeKeepsColdMatrixExact) {
  if (!CrashPointsCompiledIn()) {
    GTEST_SKIP() << "built with TURBOBP_CRASH_POINTS=OFF";
  }
  CrashHarness harness(PersistentOptions(SsdDesign::kLazyCleaning, 1));
  const auto points = harness.ProbeCrashPoints();
  EXPECT_TRUE(points.contains("ssd/journal-append"))
      << "journal append edge never fired";
  EXPECT_TRUE(points.contains("ssd/journal-seal"))
      << "journal seal edge never fired";
  const CrashMatrixResult m = harness.RunMatrix(/*quick=*/true);
  for (const std::string& f : m.failures) ADD_FAILURE() << f;
}

}  // namespace
}  // namespace turbobp
