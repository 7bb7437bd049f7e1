// Recovery idempotence (ARIES redo is restartable): crash recovery itself
// after each applied redo record, recover again over the surviving state,
// and require the final data volume to be byte-identical to the image a
// single uninterrupted recovery produces — for every SSD design.

#include <gtest/gtest.h>

#include <string>

#include "engine/database.h"
#include "fault/crash_harness.h"
#include "fault/crash_point.h"

namespace turbobp {
namespace {

class RecoveryIdempotenceTest : public ::testing::TestWithParam<SsdDesign> {};

TEST_P(RecoveryIdempotenceTest, ReCrashAtEveryRedoStepConverges) {
  if (!CrashPointsCompiledIn()) {
    GTEST_SKIP() << "built with TURBOBP_CRASH_POINTS=OFF";
  }
  CrashHarnessOptions opts;
  opts.design = GetParam();
  opts.seed = 2;
  opts.num_ops = 120;
  // No mid-run checkpoint: recovery redoes the whole durable log, so the
  // sweep covers redo steps over slot pages, heap pages and B+-tree nodes.
  opts.checkpoint_every = 0;
  CrashHarness harness(opts);
  const int max_steps = TortureSweepFromEnv({}).full ? 0 : 60;
  for (const std::string& f : harness.RunRedoIdempotenceSweep(max_steps)) {
    ADD_FAILURE() << f;
  }
}

TEST_P(RecoveryIdempotenceTest, ReCrashMidRedoAfterCheckpointConverges) {
  if (!CrashPointsCompiledIn()) {
    GTEST_SKIP() << "built with TURBOBP_CRASH_POINTS=OFF";
  }
  // With checkpoints on, redo starts at the last completed checkpoint;
  // sample the first redo steps after it.
  CrashHarnessOptions opts;
  opts.design = GetParam();
  opts.seed = 5;
  CrashHarness harness(opts);
  for (const std::string& f : harness.RunRedoIdempotenceSweep(12)) {
    ADD_FAILURE() << f;
  }
}

INSTANTIATE_TEST_SUITE_P(AllDesigns, RecoveryIdempotenceTest,
                         ::testing::Values(SsdDesign::kNoSsd,
                                           SsdDesign::kCleanWrite,
                                           SsdDesign::kDualWrite,
                                           SsdDesign::kLazyCleaning,
                                           SsdDesign::kTac),
                         [](const auto& param_info) {
                           return std::string(ToString(param_info.param));
                         });

}  // namespace
}  // namespace turbobp
