#!/usr/bin/env bash
# turbobp crash torture: the full deterministic crash matrix.
#
#   {noSSD, CW, DW, LC, TAC} x every TURBOBP_CRASH_POINT x every hit
#   x restart x N seeds,
#
# where a restart is {intact, torn} log tail, and under the persistent SSD
# cache also x {clean, torn-journal-tail, stale-journal,
# corrupt-frame-header, wiped} SSD image. Each scenario is recovered and held
# to the shadow oracle (exact durable contents, horizon rule, clean
# InvariantAuditor, convergent, deterministic and idempotent redo). The
# default ctest suite runs the quick subset of the same matrix; this script
# is the long-form CI job (`crash-torture`) and the local repro tool.
#
# Usage: scripts/crash_torture.sh [build-dir] [seeds...]
#   scripts/crash_torture.sh                 # build/ with seeds 1..5
#   scripts/crash_torture.sh build 7 11 13   # existing build dir, 3 seeds
#
# On failure, every violated scenario prints as a single line of the form
#   [design=LC seed=3 point=ckpt/after-ssd-flush hit=2 torn=1]
#   [design=LC seed=3 point=ckpt/after-ssd-flush hit=2 torn=0 warm ssd_fault=wiped]
# followed by what broke; CrashHarness::RunScenario(point, hit, Restart)
# replays it in isolation for debugging.

set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR="${1:-build}"
shift $(($# > 0 ? 1 : 0))
SEEDS="${*:-1 2 3 4 5}"

if [ ! -f "${BUILD_DIR}/CMakeCache.txt" ]; then
  cmake -B "${BUILD_DIR}" -S . -DCMAKE_BUILD_TYPE=Release \
    -DTURBOBP_CRASH_POINTS=ON -DTURBOBP_AUDIT=ON
fi
cmake --build "${BUILD_DIR}" -j"$(nproc)" \
  --target fault_crash_matrix_test wal_recovery_idempotence_test \
  wal_log_manager_test fault_checkpoint_flush_failure_test \
  fault_restart_matrix_test core_ssd_metadata_journal_test \
  core_restart_extension_test wal_wal_group_commit_test

echo "crash torture: full sweep (cold + warm-restart), seeds: ${SEEDS}"
TURBOBP_TORTURE_FULL=1 TURBOBP_TORTURE_SEEDS="${SEEDS}" \
  ctest --test-dir "${BUILD_DIR}" --output-on-failure -j"$(nproc)" \
  -R 'crash_matrix|recovery_idempotence|log_manager|checkpoint_flush_failure|restart_matrix|ssd_metadata_journal|restart_extension|wal_group_commit'

echo "crash torture: all scenarios recovered clean"
