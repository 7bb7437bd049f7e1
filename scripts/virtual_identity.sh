#!/usr/bin/env bash
# Virtual-time identity check between two builds of the tree.
#
#   scripts/virtual_identity.sh PARENT_BUILD CHANGE_BUILD
#
# Both arguments are CMake build directories (each holding bench/). The
# script runs the quick (TURBOBP_QUICK=1) figure benches below from both
# builds, side by side in scratch directories, and diffs their stdout. Their
# numbers are virtual time and none of them prints host time, so a change
# that only touches host-side code must leave every stdout byte-identical.
# The set covers all four SSD designs (CW, DW, LC, TAC) and, through
# bench_analysis_restart_time, the cold and persistent warm restarts;
# perfbench runs only LC and DW and never restarts.
#
# These benches write no BENCH_*.json. If either side writes one, the check
# fails: a bench that starts emitting JSON needs its host-time fields
# handled here before its output can be compared.
#
# Exit status: 0 identical, 1 a difference or a failed run, 2 usage error.

set -u

if [ $# -ne 2 ]; then
  echo "usage: $0 PARENT_BUILD CHANGE_BUILD" >&2
  exit 2
fi
parent=$(cd "$1" 2>/dev/null && pwd) || { echo "no directory $1" >&2; exit 2; }
change=$(cd "$2" 2>/dev/null && pwd) || { echo "no directory $2" >&2; exit 2; }

benches=(bench_fig3_copy_states bench_fig5_tpcc_speedup
         bench_fig5_tpch_speedup bench_fig5_tpce_speedup
         bench_fig7_lc_lambda bench_ablation_tac_waste
         bench_analysis_restart_time)

work=$(mktemp -d "${TMPDIR:-/tmp}/virtual_identity.XXXXXX")
trap 'rm -rf "$work"' EXIT

fail=0
for b in "${benches[@]}"; do
  mkdir -p "$work/parent/$b" "$work/change/$b"
  (cd "$work/parent/$b" && TURBOBP_QUICK=1 "$parent/bench/$b" > stdout.txt 2> stderr.txt) &
  ppid=$!
  (cd "$work/change/$b" && TURBOBP_QUICK=1 "$change/bench/$b" > stdout.txt 2> stderr.txt) &
  cpid=$!
  wait "$ppid"; prc=$?
  wait "$cpid"; crc=$?
  if [ "$prc" -ne 0 ] || [ "$crc" -ne 0 ]; then
    echo "FAIL $b: exit status parent=$prc change=$crc"
    fail=1
    continue
  fi
  status=identical
  json=$(cd "$work" && ls parent/"$b"/BENCH_*.json change/"$b"/BENCH_*.json 2>/dev/null)
  if [ -n "$json" ]; then
    echo "FAIL $b: wrote JSON this script does not compare:" $json
    status=different
  fi
  if ! diff -u "$work/parent/$b/stdout.txt" "$work/change/$b/stdout.txt" \
       > "$work/$b.stdout.diff"; then
    echo "FAIL $b: stdout differs"
    head -40 "$work/$b.stdout.diff"
    status=different
  fi
  echo "$status $b"
  [ "$status" = identical ] || fail=1
done

if [ "$fail" -eq 0 ]; then
  echo "virtual identity: OK"
else
  echo "virtual identity: FAILED"
fi
exit "$fail"
