#!/usr/bin/env bash
# Builds the release preset and runs every bench target, collecting the
# perf-record benches' BENCH_*.json files at the repo root.
#
# Perf-record benches (primitive_matching, incremental) verify that
# their accelerated path is bit-identical to the reference path and say
# so in the record's "identical" field. Each record is written to a
# temporary path first; a run whose "identical" field is false never
# overwrites a checked-in good record -- the stale record is kept, the
# bad one is preserved next to it as *.rejected.json, and the script
# exits nonzero. The same refusal applies to a perf regression: a new
# record reporting "speedup_target_met":false never replaces an existing
# record that met the target.
#
# Usage: scripts/run_benches.sh  (from anywhere inside the repo;
#        GANA_BENCH_QUICK=1 for a fast smoke pass)
set -euo pipefail

cd "$(dirname "$0")/.."

cmake --preset release
cmake --build --preset release -j"$(nproc)"

bin=build-release/bench

# Report-style benches: tables and figures on stdout, no JSON record.
for b in table1_datasets table2_test_accuracy fig5_filter_size \
         ablation_layers fig6_layout fig7_phased_array runtime_table \
         ablation_features ablation_preprocess ablation_conv; do
  echo "=== $b ==="
  "$bin/$b"
done

# Perf-record benches: write BENCH_<name>.json, guarded on exit status,
# "identical", and "speedup_target_met" (see promote_bench_record.sh --
# the exit-status check runs before promotion, so a bench that crashed
# or failed verification after writing its record never overwrites a
# good one).
status=0
for b in primitive_matching incremental; do
  echo "=== $b ==="
  record="BENCH_$b.json"
  tmp="$record.tmp"
  bench_status=0
  "$bin/$b" "$tmp" || bench_status=$?
  if ! scripts/promote_bench_record.sh "$bench_status" "$tmp" "$record"; then
    status=1
  fi
  if [ "$bench_status" -ne 0 ]; then
    echo "$b exited with status $bench_status" >&2
  fi
done

exit $status
