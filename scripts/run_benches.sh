#!/usr/bin/env bash
# Builds the release preset and runs every report bench: the paper's
# tables and figures, ablations and the runtime table, on stdout. The
# performance record is bench/e2e (bench/e2e/run.sh), not these.
#
# Usage: scripts/run_benches.sh  (from anywhere inside the repo;
#        GANA_BENCH_QUICK=1 for a fast smoke pass)
set -euo pipefail

cd "$(dirname "$0")/.."

cmake --preset release
cmake --build --preset release -j"$(nproc)"

bin=build-release/bench

for b in table1_datasets table2_test_accuracy fig5_filter_size \
         ablation_layers fig6_layout fig7_phased_array runtime_table \
         ablation_features ablation_preprocess ablation_conv; do
  echo "=== $b ==="
  "$bin/$b"
done
