#!/usr/bin/env bash
# Builds the error-path tests with AddressSanitizer + UBSan and runs
# them, including the full malformed-netlist mutation corpus.
# Usage: scripts/run_asan.sh  (from anywhere inside the repo)
set -euo pipefail

cd "$(dirname "$0")/.."

cmake --preset asan
cmake --build --preset asan -j"$(nproc)" \
  --target corpus_harness_test robustness_test diag_test \
  batch_failure_test spice_parser_test spice_flatten_test \
  spice_preprocess_test graph_test vf2_test \
  primitive_matching_test frontend_test kernel_equivalence_test \
  infer_workspace_test batch_scaling_test serve_test soak_test deadline_test \
  fault_injection_test diag_json_test util_test shard_test \
  incremental_test artifact_test pipeline_test linalg_test thread_pool_test \
  card_order_test gana_shard
ctest --preset asan
