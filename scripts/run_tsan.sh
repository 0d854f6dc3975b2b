#!/usr/bin/env bash
# Builds the concurrency tests with ThreadSanitizer and runs them.
# Usage: scripts/run_tsan.sh  (from anywhere inside the repo)
set -euo pipefail

cd "$(dirname "$0")/.."

cmake --preset tsan
cmake --build --preset tsan -j"$(nproc)" \
  --target thread_pool_test batch_determinism_test batch_failure_test \
  primitive_matching_test frontend_test kernel_equivalence_test \
  infer_workspace_test batch_scaling_test serve_test soak_test \
  fault_injection_test shard_test incremental_test pipeline_test util_test \
  sample_cache_test gana_shard
ctest --preset tsan
