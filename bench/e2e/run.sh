#!/usr/bin/env bash
# Builds bench_e2e from this checkout, trains its fixed models once, and
# runs the end-to-end benchmark. Run from anywhere inside the checkout.
#
# One run (the last stdout line is the result JSON):
#   bench/e2e/run.sh --workload W --seed S --seconds T --trace 0|1
#
# Every workload, N untraced runs plus one traced run each:
#   bench/e2e/run.sh [--seed S] [--repeat N] [--out DIR] [--seconds T]
#                    [--quick]
#
# Compare two result directories:
#   .bench_build/e2e/bench_e2e compare A_DIR B_DIR
#
# --build-dir DIR overrides the build directory (default .bench_build/e2e).
# --quick uses tiny models and short windows: a smoke test, not a measurement.
set -euo pipefail

ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/../.." && pwd)"
cd "$ROOT"

WORKLOADS=(corpus phased_array serve_mixed sizing_session)
workload=""
seed=1
repeat=1
seconds=""
trace=0
quick=0
out=""
build=".bench_build/e2e"

while [[ $# -gt 0 ]]; do
  case "$1" in
    --workload) workload="$2"; shift 2 ;;
    --seed) seed="$2"; shift 2 ;;
    --seconds) seconds="$2"; shift 2 ;;
    --trace) trace="$2"; shift 2 ;;
    --repeat) repeat="$2"; shift 2 ;;
    --out) out="$2"; shift 2 ;;
    --build-dir) build="$2"; shift 2 ;;
    --quick) quick=1; shift ;;
    *) echo "run.sh: unknown argument $1" >&2; exit 1 ;;
  esac
done

if [[ -z "$seconds" ]]; then
  seconds="$(sed -n 's/.*"run_seconds": *\([0-9]*\).*/\1/p' BENCHMARK.json)"
fi
if [[ "$quick" == 1 ]]; then
  seconds=1
fi
# Keep the compiler's and everything else's scratch files in the checkout.
export TMPDIR="$ROOT/.bench_build/tmp"
mkdir -p "$TMPDIR"

# Build (all build output goes to stderr: stdout carries results only).
if [[ ! -f "$build/Makefile" ]]; then
  cmake -S bench/e2e -B "$build" -DCMAKE_BUILD_TYPE=Release >&2
fi
cmake --build "$build" -j 4 >&2
bin="$build/bench_e2e"

# Train once per build directory; the recipe is fixed, so the models are too.
models="$build/models"
quick_flag=()
if [[ "$quick" == 1 ]]; then
  models="$build/models-quick"
  quick_flag=(--quick)
fi
if [[ ! -f "$models/recipe.json" ]]; then
  "$bin" train --out "$models" "${quick_flag[@]}" >&2
fi

# Scratch for corpus files and the server socket: relative to the root
# (a Unix socket path must stay short) and private to this process.
work=".bench_build/e2e-work/$$"
mkdir -p "$work"
trap 'rm -rf "$work"' EXIT
rev="$(git rev-parse --short=12 HEAD 2>/dev/null || echo unknown)"

run_one() {  # workload seed record [trace-file]
  local args=(run --workload "$1" --seed "$2" --seconds "$seconds"
              --models "$models" --out "$3" --work-dir "$work"
              --bench-json BENCHMARK.json --git-rev "$rev" "${quick_flag[@]}")
  if [[ $# -ge 4 ]]; then args+=(--trace "$4"); fi
  "$bin" "${args[@]}"
}

if [[ -n "$workload" ]]; then
  dir="${out:-$build/runs}"
  mkdir -p "$dir"
  if [[ "$trace" == 1 ]]; then
    run_one "$workload" "$seed" "$dir/$workload.s$seed.traced.json" \
      "$dir/$workload.s$seed.trace.json"
  else
    run_one "$workload" "$seed" "$dir/$workload.s$seed.json"
  fi
  exit 0
fi

dir="${out:-$build/results}"
mkdir -p "$dir/traced"
status=0
if [[ "$quick" == 0 ]]; then
  for ((r = 0; r < repeat; r++)); do
    s=$((seed + r))
    for w in "${WORKLOADS[@]}"; do
      run_one "$w" "$s" "$dir/$w.s$s.json" > /dev/null || status=1
    done
  done
fi
for w in "${WORKLOADS[@]}"; do
  run_one "$w" "$seed" "$dir/traced/$w.s$seed.json" \
    "$dir/traced/$w.s$seed.trace.json" > /dev/null || status=1
done
echo "run.sh: records in $dir (status $status)" >&2
exit $status
