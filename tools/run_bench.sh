#!/usr/bin/env bash
# Builds and runs the microbenchmarks, leaving their results at the
# repository root:
#   BENCH_gp_eval.json       compiled GP scoring-tree evaluation: scalar vs
#                            SIMD kernels, plus the incremental-greedy
#                            rescoring fractions;
#   BENCH_lp_simplex.json    the production simplex kernels (column-panel
#                            pricing, sparse FTRAN) vs bench-local dense
#                            loops, and the baseline-vs-pool evaluator
#                            replay;
#   BENCH_parallel_eval.json the work-stealing TaskScheduler vs a serial
#                            loop on the calling thread over skewed job-cost
#                            grids, plus the ParallelEvaluator replay across
#                            thread counts.
#
# After regenerating, each BENCH_*.json is diffed against the committed
# baseline (warn-only: timing drift across machines is expected; the diff
# is a prompt to eyeball speedup ratios, not a gate).
#
# BENCH_gp_eval.json records the machine's SIMD situation in its "simd"
# block (cpu_avx2, compiled_avx2, dispatched kernel, lanes), so a checked-in
# result is always attributable to the hardware and build that produced it;
# the script echoes the same report plus the host CPU feature flags.
#
# Usage: tools/run_bench.sh [--commit] [build-dir]   (default: build)
#   --commit  git-commits the regenerated BENCH_*.json files.
set -euo pipefail

cd "$(dirname "$0")/.."

COMMIT=0
BUILD_DIR=build
for arg in "$@"; do
  case "${arg}" in
    --commit) COMMIT=1 ;;
    *) BUILD_DIR="${arg}" ;;
  esac
done

if [[ -r /proc/cpuinfo ]]; then
  echo "cpu: $(grep -m1 'model name' /proc/cpuinfo | cut -d: -f2- | sed 's/^ //')"
  echo "simd flags: $(grep -m1 '^flags' /proc/cpuinfo |
    tr ' ' '\n' | grep -E '^(sse2|sse4_1|sse4_2|avx|avx2|fma|avx512f)$' |
    tr '\n' ' ')"
fi

RESULTS=(BENCH_gp_eval.json BENCH_lp_simplex.json BENCH_parallel_eval.json)

cmake -B "${BUILD_DIR}" -S . -DCMAKE_BUILD_TYPE=Release -DCARBON_BUILD_BENCH=ON
cmake --build "${BUILD_DIR}" -j \
  --target micro_gp_eval micro_lp_simplex micro_parallel_eval
"./${BUILD_DIR}/bench/micro_gp_eval" BENCH_gp_eval.json
"./${BUILD_DIR}/bench/micro_lp_simplex" BENCH_lp_simplex.json
"./${BUILD_DIR}/bench/micro_parallel_eval" BENCH_parallel_eval.json

for result in "${RESULTS[@]}"; do
  if git cat-file -e "HEAD:${result}" 2>/dev/null; then
    if ! git diff --quiet -- "${result}"; then
      echo "WARN: ${result} drifted from the committed baseline:"
      git --no-pager diff --stat -- "${result}"
    fi
  else
    echo "WARN: ${result} has no committed baseline yet."
  fi
done

if ((COMMIT)); then
  git add "${RESULTS[@]}"
  git commit -m "Regenerate benchmark results"
fi
