#!/usr/bin/env bash
# Builds the concurrency-sensitive tests under ThreadSanitizer and runs them.
# With --asan, additionally runs the same tests under Address+UB sanitizers.
#
# Every suite in every flavor runs even after a failure; the script exits
# nonzero if any of them failed and lists the failures at the end.
#
# Usage: tools/run_sanitizers.sh [--asan]
set -euo pipefail

cd "$(dirname "$0")/.."

# The tests that exercise shared-state code paths: the task scheduler (one
# shared job counter published under the mutex/epoch handshake, probed by
# the determinism fuzz: 500 seeds of skewed job durations across worker
# counts 0/1/2/4/8, plus hundreds of back-to-back batches checking that no
# two running jobs share a participant, so TSan sees every claim racing the
# batch reset and the barrier), the
# relaxation and score caches (single-threaded LRUs: ASan checks the list
# splices and pinned entries outliving their eviction), the parallel
# evaluator (its caches are touched only by the submitting thread, so TSan
# reports any worker that still reaches one — through the capacity-1
# eviction churn, the thread-count-invariance runs, and the
# per-batch score memo), the
# experiment runner (replication runs fanned out as TaskScheduler jobs,
# each with its own solver and evaluator), the compiled-program fuzz (per-context register scratch must stay
# thread-private), the metrics registry (sharded counters/timers
# hammered from scheduler participants while a reader snapshots), and the LP
# frozen-fingerprint differential suite (the sparse kernels index through
# CSC arrays and column panels in every inner loop; ASan/UBSan verify those
# accesses on randomized degenerate/infeasible/unbounded instances), the
# checkpoint kill/resume harness (checkpoints are written mid-run while
# the parallel evaluator is live; the bit-identical-resume assertions run
# at eval_threads 4, so TSan sees the full snapshot-under-concurrency
# path), the SIMD scalar-vs-AVX2 differential fuzz (the 4-wide kernels
# stride raw register rows — ASan/UBSan check every ragged tail, TSan the
# lazy dispatch slot resolved from concurrent evaluations), and the
# incremental-greedy differential (the dirty-set gather/scatter indexes
# compacted sub-batch columns; ASan validates the bounds and the
# scratch-reuse runs catch state leaking between solves), and the guard
# suites (budget degradation and fault injection run whole solvers at
# eval_threads 4, so TSan sees the injection-ordinal accounting and the
# cap-degraded relaxations crossing the staged cache path), and the LP
# warm-start pool suites (basis_pool_test pins the pool's deterministic
# selection/eviction/clear contract; pool_golden_test runs pool-mode
# solvers at eval_threads 4 where every select/insert must stay on the
# submitting thread — TSan sees any stage-B worker touching the pool, and
# ASan checks the copied-basis lifetime across the fan-out).
# This is the same set labeled `sanitizer-critical` in
# tests/CMakeLists.txt.
TESTS=(task_scheduler_test metrics_test experiment_test
       relaxation_cache_test score_cache_test
       bcpop_evaluator_test parallel_evaluator_test gp_compiled_test
       simplex_differential_test checkpoint_resume_test
       gp_simd_eval_test greedy_incremental_test
       guard_test guard_degradation_test
       basis_pool_test pool_golden_test)

FAILED=()

run_flavor() {
  local name="$1" flags="$2" dir="build-$1"
  echo "=== ${name}: configuring ${dir} ==="
  cmake -B "${dir}" -S . \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DCMAKE_CXX_FLAGS="${flags} -g -O1 -fno-omit-frame-pointer" \
    -DCMAKE_EXE_LINKER_FLAGS="${flags}" \
    -DCARBON_BUILD_BENCH=OFF \
    -DCARBON_BUILD_EXAMPLES=OFF \
    -DCARBON_BUILD_TOOLS=OFF
  echo "=== ${name}: building ${TESTS[*]} ==="
  cmake --build "${dir}" -j --target "${TESTS[@]}"
  for t in "${TESTS[@]}"; do
    echo "=== ${name}: ${t} ==="
    if ! "./${dir}/tests/${t}"; then
      FAILED+=("${name}/${t}")
    fi
  done
}

run_flavor tsan "-fsanitize=thread"

if [[ "${1:-}" == "--asan" ]]; then
  run_flavor asan "-fsanitize=address,undefined"
fi

if ((${#FAILED[@]})); then
  echo "=== sanitizer runs FAILED: ${FAILED[*]} ==="
  exit 1
fi
echo "=== sanitizer runs passed ==="
