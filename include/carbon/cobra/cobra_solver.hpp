// COBRA — co-evolutionary bi-level algorithm of Legillon, Liefooghe & Talbi
// (CEC 2012), the paper's baseline (Algorithm 1).
//
// Two populations evolve the two decision vectors directly:
//   * upper population: pricings (real-coded GA, same operators as CARBON);
//   * lower population: customer baskets as binary genomes over the M market
//     bundles (two-point crossover, swap mutation), greedily repaired to
//     cover feasibility before evaluation.
//
// Each outer round runs an *upper improvement* phase (several GA generations
// on the pricings, each paired with the best current basket), then a *lower
// improvement* phase (several GA generations on the baskets against the best
// current pricing), then a coevolution operator that evaluates random
// cross-population pairs, then re-injects archive elites. Because baskets are
// evolved against one particular pricing, they transfer poorly to the next
// upper phase — the see-saw convergence of Fig. 5 and the inflated upper
// objective of Table IV both stem from this coupling.
#pragma once

#include <cstdint>

#include "carbon/bcpop/basis_pool.hpp"
#include "carbon/bcpop/evaluator_interface.hpp"
#include "carbon/bcpop/instance.hpp"
#include "carbon/core/checkpoint.hpp"
#include "carbon/core/result.hpp"
#include "carbon/ea/binary_ops.hpp"
#include "carbon/ea/real_ops.hpp"
#include "carbon/obs/run_journal.hpp"

namespace carbon::cobra {

struct CobraConfig {
  // --- Upper level (pricings; Table II column "COBRA") ---
  std::size_t ul_population_size = 100;
  std::size_t ul_archive_size = 100;
  double ul_crossover_prob = 0.85;
  double ul_mutation_prob = 0.01;
  ea::SbxConfig sbx{};
  ea::PolynomialMutationConfig mutation{};

  // --- Lower level (binary baskets) ---
  std::size_t ll_population_size = 100;
  std::size_t ll_archive_size = 100;
  double ll_crossover_prob = 0.85;
  /// Per-gene swap probability; <0 means 1/#variables (Table II).
  double ll_mutation_prob = -1.0;
  /// Density of ones in the initial random baskets.
  double ll_init_density = 0.3;

  // --- Improvement-phase schedule ---
  int upper_phase_generations = 5;
  int lower_phase_generations = 5;
  /// Random cross-population pairs evaluated by the coevolution operator.
  std::size_t coevolution_pairs = 20;
  std::size_t archive_reinjection = 5;

  // --- Budgets ---
  long long ul_eval_budget = 50'000;
  long long ll_eval_budget = 50'000;

  /// Evaluation threads (when the solver owns its evaluator); same
  /// semantics as CarbonConfig::eval_threads.
  std::size_t eval_threads = 1;

  /// Start basis of the LL relaxation LPs (when the solver owns its
  /// evaluator); same semantics as CarbonConfig::lp_warm, but the default
  /// is kPool. COBRA ranks pairs by F and f alone; the relaxation only
  /// feeds the reported %-gap, so the rounding of a different B^-1 update
  /// history can move that gap in its last ulps but never a selection. On the class-8 e2e workload the
  /// pool halves the pivots per solve (192 -> 92) and cuts the run time
  /// by about a third (docs/ALGORITHMS.md §15).
  bcpop::LpWarm lp_warm = bcpop::LpWarm::kPool;

  std::uint64_t seed = 1;
  bool record_convergence = true;

  /// Optional run telemetry; same semantics (borrowed sinks, bit-identical
  /// trajectories either way) as CarbonConfig::telemetry.
  obs::TelemetryConfig telemetry{};

  /// Crash-safe checkpoint/resume; same semantics as
  /// CarbonConfig::checkpoint, except checkpoints land on the first
  /// outer-round boundary at or past each multiple of `every`.
  core::CheckpointConfig checkpoint{};

  /// Deterministic per-evaluation resource budgets + degradation ladder;
  /// same semantics (unlimited defaults, bit-identical trajectories) as
  /// CarbonConfig::guard.
  guard::GuardConfig guard{};
};

class CobraSolver {
 public:
  /// Solves the single-customer BCPOP (creates its own ParallelEvaluator).
  CobraSolver(const bcpop::Instance& instance, CobraConfig config);

  /// Solves against any bi-level evaluation backend; budgets are counted
  /// relative to the evaluator's state at run() entry.
  CobraSolver(bcpop::EvaluatorInterface& evaluator, CobraConfig config);

  /// Runs Algorithm 1 until either budget is exhausted (checked between
  /// phases and between generations inside a phase).
  core::RunResult run();

 private:
  core::RunResult run_with(bcpop::EvaluatorInterface& eval);

  const bcpop::Instance* inst_ = nullptr;
  bcpop::EvaluatorInterface* external_ = nullptr;
  CobraConfig cfg_;
};

}  // namespace carbon::cobra
