// CARBON's configuration — defaults follow Table II of the paper.
#pragma once

#include <cstdint>

#include "carbon/bcpop/basis_pool.hpp"
#include "carbon/core/checkpoint.hpp"
#include "carbon/ea/real_ops.hpp"
#include "carbon/gp/operators.hpp"
#include "carbon/guard/guard.hpp"
#include "carbon/obs/run_journal.hpp"

namespace carbon::core {

/// Which solution the leader assumes the follower picks when several
/// follower models are available (paper §II). Optimistic: the best model
/// (lowest gap) speaks for the follower. Pessimistic: the leader hedges —
/// each pricing is evaluated under the top `follower_ensemble` models and
/// scored by its WORST (lowest) revenue, approximating "among plausible
/// rational reactions, count on the least favourable".
enum class Stance : unsigned char {
  kOptimistic,
  kPessimistic,
};

/// What the predator (heuristic) population minimizes. The paper argues the
/// %-gap is the only measure comparable across the different LL instances
/// that different pricings induce; raw LL value is provided as an ablation.
enum class PredatorFitness : unsigned char {
  kGap,    ///< mean %-gap over the competition sample (the paper's choice)
  kValue,  ///< mean raw LL objective value (COBRA-style; ablation)
};

struct CarbonConfig {
  // --- Upper level (prey: pricings, real-coded GA) ---
  std::size_t ul_population_size = 100;
  std::size_t ul_archive_size = 100;
  /// Probability that a selected pair undergoes SBX.
  double ul_crossover_prob = 0.85;
  /// Probability that an offspring undergoes polynomial mutation
  /// (per-gene rate inside the operator is 1/num_genes).
  double ul_mutation_prob = 0.01;
  ea::SbxConfig sbx{};
  ea::PolynomialMutationConfig mutation{};

  // --- Lower level (predators: heuristics, GP) ---
  std::size_t gp_population_size = 100;
  std::size_t gp_archive_size = 100;
  double gp_crossover_prob = 0.85;
  double gp_mutation_prob = 0.10;
  double gp_reproduction_prob = 0.05;
  std::size_t gp_tournament_size = 3;
  gp::OperatorConfig gp_ops{};

  PredatorFitness predator_fitness = PredatorFitness::kGap;

  /// Memetic variant: polish every heuristic-built cover with a drop/swap
  /// local search before scoring (extension; the paper scores raw greedies).
  bool memetic_polish = false;

  /// Optimistic (paper default) or pessimistic leader stance.
  Stance stance = Stance::kOptimistic;
  /// Follower models consulted per pricing in pessimistic mode (costs this
  /// many LL evaluations per prey evaluation).
  std::size_t follower_ensemble = 3;

  /// Pricings sampled per heuristic fitness evaluation (competition size).
  std::size_t heuristic_sample_size = 5;
  /// Archive entries re-injected into the UL population each generation.
  std::size_t archive_reinjection = 5;

  // --- Budgets (Table II: 50 000 UL + 50 000 LL fitness evaluations) ---
  long long ul_eval_budget = 50'000;
  long long ll_eval_budget = 50'000;

  /// Evaluation threads (when the solver owns its evaluator, always a
  /// bcpop::ParallelEvaluator): 1 = the calling thread alone, no worker
  /// spawned; N > 1 = N workers plus the calling thread; 0 = hardware
  /// concurrency. Results are bit-identical for any value at a fixed seed
  /// (per-thread contexts + ordered reduction; see docs/ALGORITHMS.md §7).
  std::size_t eval_threads = 1;

  /// Start basis of the LL relaxation LPs when the solver owns its
  /// evaluator (docs/ALGORITHMS.md §15). Every evaluation resolves its
  /// relaxation through the same staged path; this only picks where a
  /// cache miss's simplex starts. kBaseline (CARBON's default): the fixed
  /// base-cost basis. kPool (COBRA's default): the nearest pooled basis,
  /// and final bases are committed back to the pool (deterministic for any
  /// eval_threads and SIMD path, but a DIFFERENT golden axis: the optima
  /// are not degenerate and both starts end at the same basis, yet the
  /// duals/x̄ come out of a different B^-1 update history and differ in
  /// their last bits). CARBON stays at kBaseline because its GP terminals
  /// read those duals and x̄: under kPool the carbon-n100m5 e2e panel
  /// changed 4 of 7 trajectories, ran 16% slower and lost 1.1% of best
  /// revenue.
  bcpop::LpWarm lp_warm = bcpop::LpWarm::kBaseline;

  std::uint64_t seed = 1;
  bool record_convergence = true;

  /// Optional run telemetry (metrics registry and/or JSONL run journal,
  /// both borrowed — the caller keeps them alive past run()). Attaching
  /// telemetry never changes the trajectory: results are bit-identical
  /// with telemetry on or off, for any eval_threads
  /// (see docs/ALGORITHMS.md §9).
  obs::TelemetryConfig telemetry{};

  /// Crash-safe checkpoint/resume (docs/ALGORITHMS.md §11). Resuming from
  /// a checkpoint reproduces the uninterrupted run with the same checkpoint
  /// config bit for bit. Each write starts a new cache epoch (empty caches
  /// and basis pool, as on resume): under kBaseline that moves only the
  /// cache counters, under kPool it can also move the trajectory against a
  /// run without checkpoints.
  CheckpointConfig checkpoint{};

  /// Deterministic per-evaluation resource budgets + degradation ladder
  /// (docs/ALGORITHMS.md §13). Defaults are unlimited: the guarded path is
  /// then bitwise-identical to the historical unguarded one, for any
  /// eval_threads × SIMD combination.
  guard::GuardConfig guard{};
};

}  // namespace carbon::core
