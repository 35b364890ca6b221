// Replicated-run experiment harness.
//
// The paper's protocol: every (instance class, algorithm) cell is measured
// over 30 independent runs; tables report the best %-gap and best UL
// objective per run, aggregated. This harness runs R seeded replications
// (in parallel on a common::TaskScheduler), aggregates summaries and a
// Wilcoxon rank-sum comparison, and averages convergence traces for the
// figure benches.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "carbon/bcpop/instance.hpp"
#include "carbon/common/statistics.hpp"
#include "carbon/core/result.hpp"

namespace carbon::core {

/// Algorithms the harness can dispatch to.
enum class Algorithm {
  kCarbon,
  kCobra,
  kNestedGa,
  kCarbonValueFitness,  ///< ablation: CARBON minimizing f instead of the gap
  kCarbonMemetic,       ///< extension: local-search polish of every cover
  kBiga,                ///< COBRA's ancestor (simultaneous co-evolution)
  kCodba,               ///< decomposition-based co-evolution
};

/// Display name of an algorithm. Throws std::invalid_argument on a value
/// outside the enum (e.g. a corrupted or miscast integer) instead of
/// silently labelling results "?".
[[nodiscard]] const char* to_string(Algorithm a);

/// Scaled-down experiment knobs. `scale(1.0)` is the paper's Table II
/// configuration; the default bench scale keeps the qualitative shape at
/// laptop runtimes.
struct ExperimentConfig {
  std::size_t runs = 3;
  std::size_t population_size = 30;       ///< both levels
  std::size_t archive_size = 30;
  long long ul_eval_budget = 400;
  long long ll_eval_budget = 1'200;
  std::size_t heuristic_sample_size = 4;  ///< CARBON competition size
  std::uint64_t base_seed = 20180521;     ///< per-run seed = base + run
  bool record_convergence = false;
  /// Replication runs executed at once (at most); 0 = hardware concurrency.
  std::size_t threads = 0;

  /// Crash-safe replication runs: when > 0, every checkpoint-capable run
  /// (CARBON, COBRA) writes its state to
  /// experiment_checkpoint_path(checkpoint_dir, algorithm, run) every N
  /// generations, and run_cell resumes any run whose checkpoint file
  /// already exists. Resumed cells are bit-identical to uninterrupted ones
  /// (docs/ALGORITHMS.md §11). Algorithms without checkpoint support run
  /// fresh and ignore these knobs.
  long long checkpoint_every = 0;
  std::string checkpoint_dir;

  /// Paper-scale (Table II) configuration: 30 runs, pop/archive 100,
  /// 50 000 + 50 000 evaluations.
  [[nodiscard]] static ExperimentConfig paper_scale();
};

/// Per-run checkpoint file used by run_cell: "<dir>/<algo>-run<r>.ckpt".
[[nodiscard]] std::string experiment_checkpoint_path(const std::string& dir,
                                                     Algorithm algorithm,
                                                     std::size_t run);

/// Aggregate over the R runs of one (instance, algorithm) cell.
struct CellResult {
  Algorithm algorithm = Algorithm::kCarbon;
  common::Summary gap;           ///< distribution of per-run best %-gap
  common::Summary ul_objective;  ///< distribution of per-run best F
  std::vector<RunResult> runs;
  double wall_seconds = 0.0;
};

/// Runs R replications of `algorithm` on `instance`.
[[nodiscard]] CellResult run_cell(const bcpop::Instance& instance,
                                  Algorithm algorithm,
                                  const ExperimentConfig& config);

/// Element-wise mean of convergence traces across runs, truncated to the
/// shortest trace. Traces must be non-empty.
[[nodiscard]] std::vector<ConvergencePoint> average_convergence(
    const std::vector<RunResult>& runs);

}  // namespace carbon::core
