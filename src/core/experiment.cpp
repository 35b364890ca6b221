#include "carbon/core/experiment.hpp"

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <stdexcept>
#include <thread>

#include "carbon/baselines/biga.hpp"
#include "carbon/baselines/codba.hpp"
#include "carbon/baselines/nested_ga.hpp"
#include "carbon/cobra/cobra_solver.hpp"
#include "carbon/common/stopwatch.hpp"
#include "carbon/common/task_scheduler.hpp"
#include "carbon/core/carbon_solver.hpp"

namespace carbon::core {

const char* to_string(Algorithm a) {
  switch (a) {
    case Algorithm::kCarbon:
      return "CARBON";
    case Algorithm::kCobra:
      return "COBRA";
    case Algorithm::kNestedGa:
      return "NESTED-GA";
    case Algorithm::kCarbonValueFitness:
      return "CARBON-VALUE";
    case Algorithm::kCarbonMemetic:
      return "CARBON-MEMETIC";
    case Algorithm::kBiga:
      return "BIGA";
    case Algorithm::kCodba:
      return "CODBA";
  }
  // A value outside the enum means memory corruption or a bad cast
  // somewhere upstream — fail loudly instead of labelling results "?".
  throw std::invalid_argument("to_string: invalid Algorithm value " +
                              std::to_string(static_cast<int>(a)));
}

std::string experiment_checkpoint_path(const std::string& dir,
                                       Algorithm algorithm, std::size_t run) {
  std::string name = to_string(algorithm);
  for (char& c : name) {
    c = c == '-' ? '_' : static_cast<char>(std::tolower(
                             static_cast<unsigned char>(c)));
  }
  return (dir.empty() ? std::string() : dir + "/") + name + "-run" +
         std::to_string(run) + ".ckpt";
}

ExperimentConfig ExperimentConfig::paper_scale() {
  ExperimentConfig cfg;
  cfg.runs = 30;
  cfg.population_size = 100;
  cfg.archive_size = 100;
  cfg.ul_eval_budget = 50'000;
  cfg.ll_eval_budget = 50'000;
  cfg.heuristic_sample_size = 5;
  return cfg;
}

namespace {

/// Per-run checkpoint wiring: write every N generations to the run's own
/// file, and resume from it when a previous (interrupted) invocation left
/// one behind. Resumption is bit-identical, so a re-run cell aggregates the
/// same numbers whether or not it was preempted.
CheckpointConfig cell_checkpoint(const ExperimentConfig& cfg,
                                 Algorithm algorithm, std::size_t run) {
  CheckpointConfig ck;
  if (cfg.checkpoint_every <= 0) return ck;
  ck.every = cfg.checkpoint_every;
  ck.path = experiment_checkpoint_path(cfg.checkpoint_dir, algorithm, run);
  if (std::filesystem::exists(ck.path)) ck.resume_from = ck.path;
  return ck;
}

RunResult dispatch(const bcpop::Instance& instance, Algorithm algorithm,
                   const ExperimentConfig& cfg, std::size_t run) {
  const std::uint64_t seed = cfg.base_seed + run;
  switch (algorithm) {
    case Algorithm::kCarbon:
    case Algorithm::kCarbonValueFitness:
    case Algorithm::kCarbonMemetic: {
      CarbonConfig c;
      c.ul_population_size = cfg.population_size;
      c.gp_population_size = cfg.population_size;
      c.ul_archive_size = cfg.archive_size;
      c.gp_archive_size = cfg.archive_size;
      c.ul_eval_budget = cfg.ul_eval_budget;
      c.ll_eval_budget = cfg.ll_eval_budget;
      c.heuristic_sample_size = cfg.heuristic_sample_size;
      c.record_convergence = cfg.record_convergence;
      c.seed = seed;
      if (algorithm == Algorithm::kCarbonValueFitness) {
        c.predator_fitness = PredatorFitness::kValue;
      }
      if (algorithm == Algorithm::kCarbonMemetic) {
        c.memetic_polish = true;
      }
      c.checkpoint = cell_checkpoint(cfg, algorithm, run);
      return CarbonSolver(instance, c).run();
    }
    case Algorithm::kCobra: {
      cobra::CobraConfig c;
      c.ul_population_size = cfg.population_size;
      c.ll_population_size = cfg.population_size;
      c.ul_archive_size = cfg.archive_size;
      c.ll_archive_size = cfg.archive_size;
      c.ul_eval_budget = cfg.ul_eval_budget;
      c.ll_eval_budget = cfg.ll_eval_budget;
      c.record_convergence = cfg.record_convergence;
      c.seed = seed;
      c.checkpoint = cell_checkpoint(cfg, algorithm, run);
      return cobra::CobraSolver(instance, c).run();
    }
    case Algorithm::kBiga: {
      baselines::BigaConfig c;
      c.population_size = cfg.population_size;
      c.archive_size = cfg.archive_size;
      c.ul_eval_budget = cfg.ul_eval_budget;
      c.ll_eval_budget = cfg.ll_eval_budget;
      c.record_convergence = cfg.record_convergence;
      c.seed = seed;
      return baselines::BigaSolver(instance, c).run();
    }
    case Algorithm::kCodba: {
      baselines::CodbaConfig c;
      c.ul_population_size = cfg.population_size;
      c.archive_size = cfg.archive_size;
      c.ul_eval_budget = cfg.ul_eval_budget;
      c.ll_eval_budget = cfg.ll_eval_budget;
      c.record_convergence = cfg.record_convergence;
      c.seed = seed;
      return baselines::CodbaSolver(instance, c).run();
    }
    case Algorithm::kNestedGa: {
      baselines::NestedGaConfig c;
      c.population_size = cfg.population_size;
      c.archive_size = cfg.archive_size;
      c.ul_eval_budget = cfg.ul_eval_budget;
      c.ll_eval_budget = cfg.ll_eval_budget;
      c.record_convergence = cfg.record_convergence;
      c.seed = seed;
      return baselines::NestedGaSolver(instance, c).run();
    }
  }
  throw std::invalid_argument("run_cell: unknown algorithm");
}

}  // namespace

CellResult run_cell(const bcpop::Instance& instance, Algorithm algorithm,
                    const ExperimentConfig& config) {
  if (config.runs == 0) {
    throw std::invalid_argument("run_cell: runs must be >= 1");
  }
  if (config.checkpoint_every < 0) {
    throw std::invalid_argument("run_cell: checkpoint_every must be >= 0");
  }
  if (config.checkpoint_every > 0 && config.checkpoint_dir.empty()) {
    throw std::invalid_argument(
        "run_cell: checkpoint_every > 0 requires checkpoint_dir");
  }
  common::Stopwatch sw;
  CellResult cell;
  cell.algorithm = algorithm;
  cell.runs.resize(config.runs);

  // At most `threads` runs at once: the calling thread plus threads - 1
  // workers (none at all for one thread or one run — every run then
  // executes inline, in order).
  const std::size_t threads =
      config.threads != 0
          ? config.threads
          : std::max<std::size_t>(1, std::thread::hardware_concurrency());
  common::TaskScheduler scheduler(std::min(threads, config.runs) - 1);
  scheduler.parallel_for(config.runs, [&](std::size_t, std::size_t r) {
    cell.runs[r] = dispatch(instance, algorithm, config, r);
  });

  std::vector<double> gaps;
  std::vector<double> uls;
  gaps.reserve(config.runs);
  uls.reserve(config.runs);
  for (const RunResult& r : cell.runs) {
    gaps.push_back(r.best_gap);
    uls.push_back(r.best_ul_objective);
  }
  cell.gap = common::summarize(gaps);
  cell.ul_objective = common::summarize(uls);
  cell.wall_seconds = sw.seconds();
  return cell;
}

std::vector<ConvergencePoint> average_convergence(
    const std::vector<RunResult>& runs) {
  if (runs.empty()) return {};
  std::size_t length = runs.front().convergence.size();
  for (const RunResult& r : runs) {
    length = std::min(length, r.convergence.size());
  }
  std::vector<ConvergencePoint> avg(length);
  if (length == 0) return avg;
  const double inv = 1.0 / static_cast<double>(runs.size());
  for (std::size_t g = 0; g < length; ++g) {
    ConvergencePoint& pt = avg[g];
    pt.generation = static_cast<int>(g);
    pt.phase = runs.front().convergence[g].phase;
    for (const RunResult& r : runs) {
      const ConvergencePoint& src = r.convergence[g];
      pt.ul_evaluations += src.ul_evaluations;
      pt.ll_evaluations += src.ll_evaluations;
      pt.best_ul_so_far += src.best_ul_so_far * inv;
      pt.best_gap_so_far += src.best_gap_so_far * inv;
      pt.current_best_ul += src.current_best_ul * inv;
      pt.current_mean_gap += src.current_mean_gap * inv;
      pt.gp_unique_fraction += src.gp_unique_fraction * inv;
      pt.gp_mean_tree_size += src.gp_mean_tree_size * inv;
    }
    pt.ul_evaluations /= static_cast<long long>(runs.size());
    pt.ll_evaluations /= static_cast<long long>(runs.size());
  }
  return avg;
}

}  // namespace carbon::core
