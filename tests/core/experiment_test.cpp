#include "carbon/core/experiment.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <stdexcept>

#include "carbon/baselines/nested_ga.hpp"
#include "carbon/cover/generator.hpp"
#include "common/temp_dir.hpp"

namespace carbon::core {
namespace {

bcpop::Instance small_instance() {
  cover::GeneratorConfig cfg;
  cfg.num_bundles = 25;
  cfg.num_services = 3;
  cfg.seed = 31;
  return bcpop::Instance(cover::generate(cfg), 3);
}

ExperimentConfig tiny_config() {
  ExperimentConfig cfg;
  cfg.runs = 3;
  cfg.population_size = 10;
  cfg.archive_size = 10;
  cfg.ul_eval_budget = 80;
  cfg.ll_eval_budget = 300;
  cfg.heuristic_sample_size = 2;
  cfg.threads = 2;
  return cfg;
}

TEST(Experiment, RunCellAggregatesAllRuns) {
  const bcpop::Instance inst = small_instance();
  const CellResult cell = run_cell(inst, Algorithm::kCarbon, tiny_config());
  EXPECT_EQ(cell.runs.size(), 3u);
  EXPECT_EQ(cell.gap.n, 3u);
  EXPECT_EQ(cell.ul_objective.n, 3u);
  EXPECT_GT(cell.wall_seconds, 0.0);
  EXPECT_GE(cell.gap.min, 0.0);
  EXPECT_LE(cell.gap.min, cell.gap.max);
}

TEST(Experiment, ParallelMatchesSequential) {
  const bcpop::Instance inst = small_instance();
  ExperimentConfig cfg = tiny_config();
  cfg.threads = 1;
  const CellResult seq = run_cell(inst, Algorithm::kCarbon, cfg);
  // 3 runs at once, then hardware concurrency (threads = 0).
  for (const std::size_t threads : {std::size_t{3}, std::size_t{0}}) {
    cfg.threads = threads;
    const CellResult par = run_cell(inst, Algorithm::kCarbon, cfg);
    ASSERT_EQ(seq.runs.size(), par.runs.size());
    for (std::size_t r = 0; r < seq.runs.size(); ++r) {
      EXPECT_DOUBLE_EQ(seq.runs[r].best_gap, par.runs[r].best_gap)
          << "threads=" << threads;
      EXPECT_DOUBLE_EQ(seq.runs[r].best_ul_objective,
                       par.runs[r].best_ul_objective)
          << "threads=" << threads;
    }
  }
}

TEST(Experiment, AllAlgorithmsDispatch) {
  const bcpop::Instance inst = small_instance();
  ExperimentConfig cfg = tiny_config();
  cfg.runs = 1;
  for (const Algorithm a :
       {Algorithm::kCarbon, Algorithm::kCobra, Algorithm::kNestedGa,
        Algorithm::kCarbonValueFitness}) {
    const CellResult cell = run_cell(inst, a, cfg);
    EXPECT_EQ(cell.algorithm, a);
    EXPECT_EQ(cell.runs.size(), 1u);
    EXPECT_TRUE(cell.runs[0].best_evaluation.ll_feasible)
        << to_string(a);
  }
}

TEST(Experiment, ZeroRunsThrows) {
  const bcpop::Instance inst = small_instance();
  ExperimentConfig cfg = tiny_config();
  cfg.runs = 0;
  EXPECT_THROW((void)run_cell(inst, Algorithm::kCarbon, cfg),
               std::invalid_argument);
}

TEST(Experiment, PaperScaleMatchesTableII) {
  const ExperimentConfig cfg = ExperimentConfig::paper_scale();
  EXPECT_EQ(cfg.runs, 30u);
  EXPECT_EQ(cfg.population_size, 100u);
  EXPECT_EQ(cfg.archive_size, 100u);
  EXPECT_EQ(cfg.ul_eval_budget, 50'000);
  EXPECT_EQ(cfg.ll_eval_budget, 50'000);
}

TEST(Experiment, AlgorithmNames) {
  EXPECT_STREQ(to_string(Algorithm::kCarbon), "CARBON");
  EXPECT_STREQ(to_string(Algorithm::kCobra), "COBRA");
  EXPECT_STREQ(to_string(Algorithm::kNestedGa), "NESTED-GA");
  EXPECT_STREQ(to_string(Algorithm::kCarbonValueFitness), "CARBON-VALUE");
}

TEST(Experiment, ToStringThrowsOnOutOfEnumValue) {
  // A corrupted or miscast integer must fail loudly, not label results "?".
  EXPECT_THROW((void)to_string(static_cast<Algorithm>(999)),
               std::invalid_argument);
  EXPECT_THROW((void)to_string(static_cast<Algorithm>(-1)),
               std::invalid_argument);
}

TEST(Experiment, CheckpointPathNamesAlgorithmAndRun) {
  EXPECT_EQ(experiment_checkpoint_path("/tmp/ck", Algorithm::kCarbon, 0),
            "/tmp/ck/carbon-run0.ckpt");
  EXPECT_EQ(experiment_checkpoint_path("/tmp/ck", Algorithm::kCobra, 12),
            "/tmp/ck/cobra-run12.ckpt");
  EXPECT_EQ(experiment_checkpoint_path("d", Algorithm::kNestedGa, 3),
            "d/nested_ga-run3.ckpt");
}

TEST(Experiment, CheckpointedCellMatchesPlainCell) {
  // Checkpoint writes must not perturb the trajectory, and a re-run that
  // resumes from the leftover final checkpoints must aggregate the same
  // numbers as a clean cell (crash-recovery of an interrupted sweep).
  const bcpop::Instance inst = small_instance();
  for (const Algorithm algo : {Algorithm::kCarbon, Algorithm::kCobra}) {
    SCOPED_TRACE(to_string(algo));
    ExperimentConfig cfg = tiny_config();
    cfg.runs = 2;
    const CellResult plain = run_cell(inst, algo, cfg);

    cfg.checkpoint_every = 1;
    // Unique per-test dir: the fixed carbon-run0.ckpt names inside would
    // collide across parallel ctest shards in the shared gtest TempDir.
    cfg.checkpoint_dir = carbon::test::test_temp_dir(to_string(algo));
    const CellResult checkpointed = run_cell(inst, algo, cfg);
    // The per-run files exist now, so this second call resumes every run
    // from its final checkpoint.
    const CellResult resumed = run_cell(inst, algo, cfg);

    ASSERT_EQ(plain.runs.size(), checkpointed.runs.size());
    ASSERT_EQ(plain.runs.size(), resumed.runs.size());
    for (std::size_t r = 0; r < plain.runs.size(); ++r) {
      SCOPED_TRACE("run " + std::to_string(r));
      EXPECT_EQ(plain.runs[r].best_gap, checkpointed.runs[r].best_gap);
      EXPECT_EQ(plain.runs[r].best_ul_objective,
                checkpointed.runs[r].best_ul_objective);
      EXPECT_EQ(plain.runs[r].best_gap, resumed.runs[r].best_gap);
      EXPECT_EQ(plain.runs[r].best_ul_objective,
                resumed.runs[r].best_ul_objective);
    }
    for (std::size_t r = 0; r < cfg.runs; ++r) {
      std::remove(
          experiment_checkpoint_path(cfg.checkpoint_dir, algo, r).c_str());
    }
  }
}

TEST(Experiment, NegativeCheckpointEveryThrows) {
  const bcpop::Instance inst = small_instance();
  ExperimentConfig cfg = tiny_config();
  cfg.checkpoint_every = -1;
  EXPECT_THROW((void)run_cell(inst, Algorithm::kCarbon, cfg),
               std::invalid_argument);
}

TEST(Experiment, AverageConvergenceShapes) {
  const bcpop::Instance inst = small_instance();
  ExperimentConfig cfg = tiny_config();
  cfg.record_convergence = true;
  const CellResult cell = run_cell(inst, Algorithm::kCarbon, cfg);
  const auto avg = average_convergence(cell.runs);
  ASSERT_FALSE(avg.empty());
  // Length = shortest run trace.
  std::size_t min_len = cell.runs[0].convergence.size();
  for (const auto& r : cell.runs) {
    min_len = std::min(min_len, r.convergence.size());
  }
  EXPECT_EQ(avg.size(), min_len);
  // Averaged best-so-far stays monotone (average of monotone series).
  for (std::size_t g = 1; g < avg.size(); ++g) {
    ASSERT_GE(avg[g].best_ul_so_far, avg[g - 1].best_ul_so_far - 1e-9);
    ASSERT_LE(avg[g].best_gap_so_far, avg[g - 1].best_gap_so_far + 1e-9);
  }
}

TEST(Experiment, AverageConvergenceEmptyInputs) {
  EXPECT_TRUE(average_convergence({}).empty());
  std::vector<RunResult> no_trace(2);
  EXPECT_TRUE(average_convergence(no_trace).empty());
}

TEST(NestedGa, SmokeAndDeterminism) {
  const bcpop::Instance inst = small_instance();
  baselines::NestedGaConfig cfg;
  cfg.population_size = 10;
  cfg.archive_size = 10;
  cfg.ul_eval_budget = 100;
  cfg.ll_eval_budget = 100;
  cfg.seed = 8;
  const core::RunResult a = baselines::NestedGaSolver(inst, cfg).run();
  const core::RunResult b = baselines::NestedGaSolver(inst, cfg).run();
  EXPECT_TRUE(a.best_evaluation.ll_feasible);
  EXPECT_DOUBLE_EQ(a.best_ul_objective, b.best_ul_objective);
  EXPECT_GT(a.generations, 0);
}

TEST(NestedGa, InvalidConfigThrows) {
  const bcpop::Instance inst = small_instance();
  baselines::NestedGaConfig cfg;
  cfg.population_size = 1;
  EXPECT_THROW(baselines::NestedGaSolver(inst, cfg), std::invalid_argument);
}

}  // namespace
}  // namespace carbon::core
