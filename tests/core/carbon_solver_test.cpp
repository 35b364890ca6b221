#include "carbon/core/carbon_solver.hpp"

#include <gtest/gtest.h>

#include "carbon/bcpop/parallel_evaluator.hpp"
#include "carbon/cover/generator.hpp"

namespace carbon::core {
namespace {

bcpop::Instance small_instance() {
  cover::GeneratorConfig cfg;
  cfg.num_bundles = 30;
  cfg.num_services = 4;
  cfg.seed = 21;
  return bcpop::Instance(cover::generate(cfg), /*num_owned=*/3);
}

CarbonConfig small_config() {
  CarbonConfig cfg;
  cfg.ul_population_size = 12;
  cfg.gp_population_size = 12;
  cfg.ul_archive_size = 12;
  cfg.gp_archive_size = 12;
  cfg.ul_eval_budget = 150;
  cfg.ll_eval_budget = 600;
  cfg.heuristic_sample_size = 3;
  cfg.seed = 4;
  return cfg;
}

TEST(CarbonSolver, ProducesFeasibleBestSolution) {
  const bcpop::Instance inst = small_instance();
  const CarbonResult r = CarbonSolver(inst, small_config()).run();
  ASSERT_FALSE(r.best_pricing.empty());
  ASSERT_TRUE(r.best_evaluation.ll_feasible);
  EXPECT_GT(r.best_ul_objective, 0.0);
  EXPECT_GE(r.best_gap, 0.0);
  EXPECT_LT(r.best_gap, 1e6);
  // The reported best pricing respects the box bounds.
  const auto bounds = inst.price_bounds();
  for (std::size_t i = 0; i < r.best_pricing.size(); ++i) {
    EXPECT_GE(r.best_pricing[i], bounds[i].lo);
    EXPECT_LE(r.best_pricing[i], bounds[i].hi);
  }
}

TEST(CarbonSolver, RespectsBudgetsWithinOneGeneration) {
  const bcpop::Instance inst = small_instance();
  const CarbonConfig cfg = small_config();
  const CarbonResult r = CarbonSolver(inst, cfg).run();
  // Per generation: pop*sample LL + pop more LL and pop UL evals.
  const long long gen_ll =
      static_cast<long long>(cfg.gp_population_size) *
          static_cast<long long>(cfg.heuristic_sample_size) +
      static_cast<long long>(cfg.ul_population_size);
  EXPECT_LE(r.ll_evaluations, cfg.ll_eval_budget + gen_ll);
  EXPECT_LE(r.ul_evaluations,
            cfg.ul_eval_budget +
                static_cast<long long>(cfg.ul_population_size));
  EXPECT_GT(r.generations, 0);
}

TEST(CarbonSolver, DeterministicForSeed) {
  const bcpop::Instance inst = small_instance();
  const CarbonResult a = CarbonSolver(inst, small_config()).run();
  const CarbonResult b = CarbonSolver(inst, small_config()).run();
  EXPECT_DOUBLE_EQ(a.best_ul_objective, b.best_ul_objective);
  EXPECT_DOUBLE_EQ(a.best_gap, b.best_gap);
  EXPECT_EQ(a.best_pricing, b.best_pricing);
  EXPECT_EQ(a.generations, b.generations);
}

TEST(CarbonSolver, SeedsChangeTrajectories) {
  const bcpop::Instance inst = small_instance();
  CarbonConfig cfg = small_config();
  const CarbonResult a = CarbonSolver(inst, cfg).run();
  cfg.seed = 999;
  const CarbonResult b = CarbonSolver(inst, cfg).run();
  EXPECT_NE(a.best_pricing, b.best_pricing);
}

TEST(CarbonSolver, ConvergenceTraceIsMonotoneInBestSoFar) {
  const bcpop::Instance inst = small_instance();
  const CarbonResult r = CarbonSolver(inst, small_config()).run();
  ASSERT_FALSE(r.convergence.empty());
  for (std::size_t g = 1; g < r.convergence.size(); ++g) {
    ASSERT_GE(r.convergence[g].best_ul_so_far,
              r.convergence[g - 1].best_ul_so_far);
    ASSERT_LE(r.convergence[g].best_gap_so_far,
              r.convergence[g - 1].best_gap_so_far);
  }
  EXPECT_EQ(r.convergence.back().phase, "carbon");
  // Final trace point matches the result.
  EXPECT_DOUBLE_EQ(r.convergence.back().best_ul_so_far, r.best_ul_objective);
  EXPECT_DOUBLE_EQ(r.convergence.back().best_gap_so_far, r.best_gap);
}

TEST(CarbonSolver, ConvergenceCanBeDisabled) {
  const bcpop::Instance inst = small_instance();
  CarbonConfig cfg = small_config();
  cfg.record_convergence = false;
  const CarbonResult r = CarbonSolver(inst, cfg).run();
  EXPECT_TRUE(r.convergence.empty());
}

TEST(CarbonSolver, ReturnsAHeuristic) {
  const bcpop::Instance inst = small_instance();
  const CarbonResult r = CarbonSolver(inst, small_config()).run();
  ASSERT_FALSE(r.best_heuristic.empty());
  EXPECT_TRUE(r.best_heuristic.valid());
  EXPECT_LT(r.best_heuristic_gap, 1e6);
}

TEST(CarbonSolver, EvolvedHeuristicBeatsTheWorstRandomOne) {
  // The champion's mean gap should at least not be catastrophic: it must
  // be below the gap of a deliberately terrible heuristic (most expensive
  // bundle first).
  const bcpop::Instance inst = small_instance();
  const CarbonResult r = CarbonSolver(inst, small_config()).run();
  bcpop::ParallelEvaluator eval(inst, /*threads=*/1);
  common::Rng rng(1);
  const auto pricing = ea::random_real_vector(rng, inst.price_bounds());
  const auto bad = eval.evaluate_with_heuristic(
      pricing, gp::Tree::terminal(gp::Terminal::kCost));
  const auto good = eval.evaluate_with_heuristic(pricing, r.best_heuristic);
  EXPECT_LE(good.gap_percent, bad.gap_percent + 1e-9);
}

TEST(CarbonSolver, GapFitnessAtLeastMatchesValueFitnessVariant) {
  const bcpop::Instance inst = small_instance();
  CarbonConfig cfg = small_config();
  const CarbonResult gap_r = CarbonSolver(inst, cfg).run();
  cfg.predator_fitness = PredatorFitness::kValue;
  const CarbonResult val_r = CarbonSolver(inst, cfg).run();
  // Not a strict dominance claim at this scale — but the gap variant must
  // stay in the same league (within 2x) and usually wins.
  EXPECT_LE(gap_r.best_gap, 2.0 * val_r.best_gap + 1.0);
}

TEST(CarbonSolver, PessimisticStanceIsMoreConservative) {
  const bcpop::Instance inst = small_instance();
  CarbonConfig cfg = small_config();
  const CarbonResult optimistic = CarbonSolver(inst, cfg).run();
  cfg.stance = Stance::kPessimistic;
  cfg.follower_ensemble = 3;
  const CarbonResult pessimistic = CarbonSolver(inst, cfg).run();
  ASSERT_TRUE(pessimistic.best_evaluation.ll_feasible);
  // The pessimistic score is a min over follower models: the revenue it
  // reports cannot be wildly above the optimistic one (same seeds, same
  // budget; small slack for trajectory divergence).
  EXPECT_LE(pessimistic.best_ul_objective,
            optimistic.best_ul_objective * 1.5 + 1.0);
}

TEST(CarbonSolver, PessimisticStanceIsDeterministic) {
  const bcpop::Instance inst = small_instance();
  CarbonConfig cfg = small_config();
  cfg.stance = Stance::kPessimistic;
  cfg.follower_ensemble = 2;
  const CarbonResult a = CarbonSolver(inst, cfg).run();
  const CarbonResult b = CarbonSolver(inst, cfg).run();
  EXPECT_DOUBLE_EQ(a.best_ul_objective, b.best_ul_objective);
}

TEST(CarbonSolver, MemeticVariantRunsAndIsDeterministic) {
  const bcpop::Instance inst = small_instance();
  CarbonConfig cfg = small_config();
  cfg.memetic_polish = true;
  const CarbonResult a = CarbonSolver(inst, cfg).run();
  const CarbonResult b = CarbonSolver(inst, cfg).run();
  ASSERT_TRUE(a.best_evaluation.ll_feasible);
  EXPECT_DOUBLE_EQ(a.best_gap, b.best_gap);
}

TEST(CarbonSolver, TraceRecordsGpDiversity) {
  const bcpop::Instance inst = small_instance();
  const CarbonResult r = CarbonSolver(inst, small_config()).run();
  ASSERT_FALSE(r.convergence.empty());
  for (const auto& pt : r.convergence) {
    ASSERT_GT(pt.gp_unique_fraction, 0.0);
    ASSERT_LE(pt.gp_unique_fraction, 1.0);
    ASSERT_GE(pt.gp_mean_tree_size, 1.0);
  }
}

TEST(CarbonSolver, InvalidConfigsThrow) {
  const bcpop::Instance inst = small_instance();
  CarbonConfig cfg = small_config();
  cfg.ul_population_size = 1;
  EXPECT_THROW(CarbonSolver(inst, cfg), std::invalid_argument);
  cfg = small_config();
  cfg.heuristic_sample_size = 0;
  EXPECT_THROW(CarbonSolver(inst, cfg), std::invalid_argument);
}

}  // namespace
}  // namespace carbon::core
