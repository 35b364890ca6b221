#include "carbon/bcpop/multi_follower.hpp"

#include <gtest/gtest.h>

#include "carbon/cobra/cobra_solver.hpp"
#include "carbon/core/carbon_solver.hpp"
#include "carbon/cover/generator.hpp"
#include "carbon/ea/binary_ops.hpp"
#include "carbon/gp/scoring.hpp"

namespace carbon::bcpop {
namespace {

Instance base_market() {
  cover::GeneratorConfig cfg;
  cfg.num_bundles = 30;
  cfg.num_services = 4;
  cfg.seed = 61;
  return Instance(cover::generate(cfg), 3);
}

gp::Tree ce_tree() {
  return gp::Tree::apply(gp::OpCode::kDiv,
                         gp::Tree::terminal(gp::Terminal::kQcov),
                         gp::Tree::terminal(gp::Terminal::kCost));
}

TEST(MultiFollower, FactoryBuildsRequestedFollowers) {
  const auto problem = make_multi_follower(base_market(), 4, /*seed=*/3);
  EXPECT_EQ(problem.num_followers(), 4u);
  EXPECT_EQ(problem.num_bundles(), 30u);
  // Follower 0 keeps the base demands.
  const Instance base = base_market();
  for (std::size_t k = 0; k < 4; ++k) {
    EXPECT_EQ(problem.follower(0).market().demand(k),
              base.market().demand(k));
  }
  // Other followers differ somewhere.
  bool any_diff = false;
  for (std::size_t k = 0; k < 4; ++k) {
    any_diff |= problem.follower(1).market().demand(k) !=
                problem.follower(0).market().demand(k);
  }
  EXPECT_TRUE(any_diff);
}

TEST(MultiFollower, SingleFollowerMatchesPlainEvaluator) {
  const auto problem = make_multi_follower(base_market(), 1);
  MultiFollowerEvaluator multi(problem);
  const Instance plain = base_market();
  ParallelEvaluator single(plain, /*threads=*/1);

  common::Rng rng(9);
  const auto pricing = ea::random_real_vector(rng, plain.price_bounds());
  const auto a = multi.evaluate_with_heuristic(pricing, ce_tree());
  const auto b = single.evaluate_with_heuristic(pricing, ce_tree());
  EXPECT_DOUBLE_EQ(a.ul_objective, b.ul_objective);
  EXPECT_DOUBLE_EQ(a.ll_objective, b.ll_objective);
  EXPECT_DOUBLE_EQ(a.gap_percent, b.gap_percent);
  EXPECT_EQ(a.selection, b.selection);

  // The same evaluations leave every backend counter equal, the LP family
  // and pool ones included.
  const auto other = ea::random_real_vector(rng, plain.price_bounds());
  for (EvaluatorInterface* eval :
       {static_cast<EvaluatorInterface*>(&multi),
        static_cast<EvaluatorInterface*>(&single)}) {
    (void)eval->evaluate_with_selection(pricing, a.selection);  // cached LP
    (void)eval->evaluate_with_heuristic(other, ce_tree());
    (void)eval->evaluate_with_heuristic(pricing, ce_tree());  // score memo
  }
  const BackendStats plain_stats = single.backend_stats();
  EXPECT_GT(plain_stats.lp_family_rebinds, 0);
  EXPECT_GT(plain_stats.relaxation_cache_hits, 0);
  EXPECT_GT(plain_stats.score_cache_hits, 0);
  EXPECT_EQ(multi.backend_stats(), plain_stats);
}

TEST(MultiFollower, AggregatesAreSumsOfBreakdown) {
  const auto problem = make_multi_follower(base_market(), 3, 5);
  MultiFollowerEvaluator eval(problem);
  common::Rng rng(1);
  const auto pricing =
      ea::random_real_vector(rng, problem.price_bounds());
  const auto total = eval.evaluate_with_heuristic(pricing, ce_tree());
  const auto& parts = eval.last_breakdown();
  ASSERT_EQ(parts.size(), 3u);
  double f_sum = 0.0;
  double a_sum = 0.0;
  double lb_sum = 0.0;
  for (const auto& e : parts) {
    EXPECT_TRUE(e.ll_feasible);
    f_sum += e.ul_objective;
    a_sum += e.ll_objective;
    lb_sum += e.lower_bound;
  }
  EXPECT_NEAR(total.ul_objective, f_sum, 1e-9);
  EXPECT_NEAR(total.ll_objective, a_sum, 1e-9);
  EXPECT_NEAR(total.lower_bound, lb_sum, 1e-9);
  EXPECT_EQ(total.selection.size(), 3u * problem.num_bundles());
}

TEST(MultiFollower, CountersChargePerFollower) {
  const auto problem = make_multi_follower(base_market(), 3, 5);
  MultiFollowerEvaluator eval(problem);
  common::Rng rng(1);
  const auto pricing = ea::random_real_vector(rng, problem.price_bounds());
  (void)eval.evaluate_with_heuristic(pricing, ce_tree(),
                                     EvalPurpose::kLowerOnly);
  EXPECT_EQ(eval.ll_evaluations(), 3);
  EXPECT_EQ(eval.ul_evaluations(), 0);
  (void)eval.evaluate_with_heuristic(pricing, ce_tree(), EvalPurpose::kBoth);
  EXPECT_EQ(eval.ll_evaluations(), 6);
  EXPECT_EQ(eval.ul_evaluations(), 1);
}

TEST(MultiFollower, SelectionGenomeIsSlicedPerFollower) {
  const auto problem = make_multi_follower(base_market(), 2, 5);
  MultiFollowerEvaluator eval(problem);
  common::Rng rng(2);
  const auto pricing = ea::random_real_vector(rng, problem.price_bounds());
  const auto genome = ea::random_binary_vector(rng, eval.genome_length(), 0.4);
  const auto total = eval.evaluate_with_selection(pricing, genome);
  ASSERT_TRUE(total.ll_feasible);
  const auto& parts = eval.last_breakdown();
  ASSERT_EQ(parts.size(), 2u);
  // Repair only adds: every genome bit set stays set in the right block.
  const std::size_t m = problem.num_bundles();
  for (std::size_t f = 0; f < 2; ++f) {
    for (std::size_t j = 0; j < m; ++j) {
      if (genome[f * m + j]) {
        EXPECT_EQ(parts[f].selection[j], 1);
      }
    }
  }
}

TEST(MultiFollower, ShortGenomeTreatedAsEmptyBaskets) {
  const auto problem = make_multi_follower(base_market(), 2, 5);
  MultiFollowerEvaluator eval(problem);
  common::Rng rng(2);
  const auto pricing = ea::random_real_vector(rng, problem.price_bounds());
  const std::vector<std::uint8_t> empty;
  const auto total = eval.evaluate_with_selection(pricing, empty);
  EXPECT_TRUE(total.ll_feasible);  // repair builds full covers
}

TEST(MultiFollower, RejectsBadDemandVectors) {
  EXPECT_THROW(MultiFollowerProblem(base_market(), {{1, 2}}),
               std::invalid_argument);
  EXPECT_THROW(MultiFollowerProblem(base_market(),
                                    {{1000000, 1000000, 1000000, 1000000}}),
               std::invalid_argument);
  EXPECT_THROW((void)make_multi_follower(base_market(), 0),
               std::invalid_argument);
}

TEST(MultiFollower, CarbonSolverRunsOnMultiFollowerMarket) {
  const auto problem = make_multi_follower(base_market(), 3, 5);
  MultiFollowerEvaluator eval(problem);
  core::CarbonConfig cfg;
  cfg.ul_population_size = 10;
  cfg.gp_population_size = 10;
  cfg.ul_eval_budget = 60;
  cfg.ll_eval_budget = 600;
  cfg.heuristic_sample_size = 2;
  cfg.seed = 7;
  const core::CarbonResult r = core::CarbonSolver(eval, cfg).run();
  ASSERT_TRUE(r.best_evaluation.ll_feasible);
  EXPECT_GT(r.best_ul_objective, 0.0);
  EXPECT_EQ(r.best_evaluation.selection.size(),
            3u * problem.num_bundles());
  // Budgets relative to the evaluator's entry state.
  EXPECT_LE(r.ul_evaluations, cfg.ul_eval_budget + 10);
}

TEST(MultiFollower, CobraSolverRunsOnMultiFollowerMarket) {
  const auto problem = make_multi_follower(base_market(), 2, 5);
  MultiFollowerEvaluator eval(problem);
  cobra::CobraConfig cfg;
  cfg.ul_population_size = 8;
  cfg.ll_population_size = 8;
  cfg.ul_eval_budget = 100;
  cfg.ll_eval_budget = 400;
  cfg.seed = 7;
  const core::RunResult r = cobra::CobraSolver(eval, cfg).run();
  ASSERT_TRUE(r.best_evaluation.ll_feasible);
  EXPECT_GT(r.best_ul_objective, 0.0);
}

TEST(MultiFollower, MoreFollowersMoreRevenuePotential) {
  // With the same pricing, revenue over K followers is the sum of K
  // non-negative per-follower revenues: it cannot shrink when followers
  // are added (follower 0 is shared).
  const auto one = make_multi_follower(base_market(), 1, 5);
  const auto three = make_multi_follower(base_market(), 3, 5);
  MultiFollowerEvaluator e1(one);
  MultiFollowerEvaluator e3(three);
  common::Rng rng(4);
  for (int rep = 0; rep < 5; ++rep) {
    const auto pricing = ea::random_real_vector(rng, one.price_bounds());
    const auto r1 = e1.evaluate_with_heuristic(pricing, ce_tree());
    const auto r3 = e3.evaluate_with_heuristic(pricing, ce_tree());
    EXPECT_GE(r3.ul_objective, r1.ul_objective - 1e-9);
  }
}

}  // namespace
}  // namespace carbon::bcpop
