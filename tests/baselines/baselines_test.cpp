#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "carbon/baselines/biga.hpp"
#include "carbon/baselines/codba.hpp"
#include "carbon/baselines/nested_ga.hpp"
#include "carbon/bcpop/multi_follower.hpp"
#include "carbon/bcpop/parallel_evaluator.hpp"
#include "carbon/common/rng.hpp"
#include "carbon/core/carbon_solver.hpp"
#include "carbon/core/experiment.hpp"
#include "carbon/cover/generator.hpp"

namespace carbon::baselines {
namespace {

bcpop::Instance small_instance() {
  cover::GeneratorConfig cfg;
  cfg.num_bundles = 25;
  cfg.num_services = 3;
  cfg.seed = 31;
  return bcpop::Instance(cover::generate(cfg), 3);
}

TEST(Biga, SmokeFeasibleAndDeterministic) {
  const bcpop::Instance inst = small_instance();
  BigaConfig cfg;
  cfg.population_size = 10;
  cfg.archive_size = 10;
  cfg.ul_eval_budget = 150;
  cfg.ll_eval_budget = 150;
  cfg.seed = 3;
  const core::RunResult a = BigaSolver(inst, cfg).run();
  const core::RunResult b = BigaSolver(inst, cfg).run();
  ASSERT_TRUE(a.best_evaluation.ll_feasible);
  EXPECT_GT(a.best_ul_objective, 0.0);
  EXPECT_DOUBLE_EQ(a.best_ul_objective, b.best_ul_objective);
  EXPECT_DOUBLE_EQ(a.best_gap, b.best_gap);
}

TEST(Biga, RespectsBudgets) {
  const bcpop::Instance inst = small_instance();
  BigaConfig cfg;
  cfg.population_size = 10;
  cfg.ul_eval_budget = 100;
  cfg.ll_eval_budget = 100;
  cfg.seed = 3;
  const core::RunResult r = BigaSolver(inst, cfg).run();
  EXPECT_LE(r.ul_evaluations, 100 + 10);
  EXPECT_LE(r.ll_evaluations, 100 + 10);
  EXPECT_GT(r.generations, 0);
}

TEST(Biga, TracePhaseLabeled) {
  const bcpop::Instance inst = small_instance();
  BigaConfig cfg;
  cfg.population_size = 8;
  cfg.ul_eval_budget = 60;
  cfg.ll_eval_budget = 60;
  cfg.seed = 3;
  const core::RunResult r = BigaSolver(inst, cfg).run();
  ASSERT_FALSE(r.convergence.empty());
  EXPECT_EQ(r.convergence.front().phase, "biga");
}

TEST(Biga, InvalidConfigThrows) {
  const bcpop::Instance inst = small_instance();
  BigaConfig cfg;
  cfg.population_size = 1;
  EXPECT_THROW(BigaSolver(inst, cfg), std::invalid_argument);
}

TEST(Codba, SmokeFeasibleAndDeterministic) {
  const bcpop::Instance inst = small_instance();
  CodbaConfig cfg;
  cfg.ul_population_size = 10;
  cfg.archive_size = 10;
  cfg.decomposition_width = 3;
  cfg.ll_subpopulation_size = 6;
  cfg.ll_subpopulation_generations = 2;
  cfg.ul_eval_budget = 300;
  cfg.ll_eval_budget = 300;
  cfg.seed = 5;
  const core::RunResult a = CodbaSolver(inst, cfg).run();
  const core::RunResult b = CodbaSolver(inst, cfg).run();
  ASSERT_TRUE(a.best_evaluation.ll_feasible);
  EXPECT_GT(a.best_ul_objective, 0.0);
  EXPECT_DOUBLE_EQ(a.best_ul_objective, b.best_ul_objective);
}

TEST(Codba, BudgetStopsSubpopulations) {
  const bcpop::Instance inst = small_instance();
  CodbaConfig cfg;
  cfg.ul_population_size = 10;
  cfg.decomposition_width = 5;
  cfg.ll_subpopulation_size = 8;
  cfg.ll_subpopulation_generations = 4;
  cfg.ul_eval_budget = 10'000;
  cfg.ll_eval_budget = 120;  // LL budget binds
  cfg.seed = 5;
  const core::RunResult r = CodbaSolver(inst, cfg).run();
  // Overshoot bounded by one subpopulation generation.
  EXPECT_LE(r.ll_evaluations, 120 + 8);
}

TEST(Codba, InvalidConfigsThrow) {
  const bcpop::Instance inst = small_instance();
  CodbaConfig cfg;
  cfg.ll_subpopulation_size = 1;
  EXPECT_THROW(CodbaSolver(inst, cfg), std::invalid_argument);
  cfg = CodbaConfig{};
  cfg.decomposition_width = 0;
  EXPECT_THROW(CodbaSolver(inst, cfg), std::invalid_argument);
}

TEST(Baselines, RunOnMultiFollowerMarkets) {
  const auto problem =
      bcpop::make_multi_follower(small_instance(), 2, /*seed=*/4);
  {
    bcpop::MultiFollowerEvaluator eval(problem);
    BigaConfig cfg;
    cfg.population_size = 8;
    cfg.ul_eval_budget = 60;
    cfg.ll_eval_budget = 240;
    const auto r = BigaSolver(eval, cfg).run();
    EXPECT_TRUE(r.best_evaluation.ll_feasible);
  }
  {
    bcpop::MultiFollowerEvaluator eval(problem);
    CodbaConfig cfg;
    cfg.ul_population_size = 8;
    cfg.decomposition_width = 2;
    cfg.ll_subpopulation_size = 4;
    cfg.ul_eval_budget = 60;
    cfg.ll_eval_budget = 240;
    const auto r = CodbaSolver(eval, cfg).run();
    EXPECT_TRUE(r.best_evaluation.ll_feasible);
  }
}

TEST(ExperimentDispatch, NewAlgorithmsAreWired) {
  const bcpop::Instance inst = small_instance();
  core::ExperimentConfig cfg;
  cfg.runs = 1;
  cfg.population_size = 8;
  cfg.archive_size = 8;
  cfg.ul_eval_budget = 60;
  cfg.ll_eval_budget = 200;
  cfg.heuristic_sample_size = 2;
  for (const auto a :
       {core::Algorithm::kBiga, core::Algorithm::kCodba,
        core::Algorithm::kCarbonMemetic}) {
    const auto cell = core::run_cell(inst, a, cfg);
    EXPECT_TRUE(cell.runs[0].best_evaluation.ll_feasible)
        << core::to_string(a);
  }
  EXPECT_STREQ(core::to_string(core::Algorithm::kBiga), "BIGA");
  EXPECT_STREQ(core::to_string(core::Algorithm::kCodba), "CODBA");
  EXPECT_STREQ(core::to_string(core::Algorithm::kCarbonMemetic),
               "CARBON-MEMETIC");
}

TEST(MemeticCarbon, PolishNeverWorsensTheGap) {
  const bcpop::Instance inst = small_instance();
  core::ExperimentConfig cfg;
  cfg.runs = 2;
  cfg.population_size = 10;
  cfg.archive_size = 10;
  cfg.ul_eval_budget = 100;
  cfg.ll_eval_budget = 400;
  cfg.heuristic_sample_size = 2;
  const auto plain = core::run_cell(inst, core::Algorithm::kCarbon, cfg);
  const auto memetic =
      core::run_cell(inst, core::Algorithm::kCarbonMemetic, cfg);
  // Polish changes trajectories, so strict dominance is not guaranteed —
  // but the memetic variant must stay in the same quality league.
  EXPECT_LE(memetic.gap.mean, 2.0 * plain.gap.mean + 1.0);
}

// ---- Differential harness against a brute-force lower level ----------------
//
// On an instance small enough to enumerate every follower selection (2^M
// subsets), the true LL optimum A*(x) is computable exactly. That pins down
// the invariants every solver in the zoo — CARBON and the three baselines —
// must satisfy at its reported best, whatever trajectory got it there:
//   LB(x) <= A*(x) <= w(x)      (relaxation / optimum / heuristic sandwich)
//   best_ul == leader_revenue(best_pricing, best_selection), recomputed
//   budget accounting within one generation of the configured caps.

/// 10 bundles -> 1024 subsets: enumerable in microseconds.
bcpop::Instance tiny_instance() {
  cover::GeneratorConfig cfg;
  cfg.num_bundles = 10;
  cfg.num_services = 2;
  cfg.seed = 11;
  return bcpop::Instance(cover::generate(cfg), 2);
}

/// Exact follower optimum A*(x) by exhaustive enumeration; infinity when no
/// subset covers the demands (cannot happen for generator instances).
double brute_force_follower_cost(const bcpop::Instance& inst,
                                 std::span<const double> pricing) {
  const cover::Instance ll = inst.lower_level_instance(pricing);
  const std::size_t m = ll.num_bundles();
  double best = std::numeric_limits<double>::infinity();
  std::vector<std::uint8_t> sel(m, 0);
  for (std::uint32_t mask = 0; mask < (1u << m); ++mask) {
    for (std::size_t j = 0; j < m; ++j) sel[j] = (mask >> j) & 1u;
    const std::vector<int> residual = ll.residual_demand(sel);
    bool covered = true;
    for (const int r : residual) covered &= (r == 0);
    if (!covered) continue;
    best = std::min(best, ll.selection_cost(sel));
  }
  return best;
}

void expect_sandwich_at_best(const core::RunResult& r,
                             const bcpop::Instance& inst,
                             const std::string& label) {
  SCOPED_TRACE(label);
  ASSERT_TRUE(r.best_evaluation.ll_feasible);
  const double optimum = brute_force_follower_cost(inst, r.best_pricing);
  ASSERT_TRUE(std::isfinite(optimum));
  // The heuristic/genome construction can never beat the true optimum, and
  // the LP relaxation can never exceed it.
  EXPECT_GE(r.best_evaluation.ll_objective, optimum - 1e-9);
  EXPECT_LE(r.best_evaluation.lower_bound, optimum + 1e-9);
  // The reported leader revenue is exactly what the pricing and selection
  // imply — no solver may carry a stale or recombined objective.
  EXPECT_EQ(r.best_ul_objective, r.best_evaluation.ul_objective);
  EXPECT_EQ(r.best_ul_objective,
            inst.leader_revenue(r.best_pricing, r.best_evaluation.selection));
}

TEST(Differential, EverySolverRespectsTheBruteForceOptimum) {
  const bcpop::Instance inst = tiny_instance();

  core::CarbonConfig carbon;
  carbon.ul_population_size = 8;
  carbon.ul_archive_size = 8;
  carbon.gp_population_size = 8;
  carbon.gp_archive_size = 8;
  carbon.heuristic_sample_size = 2;
  carbon.archive_reinjection = 2;
  carbon.ul_eval_budget = 60;
  carbon.ll_eval_budget = 600;
  carbon.seed = 9;
  expect_sandwich_at_best(core::CarbonSolver(inst, carbon).run(), inst,
                          "CARBON");

  BigaConfig biga;
  biga.population_size = 8;
  biga.archive_size = 8;
  biga.ul_eval_budget = 120;
  biga.ll_eval_budget = 120;
  biga.seed = 9;
  expect_sandwich_at_best(BigaSolver(inst, biga).run(), inst, "BIGA");

  CodbaConfig codba;
  codba.ul_population_size = 8;
  codba.archive_size = 8;
  codba.decomposition_width = 2;
  codba.ll_subpopulation_size = 4;
  codba.ll_subpopulation_generations = 2;
  codba.ul_eval_budget = 120;
  codba.ll_eval_budget = 240;
  codba.seed = 9;
  expect_sandwich_at_best(CodbaSolver(inst, codba).run(), inst, "CODBA");

  NestedGaConfig nested;
  nested.population_size = 8;
  nested.archive_size = 8;
  nested.ul_eval_budget = 120;
  nested.ll_eval_budget = 120;
  nested.seed = 9;
  expect_sandwich_at_best(NestedGaSolver(inst, nested).run(), inst,
                          "NESTED-GA");
}

TEST(Differential, RelaxationBruteForceGreedySandwichOnRandomPricings) {
  // The same sandwich, decoupled from any solver: for random pricings the
  // evaluator's LB and greedy cost must bracket the enumerated optimum.
  const bcpop::Instance inst = tiny_instance();
  bcpop::ParallelEvaluator eval(inst, /*threads=*/1);
  const gp::Tree tree = gp::parse("(div QCOV COST)");
  common::Rng rng(2026);
  for (int trial = 0; trial < 25; ++trial) {
    std::vector<double> pricing;
    for (const ea::Bounds& b : inst.price_bounds()) {
      pricing.push_back(rng.uniform(b.lo, b.hi));
    }
    const bcpop::Evaluation e = eval.evaluate_with_heuristic(pricing, tree);
    ASSERT_TRUE(e.ll_feasible) << "trial " << trial;
    const double optimum = brute_force_follower_cost(inst, pricing);
    EXPECT_LE(e.lower_bound, optimum + 1e-9) << "trial " << trial;
    EXPECT_GE(e.ll_objective, optimum - 1e-9) << "trial " << trial;
  }
}

TEST(Differential, BudgetAccountingParityAcrossSolvers) {
  // Every solver must stop within one population/generation of its caps —
  // the Table II accounting is the comparison's fairness guarantee, so an
  // overshoot beyond generation granularity disqualifies a differential.
  const bcpop::Instance inst = tiny_instance();
  const long long ul_budget = 80;
  const long long ll_budget = 400;
  const long long slack = 64;  // one generation of the largest population

  core::CarbonConfig carbon;
  carbon.ul_population_size = 8;
  carbon.ul_archive_size = 8;
  carbon.gp_population_size = 8;
  carbon.gp_archive_size = 8;
  carbon.heuristic_sample_size = 2;
  carbon.archive_reinjection = 2;
  carbon.ul_eval_budget = ul_budget;
  carbon.ll_eval_budget = ll_budget;
  carbon.seed = 12;
  const core::RunResult rc = core::CarbonSolver(inst, carbon).run();

  BigaConfig biga;
  biga.population_size = 8;
  biga.archive_size = 8;
  biga.ul_eval_budget = ul_budget;
  biga.ll_eval_budget = ll_budget;
  biga.seed = 12;
  const core::RunResult rb = BigaSolver(inst, biga).run();

  CodbaConfig codba;
  codba.ul_population_size = 8;
  codba.archive_size = 8;
  codba.decomposition_width = 2;
  codba.ll_subpopulation_size = 4;
  codba.ll_subpopulation_generations = 2;
  codba.ul_eval_budget = ul_budget;
  codba.ll_eval_budget = ll_budget;
  codba.seed = 12;
  const core::RunResult rd = CodbaSolver(inst, codba).run();

  NestedGaConfig nested;
  nested.population_size = 8;
  nested.archive_size = 8;
  nested.ul_eval_budget = ul_budget;
  nested.ll_eval_budget = ll_budget;
  nested.seed = 12;
  const core::RunResult rn = NestedGaSolver(inst, nested).run();

  const struct {
    const char* name;
    const core::RunResult* r;
  } rows[] = {{"CARBON", &rc}, {"BIGA", &rb}, {"CODBA", &rd},
              {"NESTED-GA", &rn}};
  for (const auto& row : rows) {
    SCOPED_TRACE(row.name);
    EXPECT_GT(row.r->ul_evaluations, 0);
    EXPECT_GT(row.r->ll_evaluations, 0);
    EXPECT_LE(row.r->ul_evaluations, ul_budget + slack);
    EXPECT_LE(row.r->ll_evaluations, ll_budget + slack);
    EXPECT_GT(row.r->generations, 0);
    // The final convergence point reports exactly the consumed budget.
    ASSERT_FALSE(row.r->convergence.empty());
    EXPECT_EQ(row.r->convergence.back().ul_evaluations,
              row.r->ul_evaluations);
    EXPECT_EQ(row.r->convergence.back().ll_evaluations,
              row.r->ll_evaluations);
  }
}

}  // namespace
}  // namespace carbon::baselines
