// Integration tests asserting the paper's headline claims end-to-end at a
// scaled-down budget. These are the "does the reproduction reproduce" tests:
// if one of them fails, the benches would print the wrong story.

#include <gtest/gtest.h>

#include "carbon/bcpop/parallel_evaluator.hpp"
#include "carbon/cobra/cobra_solver.hpp"
#include "carbon/core/carbon_solver.hpp"
#include "carbon/core/experiment.hpp"
#include "carbon/cover/exact.hpp"
#include "carbon/cover/generator.hpp"
#include "carbon/ea/binary_ops.hpp"

namespace carbon {
namespace {

core::ExperimentConfig cfg_for_integration() {
  core::ExperimentConfig cfg;
  cfg.runs = 3;
  cfg.population_size = 20;
  cfg.archive_size = 20;
  cfg.ul_eval_budget = 300;
  cfg.ll_eval_budget = 900;
  cfg.heuristic_sample_size = 3;
  cfg.threads = 1;
  return cfg;
}

TEST(Reproduction, TableIII_CarbonGapBeatsCobraGap) {
  // Paper Table III: CARBON's best %-gap is far below COBRA's.
  const bcpop::Instance inst = bcpop::make_paper_bcpop(0);
  const core::ExperimentConfig cfg = cfg_for_integration();
  const auto carbon = core::run_cell(inst, core::Algorithm::kCarbon, cfg);
  const auto cobra = core::run_cell(inst, core::Algorithm::kCobra, cfg);
  EXPECT_LT(carbon.gap.mean, cobra.gap.mean)
      << "CARBON " << carbon.gap.mean << " vs COBRA " << cobra.gap.mean;
  // The margin should be substantial, not a coin flip.
  EXPECT_LT(carbon.gap.mean * 2.0, cobra.gap.mean);
}

TEST(Reproduction, TableIV_CobraOverestimatesRevenue) {
  // Paper Table IV: COBRA reports a higher (inflated) UL objective.
  const bcpop::Instance inst = bcpop::make_paper_bcpop(0);
  const core::ExperimentConfig cfg = cfg_for_integration();
  const auto carbon = core::run_cell(inst, core::Algorithm::kCarbon, cfg);
  const auto cobra = core::run_cell(inst, core::Algorithm::kCobra, cfg);
  EXPECT_GT(cobra.ul_objective.mean, carbon.ul_objective.mean);
}

TEST(Reproduction, Fig4_CarbonPopulationCurvesAreSteady) {
  const bcpop::Instance inst = bcpop::make_paper_bcpop(0);
  core::ExperimentConfig cfg = cfg_for_integration();
  cfg.record_convergence = true;
  const auto cell = core::run_cell(inst, core::Algorithm::kCarbon, cfg);
  const auto curve = core::average_convergence(cell.runs);
  ASSERT_GT(curve.size(), 3u);
  // Gap should end lower than it started (predators learn).
  EXPECT_LT(curve.back().current_mean_gap, curve.front().current_mean_gap);
  // UL should end higher than it started (prey improve).
  EXPECT_GT(curve.back().current_best_ul, curve.front().current_best_ul);
}

TEST(Reproduction, Eq3_RelaxationOrderingOnSampledPricings) {
  // w(x) <= A_carbon(x) <= (typical) A_cobra(x).
  cover::GeneratorConfig gen;
  gen.num_bundles = 25;
  gen.num_services = 4;
  gen.seed = 77;
  const bcpop::Instance market(cover::generate(gen), 3);

  core::CarbonConfig cc;
  cc.ul_population_size = 15;
  cc.gp_population_size = 15;
  cc.ul_eval_budget = 200;
  cc.ll_eval_budget = 800;
  cc.seed = 5;
  const core::CarbonResult trained = core::CarbonSolver(market, cc).run();

  bcpop::ParallelEvaluator eval(market, /*threads=*/1);
  common::Rng rng(3);
  int lower_ok = 0;
  int upper_ok = 0;
  const int samples = 15;
  for (int s = 0; s < samples; ++s) {
    const auto pricing = ea::random_real_vector(rng, market.price_bounds());
    const auto exact = cover::exact_solve(market.lower_level_instance(pricing));
    ASSERT_TRUE(exact.feasible && exact.proven_optimal);
    const auto ec = eval.evaluate_with_heuristic(pricing,
                                                 trained.best_heuristic);
    const auto basket = ea::random_binary_vector(rng, market.num_bundles(),
                                                 0.3);
    const auto eo = eval.evaluate_with_selection(pricing, basket);
    lower_ok += exact.value <= ec.ll_objective + 1e-6;
    upper_ok += ec.ll_objective <= eo.ll_objective + 1e-6;
  }
  EXPECT_EQ(lower_ok, samples);      // w(x) <= A_carbon(x) always
  EXPECT_GE(upper_ok, samples - 2);  // A_carbon <= A_cobra almost always
}

TEST(Reproduction, CobraSeeSawVersusCarbonSteadiness) {
  // Fig. 4 vs Fig. 5: count direction reversals of the population-best UL
  // curve. COBRA's phase alternation must produce relatively more reversals.
  const bcpop::Instance inst = bcpop::make_paper_bcpop(0);
  core::ExperimentConfig cfg = cfg_for_integration();
  cfg.record_convergence = true;
  cfg.runs = 2;

  const auto count_reversals = [](const std::vector<core::ConvergencePoint>&
                                      curve) {
    std::size_t n = 0;
    for (std::size_t g = 2; g < curve.size(); ++g) {
      const double d1 =
          curve[g - 1].current_best_ul - curve[g - 2].current_best_ul;
      const double d2 = curve[g].current_best_ul - curve[g - 1].current_best_ul;
      if (d1 * d2 < 0) ++n;
    }
    return n;
  };

  const auto carbon = core::run_cell(inst, core::Algorithm::kCarbon, cfg);
  const auto cobra = core::run_cell(inst, core::Algorithm::kCobra, cfg);
  const auto carbon_curve = core::average_convergence(carbon.runs);
  const auto cobra_curve = core::average_convergence(cobra.runs);
  ASSERT_GT(carbon_curve.size(), 4u);
  ASSERT_GT(cobra_curve.size(), 4u);

  const double carbon_rate =
      static_cast<double>(count_reversals(carbon_curve)) /
      static_cast<double>(carbon_curve.size());
  const double cobra_rate =
      static_cast<double>(count_reversals(cobra_curve)) /
      static_cast<double>(cobra_curve.size());
  EXPECT_GT(cobra_rate, carbon_rate);
}

TEST(Reproduction, BudgetScalingImprovesCarbon) {
  // Sanity: more evaluation budget should not make CARBON's gap worse.
  const bcpop::Instance inst = bcpop::make_paper_bcpop(0);
  core::ExperimentConfig small = cfg_for_integration();
  small.runs = 2;
  small.ll_eval_budget = 200;
  core::ExperimentConfig large = small;
  large.ll_eval_budget = 1500;
  const auto small_cell = core::run_cell(inst, core::Algorithm::kCarbon, small);
  const auto large_cell = core::run_cell(inst, core::Algorithm::kCarbon, large);
  EXPECT_LE(large_cell.gap.mean, small_cell.gap.mean + 0.5);
}

}  // namespace
}  // namespace carbon
