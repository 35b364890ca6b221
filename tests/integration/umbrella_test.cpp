// Compilation + smoke test of the umbrella header: every public symbol the
// README advertises must be reachable from a single include.
#include "carbon/carbon.hpp"

#include <gtest/gtest.h>

namespace {

TEST(Umbrella, EndToEndThroughSingleInclude) {
  using namespace carbon;

  // Generate a market, run every solver family briefly, touch the bounds.
  cover::GeneratorConfig gen;
  gen.num_bundles = 20;
  gen.num_services = 3;
  gen.seed = 99;
  const bcpop::Instance market(cover::generate(gen), 2);

  const cover::Relaxation rel = cover::relax(market.market());
  ASSERT_TRUE(rel.feasible);
  const auto lag =
      cover::lagrangian_bound(market.market(), rel.lower_bound * 2.0);
  EXPECT_LE(lag.lower_bound, rel.lower_bound * (1 + 1e-6) + 1e-6);

  core::CarbonConfig cc;
  cc.ul_population_size = 8;
  cc.gp_population_size = 8;
  cc.ul_eval_budget = 40;
  cc.ll_eval_budget = 160;
  cc.heuristic_sample_size = 2;
  const auto carbon_result = core::CarbonSolver(market, cc).run();
  EXPECT_TRUE(carbon_result.best_evaluation.ll_feasible);

  cobra::CobraConfig oc;
  oc.ul_population_size = 8;
  oc.ll_population_size = 8;
  oc.ul_eval_budget = 40;
  oc.ll_eval_budget = 40;
  const auto cobra_result = cobra::CobraSolver(market, oc).run();
  EXPECT_TRUE(cobra_result.best_evaluation.ll_feasible);

  const auto tree = gp::parse("(div QCOV COST)");
  EXPECT_TRUE(gp::simplify(tree).valid());
  const auto stats = gp::analyze_population(std::vector<gp::Tree>{tree});
  EXPECT_EQ(stats.population, 1u);

  const bilevel::LinearBilevel p3 = bilevel::program3();
  EXPECT_TRUE(bilevel::solve_by_grid(p3, 101).best.has_value());
}

}  // namespace
