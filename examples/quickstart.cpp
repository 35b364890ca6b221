// Quickstart: solve a small Bi-level Cloud Pricing problem with CARBON.
//
// A Cloud Service Provider (the leader) owns 10 of the 100 bundles on a
// market and must price them. A rational customer (the follower) buys the
// cheapest set of bundles covering all of its service requirements. CARBON
// co-evolves candidate pricings against GP-generated greedy heuristics that
// model the customer.
//
// Build & run:  ./quickstart [--seed N]

#include <cstdio>
#include <exception>

#include "carbon/common/cli.hpp"
#include "carbon/core/carbon_solver.hpp"
#include "carbon/cover/generator.hpp"

int main(int argc, char** argv) try {
  using namespace carbon;
  const common::CliArgs args(argc, argv);

  // 1. A market: 100 bundles x 5 services (paper class 0), 10 owned by us.
  bcpop::Instance market = bcpop::make_paper_bcpop(/*class_index=*/0);
  std::printf("Market: %zu bundles, %zu services, we own the first %zu.\n",
              market.num_bundles(), market.num_services(),
              market.num_owned());
  std::printf("Mean competitor price: %.2f\n\n",
              market.mean_competitor_price());

  // 2. Configure CARBON (scaled-down budget for a quick demo).
  core::CarbonConfig cfg;
  cfg.ul_population_size = 40;
  cfg.gp_population_size = 40;
  cfg.ul_eval_budget = 1'500;
  cfg.ll_eval_budget = 5'000;
  cfg.seed = static_cast<std::uint64_t>(args.get_int("seed", 42));

  // 3. Run.
  core::CarbonResult result = core::CarbonSolver(market, cfg).run();

  // 4. Inspect the outcome.
  std::printf("CARBON finished after %d generations (%lld UL / %lld LL "
              "evaluations).\n",
              result.generations, result.ul_evaluations,
              result.ll_evaluations);
  std::printf("Best leader revenue F = %.2f with lower-level %%-gap %.3f%%\n",
              result.best_ul_objective, result.best_evaluation.gap_percent);
  std::printf("Customer pays %.2f (LP lower bound %.2f)\n",
              result.best_evaluation.ll_objective,
              result.best_evaluation.lower_bound);

  std::printf("\nOur optimal prices:");
  for (double p : result.best_pricing) std::printf(" %.1f", p);
  std::printf("\n\nEvolved follower model (greedy scoring heuristic):\n  %s\n",
              gp::simplify(result.best_heuristic).to_string().c_str());
  std::printf("(terminals: COST=price, QCOV=useful coverage, BRES=residual "
              "demand,\n QSUM=bundle mass, DUAL=LP-dual-weighted coverage, "
              "XBAR=LP relaxed value)\n");
  return 0;
} catch (const std::exception& e) {
  std::fprintf(stderr, "quickstart: %s\n", e.what());
  return 2;
}
