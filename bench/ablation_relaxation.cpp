// Empirical check of the paper's Eq. (2)/(3) relaxation argument:
//
//   w(x) <= A_carbon(x) <= A_cobra(x)
//   =>  S_opt ⊂ S_carbon ⊂ S_cobra
//   =>  max F over S_opt <= over S_carbon <= over S_cobra
//
// i.e. the worse an algorithm solves the lower level, the more the upper
// level is relaxed, and the more the leader's payoff is overestimated.
//
// On a small market (exactly solvable by branch & bound) we sample pricings,
// compute the true LL optimum w(x), CARBON's heuristic value A_carbon(x) and
// COBRA-style repaired-basket values A_cobra(x), and report how often the
// ordering holds and how large the payoff inflation is.

#include <cstdio>
#include <vector>

#include "carbon/bcpop/parallel_evaluator.hpp"
#include "carbon/common/cli.hpp"
#include "carbon/common/rng.hpp"
#include "carbon/common/statistics.hpp"
#include "carbon/core/carbon_solver.hpp"
#include "carbon/cover/exact.hpp"
#include "carbon/cover/generator.hpp"
#include "carbon/ea/binary_ops.hpp"

int main(int argc, char** argv) {
  using namespace carbon;
  const common::CliArgs args(argc, argv);
  const auto samples =
      static_cast<std::size_t>(args.get_positive_int("samples", 40));
  common::Rng rng(static_cast<std::uint64_t>(args.get_int("seed", 99)));

  // Small market: exact LL solves must be cheap.
  cover::GeneratorConfig gen;
  gen.num_bundles = 40;
  gen.num_services = 5;
  gen.seed = 4242;
  const bcpop::Instance market(cover::generate(gen), /*num_owned=*/4);

  // Train a CARBON follower model on this market.
  core::CarbonConfig cc;
  cc.ul_population_size = 30;
  cc.gp_population_size = 30;
  cc.ul_eval_budget = 500;
  cc.ll_eval_budget = 2'000;
  cc.seed = 1;
  const core::CarbonResult trained = core::CarbonSolver(market, cc).run();
  std::printf("follower model (mean gap %.3f%%): %s\n\n",
              trained.best_heuristic_gap,
              gp::simplify(trained.best_heuristic).to_string().c_str());

  bcpop::ParallelEvaluator eval(market, /*threads=*/1);
  common::RunningStats w_stats;
  common::RunningStats carbon_stats;
  common::RunningStats cobra_stats;
  common::RunningStats f_opt;
  common::RunningStats f_carbon;
  common::RunningStats f_cobra;
  std::size_t ordering_holds = 0;

  for (std::size_t s = 0; s < samples; ++s) {
    const bcpop::Pricing pricing =
        ea::random_real_vector(rng, market.price_bounds());

    // True LL optimum w(x).
    const cover::Instance ll = market.lower_level_instance(pricing);
    const cover::ExactResult exact = cover::exact_solve(ll);
    if (!exact.feasible || !exact.proven_optimal) continue;
    const double w = exact.value;

    // CARBON's follower model.
    const bcpop::Evaluation ec =
        eval.evaluate_with_heuristic(pricing, trained.best_heuristic);

    // COBRA-style follower: best of a few random repaired baskets
    // (mimicking an early/transferred LL population).
    double a_cobra = 1e18;
    double f_cobra_best = 0.0;
    for (int rep = 0; rep < 5; ++rep) {
      const auto basket =
          ea::random_binary_vector(rng, market.num_bundles(), 0.3);
      const bcpop::Evaluation eo =
          eval.evaluate_with_selection(pricing, basket);
      if (eo.ll_objective < a_cobra) {
        a_cobra = eo.ll_objective;
        f_cobra_best = eo.ul_objective;
      }
    }

    w_stats.add(w);
    carbon_stats.add(ec.ll_objective);
    cobra_stats.add(a_cobra);
    f_opt.add(market.leader_revenue(pricing, exact.selection));
    f_carbon.add(ec.ul_objective);
    f_cobra.add(f_cobra_best);
    ordering_holds +=
        (w <= ec.ll_objective + 1e-6 && ec.ll_objective <= a_cobra + 1e-6);
  }

  std::printf("== Eq. (3) ordering over %zu sampled pricings ==\n",
              static_cast<std::size_t>(w_stats.count()));
  std::printf("%-26s %12s\n", "", "mean");
  std::printf("%-26s %12.2f\n", "w(x)      (exact LL opt)", w_stats.mean());
  std::printf("%-26s %12.2f\n", "A_carbon(x)", carbon_stats.mean());
  std::printf("%-26s %12.2f\n", "A_cobra(x)", cobra_stats.mean());
  std::printf("\nw <= A_carbon <= A_cobra held on %zu/%zu samples\n",
              ordering_holds, static_cast<std::size_t>(w_stats.count()));

  std::printf("\n== implied leader payoff (overestimation cascade) ==\n");
  std::printf("%-26s %12.2f   (the real payoff)\n", "F under exact follower",
              f_opt.mean());
  std::printf("%-26s %12.2f\n", "F under CARBON follower", f_carbon.mean());
  std::printf("%-26s %12.2f   (inflated)\n", "F under COBRA follower",
              f_cobra.mean());
  return 0;
}
