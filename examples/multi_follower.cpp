// Multi-follower cloud pricing (the paper's future-work direction): one
// Cloud Service Provider prices its bundles for a market of SEVERAL
// customers, each with different service requirements. CARBON's predator
// population evolves a single scoring heuristic that must model ALL
// customers well — heuristics generalize across lower-level instances,
// which is exactly why the competitive scheme scales past one follower.
//
// Usage: multi_follower [--followers K] [--seed S]

#include <cstdio>
#include <exception>

#include "carbon/bcpop/multi_follower.hpp"
#include "carbon/common/cli.hpp"
#include "carbon/core/carbon_solver.hpp"
#include "carbon/cover/generator.hpp"

int main(int argc, char** argv) try {
  using namespace carbon;
  const common::CliArgs args(argc, argv);
  const auto followers =
      static_cast<std::size_t>(args.get_positive_int("followers", 3));
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 11));

  cover::GeneratorConfig gen;
  gen.num_bundles = 80;
  gen.num_services = 6;
  gen.seed = seed;
  bcpop::Instance market(cover::generate(gen), /*num_owned=*/8);
  const auto problem =
      bcpop::make_multi_follower(std::move(market), followers, seed);

  std::printf("Market: %zu bundles x %zu services, %zu customers, we own 8 "
              "bundles.\n",
              problem.num_bundles(), problem.follower(0).num_services(),
              problem.num_followers());
  for (std::size_t f = 0; f < problem.num_followers(); ++f) {
    std::printf("  customer %zu demands:", f);
    for (std::size_t k = 0; k < problem.follower(f).num_services(); ++k) {
      std::printf(" %d", problem.follower(f).market().demand(k));
    }
    std::printf("\n");
  }

  bcpop::MultiFollowerEvaluator eval(problem);
  core::CarbonConfig cfg;
  cfg.ul_population_size = 30;
  cfg.gp_population_size = 30;
  cfg.ul_eval_budget = 600;
  cfg.ll_eval_budget = 6'000;  // K follower solves per evaluation
  cfg.heuristic_sample_size = 3;
  cfg.seed = seed;

  const core::CarbonResult r = core::CarbonSolver(eval, cfg).run();

  std::printf("\nCARBON: %d generations, %lld UL / %lld LL evaluations\n",
              r.generations, r.ul_evaluations, r.ll_evaluations);
  std::printf("Total revenue across %zu customers: %.2f (aggregate gap "
              "%.3f%%)\n",
              problem.num_followers(), r.best_ul_objective,
              r.best_evaluation.gap_percent);

  // Per-customer breakdown at the best pricing.
  (void)eval.evaluate_with_heuristic(r.best_pricing, r.best_heuristic);
  const auto& parts = eval.last_breakdown();
  for (std::size_t f = 0; f < parts.size(); ++f) {
    std::printf("  customer %zu: pays %.2f (gap %.3f%%), of which %.2f to "
                "us\n",
                f, parts[f].ll_objective, parts[f].gap_percent,
                parts[f].ul_objective);
  }
  std::printf("\nShared follower model: %s\n",
              gp::simplify(r.best_heuristic).to_string().c_str());
  return 0;
} catch (const std::exception& e) {
  std::fprintf(stderr, "multi_follower: %s\n", e.what());
  return 2;
}
