#include "carbon/baselines/codba.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>

#include "carbon/bcpop/parallel_evaluator.hpp"
#include "carbon/common/statistics.hpp"
#include "carbon/core/run_shell.hpp"
#include "carbon/ea/archive.hpp"

namespace carbon::baselines {

namespace {

using core::Basket;

// A zero decomposition width or subpopulation generation count would make
// every generation evaluate nothing, so the budget loop would never end.
void validate_config(const CodbaConfig& cfg) {
  if (cfg.ul_population_size < 2 || cfg.ll_subpopulation_size < 2) {
    throw std::invalid_argument("CodbaSolver: population sizes must be >= 2");
  }
  if (cfg.decomposition_width < 1) {
    throw std::invalid_argument("CodbaSolver: decomposition_width >= 1");
  }
  if (cfg.ll_subpopulation_generations < 1) {
    throw std::invalid_argument(
        "CodbaSolver: ll_subpopulation_generations >= 1");
  }
}

}  // namespace

CodbaSolver::CodbaSolver(const bcpop::Instance& instance, CodbaConfig config)
    : inst_(&instance), cfg_(std::move(config)) {
  validate_config(cfg_);
}

CodbaSolver::CodbaSolver(bcpop::EvaluatorInterface& evaluator,
                         CodbaConfig config)
    : external_(&evaluator), cfg_(std::move(config)) {
  validate_config(cfg_);
}

core::RunResult CodbaSolver::run() {
  if (external_ != nullptr) return run_with(*external_);
  bcpop::ParallelEvaluator own(*inst_, /*threads=*/1);
  return run_with(own);
}

core::RunResult CodbaSolver::run_with(bcpop::EvaluatorInterface& eval) {
  common::Rng rng(cfg_.seed);
  const auto bounds = eval.price_bounds();
  const std::size_t genome = eval.genome_length();

  std::vector<bcpop::Pricing> ul_pop;
  for (std::size_t i = 0; i < cfg_.ul_population_size; ++i) {
    ul_pop.push_back(ea::random_real_vector(rng, bounds));
  }
  std::vector<double> ul_fitness(ul_pop.size(), 0.0);

  // Archive of complete solutions (keyed by F); its baskets seed the LL
  // subpopulations ("mate with the best archived LL solutions").
  ea::Archive<core::ArchivedSolution> archive(cfg_.archive_size,
                                              /*maximize=*/true);

  core::RunResult result;
  core::RunLedger ledger(cfg_, eval, result);

  // Evolves a fresh LL subpopulation for the given pricing and returns the
  // best complete evaluation found.
  const auto solve_subproblem = [&](const bcpop::Pricing& pricing) {
    std::vector<Basket> sub;
    for (std::size_t i = 0; i < cfg_.ll_subpopulation_size; ++i) {
      if (!archive.empty() && rng.chance(0.5)) {
        sub.push_back(archive.sample(rng).item.basket);
      } else {
        sub.push_back(
            ea::random_binary_vector(rng, genome, cfg_.ll_init_density));
      }
    }
    std::vector<double> fit(sub.size(), 0.0);
    bcpop::Evaluation best;
    Basket best_basket;
    double best_f = std::numeric_limits<double>::infinity();
    for (int g = 0;
         g < cfg_.ll_subpopulation_generations && ledger.budget_left(); ++g) {
      for (std::size_t i = 0; i < sub.size(); ++i) {
        const bcpop::Evaluation e =
            eval.evaluate_with_selection(pricing, sub[i]);
        fit[i] = e.ll_objective;
        if (e.ll_feasible && e.ll_objective < best_f) {
          best_f = e.ll_objective;
          best = e;
          best_basket = sub[i];
        }
      }
      sub = core::breed_baskets(rng, sub, fit, cfg_.ll_crossover_prob,
                                cfg_.ll_mutation_prob, /*metrics=*/nullptr);
    }
    return std::pair{best, best_basket};
  };

  while (ledger.budget_left()) {
    common::RunningStats uls;
    common::RunningStats gaps;

    // Decomposition: the top pricings (by last fitness; random in gen 0)
    // each get a dedicated LL subpopulation.
    std::vector<std::size_t> chosen(ul_pop.size());
    for (std::size_t i = 0; i < ul_pop.size(); ++i) chosen[i] = i;
    std::sort(chosen.begin(), chosen.end(), [&](std::size_t a, std::size_t b) {
      return ul_fitness[a] > ul_fitness[b];
    });
    chosen.resize(std::min(cfg_.decomposition_width, chosen.size()));

    for (const std::size_t i : chosen) {
      if (!ledger.budget_left()) break;
      const auto [e, basket] = solve_subproblem(ul_pop[i]);
      if (basket.empty()) continue;
      ul_fitness[i] = e.ul_objective;
      uls.add(e.ul_objective);
      gaps.add(e.gap_percent);
      archive.add({ul_pop[i], basket, e}, e.ul_objective);
      ledger.note(ul_pop[i], e);
    }

    // A generation in which no subproblem found a feasible basket has no
    // current best; it is recorded as -inf, not as the 0 of empty stats.
    if (core::ConvergencePoint* pt = ledger.point("codba", uls, gaps);
        pt != nullptr && uls.count() == 0) {
      pt->current_best_ul = -std::numeric_limits<double>::infinity();
    }

    // UL variation on the (partially updated) fitness.
    ul_pop = core::breed_pricings(rng, ul_pop, ul_fitness, bounds,
                                  core::UpperVariation::of(cfg_),
                                  /*metrics=*/nullptr);
    // Keep the archive elites alive.
    const std::size_t reinject = std::min<std::size_t>(
        {std::size_t{3}, archive.size(), ul_pop.size()});
    for (std::size_t r = 0; r < reinject; ++r) {
      ul_pop[ul_pop.size() - 1 - r] = archive.at(r).item.pricing;
    }
  }
  ledger.finish();
  return result;
}

}  // namespace carbon::baselines
