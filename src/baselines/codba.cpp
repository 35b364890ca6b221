#include "carbon/baselines/codba.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "carbon/bcpop/parallel_evaluator.hpp"
#include "carbon/common/statistics.hpp"
#include "carbon/ea/archive.hpp"

namespace carbon::baselines {

namespace {

using Basket = std::vector<std::uint8_t>;

struct ArchivedSolution {
  bcpop::Pricing pricing;
  Basket basket;
  bcpop::Evaluation evaluation;
};

}  // namespace

CodbaSolver::CodbaSolver(const bcpop::Instance& instance, CodbaConfig config)
    : inst_(&instance), cfg_(std::move(config)) {
  if (cfg_.ul_population_size < 2 || cfg_.ll_subpopulation_size < 2) {
    throw std::invalid_argument("CodbaSolver: population sizes must be >= 2");
  }
  if (cfg_.decomposition_width < 1) {
    throw std::invalid_argument("CodbaSolver: decomposition_width >= 1");
  }
}

CodbaSolver::CodbaSolver(bcpop::EvaluatorInterface& evaluator,
                         CodbaConfig config)
    : external_(&evaluator), cfg_(std::move(config)) {
  if (cfg_.ul_population_size < 2 || cfg_.ll_subpopulation_size < 2) {
    throw std::invalid_argument("CodbaSolver: population sizes must be >= 2");
  }
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
  const long long ul_start = eval.ul_evaluations();
  const long long ll_start = eval.ll_evaluations();

  std::vector<bcpop::Pricing> ul_pop;
  for (std::size_t i = 0; i < cfg_.ul_population_size; ++i) {
    ul_pop.push_back(ea::random_real_vector(rng, bounds));
  }
  std::vector<double> ul_fitness(ul_pop.size(), 0.0);

  // Archive of complete solutions (keyed by F); its baskets seed the LL
  // subpopulations ("mate with the best archived LL solutions").
  ea::Archive<ArchivedSolution> archive(cfg_.archive_size, /*maximize=*/true);

  core::RunResult result;
  result.best_gap = std::numeric_limits<double>::infinity();
  result.best_ul_objective = -std::numeric_limits<double>::infinity();

  const auto budget_left = [&] {
    return eval.ul_evaluations() - ul_start < cfg_.ul_eval_budget &&
           eval.ll_evaluations() - ll_start < cfg_.ll_eval_budget;
  };

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
    for (int g = 0; g < cfg_.ll_subpopulation_generations && budget_left();
         ++g) {
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
      std::vector<Basket> next;
      next.reserve(sub.size());
      while (next.size() < sub.size()) {
        const std::size_t ia = ea::binary_tournament(rng, fit, false);
        const std::size_t ib = ea::binary_tournament(rng, fit, false);
        Basket a = sub[ia];
        Basket b = sub[ib];
        if (rng.chance(cfg_.ll_crossover_prob)) {
          ea::two_point_crossover(rng, a, b);
        }
        ea::swap_mutation(rng, a, cfg_.ll_mutation_prob);
        ea::swap_mutation(rng, b, cfg_.ll_mutation_prob);
        next.push_back(std::move(a));
        if (next.size() < sub.size()) next.push_back(std::move(b));
      }
      sub = std::move(next);
    }
    return std::pair{best, best_basket};
  };

  int generation = 0;
  while (budget_left()) {
    double cur_best = -std::numeric_limits<double>::infinity();
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
      if (!budget_left()) break;
      const auto [e, basket] = solve_subproblem(ul_pop[i]);
      if (basket.empty()) continue;
      ul_fitness[i] = e.ul_objective;
      cur_best = std::max(cur_best, e.ul_objective);
      gaps.add(e.gap_percent);
      archive.add({ul_pop[i], basket, e}, e.ul_objective);
      if (e.ll_feasible) {
        result.best_gap = std::min(result.best_gap, e.gap_percent);
        if (e.ul_objective > result.best_ul_objective) {
          result.best_ul_objective = e.ul_objective;
          result.best_pricing = ul_pop[i];
          result.best_evaluation = e;
        }
      }
    }

    if (cfg_.record_convergence) {
      core::ConvergencePoint pt;
      pt.generation = generation;
      pt.ul_evaluations = eval.ul_evaluations() - ul_start;
      pt.ll_evaluations = eval.ll_evaluations() - ll_start;
      pt.best_ul_so_far = result.best_ul_objective;
      pt.best_gap_so_far = result.best_gap;
      pt.current_best_ul = cur_best;
      pt.current_mean_gap = gaps.count() ? gaps.mean() : 0.0;
      pt.phase = "codba";
      result.convergence.push_back(std::move(pt));
    }

    // UL variation on the (partially updated) fitness.
    std::vector<bcpop::Pricing> next;
    next.reserve(ul_pop.size());
    while (next.size() < ul_pop.size()) {
      const std::size_t ia = ea::binary_tournament(rng, ul_fitness, true);
      const std::size_t ib = ea::binary_tournament(rng, ul_fitness, true);
      bcpop::Pricing a = ul_pop[ia];
      bcpop::Pricing b = ul_pop[ib];
      if (rng.chance(cfg_.ul_crossover_prob)) {
        ea::sbx_crossover(rng, a, b, bounds, cfg_.sbx);
      }
      if (rng.chance(cfg_.ul_mutation_prob)) {
        ea::polynomial_mutation(rng, a, bounds, cfg_.mutation);
      }
      if (rng.chance(cfg_.ul_mutation_prob)) {
        ea::polynomial_mutation(rng, b, bounds, cfg_.mutation);
      }
      next.push_back(std::move(a));
      if (next.size() < ul_pop.size()) next.push_back(std::move(b));
    }
    // Keep the archive elites alive.
    const std::size_t reinject = std::min<std::size_t>(
        {std::size_t{3}, archive.size(), next.size()});
    for (std::size_t r = 0; r < reinject; ++r) {
      next[next.size() - 1 - r] = archive.at(r).item.pricing;
    }
    ul_pop = std::move(next);
    ++generation;
  }

  result.generations = generation;
  result.ul_evaluations = eval.ul_evaluations() - ul_start;
  result.ll_evaluations = eval.ll_evaluations() - ll_start;
  if (!std::isfinite(result.best_ul_objective)) result.best_ul_objective = 0.0;
  if (!std::isfinite(result.best_gap)) result.best_gap = 1e9;
  return result;
}

}  // namespace carbon::baselines
