#include "carbon/baselines/nested_ga.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "carbon/bcpop/parallel_evaluator.hpp"
#include "carbon/common/statistics.hpp"
#include "carbon/ea/archive.hpp"

namespace carbon::baselines {

namespace {

struct ArchivedSolution {
  bcpop::Pricing pricing;
  bcpop::Evaluation evaluation;
};

}  // namespace

NestedGaSolver::NestedGaSolver(const bcpop::Instance& instance,
                               NestedGaConfig config)
    : inst_(instance), cfg_(std::move(config)) {
  if (cfg_.population_size < 2) {
    throw std::invalid_argument("NestedGaSolver: population size >= 2");
  }
}

core::RunResult NestedGaSolver::run() {
  common::Rng rng(cfg_.seed);
  bcpop::ParallelEvaluator eval(inst_, /*threads=*/1);
  const auto bounds = inst_.price_bounds();

  std::vector<bcpop::Pricing> pop;
  for (std::size_t i = 0; i < cfg_.population_size; ++i) {
    pop.push_back(ea::random_real_vector(rng, bounds));
  }
  std::vector<double> fitness(pop.size(), 0.0);

  ea::Archive<ArchivedSolution> archive(cfg_.archive_size, /*maximize=*/true);

  core::RunResult result;
  result.best_gap = std::numeric_limits<double>::infinity();
  result.best_ul_objective = -std::numeric_limits<double>::infinity();

  int generation = 0;
  while (eval.ul_evaluations() < cfg_.ul_eval_budget &&
         eval.ll_evaluations() < cfg_.ll_eval_budget) {
    double cur_best = -std::numeric_limits<double>::infinity();
    common::RunningStats gaps;
    for (std::size_t i = 0; i < pop.size(); ++i) {
      const bcpop::Evaluation e = eval.evaluate_cost_effectiveness(pop[i]);
      fitness[i] = e.ul_objective;
      cur_best = std::max(cur_best, e.ul_objective);
      gaps.add(e.gap_percent);
      if (e.ll_feasible) {
        result.best_gap = std::min(result.best_gap, e.gap_percent);
        if (e.ul_objective > result.best_ul_objective) {
          result.best_ul_objective = e.ul_objective;
          result.best_pricing = pop[i];
          result.best_evaluation = e;
        }
      }
      archive.add({pop[i], e}, e.ul_objective);
    }

    if (cfg_.record_convergence) {
      core::ConvergencePoint pt;
      pt.generation = generation;
      pt.ul_evaluations = eval.ul_evaluations();
      pt.ll_evaluations = eval.ll_evaluations();
      pt.best_ul_so_far = result.best_ul_objective;
      pt.best_gap_so_far = result.best_gap;
      pt.current_best_ul = cur_best;
      pt.current_mean_gap = gaps.mean();
      pt.phase = "nested";
      result.convergence.push_back(std::move(pt));
    }

    std::vector<bcpop::Pricing> next;
    next.reserve(pop.size());
    while (next.size() < pop.size()) {
      const std::size_t ia = ea::binary_tournament(rng, fitness, true);
      const std::size_t ib = ea::binary_tournament(rng, fitness, true);
      bcpop::Pricing a = pop[ia];
      bcpop::Pricing b = pop[ib];
      if (rng.chance(cfg_.crossover_prob)) {
        ea::sbx_crossover(rng, a, b, bounds, cfg_.sbx);
      }
      if (rng.chance(cfg_.mutation_prob)) {
        ea::polynomial_mutation(rng, a, bounds, cfg_.mutation);
      }
      if (rng.chance(cfg_.mutation_prob)) {
        ea::polynomial_mutation(rng, b, bounds, cfg_.mutation);
      }
      next.push_back(std::move(a));
      if (next.size() < pop.size()) next.push_back(std::move(b));
    }
    const std::size_t reinject =
        std::min({cfg_.archive_reinjection, archive.size(), next.size()});
    for (std::size_t r = 0; r < reinject; ++r) {
      next[next.size() - 1 - r] = archive.at(r).item.pricing;
    }
    pop = std::move(next);
    ++generation;
  }

  result.generations = generation;
  result.ul_evaluations = eval.ul_evaluations();
  result.ll_evaluations = eval.ll_evaluations();
  if (!std::isfinite(result.best_ul_objective)) result.best_ul_objective = 0.0;
  if (!std::isfinite(result.best_gap)) result.best_gap = 1e9;
  return result;
}

}  // namespace carbon::baselines
