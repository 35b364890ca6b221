#include "carbon/baselines/biga.hpp"

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
  std::vector<std::uint8_t> basket;
  bcpop::Evaluation evaluation;
};

}  // namespace

BigaSolver::BigaSolver(const bcpop::Instance& instance, BigaConfig config)
    : inst_(&instance), cfg_(std::move(config)) {
  if (cfg_.population_size < 2) {
    throw std::invalid_argument("BigaSolver: population size >= 2");
  }
}

BigaSolver::BigaSolver(bcpop::EvaluatorInterface& evaluator, BigaConfig config)
    : external_(&evaluator), cfg_(std::move(config)) {
  if (cfg_.population_size < 2) {
    throw std::invalid_argument("BigaSolver: population size >= 2");
  }
}

core::RunResult BigaSolver::run() {
  if (external_ != nullptr) return run_with(*external_);
  bcpop::ParallelEvaluator own(*inst_, /*threads=*/1);
  return run_with(own);
}

core::RunResult BigaSolver::run_with(bcpop::EvaluatorInterface& eval) {
  common::Rng rng(cfg_.seed);
  const auto bounds = eval.price_bounds();
  const std::size_t genome = eval.genome_length();
  const long long ul_start = eval.ul_evaluations();
  const long long ll_start = eval.ll_evaluations();

  const std::size_t pop = cfg_.population_size;
  std::vector<bcpop::Pricing> xs;
  std::vector<std::vector<std::uint8_t>> ys;
  for (std::size_t i = 0; i < pop; ++i) {
    xs.push_back(ea::random_real_vector(rng, bounds));
    ys.push_back(ea::random_binary_vector(rng, genome, cfg_.ll_init_density));
  }

  ea::Archive<ArchivedSolution> archive(cfg_.archive_size, /*maximize=*/true);
  core::RunResult result;
  result.best_gap = std::numeric_limits<double>::infinity();
  result.best_ul_objective = -std::numeric_limits<double>::infinity();

  std::vector<double> f_upper(pop, 0.0);
  std::vector<double> f_lower(pop, 0.0);

  int generation = 0;
  while (eval.ul_evaluations() - ul_start < cfg_.ul_eval_budget &&
         eval.ll_evaluations() - ll_start < cfg_.ll_eval_budget) {
    double cur_best = -std::numeric_limits<double>::infinity();
    common::RunningStats gaps;
    for (std::size_t i = 0; i < pop; ++i) {
      const bcpop::Evaluation e = eval.evaluate_with_selection(xs[i], ys[i]);
      f_upper[i] = e.ul_objective;
      f_lower[i] = e.ll_objective;
      cur_best = std::max(cur_best, e.ul_objective);
      gaps.add(e.gap_percent);
      if (e.ll_feasible) {
        result.best_gap = std::min(result.best_gap, e.gap_percent);
        if (e.ul_objective > result.best_ul_objective) {
          result.best_ul_objective = e.ul_objective;
          result.best_pricing = xs[i];
          result.best_evaluation = e;
        }
      }
      archive.add({xs[i], ys[i], e}, e.ul_objective);
    }

    if (cfg_.record_convergence) {
      core::ConvergencePoint pt;
      pt.generation = generation;
      pt.ul_evaluations = eval.ul_evaluations() - ul_start;
      pt.ll_evaluations = eval.ll_evaluations() - ll_start;
      pt.best_ul_so_far = result.best_ul_objective;
      pt.best_gap_so_far = result.best_gap;
      pt.current_best_ul = cur_best;
      pt.current_mean_gap = gaps.mean();
      pt.phase = "biga";
      result.convergence.push_back(std::move(pt));
    }

    // Breed both halves simultaneously: pricings on F, baskets on f.
    std::vector<bcpop::Pricing> next_x;
    std::vector<std::vector<std::uint8_t>> next_y;
    next_x.reserve(pop);
    next_y.reserve(pop);
    while (next_x.size() < pop) {
      const std::size_t xa = ea::binary_tournament(rng, f_upper, true);
      const std::size_t xb = ea::binary_tournament(rng, f_upper, true);
      bcpop::Pricing cx1 = xs[xa];
      bcpop::Pricing cx2 = xs[xb];
      if (rng.chance(cfg_.ul_crossover_prob)) {
        ea::sbx_crossover(rng, cx1, cx2, bounds, cfg_.sbx);
      }
      if (rng.chance(cfg_.ul_mutation_prob)) {
        ea::polynomial_mutation(rng, cx1, bounds, cfg_.mutation);
      }
      if (rng.chance(cfg_.ul_mutation_prob)) {
        ea::polynomial_mutation(rng, cx2, bounds, cfg_.mutation);
      }

      const std::size_t ya = ea::binary_tournament(rng, f_lower, false);
      const std::size_t yb = ea::binary_tournament(rng, f_lower, false);
      std::vector<std::uint8_t> cy1 = ys[ya];
      std::vector<std::uint8_t> cy2 = ys[yb];
      if (rng.chance(cfg_.ll_crossover_prob)) {
        ea::two_point_crossover(rng, cy1, cy2);
      }
      ea::swap_mutation(rng, cy1, cfg_.ll_mutation_prob);
      ea::swap_mutation(rng, cy2, cfg_.ll_mutation_prob);

      next_x.push_back(std::move(cx1));
      next_y.push_back(std::move(cy1));
      if (next_x.size() < pop) {
        next_x.push_back(std::move(cx2));
        next_y.push_back(std::move(cy2));
      }
    }
    const std::size_t reinject =
        std::min({cfg_.archive_reinjection, archive.size(), pop});
    for (std::size_t r = 0; r < reinject; ++r) {
      next_x[pop - 1 - r] = archive.at(r).item.pricing;
      next_y[pop - 1 - r] = archive.at(r).item.basket;
    }
    xs = std::move(next_x);
    ys = std::move(next_y);
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
