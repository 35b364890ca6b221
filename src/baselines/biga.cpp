#include "carbon/baselines/biga.hpp"

#include <algorithm>
#include <stdexcept>

#include "carbon/bcpop/parallel_evaluator.hpp"
#include "carbon/common/statistics.hpp"
#include "carbon/core/run_shell.hpp"
#include "carbon/ea/archive.hpp"

namespace carbon::baselines {

namespace {

using core::Basket;

void validate_config(const BigaConfig& cfg) {
  if (cfg.population_size < 2) {
    throw std::invalid_argument("BigaSolver: population size >= 2");
  }
}

}  // namespace

BigaSolver::BigaSolver(const bcpop::Instance& instance, BigaConfig config)
    : inst_(&instance), cfg_(std::move(config)) {
  validate_config(cfg_);
}

BigaSolver::BigaSolver(bcpop::EvaluatorInterface& evaluator, BigaConfig config)
    : external_(&evaluator), cfg_(std::move(config)) {
  validate_config(cfg_);
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

  const std::size_t pop = cfg_.population_size;
  std::vector<bcpop::Pricing> xs;
  std::vector<Basket> ys;
  for (std::size_t i = 0; i < pop; ++i) {
    xs.push_back(ea::random_real_vector(rng, bounds));
    ys.push_back(ea::random_binary_vector(rng, genome, cfg_.ll_init_density));
  }

  ea::Archive<core::ArchivedSolution> archive(cfg_.archive_size,
                                              /*maximize=*/true);
  core::RunResult result;
  core::RunLedger ledger(cfg_, eval, result);

  std::vector<double> f_upper(pop, 0.0);
  std::vector<double> f_lower(pop, 0.0);

  while (ledger.budget_left()) {
    common::RunningStats uls;
    common::RunningStats gaps;
    for (std::size_t i = 0; i < pop; ++i) {
      const bcpop::Evaluation e = eval.evaluate_with_selection(xs[i], ys[i]);
      f_upper[i] = e.ul_objective;
      f_lower[i] = e.ll_objective;
      uls.add(e.ul_objective);
      gaps.add(e.gap_percent);
      ledger.note(xs[i], e);
      archive.add({xs[i], ys[i], e}, e.ul_objective);
    }
    ledger.point("biga", uls, gaps);

    // Breed both halves simultaneously: pricings on F, baskets on f. The
    // pricing and basket draws interleave in one RNG stream, so this loop
    // cannot be split into breed_pricings and breed_baskets.
    std::vector<bcpop::Pricing> next_x;
    std::vector<Basket> next_y;
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
      Basket cy1 = ys[ya];
      Basket cy2 = ys[yb];
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
  }
  ledger.finish();
  return result;
}

}  // namespace carbon::baselines
