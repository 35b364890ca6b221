#include "carbon/baselines/nested_ga.hpp"

#include <algorithm>
#include <stdexcept>

#include "carbon/bcpop/parallel_evaluator.hpp"
#include "carbon/common/statistics.hpp"
#include "carbon/core/run_shell.hpp"
#include "carbon/ea/archive.hpp"

namespace carbon::baselines {

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
  const core::UpperVariation variation{cfg_.crossover_prob,
                                       cfg_.mutation_prob, cfg_.sbx,
                                       cfg_.mutation};

  std::vector<bcpop::Pricing> pop;
  for (std::size_t i = 0; i < cfg_.population_size; ++i) {
    pop.push_back(ea::random_real_vector(rng, bounds));
  }
  std::vector<double> fitness(pop.size(), 0.0);

  ea::Archive<core::ArchivedSolution> archive(cfg_.archive_size,
                                              /*maximize=*/true);

  core::RunResult result;
  core::RunLedger ledger(cfg_, eval, result);
  while (ledger.budget_left()) {
    common::RunningStats uls;
    common::RunningStats gaps;
    for (std::size_t i = 0; i < pop.size(); ++i) {
      const bcpop::Evaluation e = eval.evaluate_cost_effectiveness(pop[i]);
      fitness[i] = e.ul_objective;
      uls.add(e.ul_objective);
      gaps.add(e.gap_percent);
      ledger.note(pop[i], e);
      archive.add({pop[i], {}, e}, e.ul_objective);
    }
    ledger.point("nested", uls, gaps);

    pop = core::breed_pricings(rng, pop, fitness, bounds, variation,
                               /*metrics=*/nullptr);
    const std::size_t reinject =
        std::min({cfg_.archive_reinjection, archive.size(), pop.size()});
    for (std::size_t r = 0; r < reinject; ++r) {
      pop[pop.size() - 1 - r] = archive.at(r).item.pricing;
    }
  }
  ledger.finish();
  return result;
}

}  // namespace carbon::baselines
