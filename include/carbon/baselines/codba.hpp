// CODBA-style co-evolutionary decomposition (Chaabani, Bechikh & Ben Said
// 2015), the third related algorithm the paper discusses: from the
// upper-level population, spawn one lower-level subpopulation per selected
// pricing, evolve each subpopulation briefly against its own induced
// instance (mating with the best archived baskets), and feed the best pairs
// back. The paper's critique — that this "reduces to a simple nested
// optimization algorithm" — is directly observable here: LL effort is spent
// per-pricing and does not transfer.
#pragma once

#include <cstdint>

#include "carbon/bcpop/evaluator_interface.hpp"
#include "carbon/bcpop/instance.hpp"
#include "carbon/core/result.hpp"
#include "carbon/ea/binary_ops.hpp"
#include "carbon/ea/real_ops.hpp"

namespace carbon::baselines {

struct CodbaConfig {
  std::size_t ul_population_size = 30;
  std::size_t archive_size = 30;
  /// Pricings that get their own LL subpopulation each generation.
  std::size_t decomposition_width = 4;
  std::size_t ll_subpopulation_size = 10;
  int ll_subpopulation_generations = 3;
  double ul_crossover_prob = 0.85;
  double ul_mutation_prob = 0.01;
  ea::SbxConfig sbx{};
  ea::PolynomialMutationConfig mutation{};
  double ll_crossover_prob = 0.85;
  double ll_mutation_prob = -1.0;
  double ll_init_density = 0.3;
  long long ul_eval_budget = 50'000;
  long long ll_eval_budget = 50'000;
  std::uint64_t seed = 1;
  bool record_convergence = true;
};

class CodbaSolver {
 public:
  CodbaSolver(const bcpop::Instance& instance, CodbaConfig config);
  CodbaSolver(bcpop::EvaluatorInterface& evaluator, CodbaConfig config);
  core::RunResult run();

 private:
  core::RunResult run_with(bcpop::EvaluatorInterface& eval);

  const bcpop::Instance* inst_ = nullptr;
  bcpop::EvaluatorInterface* external_ = nullptr;
  CodbaConfig cfg_;
};

}  // namespace carbon::baselines
