// BIGA-style co-evolution (Oduguwa & Roy 2002) — the algorithm COBRA is
// "largely inspired by" (paper §III). Two populations evolve complete
// solution halves *simultaneously* each generation (no improvement phases):
// pricings are selected by leader revenue F, baskets by follower cost f,
// and individuals are paired index-wise for evaluation. Provided as the
// second reference point of the COE category in the paper's taxonomy
// (Fig. 2): it shows what COBRA's phase schedule adds, and what CARBON's
// heuristic populations add on top of both.
#pragma once

#include <cstdint>

#include "carbon/bcpop/evaluator_interface.hpp"
#include "carbon/bcpop/instance.hpp"
#include "carbon/core/result.hpp"
#include "carbon/ea/binary_ops.hpp"
#include "carbon/ea/real_ops.hpp"

namespace carbon::baselines {

struct BigaConfig {
  std::size_t population_size = 100;  ///< both halves
  std::size_t archive_size = 100;
  double ul_crossover_prob = 0.85;
  double ul_mutation_prob = 0.01;
  ea::SbxConfig sbx{};
  ea::PolynomialMutationConfig mutation{};
  double ll_crossover_prob = 0.85;
  double ll_mutation_prob = -1.0;  ///< <0 = 1/#variables
  double ll_init_density = 0.3;
  std::size_t archive_reinjection = 5;
  long long ul_eval_budget = 50'000;
  long long ll_eval_budget = 50'000;
  std::uint64_t seed = 1;
  bool record_convergence = true;
};

class BigaSolver {
 public:
  BigaSolver(const bcpop::Instance& instance, BigaConfig config);
  BigaSolver(bcpop::EvaluatorInterface& evaluator, BigaConfig config);
  core::RunResult run();

 private:
  core::RunResult run_with(bcpop::EvaluatorInterface& eval);

  const bcpop::Instance* inst_ = nullptr;
  bcpop::EvaluatorInterface* external_ = nullptr;
  BigaConfig cfg_;
};

}  // namespace carbon::baselines
