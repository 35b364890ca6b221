// Nested-sequential baseline (the NSQ/CST category of the paper's taxonomy,
// Fig. 2): a plain GA over pricings where every fitness evaluation solves the
// induced lower-level instance with a fixed hand-written greedy (classic
// cost-effectiveness scoring). This is the "legacy approach" CARBON is
// designed to beat: the follower model never improves, so its gap is whatever
// the fixed heuristic delivers.
#pragma once

#include <cstdint>

#include "carbon/bcpop/evaluator_interface.hpp"
#include "carbon/bcpop/instance.hpp"
#include "carbon/core/result.hpp"
#include "carbon/ea/real_ops.hpp"

namespace carbon::baselines {

struct NestedGaConfig {
  std::size_t population_size = 100;
  std::size_t archive_size = 100;
  double crossover_prob = 0.85;
  double mutation_prob = 0.01;
  ea::SbxConfig sbx{};
  ea::PolynomialMutationConfig mutation{};
  std::size_t archive_reinjection = 5;
  long long ul_eval_budget = 50'000;
  long long ll_eval_budget = 50'000;
  std::uint64_t seed = 1;
  bool record_convergence = true;
};

class NestedGaSolver {
 public:
  NestedGaSolver(const bcpop::Instance& instance, NestedGaConfig config);
  core::RunResult run();

 private:
  const bcpop::Instance& inst_;
  NestedGaConfig cfg_;
};

}  // namespace carbon::baselines
