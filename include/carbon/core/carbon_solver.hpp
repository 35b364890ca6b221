// CARBON — Competitive hybrid bi-level co-evolutionary algorithm (paper §IV).
//
// Two populations in a predator/prey arms race:
//   * prey: upper-level pricings, evolved with a real-coded GA
//     (binary tournament, SBX, polynomial mutation, elitist archive);
//   * predators: greedy scoring heuristics encoded as GP trees, evolved with
//     GP operators (tournament, one-point subtree crossover, uniform
//     mutation, reproduction).
//
// Predator fitness is the mean %-gap over a sample of current prey (lower is
// better): predators are selected for *modelling the rational follower well
// on whatever instances the prey currently induce*. Prey fitness is the
// leader revenue F obtained against the best current predator: prey are
// selected for revenue under the most rational follower model available.
// Because heuristics apply to any LL instance, the two populations are
// decoupled — this is how CARBON breaks the nested structure.
#pragma once

#include "carbon/bcpop/evaluator_interface.hpp"
#include "carbon/bcpop/instance.hpp"
#include "carbon/core/config.hpp"
#include "carbon/core/result.hpp"
#include "carbon/gp/tree.hpp"

namespace carbon::core {

/// CARBON-specific run outcome: the generic result plus the champion
/// heuristic that models the follower.
struct CarbonResult : RunResult {
  gp::Tree best_heuristic;
  double best_heuristic_gap = 1e9;  ///< its mean %-gap at the final sample
};

class CarbonSolver {
 public:
  /// Solves the single-customer BCPOP (creates its own ParallelEvaluator).
  CarbonSolver(const bcpop::Instance& instance, CarbonConfig config);

  /// Solves against any bi-level evaluation backend (e.g. the
  /// multi-follower market). The evaluator must outlive the solver; budgets
  /// are counted relative to its state at run() entry.
  CarbonSolver(bcpop::EvaluatorInterface& evaluator, CarbonConfig config);

  /// Runs until either evaluation budget is exhausted (checked between
  /// generations, so the last generation may overshoot by at most one
  /// generation's worth of evaluations).
  CarbonResult run();

 private:
  CarbonResult run_with(bcpop::EvaluatorInterface& eval);

  const bcpop::Instance* inst_ = nullptr;
  bcpop::EvaluatorInterface* external_ = nullptr;
  CarbonConfig cfg_;
};

}  // namespace carbon::core
