// Multi-follower extension of the BCPOP — the paper's stated future work
// ("multiple-level problems with deeper nested structure"; the simplest
// realistic variant is several independent customers reacting to one
// pricing).
//
// K customers shop on the same market (same bundles, same leader prices) but
// each has its own service requirements b_f. The leader's revenue is the sum
// over customers; each customer independently solves its own covering
// instance. CARBON carries over unchanged: a scoring heuristic applies to
// *any* covering instance, so one predator population models all customers
// at once — exactly the property that breaks the nested structure in the
// single-follower case.
//
// Aggregate semantics (documented so the gap stays an Eq.-(1) quantity):
//   F       = Σ_f  revenue from customer f
//   A(x)    = Σ_f  customer f's basket cost
//   LB(x)   = Σ_f  LP bound of customer f's instance
//   %-gap   = 100 (A − LB) / max(LB, 1)          (gap of the summed system)
//   genome  = concatenation of the K per-customer baskets (for COBRA).
#pragma once

#include <memory>
#include <vector>

#include "carbon/bcpop/evaluator_interface.hpp"
#include "carbon/bcpop/instance.hpp"
#include "carbon/bcpop/parallel_evaluator.hpp"

namespace carbon::bcpop {

class MultiFollowerProblem {
 public:
  /// `market` supplies bundles, competitor prices and the demands of
  /// follower 0; `extra_follower_demands` adds one follower per entry (each
  /// a vector of num_services demands).
  MultiFollowerProblem(Instance market,
                       std::vector<std::vector<int>> extra_follower_demands);

  [[nodiscard]] std::size_t num_followers() const noexcept {
    return followers_.size();
  }
  [[nodiscard]] const Instance& follower(std::size_t f) const {
    return followers_[f];
  }
  [[nodiscard]] std::span<const ea::Bounds> price_bounds() const noexcept {
    return followers_.front().price_bounds();
  }
  [[nodiscard]] std::size_t num_bundles() const noexcept {
    return followers_.front().num_bundles();
  }

 private:
  std::vector<Instance> followers_;
};

/// Derives a K-follower problem from a paper-class market by perturbing the
/// base demands per follower (deterministic in `seed`).
[[nodiscard]] MultiFollowerProblem make_multi_follower(
    Instance market, std::size_t num_followers, std::uint64_t seed = 1);

class MultiFollowerEvaluator final : public EvaluatorInterface {
 public:
  explicit MultiFollowerEvaluator(const MultiFollowerProblem& problem);

  /// Evaluates the jobs in order: each runs as a one-job batch on every
  /// follower (kLowerOnly) and is aggregated under its own purpose.
  std::vector<Evaluation> evaluate_heuristic_batch(
      std::span<const HeuristicJob> jobs) override;
  /// As evaluate_heuristic_batch; follower f repairs block f of the
  /// concatenated genome.
  std::vector<Evaluation> evaluate_selection_batch(
      std::span<const SelectionJob> jobs) override;

  [[nodiscard]] std::span<const ea::Bounds> price_bounds() const override {
    return problem_.price_bounds();
  }
  /// Concatenated per-follower baskets.
  [[nodiscard]] std::size_t genome_length() const override {
    return problem_.num_bundles() * problem_.num_followers();
  }
  [[nodiscard]] long long ul_evaluations() const override { return ul_evals_; }
  /// One LL evaluation per follower solve (cost scales with K).
  [[nodiscard]] long long ll_evaluations() const override { return ll_evals_; }
  /// The per-follower evaluators' policy (they all share one).
  [[nodiscard]] LpWarm lp_warm() const noexcept override {
    return per_follower_.front()->lp_warm();
  }

  /// Per-follower breakdown of the last job evaluated.
  [[nodiscard]] const std::vector<Evaluation>& last_breakdown() const {
    return last_breakdown_;
  }

  /// Sum of the per-follower evaluators' backend counters.
  [[nodiscard]] BackendStats backend_stats() const override;

  /// Forwards the registry to every per-follower evaluator.
  void set_metrics(obs::MetricsRegistry* metrics) noexcept override;

  /// Forwards the guard config to every per-follower evaluator. Each
  /// follower meters its own injection countdown against its own ll
  /// counter, so `eval_base` is forwarded as-is.
  void set_guard(const guard::GuardConfig& config,
                 long long eval_base) noexcept override;

  /// Drops every per-follower evaluator's caches (counters kept).
  void clear_caches() noexcept override;

 private:
  Evaluation aggregate(std::span<const double> pricing, EvalPurpose purpose);

  const MultiFollowerProblem& problem_;
  /// One single-participant evaluator per follower instance.
  std::vector<std::unique_ptr<ParallelEvaluator>> per_follower_;
  std::vector<Evaluation> last_breakdown_;
  long long ul_evals_ = 0;
  long long ll_evals_ = 0;
};

}  // namespace carbon::bcpop
