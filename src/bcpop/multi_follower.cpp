#include "carbon/bcpop/multi_follower.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "carbon/bilevel/gap.hpp"
#include "carbon/common/rng.hpp"

namespace carbon::bcpop {

namespace {

/// Rebuilds a cover::Instance with the same bundles/costs but new demands.
cover::Instance with_demands(const cover::Instance& base,
                             std::vector<int> demands) {
  std::vector<std::vector<int>> q(base.num_bundles());
  for (std::size_t j = 0; j < base.num_bundles(); ++j) {
    const auto row = base.bundle(j);
    q[j].assign(row.begin(), row.end());
  }
  std::vector<double> costs(base.costs().begin(), base.costs().end());
  return cover::Instance(std::move(costs), std::move(q), std::move(demands));
}

}  // namespace

MultiFollowerProblem::MultiFollowerProblem(
    Instance market, std::vector<std::vector<int>> extra_follower_demands) {
  followers_.reserve(1 + extra_follower_demands.size());
  followers_.push_back(std::move(market));
  // Take references only after the move above; `market` is gone.
  const std::size_t owned = followers_.front().num_owned();
  const cover::Instance& base = followers_.front().market();
  for (auto& demands : extra_follower_demands) {
    if (demands.size() != base.num_services()) {
      throw std::invalid_argument(
          "MultiFollowerProblem: demand vector size must match services");
    }
    cover::Instance follower_market = with_demands(base, std::move(demands));
    if (!follower_market.coverable()) {
      throw std::invalid_argument(
          "MultiFollowerProblem: follower demands exceed market supply");
    }
    followers_.emplace_back(std::move(follower_market), owned);
  }
}

MultiFollowerProblem make_multi_follower(Instance market,
                                         std::size_t num_followers,
                                         std::uint64_t seed) {
  if (num_followers == 0) {
    throw std::invalid_argument("make_multi_follower: need >= 1 follower");
  }
  common::Rng rng(seed);
  const cover::Instance& base = market.market();
  std::vector<std::vector<int>> extra;
  for (std::size_t f = 1; f < num_followers; ++f) {
    std::vector<int> demands(base.num_services());
    for (std::size_t k = 0; k < base.num_services(); ++k) {
      // Scale the base demand by a follower-specific factor in [0.5, 1.3],
      // clamped to stay coverable.
      const double factor = rng.uniform(0.5, 1.3);
      const long long supply = base.total_supply(k);
      const long long want =
          std::llround(factor * static_cast<double>(base.demand(k)));
      demands[k] = static_cast<int>(
          std::clamp<long long>(want, 1, supply));
    }
    extra.push_back(std::move(demands));
  }
  return MultiFollowerProblem(std::move(market), std::move(extra));
}

MultiFollowerEvaluator::MultiFollowerEvaluator(
    const MultiFollowerProblem& problem)
    : problem_(problem) {
  for (std::size_t f = 0; f < problem_.num_followers(); ++f) {
    per_follower_.push_back(std::make_unique<ParallelEvaluator>(
        problem_.follower(f), /*threads=*/1));
  }
}

Evaluation MultiFollowerEvaluator::aggregate(std::span<const double> pricing,
                                             EvalPurpose purpose) {
  Evaluation total;
  total.ll_feasible = true;
  total.selection.clear();
  for (const Evaluation& e : last_breakdown_) {
    total.ll_feasible = total.ll_feasible && e.ll_feasible;
    total.ll_objective += e.ll_objective;
    total.lower_bound += e.lower_bound;
    total.selection.insert(total.selection.end(), e.selection.begin(),
                           e.selection.end());
  }
  total.gap_percent =
      total.ll_feasible
          ? bilevel::percent_gap(total.ll_objective, total.lower_bound)
          : 1e9;
  ll_evals_ += static_cast<long long>(problem_.num_followers());
  // Mirror of ParallelEvaluator's budget rule: leader revenue is computed if and
  // only if the evaluation is charged to the UL budget. Sub-evaluations run
  // as kLowerOnly (they never produce F), so the per-follower revenues are
  // computed here, once, under the charged purpose, and back-filled into the
  // breakdown for diagnostics.
  if (purpose == EvalPurpose::kBoth) {
    ++ul_evals_;
    for (std::size_t f = 0; f < last_breakdown_.size(); ++f) {
      last_breakdown_[f].ul_objective = problem_.follower(f).leader_revenue(
          pricing, last_breakdown_[f].selection);
      total.ul_objective += last_breakdown_[f].ul_objective;
    }
  }
  return total;
}

std::vector<Evaluation> MultiFollowerEvaluator::evaluate_heuristic_batch(
    std::span<const HeuristicJob> jobs) {
  std::vector<Evaluation> results;
  results.reserve(jobs.size());
  for (const HeuristicJob& job : jobs) {
    last_breakdown_.clear();
    for (auto& eval : per_follower_) {
      // Sub-evaluators keep their own counters; ours are authoritative.
      last_breakdown_.push_back(eval->evaluate_with_heuristic(
          job.pricing, *job.heuristic, EvalPurpose::kLowerOnly));
    }
    results.push_back(aggregate(job.pricing, job.purpose));
  }
  return results;
}

std::vector<Evaluation> MultiFollowerEvaluator::evaluate_selection_batch(
    std::span<const SelectionJob> jobs) {
  const std::size_t m = problem_.num_bundles();
  std::vector<Evaluation> results;
  results.reserve(jobs.size());
  for (const SelectionJob& job : jobs) {
    last_breakdown_.clear();
    for (std::size_t f = 0; f < per_follower_.size(); ++f) {
      // Slice follower f's block from the concatenated genome; missing or
      // short genomes read as all-zeros (the repair fills them in).
      std::span<const std::uint8_t> block;
      if (job.selection.size() >= (f + 1) * m) {
        block = job.selection.subspan(f * m, m);
      }
      last_breakdown_.push_back(per_follower_[f]->evaluate_with_selection(
          job.pricing, block, EvalPurpose::kLowerOnly));
    }
    results.push_back(aggregate(job.pricing, job.purpose));
  }
  return results;
}

BackendStats MultiFollowerEvaluator::backend_stats() const {
  BackendStats total;
  for (const auto& eval : per_follower_) total += eval->backend_stats();
  return total;
}

void MultiFollowerEvaluator::set_metrics(
    obs::MetricsRegistry* metrics) noexcept {
  for (const auto& eval : per_follower_) eval->set_metrics(metrics);
}

void MultiFollowerEvaluator::set_guard(const guard::GuardConfig& config,
                                       long long eval_base) noexcept {
  for (const auto& eval : per_follower_) eval->set_guard(config, eval_base);
}

void MultiFollowerEvaluator::clear_caches() noexcept {
  for (const auto& eval : per_follower_) eval->clear_caches();
}

}  // namespace carbon::bcpop
