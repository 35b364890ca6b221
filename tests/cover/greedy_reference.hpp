// Test oracle for the greedy construction core (cover::greedy_solve).
//
// The plain per-bundle greedy of paper §IV-B: every round recomputes the
// residual demand and each bundle's useful coverage from scratch, scores
// every unselected bundle that still adds coverage, and takes the first
// strict maximum. It shares no bookkeeping with the production core (no
// incremental `useful`, no supplier lists, no dirty set), so agreeing with
// it bit for bit is evidence the core's bookkeeping is right.
//
// Also here: the per-bundle feature struct the oracle scores with, and the
// adapter that lets a per-bundle test scorer (spies, random scores, the
// tree interpreter) drive the core as a batch scorer.
#pragma once

#include <algorithm>
#include <concepts>
#include <cstdint>
#include <limits>
#include <span>
#include <utility>
#include <vector>

#include "carbon/cover/greedy.hpp"
#include "carbon/cover/instance.hpp"

namespace carbon::cover::testing {

/// Everything a scorer may look at when scoring bundle j, as one struct:
/// row j of a BatchFeatureView. All values are recomputed against the
/// *residual* demand each round.
struct BundleFeatures {
  double cost = 0.0;  ///< c_j — price of the bundle.
  double qsum = 0.0;  ///< Σ_k q_jk — raw service mass of the bundle.
  double qcov = 0.0;  ///< Σ_k min(q_jk, residual_k) — useful coverage now.
  double bres = 0.0;  ///< Σ_k residual_k — outstanding demand.
  double dual = 0.0;  ///< Σ_k d_k q_jk — LP-dual-weighted coverage.
  double xbar = 0.0;  ///< x̄_j — value of bundle j in the LP relaxation.
};

/// Scores one bundle: a per-bundle scorer (callable on BundleFeatures) is
/// called directly, a batch scorer through a one-lane view.
template <typename Score>
[[nodiscard]] double score_one(Score& score, const BundleFeatures& f) {
  if constexpr (std::invocable<Score&, const BundleFeatures&>) {
    return score(f);
  } else {
    BatchFeatureView view;
    view.cost = {&f.cost, 1};
    view.qsum = {&f.qsum, 1};
    view.qcov = {&f.qcov, 1};
    view.dual = {&f.dual, 1};
    view.xbar = {&f.xbar, 1};
    view.bres = f.bres;
    view.count = 1;
    double out = 0.0;
    score(view, std::span<double>(&out, 1));
    return out;
  }
}

/// A per-bundle scorer as a batch scorer for the core: out[j] = score(row
/// j). It cannot say which terminals it reads, so the core rescores every
/// bundle every round — a spy sees every (bundle, round) pair.
template <typename Score>
[[nodiscard]] auto per_bundle(Score score) {
  return [score = std::move(score)](const BatchFeatureView& view,
                                    std::span<double> out) {
    for (std::size_t j = 0; j < view.count; ++j) {
      out[j] = score(BundleFeatures{view.cost[j], view.qsum[j], view.qcov[j],
                                    view.bres, view.dual[j], view.xbar[j]});
    }
  };
}

/// Runs the reference greedy with `score`, a per-bundle or a batch scorer
/// (see score_one). `start` (may be empty, shorter or longer than the
/// bundle count) pre-selects bundles: its bytes are copied into the
/// selection, padded with 0 or truncated to num_bundles, and count as free
/// (the round cap meters additions only).
template <typename Score>
[[nodiscard]] SolveResult reference_greedy(
    const Instance& instance, Score&& score,
    std::span<const double> duals = {}, std::span<const double> relaxed_x = {},
    std::span<const std::uint8_t> start = {},
    const GreedyOptions& options = {}) {
  const std::size_t m = instance.num_bundles();
  const std::size_t n = instance.num_services();

  SolveResult result;
  result.selection.assign(m, 0);
  for (std::size_t j = 0; j < m && j < start.size(); ++j) {
    result.selection[j] = start[j];
  }

  std::vector<double> qsum;
  std::vector<double> dual_mass;
  detail::static_masses(instance, duals, qsum, dual_mass);

  long long rounds = 0;
  while (true) {
    const std::vector<int> residual =
        instance.residual_demand(result.selection);
    long long outstanding = 0;
    for (const int r : residual) outstanding += r;
    if (outstanding <= 0) break;

    if (options.max_rounds > 0 && rounds >= options.max_rounds) {
      result.feasible = false;
      result.rounds_capped = true;
      result.value = instance.selection_cost(result.selection);
      return result;
    }
    ++rounds;

    double best_score = -std::numeric_limits<double>::infinity();
    std::size_t best_j = m;
    for (std::size_t j = 0; j < m; ++j) {
      if (result.selection[j]) continue;
      const auto row = instance.bundle(j);
      long long useful = 0;
      for (std::size_t k = 0; k < n; ++k) {
        if (residual[k] > 0 && row[k] > 0) {
          useful += std::min(row[k], residual[k]);
        }
      }
      if (useful <= 0) continue;

      BundleFeatures f;
      f.cost = instance.cost(j);
      f.qsum = qsum[j];
      f.qcov = static_cast<double>(useful);
      f.bres = static_cast<double>(outstanding);
      f.dual = dual_mass[j];
      f.xbar = j < relaxed_x.size() ? relaxed_x[j] : 0.0;

      const double s = detail::sanitize_score(score_one(score, f));
      if (s > best_score) {
        best_score = s;
        best_j = j;
      }
    }

    if (best_j == m) {
      result.feasible = false;
      result.value = instance.selection_cost(result.selection);
      return result;
    }
    result.selection[best_j] = 1;
  }

  if (options.eliminate_redundancy) {
    detail::eliminate_redundancy(instance, result.selection);
  }
  result.feasible = true;
  result.value = instance.selection_cost(result.selection);
  return result;
}

}  // namespace carbon::cover::testing
