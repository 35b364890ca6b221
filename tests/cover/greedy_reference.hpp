// Test oracle for the greedy construction core (cover::greedy_solve_batched).
//
// The plain per-bundle greedy of paper §IV-B: every round recomputes the
// residual demand and each bundle's useful coverage from scratch, scores
// every unselected bundle that still adds coverage, and takes the first
// strict maximum. It shares no bookkeeping with the production core (no
// incremental `useful`, no supplier lists, no dirty set), so agreeing with
// it bit for bit is evidence the core's bookkeeping is right.
#pragma once

#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "carbon/cover/greedy.hpp"
#include "carbon/cover/instance.hpp"

namespace carbon::cover::testing {

/// Runs the reference greedy with a per-bundle scorer. `start` (may be
/// empty, shorter or longer than the bundle count) pre-selects bundles: its
/// bytes are copied into the selection, padded with 0 or truncated to
/// num_bundles, and count as free (the round cap meters additions only).
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

      const double s = detail::sanitize_score(score(f));
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
