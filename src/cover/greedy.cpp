#include "carbon/cover/greedy.hpp"

#include <numeric>
#include <stdexcept>

namespace carbon::cover {

namespace detail {

void eliminate_redundancy(const Instance& instance,
                          std::vector<std::uint8_t>& selection) {
  const std::size_t m = instance.num_bundles();
  const std::size_t n = instance.num_services();
  // Coverage including slack (residual may be over-covered).
  std::vector<long long> covered(n, 0);
  for (std::size_t j = 0; j < m; ++j) {
    if (!selection[j]) continue;
    const auto row = instance.bundle(j);
    for (std::size_t k = 0; k < n; ++k) covered[k] += row[k];
  }
  // Try to drop selected bundles, most expensive first.
  std::vector<std::size_t> chosen;
  for (std::size_t j = 0; j < m; ++j) {
    if (selection[j]) chosen.push_back(j);
  }
  std::sort(chosen.begin(), chosen.end(), [&](std::size_t a, std::size_t b) {
    return instance.cost(a) > instance.cost(b);
  });
  for (std::size_t j : chosen) {
    const auto row = instance.bundle(j);
    bool droppable = true;
    for (std::size_t k = 0; k < n; ++k) {
      if (covered[k] - row[k] < instance.demand(k)) {
        droppable = false;
        break;
      }
    }
    if (!droppable) continue;
    selection[j] = 0;
    for (std::size_t k = 0; k < n; ++k) covered[k] -= row[k];
  }
}

void static_masses(const Instance& instance, std::span<const double> duals,
                   std::vector<double>& qsum, std::vector<double>& dual_mass) {
  const std::size_t m = instance.num_bundles();
  const std::size_t n = instance.num_services();
  qsum.assign(m, 0.0);
  dual_mass.assign(m, 0.0);
  for (std::size_t j = 0; j < m; ++j) {
    const auto row = instance.bundle(j);
    double s = 0.0;
    double d = 0.0;
    for (std::size_t k = 0; k < n; ++k) {
      s += row[k];
      if (k < duals.size()) d += duals[k] * row[k];
    }
    qsum[j] = s;
    dual_mass[j] = d;
  }
}

void CoverState::reset(const Instance& instance,
                       std::span<const std::uint8_t> start) {
  const std::size_t m = instance.num_bundles();
  const std::size_t n = instance.num_services();
  selection.assign(m, 0);
  residual.assign(instance.demands().begin(), instance.demands().end());
  for (std::size_t j = 0; j < m && j < start.size(); ++j) {
    selection[j] = start[j];
    if (!start[j]) continue;
    const auto row = instance.bundle(j);
    for (std::size_t k = 0; k < n; ++k) {
      residual[k] = std::max(0, residual[k] - row[k]);
    }
  }
  outstanding = std::accumulate(residual.begin(), residual.end(), 0LL);

  useful.assign(m, 0.0);
  // A covered start leaves every useful coverage at 0, so the O(m·n) sweep
  // is skipped: repairing an already feasible COBRA genome costs only the
  // residual pass.
  if (outstanding == 0) return;
  for (std::size_t j = 0; j < m; ++j) {
    const auto row = instance.bundle(j);
    double u = 0.0;
    for (std::size_t k = 0; k < n; ++k) {
      u += std::min(row[k], residual[k]);
    }
    useful[j] = u;
  }
}

SolveResult CoverState::finish(const Instance& instance, bool feasible,
                               bool rounds_capped, bool redundancy_pass) {
  if (feasible && redundancy_pass) {
    eliminate_redundancy(instance, selection);
  }
  SolveResult result;
  result.feasible = feasible;
  result.rounds_capped = rounds_capped;
  result.value = instance.selection_cost(selection);
  result.selection = std::move(selection);
  return result;
}

}  // namespace detail

void GreedyScratch::load_static_columns(const Instance& instance,
                                        std::span<const double> duals,
                                        std::span<const double> relaxed_x) {
  const std::size_t m = instance.num_bundles();
  detail::static_masses(instance, duals, qsum, dual_mass);
  xbar.assign(m, 0.0);
  for (std::size_t j = 0; j < m && j < relaxed_x.size(); ++j) {
    xbar[j] = relaxed_x[j];
  }
}

BatchFeatureView GreedyScratch::begin(const Instance& instance,
                                      std::span<const double> duals,
                                      std::span<const double> relaxed_x,
                                      std::span<const std::uint8_t> start) {
  cover.reset(instance, start);
  BatchFeatureView view;
  if (cover.outstanding == 0) return view;  // nothing to construct or score
  load_static_columns(instance, duals, relaxed_x);
  view.cost = instance.costs();
  view.qsum = qsum;
  view.qcov = cover.useful;
  view.dual = dual_mass;
  view.xbar = xbar;
  view.count = instance.num_bundles();
  return view;
}

SolveResult greedy_solve_static(const Instance& instance,
                                std::span<const double> scores,
                                const GreedyOptions& options) {
  const std::size_t m = instance.num_bundles();
  const std::size_t n = instance.num_services();
  if (scores.size() != m) {
    throw std::invalid_argument("greedy_solve_static: one score per bundle");
  }

  // Sanitize once up front — the comparator previously re-sanitized both
  // sides of every comparison, O(M log M) redundant isfinite checks.
  std::vector<double> sane(m);
  for (std::size_t j = 0; j < m; ++j) {
    sane[j] = detail::sanitize_score(scores[j]);
  }

  // Stable order: score descending, index ascending — matches the argmax
  // tie-breaking of greedy_solve exactly.
  std::vector<std::size_t> order(m);
  for (std::size_t j = 0; j < m; ++j) order[j] = j;
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return sane[a] > sane[b];
                   });

  SolveResult result;
  result.selection.assign(m, 0);
  std::vector<int> residual(instance.demands().begin(),
                            instance.demands().end());
  long long outstanding =
      std::accumulate(residual.begin(), residual.end(), 0LL);

  // Each selection is one "round" of the equivalent argmax greedy, so the
  // round cap counts selections here too.
  long long rounds = 0;
  for (std::size_t rank = 0; rank < m && outstanding > 0; ++rank) {
    const std::size_t j = order[rank];
    const auto row = instance.bundle(j);
    long long useful = 0;
    for (std::size_t k = 0; k < n; ++k) {
      if (residual[k] > 0 && row[k] > 0) {
        useful += std::min(row[k], residual[k]);
      }
    }
    if (useful <= 0) continue;
    if (options.max_rounds > 0 && rounds >= options.max_rounds) {
      result.feasible = false;
      result.rounds_capped = true;
      result.value = instance.selection_cost(result.selection);
      return result;
    }
    ++rounds;
    result.selection[j] = 1;
    for (std::size_t k = 0; k < n; ++k) {
      if (residual[k] > 0 && row[k] > 0) {
        const int used = std::min(row[k], residual[k]);
        residual[k] -= used;
        outstanding -= used;
      }
    }
  }

  if (outstanding > 0) {
    result.feasible = false;
    result.value = instance.selection_cost(result.selection);
    return result;
  }

  if (options.eliminate_redundancy) {
    detail::eliminate_redundancy(instance, result.selection);
  }

  result.feasible = true;
  result.value = instance.selection_cost(result.selection);
  return result;
}

}  // namespace carbon::cover
