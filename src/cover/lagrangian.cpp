#include "carbon/cover/lagrangian.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace carbon::cover {

LagrangianResult lagrangian_bound(const Instance& instance,
                                  double upper_bound,
                                  const LagrangianOptions& options) {
  const std::size_t m = instance.num_bundles();
  const std::size_t n = instance.num_services();
  if (!std::isfinite(upper_bound)) {
    throw std::invalid_argument("lagrangian_bound: finite upper bound needed");
  }

  std::vector<double> lambda(n, 0.0);
  std::vector<double> reduced(m, 0.0);
  std::vector<std::uint8_t> x(m, 0);
  std::vector<double> subgradient(n, 0.0);

  LagrangianResult best;
  best.multipliers.assign(n, 0.0);
  best.inner_selection.assign(m, 0);
  best.lower_bound = -std::numeric_limits<double>::infinity();

  double mu = options.step_scale;
  std::size_t stall = 0;

  for (std::size_t it = 0; it < options.max_iterations; ++it) {
    // Inner problem: x_j = 1 iff c_j - λ'Q_j < 0. Value decomposes.
    double value = 0.0;
    for (std::size_t k = 0; k < n; ++k) {
      value += lambda[k] * instance.demand(k);
    }
    for (std::size_t j = 0; j < m; ++j) {
      double rc = instance.cost(j);
      const auto row = instance.bundle(j);
      for (std::size_t k = 0; k < n; ++k) {
        if (lambda[k] != 0.0 && row[k] != 0) rc -= lambda[k] * row[k];
      }
      reduced[j] = rc;
      x[j] = rc < 0.0 ? 1 : 0;
      if (x[j]) value += rc;
    }

    if (value > best.lower_bound) {
      best.lower_bound = value;
      best.multipliers = lambda;
      best.inner_selection = x;
      stall = 0;
    } else if (++stall >= options.stall_limit) {
      mu *= 0.5;
      stall = 0;
    }
    best.iterations = it + 1;
    if (mu < options.min_step_scale) break;

    // Subgradient of L at λ: g_k = b_k − Σ_j Q_jk x_j, an integer sum, so
    // the order of the supplier list does not matter.
    double norm_sq = 0.0;
    for (std::size_t k = 0; k < n; ++k) {
      long long covered = 0;
      const auto idx = instance.suppliers(k);
      const auto qty = instance.supplier_quantities(k);
      for (std::size_t t = 0; t < idx.size(); ++t) {
        if (x[idx[t]]) covered += qty[t];
      }
      subgradient[k] = static_cast<double>(instance.demand(k) - covered);
      norm_sq += subgradient[k] * subgradient[k];
    }
    if (norm_sq < 1e-18) break;  // inner solution covers exactly: optimal

    const double gap_to_ub = std::max(upper_bound - value, 1e-9);
    const double step = mu * gap_to_ub / norm_sq;
    for (std::size_t k = 0; k < n; ++k) {
      lambda[k] = std::max(0.0, lambda[k] + step * subgradient[k]);
    }
  }

  return best;
}

}  // namespace carbon::cover
