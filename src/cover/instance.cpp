#include "carbon/cover/instance.hpp"

#include <algorithm>
#include <numeric>
#include <sstream>
#include <stdexcept>
#include <utility>

namespace carbon::cover {

Instance::Instance(std::vector<double> costs, std::vector<std::vector<int>> q,
                   std::vector<int> demands)
    : costs_(std::move(costs)), demands_(std::move(demands)) {
  if (q.size() != costs_.size()) {
    throw std::invalid_argument("Instance: q rows must match costs size");
  }
  const std::size_t n = demands_.size();
  q_.reserve(q.size() * n);
  for (const auto& row : q) {
    if (row.size() != n) {
      throw std::invalid_argument("Instance: bundle row size mismatch");
    }
    for (int v : row) {
      if (v < 0) throw std::invalid_argument("Instance: negative quantity");
      q_.push_back(v);
    }
  }
  for (int d : demands_) {
    if (d < 0) throw std::invalid_argument("Instance: negative demand");
  }
  build_supplier_index();
}

void Instance::build_supplier_index() {
  const std::size_t m = num_bundles();
  const std::size_t n = num_services();
  supplier_start_.assign(n + 1, 0);
  for (std::size_t j = 0; j < m; ++j) {
    for (std::size_t k = 0; k < n; ++k) {
      if (quantity(j, k) > 0) ++supplier_start_[k + 1];
    }
  }
  for (std::size_t k = 0; k < n; ++k) {
    supplier_start_[k + 1] += supplier_start_[k];
  }
  supplier_idx_.resize(supplier_start_[n]);
  supplier_q_.resize(supplier_start_[n]);
  std::vector<std::size_t> cursor(supplier_start_.begin(),
                                  supplier_start_.end() - 1);
  for (std::size_t j = 0; j < m; ++j) {
    for (std::size_t k = 0; k < n; ++k) {
      const int q = quantity(j, k);
      if (q <= 0) continue;
      supplier_idx_[cursor[k]] = static_cast<std::uint32_t>(j);
      supplier_q_[cursor[k]] = q;
      ++cursor[k];
    }
  }
  // Each segment was filled in ascending j, so a stable sort by descending
  // quantity keeps ascending j among ties: the order suppliers() promises.
  std::vector<std::pair<int, std::uint32_t>> segment;
  for (std::size_t k = 0; k < n; ++k) {
    const std::size_t lo = supplier_start_[k];
    const std::size_t hi = supplier_start_[k + 1];
    segment.clear();
    for (std::size_t t = lo; t < hi; ++t) {
      segment.emplace_back(supplier_q_[t], supplier_idx_[t]);
    }
    std::stable_sort(
        segment.begin(), segment.end(),
        [](const auto& a, const auto& b) { return a.first > b.first; });
    for (std::size_t t = lo; t < hi; ++t) {
      supplier_q_[t] = segment[t - lo].first;
      supplier_idx_[t] = segment[t - lo].second;
    }
  }
}

// total_supply and feasible sum integers over the supplier list, so its
// order does not matter.
long long Instance::total_supply(std::size_t k) const noexcept {
  long long total = 0;
  for (const int q : supplier_quantities(k)) total += q;
  return total;
}

bool Instance::coverable() const noexcept {
  for (std::size_t k = 0; k < num_services(); ++k) {
    if (total_supply(k) < demands_[k]) return false;
  }
  return true;
}

bool Instance::feasible(std::span<const std::uint8_t> selection) const {
  if (selection.size() != num_bundles()) return false;
  for (std::size_t k = 0; k < num_services(); ++k) {
    const auto idx = suppliers(k);
    const auto qty = supplier_quantities(k);
    long long covered = 0;
    for (std::size_t t = 0; t < idx.size(); ++t) {
      if (selection[idx[t]]) covered += qty[t];
    }
    if (covered < demands_[k]) return false;
  }
  return true;
}

double Instance::selection_cost(std::span<const std::uint8_t> selection) const {
  double total = 0.0;
  for (std::size_t j = 0; j < num_bundles() && j < selection.size(); ++j) {
    if (selection[j]) total += costs_[j];
  }
  return total;
}

std::vector<int> Instance::residual_demand(
    std::span<const std::uint8_t> selection) const {
  std::vector<int> residual(demands_.begin(), demands_.end());
  for (std::size_t j = 0; j < num_bundles() && j < selection.size(); ++j) {
    if (!selection[j]) continue;
    for (std::size_t k = 0; k < num_services(); ++k) {
      residual[k] = std::max(0, residual[k] - quantity(j, k));
    }
  }
  return residual;
}

std::string Instance::describe() const {
  std::ostringstream ss;
  ss << "cover instance: " << num_bundles() << " bundles x " << num_services()
     << " services";
  return ss.str();
}

}  // namespace carbon::cover
