// The lower-level problem of the BCPOP: a multicover ("covering") problem.
//
//   min  sum_j c_j x_j
//   s.t. sum_j q_jk x_j >= b_k   for every service k
//        x_j in {0,1}            for every bundle j
//
// Bundles are the M market offers; services are the N customer requirements;
// q_jk is how many units of service k bundle j contains. Coefficients are
// non-binary integers (the paper flips OR-library MKP instances to >=),
// prices are continuous because the leader sets them.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace carbon::cover {

class Instance {
 public:
  Instance() = default;
  /// q is bundle-major: q[j][k] = units of service k in bundle j.
  Instance(std::vector<double> costs, std::vector<std::vector<int>> q,
           std::vector<int> demands);

  [[nodiscard]] std::size_t num_bundles() const noexcept {
    return costs_.size();
  }
  [[nodiscard]] std::size_t num_services() const noexcept {
    return demands_.size();
  }

  [[nodiscard]] double cost(std::size_t j) const noexcept { return costs_[j]; }
  [[nodiscard]] std::span<const double> costs() const noexcept {
    return costs_;
  }
  [[nodiscard]] int demand(std::size_t k) const noexcept {
    return demands_[k];
  }
  [[nodiscard]] std::span<const int> demands() const noexcept {
    return demands_;
  }
  [[nodiscard]] int quantity(std::size_t j, std::size_t k) const noexcept {
    return q_[j * num_services() + k];
  }
  /// Row of the (bundle-major) quantity matrix for bundle j.
  [[nodiscard]] std::span<const int> bundle(std::size_t j) const noexcept {
    return {q_.data() + j * num_services(), num_services()};
  }

  /// Bundles supplying service k (q_jk > 0), as parallel index/quantity
  /// arrays. Precomputed (CSR-style) because the greedy's coverage updates
  /// iterate service-major in its innermost loop.
  ///
  /// Order contract: each service's suppliers are sorted by descending
  /// q_jk, ties broken by ascending bundle index. The cover update
  /// (detail::CoverState::add) relies on it to stop at the first supplier
  /// whose quantity no longer exceeds the new residual; every other
  /// consumer is order-free (integer sums, or one entry per LP column).
  /// Fixed at construction: copies inherit it and set_cost leaves it.
  [[nodiscard]] std::span<const std::uint32_t> suppliers(
      std::size_t k) const noexcept {
    return {supplier_idx_.data() + supplier_start_[k],
            supplier_start_[k + 1] - supplier_start_[k]};
  }
  [[nodiscard]] std::span<const int> supplier_quantities(
      std::size_t k) const noexcept {
    return {supplier_q_.data() + supplier_start_[k],
            supplier_start_[k + 1] - supplier_start_[k]};
  }

  /// Total supply of service k across all bundles.
  [[nodiscard]] long long total_supply(std::size_t k) const noexcept;

  /// Replaces the price of bundle j (used by the BCPOP leader).
  void set_cost(std::size_t j, double c) noexcept { costs_[j] = c; }

  /// True when buying every bundle satisfies every demand (instance sanity).
  [[nodiscard]] bool coverable() const noexcept;

  /// True when the binary selection satisfies every demand.
  [[nodiscard]] bool feasible(std::span<const std::uint8_t> selection) const;

  /// Total cost of a selection (no feasibility check).
  [[nodiscard]] double selection_cost(
      std::span<const std::uint8_t> selection) const;

  /// Residual demand after a selection (negative = over-covered, clamped to 0).
  [[nodiscard]] std::vector<int> residual_demand(
      std::span<const std::uint8_t> selection) const;

  /// Human-readable one-line description.
  [[nodiscard]] std::string describe() const;

 private:
  void build_supplier_index();

  std::vector<double> costs_;   // size M
  std::vector<int> q_;          // bundle-major M x N
  std::vector<int> demands_;    // size N
  // CSR over services: suppliers of service k live in
  // [supplier_start_[k], supplier_start_[k+1]), by descending quantity.
  std::vector<std::size_t> supplier_start_;   // size N+1
  std::vector<std::uint32_t> supplier_idx_;   // bundle indices
  std::vector<int> supplier_q_;               // matching quantities
};

/// A solution to a covering instance.
struct SolveResult {
  bool feasible = false;
  double value = 0.0;
  std::vector<std::uint8_t> selection;  // size M, 0/1
  /// Construction stopped by GreedyOptions::max_rounds before feasibility
  /// (distinguishes a budget trip from a genuinely uncoverable instance).
  bool rounds_capped = false;
};

}  // namespace carbon::cover
