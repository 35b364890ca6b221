// Column-panel copy of a constraint matrix for the simplex pricing pass.
//
// Pricing needs A_j^T y for every structural column j once per pivot. Done
// one column at a time, each dot product is a single chain of dependent
// adds and runs at add latency. ColumnPanels groups kWidth consecutive
// columns into a panel and stores, per panel, the ascending rows where any
// of its columns has a nonzero together with kWidth values per such row
// (zero-padded). multiply_transposed() then walks each panel's rows once
// with kWidth independent accumulators, which the default x86-64 (SSE2)
// build executes as four 2-wide vector multiply/add pairs.
//
// Bit-identity with a per-column dot product: every column still adds its
// terms in ascending row order, starting from +0.0, with a separate multiply
// and add per term. A padded or absent entry contributes 0.0 * y_i = +-0.0,
// which never changes a sum that starts at +0.0 (the sum can only become
// -0.0 by adding -0.0 to -0.0). So out[j] equals the dense loop
// `for i: acc += A(i, j) * y[i]` bit for bit, for every y without
// infinities or NaNs.
//
// Storage is bounded by kWidth stored values per nonzero of the matrix, so
// sparse inputs never pay for a dense m x n copy. The panels depend only on
// the constraint matrix: ProblemFamily builds them once and shares them
// read-only between its copies.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "carbon/lp/problem.hpp"

namespace carbon::lp {

class ColumnPanels {
 public:
  /// Columns per panel.
  static constexpr std::size_t kWidth = 8;

  /// Builds the panels of `problem`'s structural columns. The problem's
  /// columns must hold sorted, in-range row indices (Problem::validate()).
  explicit ColumnPanels(const Problem& problem);

  [[nodiscard]] std::size_t num_cols() const noexcept { return num_cols_; }
  [[nodiscard]] std::size_t num_panels() const noexcept {
    return row_begin_.empty() ? 0 : row_begin_.size() - 1;
  }
  /// Panel rows stored across all panels (each holds kWidth values).
  [[nodiscard]] std::size_t stored_rows() const noexcept {
    return rows_.size();
  }

  /// out[j] = A_j^T y for every structural column j. `y` holds one entry
  /// per constraint row and `out` at least num_cols() entries.
  void multiply_transposed(std::span<const double> y,
                           std::span<double> out) const;

 private:
  std::size_t num_cols_ = 0;
  /// Panel p owns rows_[row_begin_[p] .. row_begin_[p + 1]).
  std::vector<std::size_t> row_begin_;
  std::vector<std::int32_t> rows_;
  /// kWidth values per stored row: values_[k * kWidth + c] = A(rows_[k],
  /// kWidth * p + c), zero where that column has no entry or does not exist.
  std::vector<double> values_;
};

}  // namespace carbon::lp
