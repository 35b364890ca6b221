// Column-panel copy of a constraint matrix for the simplex pricing pass.
//
// Pricing needs A_j^T y for every structural column j once per pivot. Done
// one column at a time, each dot product is a single chain of dependent
// adds and runs at add latency. ColumnPanels groups kWidth consecutive
// columns into a panel and stores, per panel, the ascending rows where any
// of its columns has a nonzero together with kWidth values per such row
// (zero-padded). The panel kernel walks each panel's rows once with kWidth
// independent accumulators: four 2-wide SSE2 multiply/add pairs on the
// portable path, two 4-wide AVX2 pairs on the AVX2 path
// (src/lp/column_panels_avx2.cpp, picked by the process-wide switch in
// common/simd_path.hpp).
//
// Two entry points use the kernel. choose_entering() is the simplex's
// pricing step: per panel it forms the reduced costs d_j = c_j - A_j^T y,
// the scores dir_j * d_j and keeps the running best, without writing any
// per-column array. multiply_transposed() writes A_j^T y for every column
// (the solver's final reduced costs).
//
// Bit-identity with a per-column dot product: every column still adds its
// terms in ascending row order, starting from +0.0, with a separate multiply
// and add per term, in one lane of its own on either path. A padded or
// absent entry contributes 0.0 * y_i = +-0.0, which never changes a sum that
// starts at +0.0 (the sum can only become -0.0 by adding -0.0 to -0.0). So
// A_j^T y equals the dense loop `for i: acc += A(i, j) * y[i]` bit for bit,
// for every finite y and finite matrix (Problem::validate() rejects
// non-finite coefficients; an infinite y would turn a padded 0 * y into NaN).
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

  /// A candidate entering column and its score.
  struct Choice {
    std::size_t column;
    double score;
  };

  /// One fused pricing-and-choice pass over the structural columns. For
  /// each column j in index order it forms d_j = cost[j] - A_j^T y and
  /// score_j = dir[j] * d_j, and moves `best` to {j, score_j} when score_j >
  /// best.score: strict, so the first maximum wins. With `first_eligible`
  /// (Bland's rule) it returns at the first column that moves `best`.
  /// `cost` and `dir` hold at least num_cols() entries; dir[j] is -1 for a
  /// column that may increase, +1 for one that may decrease and 0 for one
  /// that may not move. best.score must be positive, so a zero direction
  /// (score +-0) never wins. Returns true when it moved `best`.
  bool choose_entering(std::span<const double> y,
                       std::span<const double> cost,
                       std::span<const double> dir, bool first_eligible,
                       Choice& best) const;

 private:
  std::size_t num_cols_ = 0;
  /// Panel p owns rows_[row_begin_[p] .. row_begin_[p + 1]).
  std::vector<std::size_t> row_begin_;
  std::vector<std::int32_t> rows_;
  /// kWidth values per stored row: values_[k * kWidth + c] = A(rows_[k],
  /// kWidth * p + c), zero where that column has no entry or does not exist.
  std::vector<double> values_;
};

namespace detail {
/// sums[c] = sum over the panel's `count` rows, ascending, of
/// values[k * kWidth + c] * y[rows[k]], for c < kWidth. The AVX2 panel kernel
/// in src/lp/column_panels_avx2.cpp, compiled in only with AVX2 support
/// (CARBON_ENABLE_AVX2); callers must check common::simd::active_path().
void panel_sums_avx2(const std::int32_t* rows, const double* values,
                     std::size_t count, const double* y,
                     double* sums) noexcept;
}  // namespace detail

}  // namespace carbon::lp
