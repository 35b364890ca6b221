// Dense row-major matrix with just the operations the simplex solver needs.
// Constraint counts in this project reach m = 400 in the benchmark grid
// (BENCH_lp_simplex.json sweeps m in {50, 200, 400}). The constraint matrix
// is never stored densely: the solver prices over column panels that keep
// only the rows each 8-column panel touches (ColumnPanels) and FTRANs over
// sparse CSC columns. Dense storage is kept only where it is structurally
// dense: the basis inverse and its O(m^3) refactorization.
#pragma once

#include <cassert>
#include <cstddef>
#include <span>
#include <vector>

namespace carbon::lp {

class DenseMatrix {
 public:
  DenseMatrix() = default;
  DenseMatrix(std::size_t rows, std::size_t cols, double fill = 0.0)
      : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

  [[nodiscard]] std::size_t rows() const noexcept { return rows_; }
  [[nodiscard]] std::size_t cols() const noexcept { return cols_; }

  double& operator()(std::size_t r, std::size_t c) noexcept {
    assert(r < rows_ && c < cols_);
    return data_[r * cols_ + c];
  }
  double operator()(std::size_t r, std::size_t c) const noexcept {
    assert(r < rows_ && c < cols_);
    return data_[r * cols_ + c];
  }

  [[nodiscard]] std::span<double> row(std::size_t r) noexcept {
    return {data_.data() + r * cols_, cols_};
  }
  [[nodiscard]] std::span<const double> row(std::size_t r) const noexcept {
    return {data_.data() + r * cols_, cols_};
  }

  /// Identity matrix of size n.
  [[nodiscard]] static DenseMatrix identity(std::size_t n) {
    DenseMatrix m(n, n);
    for (std::size_t i = 0; i < n; ++i) m(i, i) = 1.0;
    return m;
  }

  /// Reshape to rows x cols and zero-fill, reusing the existing allocation
  /// when capacity allows. Equivalent to assigning DenseMatrix(rows, cols).
  void reset(std::size_t rows, std::size_t cols) {
    rows_ = rows;
    cols_ = cols;
    data_.assign(rows * cols, 0.0);
  }

  /// Reshape to the n x n identity in place (see reset()).
  void set_identity(std::size_t n) {
    reset(n, n);
    for (std::size_t i = 0; i < n; ++i) data_[i * n + i] = 1.0;
  }

  /// out = this * v  (rows() results).
  void multiply(std::span<const double> v, std::span<double> out) const;

  /// out = v^T * this  (cols() results).
  void multiply_transposed(std::span<const double> v,
                           std::span<double> out) const;

  /// In-place Gauss-Jordan inversion with partial pivoting.
  /// Returns false when the matrix is (numerically) singular.
  [[nodiscard]] bool invert(double pivot_tolerance = 1e-11);

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<double> data_;
};

}  // namespace carbon::lp
