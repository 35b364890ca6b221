#include "carbon/lp/column_panels.hpp"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <limits>

namespace carbon::lp {

ColumnPanels::ColumnPanels(const Problem& problem)
    : num_cols_(problem.num_vars()) {
  constexpr std::size_t kUntouched = std::numeric_limits<std::size_t>::max();
  // slot[i] = index into rows_ of row i within the panel being built.
  std::vector<std::size_t> slot(problem.num_rows(), kUntouched);
  row_begin_.reserve((num_cols_ + kWidth - 1) / kWidth + 1);
  row_begin_.push_back(0);
  for (std::size_t first = 0; first < num_cols_; first += kWidth) {
    const std::size_t last = std::min(first + kWidth, num_cols_);
    const std::size_t begin = rows_.size();
    for (std::size_t j = first; j < last; ++j) {
      for (const std::int32_t r : problem.columns[j].rows) {
        const auto i = static_cast<std::size_t>(r);
        if (slot[i] != kUntouched) continue;
        slot[i] = 0;
        rows_.push_back(r);
      }
    }
    std::sort(rows_.begin() + static_cast<std::ptrdiff_t>(begin), rows_.end());
    for (std::size_t k = begin; k < rows_.size(); ++k) {
      slot[static_cast<std::size_t>(rows_[k])] = k;
    }
    values_.resize(rows_.size() * kWidth, 0.0);
    for (std::size_t j = first; j < last; ++j) {
      const SparseColumn& col = problem.columns[j];
      for (std::size_t k = 0; k < col.nnz(); ++k) {
        const std::size_t at = slot[static_cast<std::size_t>(col.rows[k])];
        values_[at * kWidth + (j - first)] = col.values[k];
      }
    }
    for (std::size_t k = begin; k < rows_.size(); ++k) {
      slot[static_cast<std::size_t>(rows_[k])] = kUntouched;
    }
    row_begin_.push_back(rows_.size());
  }
}

namespace {

// Four 16-byte accumulators (GCC/Clang vector extension, like the build's
// other GNU flags): SSE2 registers on a default x86-64 build, and a vector
// width every GCC/Clang target lowers without splitting.
using Pair = double __attribute__((vector_size(16)));
static_assert(ColumnPanels::kWidth == 4 * sizeof(Pair) / sizeof(double));

Pair load(const double* p) {
  Pair v;
  std::memcpy(&v, p, sizeof v);
  return v;
}

/// sums[c] = sum over the panel's rows, ascending, of values[c] * y[row].
void panel_sums(const std::int32_t* rows, const double* values,
                std::size_t count, const double* y, double* sums) {
  Pair a0 = {0.0, 0.0};
  Pair a1 = a0;
  Pair a2 = a0;
  Pair a3 = a0;
  for (std::size_t k = 0; k < count; ++k, values += ColumnPanels::kWidth) {
    const double yr = y[rows[k]];
    const Pair yy = {yr, yr};
    // A separate multiply and add per term (the build pins
    // -ffp-contract=off), so each lane rounds exactly like the scalar dot.
    a0 += load(values) * yy;
    a1 += load(values + 2) * yy;
    a2 += load(values + 4) * yy;
    a3 += load(values + 6) * yy;
  }
  std::memcpy(sums, &a0, sizeof a0);
  std::memcpy(sums + 2, &a1, sizeof a1);
  std::memcpy(sums + 4, &a2, sizeof a2);
  std::memcpy(sums + 6, &a3, sizeof a3);
}

}  // namespace

void ColumnPanels::multiply_transposed(std::span<const double> y,
                                       std::span<double> out) const {
  assert(out.size() >= num_cols_);
  for (std::size_t p = 0; p + 1 < row_begin_.size(); ++p) {
    const std::size_t begin = row_begin_[p];
    const std::size_t first = p * kWidth;
    double sums[kWidth];
    panel_sums(rows_.data() + begin, values_.data() + begin * kWidth,
               row_begin_[p + 1] - begin, y.data(), sums);
    const std::size_t width = std::min(kWidth, num_cols_ - first);
    std::copy(sums, sums + width, out.begin() + static_cast<std::ptrdiff_t>(first));
  }
}

}  // namespace carbon::lp
