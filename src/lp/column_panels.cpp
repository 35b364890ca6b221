#include "carbon/lp/column_panels.hpp"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <limits>
#include <type_traits>

#include "carbon/common/simd_path.hpp"

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

/// The portable panel kernel; same contract as detail::panel_sums_avx2.
void panel_sums(const std::int32_t* rows, const double* values,
                std::size_t count, const double* y, double* sums) noexcept {
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

using PanelSums = void (*)(const std::int32_t*, const double*, std::size_t,
                           const double*, double*) noexcept;

/// Calls `body` with the active path's panel kernel as a template argument,
/// so the portable kernel inlines into the pass and the AVX2 one is a direct
/// call. Without the AVX2 translation unit only the portable kernel exists.
template <typename Body>
auto with_panel_kernel(Body&& body) {
#if defined(CARBON_SIMD_AVX2)
  if (common::simd::active_path() == common::simd::Path::kAvx2) {
    return body(std::integral_constant<PanelSums, detail::panel_sums_avx2>{});
  }
#endif
  return body(std::integral_constant<PanelSums, panel_sums>{});
}

}  // namespace

void ColumnPanels::multiply_transposed(std::span<const double> y,
                                       std::span<double> out) const {
  assert(out.size() >= num_cols_);
  with_panel_kernel([&](auto kernel) {
    for (std::size_t p = 0; p < num_panels(); ++p) {
      const std::size_t begin = row_begin_[p];
      const std::size_t first = p * kWidth;
      double sums[kWidth];
      kernel(rows_.data() + begin, values_.data() + begin * kWidth,
             row_begin_[p + 1] - begin, y.data(), sums);
      const std::size_t width = std::min(kWidth, num_cols_ - first);
      std::copy(sums, sums + width,
                out.begin() + static_cast<std::ptrdiff_t>(first));
    }
  });
}

bool ColumnPanels::choose_entering(std::span<const double> y,
                                   std::span<const double> cost,
                                   std::span<const double> dir,
                                   bool first_eligible, Choice& best) const {
  assert(cost.size() >= num_cols_ && dir.size() >= num_cols_);
  assert(best.score > 0.0);
  return with_panel_kernel([&](auto kernel) {
    bool moved = false;
    // The ragged last panel reads its cost and direction from zero-padded
    // copies: a padded lane scores 0 * (0 - 0) = +0 and never wins.
    double cost_tail[kWidth] = {};
    double dir_tail[kWidth] = {};
    for (std::size_t p = 0; p < num_panels(); ++p) {
      const std::size_t begin = row_begin_[p];
      const std::size_t first = p * kWidth;
      const std::size_t width = std::min(kWidth, num_cols_ - first);
      const double* c = cost.data() + first;
      const double* d = dir.data() + first;
      if (width < kWidth) {
        std::copy(c, c + width, cost_tail);
        std::copy(d, d + width, dir_tail);
        c = cost_tail;
        d = dir_tail;
      }
      double sums[kWidth];
      kernel(rows_.data() + begin, values_.data() + begin * kWidth,
             row_begin_[p + 1] - begin, y.data(), sums);
      // score = dir * (c - A^T y): -1.0 * x has the bits of -x, so a column
      // at its lower bound scores exactly -d_j.
      Pair score[4];
      for (std::size_t q = 0; q < 4; ++q) {
        score[q] = load(d + 2 * q) * (load(c + 2 * q) - load(sums + 2 * q));
      }
      // Prefilter: walk the lanes only when one of them beats the best.
      const Pair bar = {best.score, best.score};
      const auto beats = (score[0] > bar) | (score[1] > bar) |
                         (score[2] > bar) | (score[3] > bar);
      if ((beats[0] | beats[1]) == 0) continue;
      double lane[kWidth];
      std::memcpy(lane, score, sizeof lane);
      for (std::size_t k = 0; k < width; ++k) {
        if (lane[k] > best.score) {
          best = {first + k, lane[k]};
          moved = true;
          if (first_eligible) return true;
        }
      }
    }
    return moved;
  });
}

}  // namespace carbon::lp
