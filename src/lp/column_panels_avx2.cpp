// AVX2 panel kernel of the simplex pricing pass — compiled with -mavx2 and
// only when the build has AVX2 support (see src/CMakeLists.txt). Nothing
// here runs unless ColumnPanels dispatched to it after the runtime check of
// common::simd, so the rest of the binary stays executable on pre-AVX2
// hardware.
//
// Bit-identity with the portable kernel (src/lp/column_panels.cpp): each of
// the 8 lanes is one column, and every lane adds its terms in the same
// ascending row order, starting from +0.0, with a separate vector multiply
// and vector add per term. Both are single-rounded IEEE operations per
// element, and the build pins -ffp-contract=off, so no FMA can fuse them.
// The 4-wide registers only change how many columns one instruction
// advances, never what any column computes.
#include <immintrin.h>

#include "carbon/lp/column_panels.hpp"

namespace carbon::lp::detail {

static_assert(ColumnPanels::kWidth == 8);

void panel_sums_avx2(const std::int32_t* rows, const double* values,
                     std::size_t count, const double* y,
                     double* sums) noexcept {
  __m256d a0 = _mm256_setzero_pd();
  __m256d a1 = _mm256_setzero_pd();
  for (std::size_t k = 0; k < count; ++k, values += ColumnPanels::kWidth) {
    const __m256d yy = _mm256_set1_pd(y[rows[k]]);
    a0 = _mm256_add_pd(a0, _mm256_mul_pd(_mm256_loadu_pd(values), yy));
    a1 = _mm256_add_pd(a1, _mm256_mul_pd(_mm256_loadu_pd(values + 4), yy));
  }
  _mm256_storeu_pd(sums, a0);
  _mm256_storeu_pd(sums + 4, a1);
}

}  // namespace carbon::lp::detail
