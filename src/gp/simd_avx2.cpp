// AVX2 table of the GP bytecode kernels — one of the two translation units
// compiled with -mavx2 (see src/CMakeLists.txt; the other is the simplex
// pricing panel kernel, lp/column_panels_avx2.cpp). Nothing here runs
// unless simd::kernels() dispatched to this table after the runtime check of
// common::simd, so the rest of the binary stays executable on pre-AVX2
// hardware.
//
// Bit-identity with the scalar table (src/gp/simd.cpp) is by construction:
//   * add/sub/mul/div use the single-rounded vector instruction for the
//     exact IEEE operation the scalar expression performs — no FMA
//     contraction, no reassociation, no approximate reciprocals.
//   * clamp_finite's branch ladder (NaN -> 0, > cap -> cap, < -cap -> -cap)
//     becomes three ordered-quiet compares + blends on the ORIGINAL value;
//     the branches are mutually exclusive, so blend order only has to keep
//     the NaN blend last (NaN fails both OQ magnitude compares).
//   * the protected-divisor test |b| < kProtectTol is an abs-mask AND plus
//     an OQ compare: false for NaN divisors exactly like the scalar
//     std::abs(b) < tol.
//   * kMod stays element-at-a-time: there is no vector fmod instruction,
//     and fmod is exactly rounded, so the scalar loop is already the unique
//     correct answer — vectorizing only the mask would complicate the code
//     for an opcode that is rare in evolved trees.
// The ragged tail (n % 4 elements) runs the scalar expressions, which
// compute the same bits per element as the vector body.
#include "carbon/gp/simd.hpp"

#if defined(CARBON_SIMD_AVX2)

#include <immintrin.h>

#include <cmath>
#include <cstdint>

#include "carbon/gp/eval_ops.hpp"

namespace carbon::gp::simd {

namespace {

namespace ops = carbon::gp::detail;

[[nodiscard]] inline __m256d clamp4(__m256d v) noexcept {
  const __m256d cap = _mm256_set1_pd(ops::kValueCap);
  const __m256d neg_cap = _mm256_set1_pd(-ops::kValueCap);
  __m256d r = _mm256_blendv_pd(v, cap, _mm256_cmp_pd(v, cap, _CMP_GT_OQ));
  r = _mm256_blendv_pd(r, neg_cap, _mm256_cmp_pd(v, neg_cap, _CMP_LT_OQ));
  return _mm256_blendv_pd(r, _mm256_setzero_pd(),
                          _mm256_cmp_pd(v, v, _CMP_UNORD_Q));
}

void add4(const double* a, const double* b, double* dst, std::size_t n) {
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d va = _mm256_loadu_pd(a + i);
    const __m256d vb = _mm256_loadu_pd(b + i);
    _mm256_storeu_pd(dst + i, clamp4(_mm256_add_pd(va, vb)));
  }
  for (; i < n; ++i) dst[i] = ops::clamp_finite(a[i] + b[i]);
}

void sub4(const double* a, const double* b, double* dst, std::size_t n) {
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d va = _mm256_loadu_pd(a + i);
    const __m256d vb = _mm256_loadu_pd(b + i);
    _mm256_storeu_pd(dst + i, clamp4(_mm256_sub_pd(va, vb)));
  }
  for (; i < n; ++i) dst[i] = ops::clamp_finite(a[i] - b[i]);
}

void mul4(const double* a, const double* b, double* dst, std::size_t n) {
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d va = _mm256_loadu_pd(a + i);
    const __m256d vb = _mm256_loadu_pd(b + i);
    _mm256_storeu_pd(dst + i, clamp4(_mm256_mul_pd(va, vb)));
  }
  for (; i < n; ++i) dst[i] = ops::clamp_finite(a[i] * b[i]);
}

void div4(const double* a, const double* b, double* dst, std::size_t n) {
  const __m256d abs_mask = _mm256_castsi256_pd(
      _mm256_set1_epi64x(0x7fffffffffffffffLL));
  const __m256d tol = _mm256_set1_pd(ops::kProtectTol);
  const __m256d one = _mm256_set1_pd(1.0);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d va = _mm256_loadu_pd(a + i);
    const __m256d vb = _mm256_loadu_pd(b + i);
    const __m256d protect =
        _mm256_cmp_pd(_mm256_and_pd(vb, abs_mask), tol, _CMP_LT_OQ);
    const __m256d quot = clamp4(_mm256_div_pd(va, vb));
    _mm256_storeu_pd(dst + i, _mm256_blendv_pd(quot, one, protect));
  }
  for (; i < n; ++i) {
    dst[i] = std::abs(b[i]) < ops::kProtectTol ? 1.0
                                               : ops::clamp_finite(a[i] / b[i]);
  }
}

void mod4(const double* a, const double* b, double* dst, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    dst[i] = std::abs(b[i]) < ops::kProtectTol
                 ? 0.0
                 : ops::clamp_finite(std::fmod(a[i], b[i]));
  }
}

void splat4(double value, double* dst, std::size_t n) {
  const __m256d v = _mm256_set1_pd(value);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) _mm256_storeu_pd(dst + i, v);
  for (; i < n; ++i) dst[i] = value;
}

void copy4(const double* src, double* dst, std::size_t n) {
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    _mm256_storeu_pd(dst + i, _mm256_loadu_pd(src + i));
  }
  for (; i < n; ++i) dst[i] = src[i];
}

constexpr Kernels kAvx2Table = {add4,   sub4,   mul4, div4, mod4,
                                splat4, copy4, /*lanes=*/4};

}  // namespace

namespace detail {
const Kernels* avx2_table() noexcept { return &kAvx2Table; }
}  // namespace detail

}  // namespace carbon::gp::simd

#else  // !CARBON_SIMD_AVX2

namespace carbon::gp::simd::detail {
const Kernels* avx2_table() noexcept { return nullptr; }
}  // namespace carbon::gp::simd::detail

#endif
