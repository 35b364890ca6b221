#include "carbon/gp/simd.hpp"

#include <algorithm>
#include <cmath>

#include "carbon/gp/eval_ops.hpp"

namespace carbon::gp::simd {

namespace {

// --- Scalar reference kernels ----------------------------------------------
// These ARE the semantics: one ops::apply_op-equivalent expression per
// element, in index order. The AVX2 table must match them bit-for-bit.

namespace ops = carbon::gp::detail;

void add_n(const double* a, const double* b, double* dst, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) dst[i] = ops::clamp_finite(a[i] + b[i]);
}

void sub_n(const double* a, const double* b, double* dst, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) dst[i] = ops::clamp_finite(a[i] - b[i]);
}

void mul_n(const double* a, const double* b, double* dst, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) dst[i] = ops::clamp_finite(a[i] * b[i]);
}

void div_n(const double* a, const double* b, double* dst, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    dst[i] = std::abs(b[i]) < ops::kProtectTol
                 ? 1.0
                 : ops::clamp_finite(a[i] / b[i]);
  }
}

void mod_n(const double* a, const double* b, double* dst, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    dst[i] = std::abs(b[i]) < ops::kProtectTol
                 ? 0.0
                 : ops::clamp_finite(std::fmod(a[i], b[i]));
  }
}

void splat_n(double value, double* dst, std::size_t n) {
  std::fill_n(dst, n, value);
}

void copy_n(const double* src, double* dst, std::size_t n) {
  std::copy_n(src, n, dst);
}

constexpr Kernels kScalarTable = {add_n, sub_n, mul_n, div_n, mod_n,
                                  splat_n, copy_n, /*lanes=*/1};

}  // namespace

const Kernels& kernels() noexcept {
  const Kernels* avx2 = detail::avx2_table();
  return common::simd::active_path() == Path::kAvx2 && avx2 != nullptr
             ? *avx2
             : kScalarTable;
}

std::size_t lanes() noexcept { return kernels().lanes; }

namespace detail {
const Kernels& scalar_table() noexcept { return kScalarTable; }
}  // namespace detail

}  // namespace carbon::gp::simd
