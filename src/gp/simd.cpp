#include "carbon/gp/simd.hpp"

#include <algorithm>
#include <atomic>
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

constexpr Kernels kScalarTable = {
    add_n, sub_n, mul_n, div_n, mod_n, splat_n, copy_n,
    Path::kScalar, /*lanes=*/1, "scalar"};

// --- Dispatch ---------------------------------------------------------------

[[nodiscard]] const Kernels* avx2_or_null() noexcept {
  const Kernels* t = detail::avx2_table();
  return (t != nullptr && cpu_supports_avx2()) ? t : nullptr;
}

[[nodiscard]] const Kernels* resolve(std::string_view request) noexcept {
  if (request == "scalar") return &kScalarTable;
  // "avx2" and "auto" both take AVX2 when actually available; an explicit
  // "avx2" on an unsupported machine degrades to scalar rather than
  // crashing — the active table stays observable through path_name().
  const Kernels* t = avx2_or_null();
  return t != nullptr ? t : &kScalarTable;
}

std::atomic<const Kernels*>& active_slot() noexcept {
  static std::atomic<const Kernels*> slot{nullptr};
  return slot;
}

}  // namespace

const Kernels& kernels() noexcept {
  const Kernels* k = active_slot().load(std::memory_order_acquire);
  if (k == nullptr) {
    // First use: the widest table the build and the CPU support. A benign
    // race resolves to the same table on every thread.
    k = resolve("auto");
    active_slot().store(k, std::memory_order_release);
  }
  return *k;
}

Path active_path() noexcept { return kernels().path; }

const char* path_name() noexcept { return kernels().name; }

std::size_t lanes() noexcept { return kernels().lanes; }

bool cpu_supports_avx2() noexcept {
#if defined(__x86_64__) || defined(_M_X64) || defined(__i386__)
  return __builtin_cpu_supports("avx2") != 0;
#else
  return false;
#endif
}

bool avx2_kernels_available() noexcept { return avx2_or_null() != nullptr; }

Path select_path(Path path) noexcept {
  return select_path(path == Path::kAvx2 ? "avx2" : "scalar");
}

Path select_path(std::string_view name) noexcept {
  const Kernels* k = resolve(name);
  active_slot().store(k, std::memory_order_release);
  return k->path;
}

namespace detail {
const Kernels& scalar_table() noexcept { return kScalarTable; }
}  // namespace detail

}  // namespace carbon::gp::simd
