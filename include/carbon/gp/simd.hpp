// Runtime-dispatched multi-lane kernels behind the only GP evaluator,
// gp::CompiledProgram::evaluate_batch: one kernel per bytecode operation.
//
// Every bytecode instruction is an ELEMENTWISE loop over the batch axis —
// there are no reductions, no fused multiply-adds, and no order-dependent
// accumulations. IEEE-754 +, -, *, / are deterministic per element, the
// protected-operator branches (see gp/eval_ops.hpp) map one-to-one onto
// compare+blend masks, and fmod is an exactly-rounded libm operation. A
// 4-wide AVX2 lane therefore computes, per element, the *same bits* as the
// scalar loop: vector width is a pure throughput knob, never a semantics
// knob. That is what lets the SIMD path slot under the golden-trajectory
// harness without regenerating a single baseline.
//
// Dispatch model: one kernel table is selected per process, on first use,
// by the build and the CPU — AVX2 when the -mavx2 TU is compiled in and the
// CPU reports it, the portable scalar loops otherwise. Since every path
// computes the same bits, the choice only changes speed. select_path()
// overrides it programmatically at any time — the tests flip paths mid-
// process to run the scalar-vs-SIMD differential fuzz and the golden
// matrices.
//
// The AVX2 table lives in its own translation unit (src/gp/simd_avx2.cpp)
// compiled with -mavx2; nothing outside that TU executes AVX2 instructions,
// so the binary stays runnable on pre-AVX2 hardware.
#pragma once

#include <cstddef>
#include <string_view>

namespace carbon::gp::simd {

enum class Path { kScalar, kAvx2 };

/// One batched kernel per bytecode operation. `n` is the batch length; all
/// pointers are rows of the SoA register file (dst may alias a and/or b —
/// every kernel reads element i before writing element i).
struct Kernels {
  using BinFn = void (*)(const double* a, const double* b, double* dst,
                         std::size_t n);
  using SplatFn = void (*)(double value, double* dst, std::size_t n);
  using CopyFn = void (*)(const double* src, double* dst, std::size_t n);

  BinFn add = nullptr;
  BinFn sub = nullptr;
  BinFn mul = nullptr;
  BinFn div = nullptr;  ///< protected: |b| < kProtectTol -> 1
  BinFn mod = nullptr;  ///< protected: |b| < kProtectTol -> 0
  SplatFn splat = nullptr;  ///< kConst and size-1 broadcast columns
  CopyFn copy = nullptr;    ///< full-size terminal column loads

  Path path = Path::kScalar;
  std::size_t lanes = 1;       ///< doubles per hardware iteration
  const char* name = "scalar";
};

/// The active kernel table. First call picks it from the build and the CPU
/// (subsequent calls are one atomic load); never fails — the scalar table
/// always exists.
[[nodiscard]] const Kernels& kernels() noexcept;

[[nodiscard]] Path active_path() noexcept;
[[nodiscard]] const char* path_name() noexcept;
/// Lane width of the active table (1 scalar, 4 AVX2).
[[nodiscard]] std::size_t lanes() noexcept;

/// True when this CPU reports AVX2 support.
[[nodiscard]] bool cpu_supports_avx2() noexcept;
/// True when the AVX2 kernels were compiled into this binary AND the CPU
/// supports them — i.e. select_path(Path::kAvx2) would actually take effect.
[[nodiscard]] bool avx2_kernels_available() noexcept;

/// Forces the active path; returns what is actually active afterwards
/// (forcing AVX2 without hardware/build support falls back to scalar).
/// Value-safe at any time: every path computes identical bits.
Path select_path(Path path) noexcept;
/// String form: "auto", "scalar", or "avx2" (anything else reads as auto).
Path select_path(std::string_view name) noexcept;

namespace detail {
/// AVX2 table, or nullptr when the build lacks the -mavx2 TU. Defined in
/// src/gp/simd_avx2.cpp; callers must still check cpu_supports_avx2().
[[nodiscard]] const Kernels* avx2_table() noexcept;
/// Scalar reference table (always available; used directly by tests).
[[nodiscard]] const Kernels& scalar_table() noexcept;
}  // namespace detail

}  // namespace carbon::gp::simd
