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
// Dispatch model: the process-wide switch in common/simd_path.hpp picks
// the table — AVX2 when the -mavx2 TU is compiled in and the CPU reports
// it, the portable scalar loops otherwise — and the simplex pricing panel
// kernel follows the same switch. Since every path computes the same bits,
// the choice only changes speed; the tests flip it mid-process to run the
// scalar-vs-SIMD differential fuzz and the golden matrices.
//
// The AVX2 table lives in its own translation unit (src/gp/simd_avx2.cpp)
// compiled with -mavx2; nothing outside the -mavx2 TUs executes AVX2
// instructions, so the binary stays runnable on pre-AVX2 hardware.
#pragma once

#include <cstddef>

#include "carbon/common/simd_path.hpp"

namespace carbon::gp::simd {

using common::simd::Path;
/// The active path's name; the same switch serves GP and LP.
using common::simd::path_name;

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

  std::size_t lanes = 1;  ///< doubles per hardware iteration
};

/// The table of the active path (common::simd::active_path()); never fails
/// — the scalar table always exists.
[[nodiscard]] const Kernels& kernels() noexcept;

/// Lane width of the active table (1 scalar, 4 AVX2).
[[nodiscard]] std::size_t lanes() noexcept;

namespace detail {
/// AVX2 table, or nullptr when the build lacks the -mavx2 TU. Defined in
/// src/gp/simd_avx2.cpp; callers must still check the CPU
/// (common::simd::avx2_available()).
[[nodiscard]] const Kernels* avx2_table() noexcept;
/// Scalar reference table (always available; used directly by tests).
[[nodiscard]] const Kernels& scalar_table() noexcept;
}  // namespace detail

}  // namespace carbon::gp::simd
