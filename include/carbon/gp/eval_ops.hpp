// The protected-operator arithmetic: the single definition of what each GP
// opcode computes.
//
// The scalar kernels of gp::CompiledProgram (gp/simd.cpp) apply it per
// element, the AVX2 kernels mirror it lane for lane, constant folding in
// gp::simplify computes with it, and the tests' tree interpreter
// (tests/gp/interpreter.hpp) is built on it. Keep these inline and
// branch-compatible: any change here changes *every* score the system has
// ever produced.
#pragma once

#include <cmath>

#include "carbon/gp/tree.hpp"

namespace carbon::gp::detail {

/// Operands at or below this magnitude trigger the protected semantics of
/// division (-> 1) and modulo (-> 0).
inline constexpr double kProtectTol = 1e-9;
/// Operator results are clamped into [-kValueCap, kValueCap]; NaN -> 0.
inline constexpr double kValueCap = 1e12;

[[nodiscard]] inline double clamp_finite(double v) noexcept {
  if (std::isnan(v)) return 0.0;
  if (v > kValueCap) return kValueCap;
  if (v < -kValueCap) return -kValueCap;
  return v;
}

[[nodiscard]] inline double apply_op(OpCode op, double a, double b) noexcept {
  switch (op) {
    case OpCode::kAdd:
      return clamp_finite(a + b);
    case OpCode::kSub:
      return clamp_finite(a - b);
    case OpCode::kMul:
      return clamp_finite(a * b);
    case OpCode::kDiv:
      return std::abs(b) < kProtectTol ? 1.0 : clamp_finite(a / b);
    case OpCode::kMod:
      return std::abs(b) < kProtectTol ? 0.0 : clamp_finite(std::fmod(a, b));
    default:
      return 0.0;
  }
}

}  // namespace carbon::gp::detail
