// Test oracle for compiled GP scoring (gp::CompiledProgram).
//
// interpret() evaluates a tree directly: a right-to-left walk over the
// prefix encoding with an operand stack, each operator applied through the
// protected arithmetic of gp/eval_ops.hpp. It shares no code with the
// compiler (no canonicalization, no simplification, no CSE, no register
// allocation, no batch kernels), so a compiled program that agrees with it
// bit for bit is evidence that the compile pipeline preserves values.
#pragma once

#include <array>
#include <cassert>
#include <span>
#include <vector>

#include "carbon/gp/eval_ops.hpp"
#include "carbon/gp/tree.hpp"
#include "cover/greedy_reference.hpp"

namespace carbon::gp::testing {

/// The value of `tree` at one terminal feature vector (Terminal order).
[[nodiscard]] inline double interpret(
    const Tree& tree, std::span<const double, kNumTerminals> features) {
  assert(tree.valid());
  // Scanning backwards means operands are already on the stack when their
  // operator is reached: leaves push, operators pop two.
  std::vector<double> stack;
  stack.reserve(tree.size());
  const std::vector<Node>& nodes = tree.nodes();
  for (std::size_t i = nodes.size(); i-- > 0;) {
    const Node& n = nodes[i];
    switch (n.op) {
      case OpCode::kTerminal:
        stack.push_back(features[n.terminal]);
        break;
      case OpCode::kConst:
        stack.push_back(n.value);
        break;
      default: {
        const double a = stack.back();
        stack.pop_back();
        const double b = stack.back();
        stack.pop_back();
        stack.push_back(detail::apply_op(n.op, a, b));
        break;
      }
    }
  }
  assert(stack.size() == 1);
  return stack.back();
}

/// The per-bundle scorer of the reference greedy for `tree`: interpret()
/// over the bundle's features. Holds a reference: keep `tree` alive.
[[nodiscard]] inline auto interpreter_scorer(const Tree& tree) {
  return [&tree](const cover::testing::BundleFeatures& f) {
    const std::array<double, kNumTerminals> terminals = {
        f.cost, f.qsum, f.qcov, f.bres, f.dual, f.xbar};
    return interpret(tree, terminals);
  };
}

}  // namespace carbon::gp::testing
