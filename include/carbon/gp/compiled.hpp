// Compiled GP scoring programs: linear bytecode evaluated over bundle
// batches in SoA layout — the one way a GP tree is scored.
//
// CompiledProgram front-loads all per-tree work into a one-time compile:
//
//   canonicalize -> constant-fold + algebraic simplify -> CSE -> linearize
//
// and then evaluates the resulting register program *batched*: every
// instruction is an elementwise loop over the whole bundle axis (contiguous
// arrays, no std::function, no per-bundle struct, no per-call allocation
// once the caller-owned scratch is warm). A tree scored for M bundles per
// greedy round thus costs |program| tight loops.
//
// Equivalence contract: for terminal features that are finite and within
// ±detail::kValueCap, a compiled program produces bit-identical doubles to a
// direct evaluation of the source tree under the protected operator
// semantics of gp/eval_ops.hpp (the rewrites are exact under those
// semantics; commutative reordering is exact because IEEE-754 + and * are
// commutative). tests/gp/compiled_program_test.cpp fuzzes this contract
// against a tree interpreter kept in the tests (tests/gp/interpreter.hpp).
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "carbon/gp/tree.hpp"

namespace carbon::gp {

class CompiledProgram {
 public:
  CompiledProgram() = default;

  [[nodiscard]] static CompiledProgram compile(const Tree& tree);

  /// One SoA feature batch: columns[t] holds the value of terminal t for
  /// every element of the batch. A column of size 1 broadcasts its single
  /// value across the batch (used for BRES, which is shared by every bundle
  /// within a greedy round); otherwise it must have exactly `count` values.
  struct TerminalBatch {
    std::array<std::span<const double>, kNumTerminals> columns;
    std::size_t count = 0;
  };

  /// Batched evaluation: out[i] = program(batch element i). `out` must have
  /// batch.count elements; `scratch` is the register file (resized to
  /// num_registers() * batch.count, reused across calls).
  void evaluate_batch(const TerminalBatch& batch, std::span<double> out,
                      std::vector<double>& scratch) const;

  /// True when the program reads terminal t *after* simplification — e.g.
  /// (sub QCOV QCOV) folds to 0 and reads nothing.
  [[nodiscard]] bool uses_terminal(Terminal t) const noexcept {
    return (terminal_mask_ & (1u << static_cast<unsigned>(t))) != 0;
  }

  /// True when no residual-dependent terminal (QCOV, BRES) survives
  /// simplification: scores are then invariant across greedy rounds and the
  /// sort-based cover::greedy_solve_static fast path applies. Catches
  /// strictly more trees than a syntactic check of the source tree (e.g.
  /// (sub QCOV QCOV)).
  [[nodiscard]] bool is_static() const noexcept {
    return !uses_terminal(Terminal::kQcov) && !uses_terminal(Terminal::kBres);
  }

  /// FNV-1a hash of the canonical (simplified, operand-ordered) form. Trees
  /// with equal canonical forms — e.g. (add COST QSUM) and (add QSUM COST)
  /// — share a hash and compile to identical programs, which is what the
  /// evaluators' duplicate-genome memo keys on (with canonical_nodes() as
  /// the exact tiebreaker).
  [[nodiscard]] std::uint64_t canonical_hash() const noexcept { return hash_; }

  /// Canonical form as a prefix node sequence (exact-equality key).
  [[nodiscard]] const std::vector<Node>& canonical_nodes() const noexcept {
    return canonical_;
  }

  [[nodiscard]] std::size_t num_instructions() const noexcept {
    return code_.size();
  }
  [[nodiscard]] std::size_t num_registers() const noexcept {
    return num_regs_;
  }
  [[nodiscard]] bool empty() const noexcept { return code_.empty(); }

 private:
  struct Instr {
    OpCode op = OpCode::kConst;
    std::uint16_t dst = 0;
    std::uint16_t a = 0;  ///< operand register; terminal index for kTerminal
    std::uint16_t b = 0;
    double value = 0.0;   ///< payload for kConst
  };

  std::vector<Instr> code_;
  std::vector<Node> canonical_;
  std::uint64_t hash_ = 0;
  std::uint16_t num_regs_ = 0;
  std::uint16_t result_reg_ = 0;
  std::uint8_t terminal_mask_ = 0;
};

/// Canonical form used by the compiler: simplify(tree) with the operands of
/// commutative operators (+, *) put into a deterministic structural order.
/// Exposed for tests and for hashing without building a full program.
[[nodiscard]] Tree canonicalize(const Tree& tree);

}  // namespace carbon::gp
