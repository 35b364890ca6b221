// GP syntax trees for scoring-function hyper-heuristics.
//
// Trees implement the paper's Table I primitive set: binary operators
// {+, -, *, protected /, protected mod} over the terminal features a greedy
// scoring function can observe (see cover::BatchFeatureView), plus optional
// ephemeral random constants.
//
// Storage is a flat prefix-order (preorder) node vector. That keeps trees
// contiguous, makes subtree extraction a simple range copy, and avoids
// per-node allocations entirely. A tree is the genome the GP operators
// vary; it is scored only after compilation (gp::CompiledProgram), and the
// operator semantics live in gp/eval_ops.hpp.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace carbon::gp {

enum class OpCode : std::uint8_t {
  kAdd,       ///< a + b
  kSub,       ///< a - b
  kMul,       ///< a * b
  kDiv,       ///< protected division: b ~ 0 -> 1
  kMod,       ///< protected modulo:   b ~ 0 -> 0, else fmod(a, b)
  kTerminal,  ///< feature lookup (payload: terminal index)
  kConst,     ///< ephemeral constant (payload: value)
};

/// Terminals, matching Table I of the paper (per-service entries aggregated
/// over services as documented in DESIGN.md §5.1).
enum class Terminal : std::uint8_t {
  kCost,  ///< c_j
  kQsum,  ///< Σ_k q_jk
  kQcov,  ///< Σ_k min(q_jk, residual_k)
  kBres,  ///< Σ_k residual_k
  kDual,  ///< Σ_k d_k q_jk
  kXbar,  ///< x̄_j
  kCount,
};

inline constexpr std::size_t kNumTerminals =
    static_cast<std::size_t>(Terminal::kCount);

[[nodiscard]] const char* terminal_name(Terminal t) noexcept;
[[nodiscard]] const char* opcode_name(OpCode op) noexcept;
[[nodiscard]] int opcode_arity(OpCode op) noexcept;

struct Node {
  OpCode op = OpCode::kConst;
  std::uint8_t terminal = 0;  ///< valid when op == kTerminal
  double value = 0.0;         ///< valid when op == kConst

  [[nodiscard]] bool is_leaf() const noexcept {
    return op == OpCode::kTerminal || op == OpCode::kConst;
  }
  bool operator==(const Node&) const = default;
};

/// Expression tree in prefix order. Invariant: nodes_ encodes exactly one
/// complete expression (checked by `valid()`).
class Tree {
 public:
  Tree() = default;
  explicit Tree(std::vector<Node> prefix) : nodes_(std::move(prefix)) {}

  /// Leaf constructors.
  [[nodiscard]] static Tree terminal(Terminal t);
  [[nodiscard]] static Tree constant(double v);
  /// Applies a binary operator to two subtrees.
  [[nodiscard]] static Tree apply(OpCode op, const Tree& lhs, const Tree& rhs);

  [[nodiscard]] const std::vector<Node>& nodes() const noexcept {
    return nodes_;
  }
  [[nodiscard]] std::size_t size() const noexcept { return nodes_.size(); }
  [[nodiscard]] bool empty() const noexcept { return nodes_.empty(); }

  /// One-past-the-end index of the subtree rooted at `pos`.
  [[nodiscard]] std::size_t subtree_end(std::size_t pos) const;

  /// Depth of the whole tree (single node = 1).
  [[nodiscard]] int depth() const;

  /// Depth of the node at `pos` within the tree (root = 1).
  [[nodiscard]] int node_depth(std::size_t pos) const;

  /// Copy of the subtree rooted at `pos` as a standalone tree.
  [[nodiscard]] Tree subtree(std::size_t pos) const;

  /// Replaces the subtree rooted at `pos` with `replacement`.
  void replace_subtree(std::size_t pos, const Tree& replacement);

  /// Structural validity: every operator has its operands, exactly one root.
  [[nodiscard]] bool valid() const;

  /// True when any node reads the given terminal.
  [[nodiscard]] bool uses_terminal(Terminal t) const noexcept;

  /// S-expression rendering, e.g. "(add COST (div DUAL QCOV))".
  [[nodiscard]] std::string to_string() const;

  bool operator==(const Tree&) const = default;

 private:
  std::vector<Node> nodes_;
};

/// Parses the `to_string` format. Throws std::runtime_error on bad input.
[[nodiscard]] Tree parse(const std::string& text);

/// Constant folding plus always-valid algebraic identities under the
/// *protected* operator semantics (x/x == 1, x-x == 0, mod(x,x) == 0).
[[nodiscard]] Tree simplify(const Tree& tree);

}  // namespace carbon::gp
