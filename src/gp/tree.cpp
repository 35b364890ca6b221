#include "carbon/gp/tree.hpp"

#include <cassert>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <sstream>
#include <stdexcept>

#include "carbon/gp/eval_ops.hpp"

namespace carbon::gp {

// Constant folding in simplify() computes with the same protected-operator
// arithmetic as the compiled kernels (gp/eval_ops.hpp), so a folded constant
// is the value the unfolded subtree would have produced.
using detail::apply_op;

const char* terminal_name(Terminal t) noexcept {
  switch (t) {
    case Terminal::kCost:
      return "COST";
    case Terminal::kQsum:
      return "QSUM";
    case Terminal::kQcov:
      return "QCOV";
    case Terminal::kBres:
      return "BRES";
    case Terminal::kDual:
      return "DUAL";
    case Terminal::kXbar:
      return "XBAR";
    case Terminal::kCount:
      break;
  }
  return "?";
}

const char* opcode_name(OpCode op) noexcept {
  switch (op) {
    case OpCode::kAdd:
      return "add";
    case OpCode::kSub:
      return "sub";
    case OpCode::kMul:
      return "mul";
    case OpCode::kDiv:
      return "div";
    case OpCode::kMod:
      return "mod";
    case OpCode::kTerminal:
      return "terminal";
    case OpCode::kConst:
      return "const";
  }
  return "?";
}

int opcode_arity(OpCode op) noexcept {
  switch (op) {
    case OpCode::kAdd:
    case OpCode::kSub:
    case OpCode::kMul:
    case OpCode::kDiv:
    case OpCode::kMod:
      return 2;
    case OpCode::kTerminal:
    case OpCode::kConst:
      return 0;
  }
  return 0;
}

Tree Tree::terminal(Terminal t) {
  Node n;
  n.op = OpCode::kTerminal;
  n.terminal = static_cast<std::uint8_t>(t);
  return Tree({n});
}

Tree Tree::constant(double v) {
  Node n;
  n.op = OpCode::kConst;
  n.value = v;
  return Tree({n});
}

Tree Tree::apply(OpCode op, const Tree& lhs, const Tree& rhs) {
  assert(opcode_arity(op) == 2);
  std::vector<Node> nodes;
  nodes.reserve(1 + lhs.size() + rhs.size());
  Node root;
  root.op = op;
  nodes.push_back(root);
  nodes.insert(nodes.end(), lhs.nodes_.begin(), lhs.nodes_.end());
  nodes.insert(nodes.end(), rhs.nodes_.begin(), rhs.nodes_.end());
  return Tree(std::move(nodes));
}

std::size_t Tree::subtree_end(std::size_t pos) const {
  assert(pos < nodes_.size());
  std::size_t needed = 1;
  std::size_t i = pos;
  while (needed > 0) {
    assert(i < nodes_.size());
    needed += static_cast<std::size_t>(opcode_arity(nodes_[i].op));
    --needed;
    ++i;
  }
  return i;
}

int Tree::depth() const {
  int max_depth = 0;
  int current = 0;
  // Track remaining-children counts down the spine.
  std::vector<int> pending;
  for (const Node& n : nodes_) {
    ++current;
    max_depth = std::max(max_depth, current);
    const int arity = opcode_arity(n.op);
    if (arity > 0) {
      pending.push_back(arity);
    } else {
      // Leaf closes this path; pop completed operators.
      --current;
      while (!pending.empty() && --pending.back() == 0) {
        pending.pop_back();
        --current;
      }
    }
  }
  return max_depth;
}

int Tree::node_depth(std::size_t pos) const {
  assert(pos < nodes_.size());
  int current = 0;
  std::vector<int> pending;
  for (std::size_t i = 0; i <= pos; ++i) {
    ++current;
    if (i == pos) return current;
    const int arity = opcode_arity(nodes_[i].op);
    if (arity > 0) {
      pending.push_back(arity);
    } else {
      --current;
      while (!pending.empty() && --pending.back() == 0) {
        pending.pop_back();
        --current;
      }
    }
  }
  return current;
}

Tree Tree::subtree(std::size_t pos) const {
  const std::size_t end = subtree_end(pos);
  return Tree(std::vector<Node>(nodes_.begin() + static_cast<long>(pos),
                                nodes_.begin() + static_cast<long>(end)));
}

void Tree::replace_subtree(std::size_t pos, const Tree& replacement) {
  const std::size_t end = subtree_end(pos);
  std::vector<Node> out;
  out.reserve(nodes_.size() - (end - pos) + replacement.size());
  out.insert(out.end(), nodes_.begin(), nodes_.begin() + static_cast<long>(pos));
  out.insert(out.end(), replacement.nodes_.begin(), replacement.nodes_.end());
  out.insert(out.end(), nodes_.begin() + static_cast<long>(end), nodes_.end());
  nodes_ = std::move(out);
}

bool Tree::valid() const {
  if (nodes_.empty()) return false;
  // A prefix encoding is valid iff scanning with a "slots" counter starting
  // at 1 reaches exactly 0 at the last node and never earlier.
  long slots = 1;
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    if (slots <= 0) return false;
    slots += opcode_arity(nodes_[i].op) - 1;
    if (nodes_[i].op == OpCode::kTerminal &&
        nodes_[i].terminal >= kNumTerminals) {
      return false;
    }
  }
  return slots == 0;
}

bool Tree::uses_terminal(Terminal t) const noexcept {
  for (const Node& n : nodes_) {
    if (n.op == OpCode::kTerminal &&
        n.terminal == static_cast<std::uint8_t>(t)) {
      return true;
    }
  }
  return false;
}

std::string Tree::to_string() const {
  std::ostringstream out;
  out.precision(17);
  // Recursive print over the prefix array.
  const auto print = [&](auto&& self, std::size_t pos) -> std::size_t {
    const Node& n = nodes_[pos];
    if (n.op == OpCode::kTerminal) {
      out << terminal_name(static_cast<Terminal>(n.terminal));
      return pos + 1;
    }
    if (n.op == OpCode::kConst) {
      out << n.value;
      return pos + 1;
    }
    out << '(' << opcode_name(n.op) << ' ';
    std::size_t next = self(self, pos + 1);
    out << ' ';
    next = self(self, next);
    out << ')';
    return next;
  };
  if (!nodes_.empty()) print(print, 0);
  return out.str();
}

namespace {

struct Parser {
  const std::string& text;
  std::size_t pos = 0;

  void skip_ws() {
    while (pos < text.size() && std::isspace(static_cast<unsigned char>(text[pos]))) {
      ++pos;
    }
  }

  [[noreturn]] void fail(const std::string& what) const {
    throw std::runtime_error("gp::parse: " + what + " at offset " +
                             std::to_string(pos));
  }

  std::string token() {
    skip_ws();
    const std::size_t start = pos;
    while (pos < text.size() && !std::isspace(static_cast<unsigned char>(text[pos])) &&
           text[pos] != '(' && text[pos] != ')') {
      ++pos;
    }
    if (start == pos) fail("expected token");
    return text.substr(start, pos - start);
  }

  void expr(std::vector<Node>& out) {
    skip_ws();
    if (pos >= text.size()) fail("unexpected end of input");
    if (text[pos] == '(') {
      ++pos;
      const std::string op_name = token();
      Node n;
      if (op_name == "add") {
        n.op = OpCode::kAdd;
      } else if (op_name == "sub") {
        n.op = OpCode::kSub;
      } else if (op_name == "mul") {
        n.op = OpCode::kMul;
      } else if (op_name == "div") {
        n.op = OpCode::kDiv;
      } else if (op_name == "mod") {
        n.op = OpCode::kMod;
      } else {
        fail("unknown operator '" + op_name + "'");
      }
      out.push_back(n);
      expr(out);
      expr(out);
      skip_ws();
      if (pos >= text.size() || text[pos] != ')') fail("expected ')'");
      ++pos;
      return;
    }
    const std::string tok = token();
    for (std::size_t t = 0; t < kNumTerminals; ++t) {
      if (tok == terminal_name(static_cast<Terminal>(t))) {
        Node n;
        n.op = OpCode::kTerminal;
        n.terminal = static_cast<std::uint8_t>(t);
        out.push_back(n);
        return;
      }
    }
    char* end = nullptr;
    const double v = std::strtod(tok.c_str(), &end);
    if (end == nullptr || *end != '\0') fail("unknown terminal '" + tok + "'");
    Node n;
    n.op = OpCode::kConst;
    n.value = v;
    out.push_back(n);
  }
};

}  // namespace

Tree parse(const std::string& text) {
  Parser parser{text};
  std::vector<Node> nodes;
  parser.expr(nodes);
  parser.skip_ws();
  if (parser.pos != text.size()) parser.fail("trailing input");
  Tree t(std::move(nodes));
  if (!t.valid()) throw std::runtime_error("gp::parse: produced invalid tree");
  return t;
}

namespace {

/// Recursively simplifies the subtree at pos; appends result to out.
/// Returns one-past-the-end of the consumed input range.
std::size_t simplify_rec(const std::vector<Node>& in, std::size_t pos,
                         std::vector<Node>& out) {
  const Node& n = in[pos];
  if (n.is_leaf()) {
    out.push_back(n);
    return pos + 1;
  }

  std::vector<Node> lhs;
  std::vector<Node> rhs;
  std::size_t next = simplify_rec(in, pos + 1, lhs);
  next = simplify_rec(in, next, rhs);

  const bool lhs_const = lhs.size() == 1 && lhs[0].op == OpCode::kConst;
  const bool rhs_const = rhs.size() == 1 && rhs[0].op == OpCode::kConst;

  // Constant folding.
  if (lhs_const && rhs_const) {
    Node folded;
    folded.op = OpCode::kConst;
    folded.value = apply_op(n.op, lhs[0].value, rhs[0].value);
    out.push_back(folded);
    return next;
  }

  // Identities valid under protected semantics for identical subtrees.
  if (lhs == rhs) {
    if (n.op == OpCode::kSub || n.op == OpCode::kMod) {
      Node zero;
      zero.op = OpCode::kConst;
      zero.value = 0.0;
      out.push_back(zero);
      return next;
    }
    if (n.op == OpCode::kDiv) {
      // x/x == 1 both when x != 0 and (by protection) when x ~ 0.
      Node one;
      one.op = OpCode::kConst;
      one.value = 1.0;
      out.push_back(one);
      return next;
    }
  }

  // Neutral elements.
  const auto is_const = [](const std::vector<Node>& t, double v) {
    return t.size() == 1 && t[0].op == OpCode::kConst && t[0].value == v;
  };
  if (n.op == OpCode::kAdd && is_const(lhs, 0.0)) {
    out.insert(out.end(), rhs.begin(), rhs.end());
    return next;
  }
  if ((n.op == OpCode::kAdd || n.op == OpCode::kSub) && is_const(rhs, 0.0)) {
    out.insert(out.end(), lhs.begin(), lhs.end());
    return next;
  }
  if (n.op == OpCode::kMul && (is_const(lhs, 1.0))) {
    out.insert(out.end(), rhs.begin(), rhs.end());
    return next;
  }
  if ((n.op == OpCode::kMul || n.op == OpCode::kDiv) && is_const(rhs, 1.0)) {
    out.insert(out.end(), lhs.begin(), lhs.end());
    return next;
  }

  out.push_back(n);
  out.insert(out.end(), lhs.begin(), lhs.end());
  out.insert(out.end(), rhs.begin(), rhs.end());
  return next;
}

}  // namespace

Tree simplify(const Tree& tree) {
  if (tree.empty()) return tree;
  std::vector<Node> out;
  out.reserve(tree.size());
  simplify_rec(tree.nodes(), 0, out);
  Tree result(std::move(out));
  assert(result.valid());
  return result;
}

}  // namespace carbon::gp
