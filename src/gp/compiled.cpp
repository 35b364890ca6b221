#include "carbon/gp/compiled.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstring>
#include <map>
#include <stdexcept>

#include "carbon/gp/simd.hpp"

namespace carbon::gp {

namespace {

/// Total order on nodes for canonical operand ordering: opcode, then
/// terminal index, then the constant's bit pattern (bitwise so that e.g.
/// -0.0 and +0.0 order deterministically).
bool node_less(const Node& a, const Node& b) noexcept {
  if (a.op != b.op) return a.op < b.op;
  if (a.terminal != b.terminal) return a.terminal < b.terminal;
  return std::bit_cast<std::uint64_t>(a.value) <
         std::bit_cast<std::uint64_t>(b.value);
}

bool node_seq_less(const std::vector<Node>& a,
                   const std::vector<Node>& b) noexcept {
  return std::lexicographical_compare(a.begin(), a.end(), b.begin(), b.end(),
                                      node_less);
}

/// Canonicalizes the subtree at `pos` into `out`; returns one-past-the-end
/// of the consumed range. Only commutative operators reorder, and IEEE-754
/// + and * are commutative (payload choice aside for NaN operands), so the
/// rewrite is value-exact for finite inputs.
std::size_t canon_rec(const std::vector<Node>& in, std::size_t pos,
                      std::vector<Node>& out) {
  const Node& n = in[pos];
  if (n.is_leaf()) {
    out.push_back(n);
    return pos + 1;
  }
  std::vector<Node> lhs;
  std::vector<Node> rhs;
  std::size_t next = canon_rec(in, pos + 1, lhs);
  next = canon_rec(in, next, rhs);
  if ((n.op == OpCode::kAdd || n.op == OpCode::kMul) &&
      node_seq_less(rhs, lhs)) {
    lhs.swap(rhs);
  }
  out.push_back(n);
  out.insert(out.end(), lhs.begin(), lhs.end());
  out.insert(out.end(), rhs.begin(), rhs.end());
  return next;
}

std::uint64_t fnv1a_nodes(const std::vector<Node>& nodes) noexcept {
  std::uint64_t h = 1469598103934665603ULL;
  const auto mix = [&h](std::uint64_t v) {
    for (int byte = 0; byte < 8; ++byte) {
      h ^= (v >> (byte * 8)) & 0xffULL;
      h *= 1099511628211ULL;
    }
  };
  for (const Node& n : nodes) {
    mix(static_cast<std::uint64_t>(n.op));
    if (n.op == OpCode::kTerminal) mix(n.terminal);
    if (n.op == OpCode::kConst) mix(std::bit_cast<std::uint64_t>(n.value));
  }
  return h;
}

}  // namespace

Tree canonicalize(const Tree& tree) {
  if (tree.empty()) return tree;
  std::vector<Node> out;
  out.reserve(tree.size());
  canon_rec(tree.nodes(), 0, out);
  return Tree(std::move(out));
}

CompiledProgram CompiledProgram::compile(const Tree& tree) {
  CompiledProgram p;
  if (tree.empty()) return p;
  assert(tree.valid());

  const Tree canon = canonicalize(simplify(tree));
  p.canonical_ = canon.nodes();
  p.hash_ = fnv1a_nodes(p.canonical_);

  // --- Hash-consed value numbering (CSE) over the canonical prefix form.
  // Keys: (kTerminal, index, 0) / (kConst, value bits, 0) / (op, lhs, rhs).
  // Values are created children-first, so evaluating them in id order is a
  // valid schedule and every operand id precedes its user.
  struct Value {
    OpCode op;
    std::uint32_t a = 0;
    std::uint32_t b = 0;
    double value = 0.0;
  };
  std::vector<Value> values;
  std::map<std::array<std::uint64_t, 3>, std::uint32_t> memo;

  const auto intern = [&](const std::array<std::uint64_t, 3>& key,
                          const Value& v) -> std::uint32_t {
    const auto [it, inserted] =
        memo.emplace(key, static_cast<std::uint32_t>(values.size()));
    if (inserted) values.push_back(v);
    return it->second;
  };

  const auto build = [&](auto&& self, std::size_t pos)
      -> std::pair<std::uint32_t, std::size_t> {
    const Node& n = p.canonical_[pos];
    if (n.op == OpCode::kTerminal) {
      return {intern({static_cast<std::uint64_t>(OpCode::kTerminal),
                      n.terminal, 0},
                     Value{OpCode::kTerminal, n.terminal, 0, 0.0}),
              pos + 1};
    }
    if (n.op == OpCode::kConst) {
      return {intern({static_cast<std::uint64_t>(OpCode::kConst),
                      std::bit_cast<std::uint64_t>(n.value), 0},
                     Value{OpCode::kConst, 0, 0, n.value}),
              pos + 1};
    }
    const auto [lhs, after_lhs] = self(self, pos + 1);
    const auto [rhs, after_rhs] = self(self, after_lhs);
    return {intern({static_cast<std::uint64_t>(n.op), lhs, rhs},
                   Value{n.op, lhs, rhs, 0.0}),
            after_rhs};
  };
  const std::uint32_t root = build(build, 0).first;

  if (values.size() > 0xffff) {
    throw std::length_error("CompiledProgram: tree too large to compile");
  }

  // --- Liveness + greedy register assignment. A value's register is
  // recycled after its last reader, so the register file stays small (and
  // the batch scratch with it). Reusing an operand's register as the
  // destination is safe: every instruction reads regs[i] before writing
  // dst[i] within the same element.
  std::vector<std::uint32_t> last_use(values.size());
  for (std::uint32_t id = 0; id < values.size(); ++id) {
    last_use[id] = id;
    const Value& v = values[id];
    if (v.op != OpCode::kTerminal && v.op != OpCode::kConst) {
      last_use[v.a] = id;
      last_use[v.b] = id;
    }
  }
  last_use[root] = static_cast<std::uint32_t>(values.size());

  std::vector<std::uint16_t> reg_of(values.size(), 0);
  std::vector<std::uint16_t> free_regs;
  std::uint16_t next_reg = 0;
  p.code_.reserve(values.size());
  for (std::uint32_t id = 0; id < values.size(); ++id) {
    const Value& v = values[id];
    Instr ins;
    ins.op = v.op;
    if (v.op == OpCode::kTerminal) {
      ins.a = static_cast<std::uint16_t>(v.a);
      p.terminal_mask_ |= static_cast<std::uint8_t>(1u << v.a);
    } else if (v.op == OpCode::kConst) {
      ins.value = v.value;
    } else {
      ins.a = reg_of[v.a];
      ins.b = reg_of[v.b];
      if (last_use[v.a] == id) free_regs.push_back(reg_of[v.a]);
      if (last_use[v.b] == id && v.b != v.a) free_regs.push_back(reg_of[v.b]);
    }
    if (free_regs.empty()) {
      reg_of[id] = next_reg++;
    } else {
      reg_of[id] = free_regs.back();
      free_regs.pop_back();
    }
    ins.dst = reg_of[id];
    p.code_.push_back(ins);
  }
  p.num_regs_ = next_reg;
  p.result_reg_ = reg_of[root];
  return p;
}

void CompiledProgram::evaluate_batch(const TerminalBatch& batch,
                                     std::span<double> out,
                                     std::vector<double>& scratch) const {
  const std::size_t m = batch.count;
  assert(out.size() == m);
  if (m == 0) return;
  if (code_.empty()) {
    std::fill(out.begin(), out.end(), 0.0);
    return;
  }
  const std::size_t needed = static_cast<std::size_t>(num_regs_) * m;
  if (scratch.size() < needed) scratch.resize(needed);
  double* const regs = scratch.data();

  // All instruction loops go through the dispatched kernel table: scalar and
  // AVX2 tables compute bit-identical doubles per element (see gp/simd.hpp),
  // so the choice is invisible to every trajectory.
  const simd::Kernels& k = simd::kernels();
  for (const Instr& ins : code_) {
    double* const dst = regs + static_cast<std::size_t>(ins.dst) * m;
    const double* const a = regs + static_cast<std::size_t>(ins.a) * m;
    const double* const b = regs + static_cast<std::size_t>(ins.b) * m;
    switch (ins.op) {
      case OpCode::kConst:
        k.splat(ins.value, dst, m);
        break;
      case OpCode::kTerminal: {
        const std::span<const double> col = batch.columns[ins.a];
        if (col.size() == 1) {
          k.splat(col[0], dst, m);
        } else {
          assert(col.size() == m);
          k.copy(col.data(), dst, m);
        }
        break;
      }
      case OpCode::kAdd:
        k.add(a, b, dst, m);
        break;
      case OpCode::kSub:
        k.sub(a, b, dst, m);
        break;
      case OpCode::kMul:
        k.mul(a, b, dst, m);
        break;
      case OpCode::kDiv:
        k.div(a, b, dst, m);
        break;
      case OpCode::kMod:
        k.mod(a, b, dst, m);
        break;
    }
  }
  std::copy_n(regs + static_cast<std::size_t>(result_reg_) * m, m, out.data());
}

}  // namespace carbon::gp
