#include "carbon/gp/tree.hpp"

#include <gtest/gtest.h>

#include <array>

#include "carbon/common/rng.hpp"
#include "carbon/gp/generate.hpp"
#include "gp/interpreter.hpp"

namespace carbon::gp {
namespace {

using Features = std::array<double, kNumTerminals>;

double eval(const Tree& t, const Features& f) {
  return testing::interpret(t, f);
}

const Features kF = {/*COST*/ 10.0, /*QSUM*/ 20.0, /*QCOV*/ 15.0,
                     /*BRES*/ 100.0, /*DUAL*/ 12.0, /*XBAR*/ 0.5};

TEST(Tree, LeafConstructors) {
  const Tree c = Tree::constant(3.5);
  EXPECT_EQ(c.size(), 1u);
  EXPECT_TRUE(c.valid());
  EXPECT_DOUBLE_EQ(eval(c, kF), 3.5);

  const Tree t = Tree::terminal(Terminal::kDual);
  EXPECT_DOUBLE_EQ(eval(t, kF), 12.0);
}

TEST(Tree, ArithmeticOperators) {
  const Tree cost = Tree::terminal(Terminal::kCost);
  const Tree qcov = Tree::terminal(Terminal::kQcov);
  EXPECT_DOUBLE_EQ(eval(Tree::apply(OpCode::kAdd, cost, qcov), kF), 25.0);
  EXPECT_DOUBLE_EQ(eval(Tree::apply(OpCode::kSub, cost, qcov), kF), -5.0);
  EXPECT_DOUBLE_EQ(eval(Tree::apply(OpCode::kMul, cost, qcov), kF), 150.0);
  EXPECT_DOUBLE_EQ(eval(Tree::apply(OpCode::kDiv, qcov, cost), kF), 1.5);
  EXPECT_DOUBLE_EQ(eval(Tree::apply(OpCode::kMod, qcov, cost), kF), 5.0);
}

TEST(Tree, OperandOrderIsLeftRight) {
  // sub(COST, QCOV) must be COST - QCOV, not QCOV - COST.
  const Tree t = Tree::apply(OpCode::kSub, Tree::terminal(Terminal::kCost),
                             Tree::terminal(Terminal::kQcov));
  EXPECT_DOUBLE_EQ(eval(t, kF), -5.0);
}

TEST(Tree, ProtectedDivisionByZeroGivesOne) {
  const Tree t = Tree::apply(OpCode::kDiv, Tree::terminal(Terminal::kCost),
                             Tree::constant(0.0));
  EXPECT_DOUBLE_EQ(eval(t, kF), 1.0);
}

TEST(Tree, ProtectedModuloByZeroGivesZero) {
  const Tree t = Tree::apply(OpCode::kMod, Tree::terminal(Terminal::kCost),
                             Tree::constant(0.0));
  EXPECT_DOUBLE_EQ(eval(t, kF), 0.0);
}

TEST(Tree, EvaluationNeverReturnsNonFinite) {
  const Tree huge = Tree::apply(
      OpCode::kMul,
      Tree::apply(OpCode::kMul, Tree::constant(1e300), Tree::constant(1e300)),
      Tree::constant(1e300));
  EXPECT_TRUE(std::isfinite(eval(huge, kF)));
}

TEST(Tree, DepthAndSize) {
  const Tree leaf = Tree::constant(1.0);
  EXPECT_EQ(leaf.depth(), 1);
  const Tree one = Tree::apply(OpCode::kAdd, leaf, leaf);
  EXPECT_EQ(one.depth(), 2);
  EXPECT_EQ(one.size(), 3u);
  const Tree lopsided = Tree::apply(OpCode::kMul, one, leaf);
  EXPECT_EQ(lopsided.depth(), 3);
  EXPECT_EQ(lopsided.size(), 5u);
}

TEST(Tree, SubtreeExtraction) {
  const Tree inner = Tree::apply(OpCode::kAdd, Tree::constant(1.0),
                                 Tree::constant(2.0));
  const Tree t = Tree::apply(OpCode::kMul, inner,
                             Tree::terminal(Terminal::kCost));
  // Prefix: [mul, add, 1, 2, COST]; subtree at 1 is the add.
  EXPECT_EQ(t.subtree_end(1), 4u);
  EXPECT_EQ(t.subtree(1), inner);
  EXPECT_EQ(t.subtree(4), Tree::terminal(Terminal::kCost));
}

TEST(Tree, NodeDepth) {
  const Tree inner = Tree::apply(OpCode::kAdd, Tree::constant(1.0),
                                 Tree::constant(2.0));
  const Tree t = Tree::apply(OpCode::kMul, inner,
                             Tree::terminal(Terminal::kCost));
  EXPECT_EQ(t.node_depth(0), 1);  // mul
  EXPECT_EQ(t.node_depth(1), 2);  // add
  EXPECT_EQ(t.node_depth(2), 3);  // 1
  EXPECT_EQ(t.node_depth(3), 3);  // 2
  EXPECT_EQ(t.node_depth(4), 2);  // COST
}

TEST(Tree, ReplaceSubtree) {
  Tree t = Tree::apply(OpCode::kMul,
                       Tree::apply(OpCode::kAdd, Tree::constant(1.0),
                                   Tree::constant(2.0)),
                       Tree::terminal(Terminal::kCost));
  t.replace_subtree(1, Tree::constant(7.0));
  EXPECT_TRUE(t.valid());
  EXPECT_DOUBLE_EQ(eval(t, kF), 70.0);
}

TEST(Tree, ValidRejectsMalformedEncodings) {
  EXPECT_FALSE(Tree(std::vector<Node>{}).valid());
  Node op;
  op.op = OpCode::kAdd;
  Node leaf;
  leaf.op = OpCode::kConst;
  EXPECT_FALSE(Tree({op}).valid());              // missing operands
  EXPECT_FALSE(Tree({op, leaf}).valid());        // one operand short
  EXPECT_TRUE(Tree({op, leaf, leaf}).valid());
  EXPECT_FALSE(Tree({leaf, leaf}).valid());      // trailing garbage
  Node bad_term;
  bad_term.op = OpCode::kTerminal;
  bad_term.terminal = 200;
  EXPECT_FALSE(Tree({bad_term}).valid());
}

TEST(Tree, ToStringFormats) {
  const Tree t = Tree::apply(OpCode::kDiv, Tree::terminal(Terminal::kDual),
                             Tree::terminal(Terminal::kCost));
  EXPECT_EQ(t.to_string(), "(div DUAL COST)");
  EXPECT_EQ(Tree::constant(2.5).to_string(), "2.5");
}

TEST(TreeParse, RoundtripHandWritten) {
  const std::string text = "(add (mul COST QCOV) (div DUAL 3.5))";
  const Tree t = parse(text);
  EXPECT_EQ(t.to_string(), text);
  EXPECT_DOUBLE_EQ(eval(t, kF), 10.0 * 15.0 + 12.0 / 3.5);
}

TEST(TreeParse, RejectsBadInput) {
  EXPECT_THROW((void)parse(""), std::runtime_error);
  EXPECT_THROW((void)parse("(add COST)"), std::runtime_error);
  EXPECT_THROW((void)parse("(bogus COST COST)"), std::runtime_error);
  EXPECT_THROW((void)parse("(add COST COST) extra"), std::runtime_error);
  EXPECT_THROW((void)parse("NOTATERMINAL"), std::runtime_error);
  EXPECT_THROW((void)parse("(add COST COST"), std::runtime_error);
}

class TreeRoundtripTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(TreeRoundtripTest, RandomTreesSurviveStringRoundtrip) {
  common::Rng rng(GetParam());
  GenerateConfig cfg;
  cfg.use_constants = true;
  for (int rep = 0; rep < 20; ++rep) {
    const Tree t = generate_ramped(rng, cfg);
    const Tree back = parse(t.to_string());
    ASSERT_TRUE(back.valid());
    // Structural equality can differ on constant formatting; compare
    // semantics on several feature vectors instead.
    for (int probe = 0; probe < 5; ++probe) {
      Features f;
      for (double& v : f) v = rng.uniform(-100.0, 100.0);
      ASSERT_NEAR(eval(t, f), eval(back, f), 1e-9);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TreeRoundtripTest,
                         ::testing::Range<std::uint64_t>(0, 6));

TEST(TreeSimplify, FoldsConstants) {
  const Tree t = Tree::apply(OpCode::kAdd, Tree::constant(2.0),
                             Tree::constant(3.0));
  const Tree s = simplify(t);
  EXPECT_EQ(s.size(), 1u);
  EXPECT_DOUBLE_EQ(eval(s, kF), 5.0);
}

TEST(TreeSimplify, IdentitiesUnderProtectedSemantics) {
  const Tree x = Tree::terminal(Terminal::kQcov);
  EXPECT_EQ(simplify(Tree::apply(OpCode::kSub, x, x)).to_string(), "0");
  EXPECT_EQ(simplify(Tree::apply(OpCode::kDiv, x, x)).to_string(), "1");
  EXPECT_EQ(simplify(Tree::apply(OpCode::kMod, x, x)).to_string(), "0");
}

TEST(TreeSimplify, NeutralElements) {
  const Tree x = Tree::terminal(Terminal::kCost);
  EXPECT_EQ(simplify(Tree::apply(OpCode::kAdd, Tree::constant(0.0), x))
                .to_string(),
            "COST");
  EXPECT_EQ(simplify(Tree::apply(OpCode::kAdd, x, Tree::constant(0.0)))
                .to_string(),
            "COST");
  EXPECT_EQ(simplify(Tree::apply(OpCode::kMul, Tree::constant(1.0), x))
                .to_string(),
            "COST");
  EXPECT_EQ(simplify(Tree::apply(OpCode::kDiv, x, Tree::constant(1.0)))
                .to_string(),
            "COST");
}

class SimplifySemanticsTest : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(SimplifySemanticsTest, SimplifyPreservesSemantics) {
  common::Rng rng(GetParam() * 31 + 5);
  GenerateConfig cfg;
  cfg.use_constants = true;
  for (int rep = 0; rep < 25; ++rep) {
    const Tree t = generate_ramped(rng, cfg);
    const Tree s = simplify(t);
    ASSERT_TRUE(s.valid());
    ASSERT_LE(s.size(), t.size());
    for (int probe = 0; probe < 5; ++probe) {
      Features f;
      for (double& v : f) v = rng.uniform(-50.0, 50.0);
      ASSERT_NEAR(eval(t, f), eval(s, f), 1e-6)
          << "tree: " << t.to_string() << " simplified: " << s.to_string();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SimplifySemanticsTest,
                         ::testing::Range<std::uint64_t>(0, 6));

TEST(Tree, TerminalNamesAreUnique) {
  std::set<std::string> names;
  for (std::size_t t = 0; t < kNumTerminals; ++t) {
    names.insert(terminal_name(static_cast<Terminal>(t)));
  }
  EXPECT_EQ(names.size(), kNumTerminals);
}

TEST(Tree, LargeTreeEvaluationUsesHeapPath) {
  // Build a right-leaning chain deeper than the 64-slot stack buffer.
  Tree t = Tree::constant(1.0);
  for (int i = 0; i < 100; ++i) {
    t = Tree::apply(OpCode::kAdd, Tree::constant(1.0), t);
  }
  EXPECT_EQ(t.size(), 201u);
  EXPECT_DOUBLE_EQ(eval(t, kF), 101.0);
}

}  // namespace
}  // namespace carbon::gp
