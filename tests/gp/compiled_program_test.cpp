// Differential tests for gp::CompiledProgram, the only GP evaluator: the
// compiled batch evaluator must be bit-compatible with the tree interpreter
// of tests/gp/interpreter.hpp (the reference oracle) under the equivalence
// contract documented in compiled.hpp.
#include "carbon/gp/compiled.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

#include "carbon/common/rng.hpp"
#include "carbon/cover/generator.hpp"
#include "carbon/cover/greedy.hpp"
#include "carbon/gp/generate.hpp"
#include "carbon/gp/scoring.hpp"
#include "carbon/gp/tree.hpp"
#include "cover/greedy_reference.hpp"
#include "gp/interpreter.hpp"

namespace carbon::gp {
namespace {

using testing::interpret;

/// Feature values that stress the protected-operator thresholds: exactly at,
/// just below, and just above kProtectTol (1e-9), zeros of both signs, and
/// the clamp boundary (1e12).
const std::vector<double> kEdgeValues = {
    0.0,   -0.0,  1e-10, -1e-10, 1e-9,    -1e-9,  2e-9,  -2e-9,
    1.0,   -1.0,  0.125, 5.5,    -3.25,   123.456, 1e12, -1e12,
    1e6,   -1e6,
};

/// A finite feature within the value cap: half the draws hit an edge value.
double draw_feature(common::Rng& rng) {
  if (rng.uniform() < 0.5) return kEdgeValues[rng.below(kEdgeValues.size())];
  return rng.uniform(-100.0, 100.0);
}

std::array<double, kNumTerminals> draw_features(common::Rng& rng) {
  std::array<double, kNumTerminals> f{};
  for (double& v : f) v = draw_feature(rng);
  return f;
}

/// The compiled program at one feature vector: a batch of one element.
double evaluate_one(const CompiledProgram& program,
                    std::span<const double, kNumTerminals> features) {
  CompiledProgram::TerminalBatch batch;
  for (std::size_t t = 0; t < kNumTerminals; ++t) {
    batch.columns[t] = features.subspan(t, 1);
  }
  batch.count = 1;
  double out = 0.0;
  std::vector<double> scratch;
  program.evaluate_batch(batch, std::span<double>(&out, 1), scratch);
  return out;
}

/// Bit-compatibility up to NaN identity: both NaN, or == (which treats
/// -0.0 and +0.0 as equal — the only sign-of-zero divergence the rewrites
/// can introduce, and one no downstream comparison can observe).
void expect_equiv(double want, double got) {
  if (std::isnan(want) || std::isnan(got)) {
    EXPECT_TRUE(std::isnan(want) && std::isnan(got))
        << "want " << want << " got " << got;
  } else {
    EXPECT_EQ(want, got);
  }
}

TEST(CompiledProgram, FuzzMatchesInterpreterSimplifyOn) {
  common::Rng rng(2024);
  GenerateConfig gen;
  gen.min_depth = 2;
  gen.max_depth = 8;
  for (int iter = 0; iter < 1200; ++iter) {
    gen.use_constants = (iter % 3 == 0);
    const Tree tree = generate_ramped(rng, gen);
    const CompiledProgram program = CompiledProgram::compile(tree);
    for (int rep = 0; rep < 3; ++rep) {
      // Equivalence holds for finite features within the value cap (the
      // identities x/x=1, x-x=0 are exact there).
      const auto f = draw_features(rng);
      expect_equiv(interpret(tree, f), evaluate_one(program, f));
    }
  }
}

TEST(CompiledProgram, FuzzBatchMatchesScalar) {
  common::Rng rng(99);
  GenerateConfig gen;
  gen.min_depth = 2;
  gen.max_depth = 8;
  gen.use_constants = true;
  constexpr std::size_t kBatch = 33;
  std::vector<double> scratch;
  for (int iter = 0; iter < 300; ++iter) {
    const Tree tree = generate_ramped(rng, gen);
    const CompiledProgram program = CompiledProgram::compile(tree);

    // Per-element columns for every terminal except BRES, which broadcasts
    // a single round-scalar exactly as the greedy's feature view does.
    std::array<std::vector<double>, kNumTerminals> columns;
    for (std::size_t t = 0; t < kNumTerminals; ++t) {
      if (t == static_cast<std::size_t>(Terminal::kBres)) {
        columns[t] = {draw_feature(rng)};
      } else {
        for (std::size_t i = 0; i < kBatch; ++i) {
          columns[t].push_back(draw_feature(rng));
        }
      }
    }
    CompiledProgram::TerminalBatch batch;
    for (std::size_t t = 0; t < kNumTerminals; ++t) {
      batch.columns[t] = columns[t];
    }
    batch.count = kBatch;

    std::vector<double> out(kBatch);
    program.evaluate_batch(batch, out, scratch);
    for (std::size_t i = 0; i < kBatch; ++i) {
      std::array<double, kNumTerminals> f{};
      for (std::size_t t = 0; t < kNumTerminals; ++t) {
        f[t] = columns[t].size() == 1 ? columns[t][0] : columns[t][i];
      }
      expect_equiv(interpret(tree, f), out[i]);
    }
  }
}

TEST(CompiledProgram, ProtectedDivModEdgeCases) {
  const Tree div = parse("(div COST QSUM)");
  const Tree mod = parse("(mod COST QSUM)");
  const CompiledProgram cdiv = CompiledProgram::compile(div);
  const CompiledProgram cmod = CompiledProgram::compile(mod);
  for (double b : kEdgeValues) {
    for (double a : {7.0, -7.0, 0.0, 1e12}) {
      std::array<double, kNumTerminals> f{};
      f[static_cast<std::size_t>(Terminal::kCost)] = a;
      f[static_cast<std::size_t>(Terminal::kQsum)] = b;
      expect_equiv(interpret(div, f), evaluate_one(cdiv, f));
      expect_equiv(interpret(mod, f), evaluate_one(cmod, f));
    }
  }
}

TEST(CompiledProgram, CseSharesRepeatedSubexpressions) {
  // (div COST QSUM) appears twice; value numbering must emit it once:
  // load COST, load QSUM, div, add = 4 instructions for 7 tree nodes.
  const Tree tree = parse("(add (div COST QSUM) (div COST QSUM))");
  const CompiledProgram program = CompiledProgram::compile(tree);
  EXPECT_EQ(program.num_instructions(), 4u);
}

TEST(CompiledProgram, CanonicalFormMergesCommutedTrees) {
  const CompiledProgram a = CompiledProgram::compile(parse("(add COST QSUM)"));
  const CompiledProgram b = CompiledProgram::compile(parse("(add QSUM COST)"));
  EXPECT_EQ(a.canonical_hash(), b.canonical_hash());
  EXPECT_EQ(a.canonical_nodes(), b.canonical_nodes());
  // Subtraction is not commutative: the canonical forms stay distinct.
  const CompiledProgram c = CompiledProgram::compile(parse("(sub COST QSUM)"));
  const CompiledProgram d = CompiledProgram::compile(parse("(sub QSUM COST)"));
  EXPECT_NE(c.canonical_nodes(), d.canonical_nodes());
}

TEST(CompiledProgram, IsStaticSeesThroughSimplification) {
  // Syntactically dynamic, semantically static: QCOV - QCOV folds to 0.
  const Tree tree = parse("(sub QCOV QCOV)");
  EXPECT_TRUE(tree.uses_terminal(Terminal::kQcov));
  const CompiledProgram program = CompiledProgram::compile(tree);
  EXPECT_TRUE(program.is_static());
  EXPECT_FALSE(program.uses_terminal(Terminal::kQcov));
  // A genuinely dynamic tree stays dynamic.
  const CompiledProgram dyn =
      CompiledProgram::compile(parse("(div QCOV COST)"));
  EXPECT_FALSE(dyn.is_static());
  EXPECT_TRUE(dyn.uses_terminal(Terminal::kQcov));
}

TEST(CompiledProgram, LargeTreeUsesScratchOverload) {
  // A full depth-9 tree needs a large register file: one caller-owned
  // scratch, grown on first use and reused across batches of different
  // sizes, must never change a value.
  common::Rng rng(5);
  GenerateConfig gen;
  gen.min_depth = 9;
  gen.max_depth = 9;
  Tree tree = generate_full(rng, 9, gen);
  ASSERT_GT(tree.size(), 64u);
  const CompiledProgram program = CompiledProgram::compile(tree);
  std::vector<double> scratch;
  for (const std::size_t count : {1u, 7u, 1u, 20u}) {
    std::array<std::vector<double>, kNumTerminals> columns;
    for (auto& col : columns) {
      for (std::size_t i = 0; i < count; ++i) {
        col.push_back(draw_feature(rng));
      }
    }
    CompiledProgram::TerminalBatch batch;
    for (std::size_t t = 0; t < kNumTerminals; ++t) {
      batch.columns[t] = columns[t];
    }
    batch.count = count;
    std::vector<double> out(count);
    program.evaluate_batch(batch, out, scratch);
    for (std::size_t i = 0; i < count; ++i) {
      std::array<double, kNumTerminals> f{};
      for (std::size_t t = 0; t < kNumTerminals; ++t) f[t] = columns[t][i];
      expect_equiv(interpret(tree, f), out[i]);
    }
  }
  EXPECT_GE(scratch.size(), program.num_registers() * 20);
}

TEST(CompiledProgram, GreedyBatchedMatchesGreedyWith) {
  common::Rng rng(314);
  GenerateConfig gen;
  gen.min_depth = 2;
  gen.max_depth = 6;
  gen.use_constants = true;
  for (int iter = 0; iter < 25; ++iter) {
    cover::GeneratorConfig icfg;
    icfg.num_bundles = 40;
    icfg.num_services = 5;
    icfg.seed = 1000 + static_cast<std::uint64_t>(iter);
    const cover::Instance inst = cover::generate(icfg);

    std::vector<double> duals(inst.num_services());
    for (double& d : duals) d = rng.uniform(0.0, 50.0);
    std::vector<double> xbar(inst.num_bundles());
    for (double& x : xbar) x = rng.uniform(0.0, 1.0);

    const Tree tree = generate_ramped(rng, gen);
    const CompiledProgram program = CompiledProgram::compile(tree);
    std::vector<double> scratch;

    const cover::SolveResult want = cover::testing::reference_greedy(
        inst, testing::interpreter_scorer(tree), duals, xbar);
    // A plain lambda is not a TerminalAwareBatchScorer, so this drives the
    // dense-every-round regime of the core.
    const cover::SolveResult got = cover::greedy_solve(
        inst,
        [&](const cover::BatchFeatureView& view, std::span<double> out) {
          program.evaluate_batch(view_to_batch(view), out, scratch);
        },
        duals, xbar);

    EXPECT_EQ(want.feasible, got.feasible);
    EXPECT_EQ(want.selection, got.selection);
    EXPECT_EQ(want.value, got.value);  // bitwise
  }
}

}  // namespace
}  // namespace carbon::gp
