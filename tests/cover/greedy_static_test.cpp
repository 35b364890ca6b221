// Equivalence tests for the sort-based static-scorer greedy fast path.
#include <gtest/gtest.h>

#include "carbon/bcpop/parallel_evaluator.hpp"
#include "carbon/common/rng.hpp"
#include "carbon/cover/generator.hpp"
#include "carbon/cover/greedy.hpp"
#include "carbon/cover/relaxation.hpp"
#include "carbon/gp/generate.hpp"
#include "carbon/gp/scoring.hpp"
#include "cover/greedy_reference.hpp"

namespace carbon::cover {
namespace {

using testing::BundleFeatures;

class StaticGreedyEquivalenceTest
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(StaticGreedyEquivalenceTest, MatchesArgmaxGreedyForStaticScores) {
  GeneratorConfig cfg;
  cfg.num_bundles = 60;
  cfg.num_services = 6;
  cfg.seed = GetParam();
  const Instance inst = generate(cfg);
  const Relaxation rel = relax(inst);
  common::Rng rng(GetParam() * 7 + 1);

  for (int rep = 0; rep < 10; ++rep) {
    // Random static scores (one per bundle, residual-independent).
    std::vector<double> scores(inst.num_bundles());
    for (double& s : scores) s = rng.uniform(-10.0, 10.0);

    const SolveResult fast = greedy_solve_static(inst, scores);
    const SolveResult slow = testing::reference_greedy(
        inst,
        [&](const BundleFeatures& f) {
          // Recover the bundle identity through its unique static features
          // is impossible, so instead drive the slow path with an index
          // captured via a side table keyed by (cost, qsum): simpler — use
          // a per-call cursorless exact approach: score by matching cost.
          // To keep this airtight we instead compare via the evaluator path
          // below; here use a deterministic function of static features.
          return 3.0 * f.cost - 2.0 * f.qsum + f.dual + 5.0 * f.xbar;
        },
        rel.duals, rel.relaxed_x);

    // Same function evaluated statically.
    std::vector<double> fn_scores(inst.num_bundles());
    for (std::size_t j = 0; j < inst.num_bundles(); ++j) {
      double qsum = 0.0;
      double dual = 0.0;
      const auto row = inst.bundle(j);
      for (std::size_t k = 0; k < inst.num_services(); ++k) {
        qsum += row[k];
        dual += rel.duals[k] * row[k];
      }
      fn_scores[j] =
          3.0 * inst.cost(j) - 2.0 * qsum + dual + 5.0 * rel.relaxed_x[j];
    }
    const SolveResult fast_fn = greedy_solve_static(inst, fn_scores);
    ASSERT_EQ(fast_fn.feasible, slow.feasible);
    ASSERT_EQ(fast_fn.selection, slow.selection);
    ASSERT_DOUBLE_EQ(fast_fn.value, slow.value);

    // And the random-score fast result must at least be a feasible cover.
    ASSERT_TRUE(fast.feasible);
    ASSERT_TRUE(inst.feasible(fast.selection));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, StaticGreedyEquivalenceTest,
                         ::testing::Range<std::uint64_t>(0, 8));

TEST(StaticGreedy, RejectsWrongScoreCount) {
  GeneratorConfig cfg;
  cfg.num_bundles = 5;
  cfg.num_services = 2;
  const Instance inst = generate(cfg);
  const std::vector<double> too_few(3, 0.0);
  EXPECT_THROW((void)greedy_solve_static(inst, too_few),
               std::invalid_argument);
}

TEST(StaticGreedy, UncoverableInstanceReported) {
  const Instance inst({1.0}, {{1}}, {5});
  const std::vector<double> scores = {1.0};
  EXPECT_FALSE(greedy_solve_static(inst, scores).feasible);
}

TEST(StaticGreedy, NanScoresSortLast) {
  const Instance inst({1.0, 2.0},
                      {{5}, {5}},
                      {5});
  const std::vector<double> scores = {
      std::numeric_limits<double>::quiet_NaN(), 1.0};
  const SolveResult r = greedy_solve_static(inst, scores);
  ASSERT_TRUE(r.feasible);
  EXPECT_EQ(r.selection[1], 1);
  EXPECT_EQ(r.selection[0], 0);
}

TEST(IsStaticHeuristic, DetectsDynamicTerminals) {
  using gp::Terminal;
  using gp::Tree;
  const auto is_static = [](const Tree& tree) {
    return gp::CompiledProgram::compile(tree).is_static();
  };
  EXPECT_TRUE(is_static(Tree::terminal(Terminal::kCost)));
  EXPECT_TRUE(is_static(Tree::apply(gp::OpCode::kDiv,
                                    Tree::terminal(Terminal::kDual),
                                    Tree::terminal(Terminal::kXbar))));
  EXPECT_FALSE(is_static(Tree::terminal(Terminal::kQcov)));
  EXPECT_FALSE(is_static(Tree::apply(gp::OpCode::kAdd,
                                     Tree::terminal(Terminal::kCost),
                                     Tree::terminal(Terminal::kBres))));
}

TEST(UsesTerminal, WalksAllNodes) {
  using gp::Terminal;
  using gp::Tree;
  const Tree t = gp::parse("(add (mul COST QCOV) (div DUAL 3.5))");
  EXPECT_TRUE(t.uses_terminal(Terminal::kCost));
  EXPECT_TRUE(t.uses_terminal(Terminal::kQcov));
  EXPECT_TRUE(t.uses_terminal(Terminal::kDual));
  EXPECT_FALSE(t.uses_terminal(Terminal::kBres));
  EXPECT_FALSE(t.uses_terminal(Terminal::kXbar));
}

TEST(EvaluatorFastPath, StaticAndDynamicTreePathsAgree) {
  // A static tree evaluated through the evaluator (sort-based fast path)
  // must produce the exact cover of the same program forced down the
  // generic argmax core on the same relaxation.
  cover::GeneratorConfig cfg;
  cfg.num_bundles = 40;
  cfg.num_services = 5;
  cfg.seed = 9;
  const bcpop::Instance market(generate(cfg), 4);
  bcpop::ParallelEvaluator eval(market, /*threads=*/1);
  common::Rng rng(2);

  int static_trees = 0;
  for (int rep = 0; rep < 20; ++rep) {
    gp::GenerateConfig gen;
    const gp::Tree tree = gp::generate_ramped(rng, gen);
    const gp::CompiledProgram program = gp::CompiledProgram::compile(tree);
    if (!program.is_static()) continue;
    ++static_trees;
    const auto pricing = ea::random_real_vector(rng, market.price_bounds());
    const auto fast = eval.evaluate_with_heuristic(pricing, tree);
    // Forced generic path: a plain lambda is not terminal-aware, so the
    // core rescores every bundle every round.
    const auto relax = eval.relaxation(pricing);
    std::vector<double> reg_scratch;
    const SolveResult slow = greedy_solve(
        market.lower_level_instance(pricing),
        [&](const BatchFeatureView& view, std::span<double> out) {
          gp::CompiledBatchScorer(program, reg_scratch)(view, out);
        },
        relax->duals, relax->relaxed_x);
    ASSERT_EQ(fast.selection, slow.selection) << tree.to_string();
    ASSERT_EQ(fast.ll_objective, slow.value);
    ASSERT_EQ(fast.ul_objective,
              market.leader_revenue(pricing, slow.selection));
  }
  EXPECT_GT(static_trees, 0);
}

}  // namespace
}  // namespace carbon::cover
