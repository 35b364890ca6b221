#include <gtest/gtest.h>

#include <vector>

#include "carbon/cover/exact.hpp"
#include "carbon/cover/generator.hpp"
#include "carbon/cover/greedy.hpp"
#include "carbon/cover/relaxation.hpp"

namespace carbon::cover {
namespace {

Instance tiny() {
  return Instance({5.0, 5.0, 30.0, 90.0},
                  {{4, 0}, {0, 4}, {4, 4}, {4, 4}},
                  {4, 4});
}

TEST(Relaxation, TinyInstanceKnownBound) {
  // LP optimum: buy bundles 0 and 1 fractionally at 1.0 each -> 10.
  const Relaxation r = relax(tiny());
  ASSERT_TRUE(r.feasible);
  EXPECT_NEAR(r.lower_bound, 10.0, 1e-7);
  ASSERT_EQ(r.duals.size(), 2u);
  ASSERT_EQ(r.relaxed_x.size(), 4u);
}

TEST(Relaxation, DualsNonNegativeAndXbarInUnitBox) {
  const Instance inst = make_paper_instance(0);
  const Relaxation r = relax(inst);
  ASSERT_TRUE(r.feasible);
  for (double d : r.duals) EXPECT_GE(d, -1e-9);
  for (double x : r.relaxed_x) {
    EXPECT_GE(x, -1e-9);
    EXPECT_LE(x, 1.0 + 1e-9);
  }
}

TEST(Relaxation, InfeasibleWhenDemandExceedsSupply) {
  const Instance inst({1.0}, {{2}}, {5});
  const Relaxation r = relax(inst);
  EXPECT_FALSE(r.feasible);
}

TEST(Relaxation, BuildLpShape) {
  const Instance inst = tiny();
  const lp::Problem p = build_relaxation_lp(inst);
  EXPECT_EQ(p.num_vars(), 4u);
  EXPECT_EQ(p.num_rows(), 2u);
  EXPECT_EQ(p.sense[0], lp::RowSense::kGreaterEqual);
  EXPECT_DOUBLE_EQ(p.upper[0], 1.0);
  EXPECT_DOUBLE_EQ(p.lower[0], 0.0);
}

TEST(Exact, SolvesTinyInstanceOptimally) {
  const ExactResult r = exact_solve(tiny());
  ASSERT_TRUE(r.feasible);
  EXPECT_TRUE(r.proven_optimal);
  EXPECT_DOUBLE_EQ(r.value, 10.0);
  EXPECT_EQ(r.selection[0], 1);
  EXPECT_EQ(r.selection[1], 1);
}

TEST(Exact, InfeasibleInstance) {
  const Instance inst({1.0}, {{2}}, {5});
  const ExactResult r = exact_solve(inst);
  EXPECT_FALSE(r.feasible);
}

TEST(Exact, NodeBudgetCutoffStillReturnsIncumbent) {
  GeneratorConfig cfg;
  cfg.num_bundles = 30;
  cfg.num_services = 5;
  cfg.seed = 8;
  const Instance inst = generate(cfg);
  ExactOptions opts;
  opts.max_nodes = 1;
  const ExactResult r = exact_solve(inst, opts);
  ASSERT_TRUE(r.feasible);  // greedy incumbent
  EXPECT_FALSE(r.proven_optimal);
  EXPECT_TRUE(inst.feasible(r.selection));
}

/// Brute force over all 2^M selections.
double brute_force(const Instance& inst) {
  const std::size_t m = inst.num_bundles();
  double best = 1e18;
  for (std::size_t mask = 0; mask < (1ULL << m); ++mask) {
    std::vector<std::uint8_t> sel(m, 0);
    for (std::size_t j = 0; j < m; ++j) sel[j] = (mask >> j) & 1;
    if (!inst.feasible(sel)) continue;
    best = std::min(best, inst.selection_cost(sel));
  }
  return best;
}

class ExactVsBruteForceTest : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(ExactVsBruteForceTest, MatchesExhaustiveEnumeration) {
  GeneratorConfig cfg;
  cfg.num_bundles = 12;
  cfg.num_services = 3;
  cfg.max_quantity = 9;
  cfg.seed = GetParam();
  const Instance inst = generate(cfg);
  const double truth = brute_force(inst);
  const ExactResult r = exact_solve(inst);
  ASSERT_TRUE(r.feasible);
  ASSERT_TRUE(r.proven_optimal);
  EXPECT_NEAR(r.value, truth, 1e-6);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ExactVsBruteForceTest,
                         ::testing::Range<std::uint64_t>(0, 10));

class BoundSandwichTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(BoundSandwichTest, LpLowerBoundSandwichesExactAndGreedy) {
  GeneratorConfig cfg;
  cfg.num_bundles = 25;
  cfg.num_services = 4;
  cfg.seed = 1000 + GetParam();
  const Instance inst = generate(cfg);
  const Relaxation rel = relax(inst);
  const ExactResult exact = exact_solve(inst);
  const SolveResult greedy =
      greedy_solve(inst, CostEffectiveness{}, rel.duals, rel.relaxed_x);
  ASSERT_TRUE(rel.feasible);
  ASSERT_TRUE(exact.feasible && exact.proven_optimal);
  ASSERT_TRUE(greedy.feasible);
  // LB <= OPT <= greedy.
  EXPECT_LE(rel.lower_bound, exact.value + 1e-6);
  EXPECT_LE(exact.value, greedy.value + 1e-6);
}

INSTANTIATE_TEST_SUITE_P(Seeds, BoundSandwichTest,
                         ::testing::Range<std::uint64_t>(0, 8));

}  // namespace
}  // namespace carbon::cover
