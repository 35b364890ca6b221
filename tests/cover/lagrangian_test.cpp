#include "carbon/cover/lagrangian.hpp"

#include <gtest/gtest.h>

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

TEST(Lagrangian, BoundsTinyInstance) {
  const Instance inst = tiny();
  const auto greedy = greedy_solve(inst, CostEffectiveness{});
  const LagrangianResult r = lagrangian_bound(inst, greedy.value);
  // Valid lower bound on the optimum (10.0), approaching the LP bound (10).
  EXPECT_LE(r.lower_bound, 10.0 + 1e-6);
  EXPECT_GT(r.lower_bound, 5.0);  // converged meaningfully
  for (double l : r.multipliers) EXPECT_GE(l, 0.0);
}

TEST(Lagrangian, DeterministicAndWithinIterationBudget) {
  const Instance inst = tiny();
  LagrangianOptions opts;
  opts.max_iterations = 50;
  const auto a = lagrangian_bound(inst, 20.0, opts);
  const auto b = lagrangian_bound(inst, 20.0, opts);
  EXPECT_DOUBLE_EQ(a.lower_bound, b.lower_bound);
  EXPECT_LE(a.iterations, 50u);
}

TEST(Lagrangian, RejectsNonFiniteUpperBound) {
  EXPECT_THROW((void)lagrangian_bound(
                   tiny(), std::numeric_limits<double>::infinity()),
               std::invalid_argument);
}

TEST(Lagrangian, ZeroMultipliersGiveTrivialStart) {
  // With λ = 0 the inner problem buys nothing and L(0) = 0; the method must
  // improve on that for any instance with positive demand.
  const Instance inst = tiny();
  const LagrangianResult r = lagrangian_bound(inst, 15.0);
  EXPECT_GT(r.lower_bound, 0.0);
}

class LagrangianSweepTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(LagrangianSweepTest, ValidLowerBoundNearLpBound) {
  GeneratorConfig cfg;
  cfg.num_bundles = 40;
  cfg.num_services = 5;
  cfg.seed = 500 + GetParam();
  const Instance inst = generate(cfg);

  const Relaxation lp = relax(inst);
  ASSERT_TRUE(lp.feasible);
  const auto greedy =
      greedy_solve(inst, CostEffectiveness{}, lp.duals, lp.relaxed_x);
  ASSERT_TRUE(greedy.feasible);

  LagrangianOptions opts;
  opts.max_iterations = 400;
  const LagrangianResult lag = lagrangian_bound(inst, greedy.value, opts);

  // Validity: never above the true optimum (== LP bound is itself <= OPT;
  // by the integrality property the Lagrangian dual optimum equals the LP
  // bound, so the achieved value must be <= LP bound + tolerance).
  EXPECT_LE(lag.lower_bound, lp.lower_bound * (1.0 + 1e-6) + 1e-6);
  // Convergence: within a few percent of the LP bound.
  EXPECT_GE(lag.lower_bound, 0.90 * lp.lower_bound);
}

INSTANTIATE_TEST_SUITE_P(Seeds, LagrangianSweepTest,
                         ::testing::Range<std::uint64_t>(0, 8));

TEST(Lagrangian, BoundNeverExceedsExactOptimum) {
  for (std::uint64_t seed = 0; seed < 6; ++seed) {
    GeneratorConfig cfg;
    cfg.num_bundles = 20;
    cfg.num_services = 4;
    cfg.seed = 900 + seed;
    const Instance inst = generate(cfg);
    const auto exact = exact_solve(inst);
    ASSERT_TRUE(exact.feasible && exact.proven_optimal);
    const auto greedy = greedy_solve(inst, CostEffectiveness{});
    const auto lag = lagrangian_bound(inst, greedy.value);
    EXPECT_LE(lag.lower_bound, exact.value + 1e-6) << "seed " << seed;
  }
}

}  // namespace
}  // namespace carbon::cover
