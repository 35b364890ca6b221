#include "carbon/cover/local_search.hpp"

#include <gtest/gtest.h>

#include "carbon/common/rng.hpp"
#include "carbon/cover/exact.hpp"
#include "carbon/cover/generator.hpp"
#include "carbon/cover/greedy.hpp"
#include "cover/greedy_reference.hpp"

namespace carbon::cover {
namespace {

Instance tiny() {
  return Instance({5.0, 5.0, 30.0, 90.0},
                  {{4, 0}, {0, 4}, {4, 4}, {4, 4}},
                  {4, 4});
}

TEST(LocalSearch, DropsRedundantBundles) {
  const Instance inst = tiny();
  std::vector<std::uint8_t> sel = {1, 1, 1, 1};  // everything bought
  const LocalSearchResult r = local_search(inst, sel);
  EXPECT_TRUE(inst.feasible(sel));
  EXPECT_DOUBLE_EQ(r.value, 10.0);  // only the cheap pair survives
  EXPECT_GE(r.drops, 2u);
}

TEST(LocalSearch, SwapsExpensiveForCheap) {
  // Start from the overpriced all-in-one bundle.
  const Instance inst = tiny();
  std::vector<std::uint8_t> sel = {0, 0, 0, 1};
  const LocalSearchResult r = local_search(inst, sel);
  EXPECT_TRUE(inst.feasible(sel));
  // Swap 90 -> 30 is feasible; then cheap pair is not reachable by single
  // swaps from {2} (dropping 2 breaks feasibility), so optimum of this
  // neighbourhood is 30.
  EXPECT_DOUBLE_EQ(r.value, 30.0);
  EXPECT_GE(r.swaps, 1u);
}

TEST(LocalSearch, RejectsInfeasibleStart) {
  const Instance inst = tiny();
  std::vector<std::uint8_t> sel = {1, 0, 0, 0};
  EXPECT_THROW((void)local_search(inst, sel), std::invalid_argument);
  std::vector<std::uint8_t> wrong_size = {1, 1};
  EXPECT_THROW((void)local_search(inst, wrong_size), std::invalid_argument);
}

TEST(LocalSearch, MoveBudgetRespected) {
  const Instance inst = tiny();
  std::vector<std::uint8_t> sel = {1, 1, 1, 1};
  LocalSearchOptions opts;
  opts.max_moves = 1;
  const LocalSearchResult r = local_search(inst, sel, opts);
  EXPECT_EQ(r.drops + r.swaps, 1u);
  EXPECT_TRUE(inst.feasible(sel));
}

TEST(LocalSearch, NeighbourhoodsCanBeDisabled) {
  const Instance inst = tiny();
  std::vector<std::uint8_t> sel = {1, 1, 1, 1};
  LocalSearchOptions opts;
  opts.enable_drop = false;
  opts.enable_swap = false;
  const LocalSearchResult r = local_search(inst, sel, opts);
  EXPECT_EQ(r.drops + r.swaps, 0u);
  EXPECT_DOUBLE_EQ(r.value, 130.0);
}

class LocalSearchSweepTest : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(LocalSearchSweepTest, NeverWorsensAndKeepsFeasibility) {
  GeneratorConfig cfg;
  cfg.num_bundles = 50;
  cfg.num_services = 6;
  cfg.seed = 700 + GetParam();
  const Instance inst = generate(cfg);
  common::Rng rng(GetParam());

  // Start from a sloppy random-score greedy cover.
  const auto start = testing::reference_greedy(
      inst, [&rng](const testing::BundleFeatures&) { return rng.uniform(); },
      {}, {}, {}, {.eliminate_redundancy = false});
  ASSERT_TRUE(start.feasible);

  std::vector<std::uint8_t> sel = start.selection;
  const LocalSearchResult r = local_search(inst, sel);
  EXPECT_TRUE(inst.feasible(sel));
  EXPECT_LE(r.value, start.value + 1e-9);
  EXPECT_DOUBLE_EQ(r.value, inst.selection_cost(sel));
}

INSTANTIATE_TEST_SUITE_P(Seeds, LocalSearchSweepTest,
                         ::testing::Range<std::uint64_t>(0, 10));

TEST(LocalSearch, PolishedGreedyApproachesExactOptimum) {
  double greedy_total = 0.0;
  double polished_total = 0.0;
  double exact_total = 0.0;
  for (std::uint64_t seed = 0; seed < 6; ++seed) {
    GeneratorConfig cfg;
    cfg.num_bundles = 25;
    cfg.num_services = 4;
    cfg.seed = 800 + seed;
    const Instance inst = generate(cfg);
    const auto greedy = greedy_solve(inst, CostEffectiveness{});
    ASSERT_TRUE(greedy.feasible);
    std::vector<std::uint8_t> sel = greedy.selection;
    const auto polished = local_search(inst, sel);
    const auto exact = exact_solve(inst);
    ASSERT_TRUE(exact.proven_optimal);
    greedy_total += greedy.value;
    polished_total += polished.value;
    exact_total += exact.value;
    EXPECT_GE(polished.value, exact.value - 1e-6);
  }
  EXPECT_LE(polished_total, greedy_total + 1e-9);
  // Polish closes at least part of the greedy-to-optimal gap overall.
  EXPECT_LT(polished_total - exact_total, greedy_total - exact_total + 1e-9);
}

TEST(LocalSearch, DeterministicGivenSameStart) {
  GeneratorConfig cfg;
  cfg.num_bundles = 30;
  cfg.num_services = 5;
  cfg.seed = 33;
  const Instance inst = generate(cfg);
  const auto greedy = greedy_solve(inst, CostEffectiveness{});
  std::vector<std::uint8_t> a = greedy.selection;
  std::vector<std::uint8_t> b = greedy.selection;
  (void)local_search(inst, a);
  (void)local_search(inst, b);
  EXPECT_EQ(a, b);
}

}  // namespace
}  // namespace carbon::cover
