#include "carbon/cover/greedy.hpp"

#include <gtest/gtest.h>

#include <numeric>

#include "carbon/common/rng.hpp"
#include "carbon/cover/generator.hpp"
#include "carbon/cover/relaxation.hpp"
#include "cover/greedy_reference.hpp"

namespace carbon::cover {
namespace {

using testing::BundleFeatures;
using testing::per_bundle;

Instance tiny() {
  // 4 bundles x 2 services; demands (4, 4).
  // bundle 0: cheap, covers only service 0; 1: cheap, only service 1;
  // 2: expensive, covers both; 3: overpriced duplicate of 2.
  return Instance({5.0, 5.0, 30.0, 90.0},
                  {{4, 0}, {0, 4}, {4, 4}, {4, 4}},
                  {4, 4});
}

TEST(Greedy, FindsFeasibleCover) {
  const auto r = greedy_solve(tiny(), CostEffectiveness{});
  ASSERT_TRUE(r.feasible);
  EXPECT_TRUE(tiny().feasible(r.selection));
}

TEST(Greedy, CostEffectivenessPicksTheCheapPair) {
  const auto r = greedy_solve(tiny(), CostEffectiveness{});
  ASSERT_TRUE(r.feasible);
  EXPECT_DOUBLE_EQ(r.value, 10.0);  // bundles 0 + 1
  EXPECT_EQ(r.selection[0], 1);
  EXPECT_EQ(r.selection[1], 1);
  EXPECT_EQ(r.selection[3], 0);
}

TEST(Greedy, ValueMatchesSelectionCost) {
  const Instance inst = tiny();
  const auto r = greedy_solve(inst, CostEffectiveness{});
  EXPECT_DOUBLE_EQ(r.value, inst.selection_cost(r.selection));
}

TEST(Greedy, UncoverableInstanceReported) {
  const Instance inst({1.0, 2.0}, {{1, 0}, {2, 0}}, {1, 5});
  const auto r = greedy_solve(inst, CostEffectiveness{});
  EXPECT_FALSE(r.feasible);
}

TEST(Greedy, RedundancyEliminationRemovesUselessBundles) {
  // A bad scorer that prefers the expensive duplicate first.
  const auto worst_first = [](const BundleFeatures& f) { return f.cost; };
  GreedyOptions keep;
  keep.eliminate_redundancy = false;
  const auto with = greedy_solve(tiny(), per_bundle(worst_first));
  const auto without =
      greedy_solve(tiny(), per_bundle(worst_first), {}, {}, {}, keep);
  ASSERT_TRUE(with.feasible);
  ASSERT_TRUE(without.feasible);
  EXPECT_LE(with.value, without.value);
  // worst_first picks bundle 3 (90) which covers everything; elimination
  // cannot drop the only cover, but when both 2 and 3 get picked one goes.
}

TEST(Greedy, RedundancyEliminationKeepsFeasibility) {
  common::Rng rng(5);
  GeneratorConfig cfg;
  cfg.num_bundles = 40;
  cfg.num_services = 6;
  cfg.seed = 12;
  const Instance inst = generate(cfg);
  const auto scorer = [&rng](const BundleFeatures&) { return rng.uniform(); };
  for (int rep = 0; rep < 10; ++rep) {
    const auto r = greedy_solve(inst, per_bundle(scorer));
    ASSERT_TRUE(r.feasible);
    ASSERT_TRUE(inst.feasible(r.selection));
  }
}

TEST(Greedy, NanScoresDoNotCrashOrWin) {
  const auto nan_for_cheap = [](const BundleFeatures& f) {
    return f.cost < 10.0 ? std::numeric_limits<double>::quiet_NaN() : 1.0;
  };
  const auto r = greedy_solve(tiny(), per_bundle(nan_for_cheap));
  ASSERT_TRUE(r.feasible);
  // NaN-scored bundles lose against the finite score.
  EXPECT_EQ(r.selection[2], 1);
}

TEST(Greedy, FeaturesExposeResidualDynamics) {
  // Capture the features the scorer sees for bundle 0 across rounds.
  std::vector<double> bres_seen;
  const Instance inst = tiny();
  const auto spy = [&](const BundleFeatures& f) {
    if (f.cost == 5.0 && f.qsum == 4.0) bres_seen.push_back(f.bres);
    return f.qcov / f.cost;
  };
  (void)greedy_solve(inst, per_bundle(spy));
  ASSERT_GE(bres_seen.size(), 2u);
  // Outstanding demand must shrink between rounds.
  EXPECT_GT(bres_seen.front(), bres_seen.back());
  EXPECT_DOUBLE_EQ(bres_seen.front(), 8.0);  // 4 + 4 initially
}

TEST(Greedy, QcovIsCappedByResidual) {
  // One bundle over-supplies: qcov must be min(q, residual).
  const Instance inst({1.0, 1.0}, {{100}, {3}}, {5});
  double qcov0 = -1.0;
  const auto spy = [&](const BundleFeatures& f) {
    if (f.qsum == 100.0) qcov0 = f.qcov;
    return f.qcov;
  };
  (void)greedy_solve(inst, per_bundle(spy));
  EXPECT_DOUBLE_EQ(qcov0, 5.0);
}

TEST(Greedy, DualAndXbarFeaturesArriveWhenProvided) {
  const Instance inst = tiny();
  const Relaxation rel = relax(inst);
  bool saw_dual = false;
  bool saw_xbar = false;
  const auto spy = [&](const BundleFeatures& f) {
    saw_dual |= f.dual != 0.0;
    saw_xbar |= f.xbar != 0.0;
    return f.qcov / f.cost;
  };
  (void)greedy_solve(inst, per_bundle(spy), rel.duals, rel.relaxed_x);
  EXPECT_TRUE(saw_dual);
  EXPECT_TRUE(saw_xbar);
}

TEST(Greedy, MissingDualsReadAsZero) {
  const Instance inst = tiny();
  const auto spy = [&](const BundleFeatures& f) {
    EXPECT_EQ(f.dual, 0.0);
    EXPECT_EQ(f.xbar, 0.0);
    return 1.0;
  };
  (void)greedy_solve(inst, per_bundle(spy));
}

class GreedySweepTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(GreedySweepTest, AlwaysFeasibleAndNeverBelowLpBound) {
  GeneratorConfig cfg;
  cfg.num_bundles = 50;
  cfg.num_services = 5;
  cfg.seed = GetParam();
  const Instance inst = generate(cfg);
  const Relaxation rel = relax(inst);
  ASSERT_TRUE(rel.feasible);
  const auto r =
      greedy_solve(inst, CostEffectiveness{}, rel.duals, rel.relaxed_x);
  ASSERT_TRUE(r.feasible);
  ASSERT_TRUE(inst.feasible(r.selection));
  // An integral cover can't beat the LP lower bound.
  EXPECT_GE(r.value, rel.lower_bound - 1e-6);
}

INSTANTIATE_TEST_SUITE_P(Seeds, GreedySweepTest,
                         ::testing::Range<std::uint64_t>(0, 12));

TEST(Greedy, DualScoreBeatsRandomOnAverage) {
  common::Rng rng(3);
  double dual_total = 0.0;
  double random_total = 0.0;
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    GeneratorConfig cfg;
    cfg.num_bundles = 60;
    cfg.num_services = 6;
    cfg.seed = 100 + seed;
    const Instance inst = generate(cfg);
    const Relaxation rel = relax(inst);
    dual_total +=
        greedy_solve(inst, DualMinusCost{}, rel.duals, rel.relaxed_x).value;
    random_total +=
        testing::reference_greedy(inst,
                                  [&rng](const BundleFeatures&) {
                                    return rng.uniform();
                                  },
                                  rel.duals, rel.relaxed_x)
            .value;
  }
  EXPECT_LT(dual_total, random_total);
}

}  // namespace
}  // namespace carbon::cover
