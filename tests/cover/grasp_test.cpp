#include "carbon/cover/grasp.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>

#include "carbon/cover/exact.hpp"
#include "carbon/cover/generator.hpp"
#include "carbon/cover/relaxation.hpp"

namespace carbon::cover {
namespace {

Instance medium() {
  GeneratorConfig cfg;
  cfg.num_bundles = 40;
  cfg.num_services = 5;
  cfg.seed = 44;
  return generate(cfg);
}

TEST(Grasp, AlwaysFeasibleOnCoverableInstances) {
  const Instance inst = medium();
  common::Rng rng(1);
  for (int rep = 0; rep < 10; ++rep) {
    const auto r = grasp_solve(inst, cost_effectiveness_score, rng);
    ASSERT_TRUE(r.feasible);
    ASSERT_TRUE(inst.feasible(r.selection));
    ASSERT_DOUBLE_EQ(r.value, inst.selection_cost(r.selection));
  }
}

TEST(Grasp, AlphaZeroSingleRestartEqualsDeterministicGreedy) {
  const Instance inst = medium();
  const Relaxation rel = relax(inst);
  common::Rng rng(2);
  GraspOptions opts;
  opts.alpha = 0.0;
  opts.restarts = 1;
  const auto grasp = grasp_solve(inst, cost_effectiveness_score, rng,
                                 rel.duals, rel.relaxed_x, opts);
  const auto greedy = greedy_solve(inst, cost_effectiveness_score, rel.duals,
                                   rel.relaxed_x);
  EXPECT_EQ(grasp.selection, greedy.selection);
  EXPECT_DOUBLE_EQ(grasp.value, greedy.value);
}

TEST(Grasp, RestartsNeverHurt) {
  const Instance inst = medium();
  const Relaxation rel = relax(inst);
  GraspOptions one;
  one.restarts = 1;
  GraspOptions many;
  many.restarts = 16;
  // Same starting RNG state for comparability of the first construction.
  common::Rng rng_a(7);
  common::Rng rng_b(7);
  const auto single = grasp_solve(inst, cost_effectiveness_score, rng_a,
                                  rel.duals, rel.relaxed_x, one);
  const auto multi = grasp_solve(inst, cost_effectiveness_score, rng_b,
                                 rel.duals, rel.relaxed_x, many);
  EXPECT_LE(multi.value, single.value + 1e-9);
}

TEST(Grasp, OftenImprovesOnDeterministicGreedy) {
  // Across several instances, multistart GRASP should find at least one
  // strictly better cover than the single deterministic construction.
  int improved = 0;
  for (std::uint64_t seed = 0; seed < 6; ++seed) {
    GeneratorConfig cfg;
    cfg.num_bundles = 35;
    cfg.num_services = 5;
    cfg.seed = 200 + seed;
    const Instance inst = generate(cfg);
    const Relaxation rel = relax(inst);
    const auto greedy = greedy_solve(inst, cost_effectiveness_score,
                                     rel.duals, rel.relaxed_x);
    common::Rng rng(seed);
    GraspOptions opts;
    opts.restarts = 20;
    const auto grasp = grasp_solve(inst, cost_effectiveness_score, rng,
                                   rel.duals, rel.relaxed_x, opts);
    EXPECT_GE(grasp.value, relax(inst).lower_bound - 1e-6);
    if (grasp.value < greedy.value - 1e-9) ++improved;
  }
  EXPECT_GE(improved, 1);
}

TEST(Grasp, NeverBeatsTheExactOptimum) {
  for (std::uint64_t seed = 0; seed < 4; ++seed) {
    GeneratorConfig cfg;
    cfg.num_bundles = 20;
    cfg.num_services = 4;
    cfg.seed = 300 + seed;
    const Instance inst = generate(cfg);
    const auto exact = exact_solve(inst);
    ASSERT_TRUE(exact.proven_optimal);
    common::Rng rng(seed);
    const auto grasp = grasp_solve(inst, cost_effectiveness_score, rng);
    EXPECT_GE(grasp.value, exact.value - 1e-6);
  }
}

TEST(Grasp, UncoverableReported) {
  const Instance inst({1.0}, {{1}}, {5});
  common::Rng rng(1);
  EXPECT_FALSE(grasp_solve(inst, cost_effectiveness_score, rng).feasible);
}

TEST(Grasp, ValidatesOptions) {
  const Instance inst = medium();
  common::Rng rng(1);
  GraspOptions bad;
  bad.alpha = 1.5;
  EXPECT_THROW(
      (void)grasp_solve(inst, cost_effectiveness_score, rng, {}, {}, bad),
      std::invalid_argument);
  bad.alpha = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(
      (void)grasp_solve(inst, cost_effectiveness_score, rng, {}, {}, bad),
      std::invalid_argument);
  bad.alpha = 0.2;
  bad.restarts = 0;
  EXPECT_THROW(
      (void)grasp_solve(inst, cost_effectiveness_score, rng, {}, {}, bad),
      std::invalid_argument);
}

/// FNV-1a over everything a solve returns (selection bytes, flags, value
/// bits), folded across a sweep.
void fnv_mix(std::uint64_t& h, std::uint64_t v) {
  h ^= v;
  h *= 1099511628211ull;
}

void hash_result(std::uint64_t& h, const SolveResult& r) {
  for (const std::uint8_t b : r.selection) fnv_mix(h, b);
  fnv_mix(h, r.feasible ? 1 : 0);
  fnv_mix(h, r.rounds_capped ? 1 : 0);
  fnv_mix(h, std::bit_cast<std::uint64_t>(r.value));
}

TEST(Grasp, SelectionsPinnedAcrossSeedSweep) {
  // Frozen hash of what grasp_solve returns over a fixed sweep: both
  // overloads, a narrow and a full RCL, and a round-capped case. Any change
  // to the construction's bookkeeping that moved an RCL or an rng draw
  // would move this hash.
  const BatchScoreFunction batch_ce = [](const BatchFeatureView& v,
                                         std::span<double> out) {
    for (std::size_t j = 0; j < v.count; ++j) {
      out[j] = v.qcov[j] / std::max(v.cost[j], 1e-9);
    }
  };
  std::uint64_t h = 1469598103934665603ull;
  for (std::uint64_t seed = 0; seed < 6; ++seed) {
    GeneratorConfig cfg;
    cfg.num_bundles = 30 + 5 * seed;
    cfg.num_services = 4 + seed % 3;
    cfg.tightness = 0.45;
    cfg.seed = 700 + seed;
    const Instance inst = generate(cfg);
    const Relaxation rel = relax(inst);
    for (const double alpha : {0.15, 1.0}) {
      GraspOptions opts;
      opts.alpha = alpha;
      opts.restarts = 4;
      common::Rng rng_a(seed);
      hash_result(h, grasp_solve(inst, cost_effectiveness_score, rng_a,
                                 rel.duals, rel.relaxed_x, opts));
      common::Rng rng_b(seed);
      hash_result(h, grasp_solve(inst, batch_ce, rng_b, rel.duals,
                                 rel.relaxed_x, opts));
    }
    GraspOptions capped;
    capped.restarts = 4;
    capped.greedy.max_rounds = 2;
    common::Rng rng_c(seed + 100);
    const SolveResult r = grasp_solve(inst, cost_effectiveness_score, rng_c,
                                      rel.duals, rel.relaxed_x, capped);
    EXPECT_TRUE(r.rounds_capped) << "seed " << seed;
    hash_result(h, r);
  }
  EXPECT_EQ(h, 13002711319161223622ull);
}

}  // namespace
}  // namespace carbon::cover
