// Frozen-answer tests of the three baselines of the paper's Fig. 2
// taxonomy: the nested GA (NSQ category), BIGA and CODBA (COE category).
// Each small run is folded into one 64-bit FNV-1a fingerprint: the bits of
// the best pricing, best_ul_objective, best_gap, the best evaluation's
// selection, the budget counters and every convergence point.
//
// The follower model of the nested GA is the fixed cost-effectiveness
// greedy, so its literals pin that greedy's covers across every pricing the
// GA visits, together with the evaluator's charging and archive logic. The
// BIGA and CODBA literals pin the solvers' own bookkeeping on top: where the
// budget test stops a run (CODBA's also inside a subpopulation), the
// best-so-far rule, the convergence points and the breeding draws. A change
// of scorer shape, greedy entry point, rescoring regime or run bookkeeping
// that keeps the literals computes the same runs bit for bit.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "carbon/baselines/biga.hpp"
#include "carbon/baselines/codba.hpp"
#include "carbon/baselines/nested_ga.hpp"
#include "carbon/bcpop/parallel_evaluator.hpp"
#include "carbon/common/rng.hpp"
#include "carbon/cover/generator.hpp"

namespace carbon::baselines {
namespace {

/// 64-bit FNV-1a over a byte stream; integers enter little-endian, so the
/// value does not depend on the host's byte order.
class Fingerprint {
 public:
  void add(std::uint64_t v) {
    for (int k = 0; k < 8; ++k) {
      hash_ ^= (v >> (8 * k)) & 0xffu;
      hash_ *= 0x100000001b3ull;
    }
  }
  void add(double v) { add(std::bit_cast<std::uint64_t>(v)); }
  void add(const std::string& s) {
    add(static_cast<std::uint64_t>(s.size()));
    for (const char c : s) add(static_cast<std::uint64_t>(c));
  }
  [[nodiscard]] std::uint64_t value() const noexcept { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ull;
};

std::uint64_t fingerprint(const core::RunResult& r) {
  Fingerprint fp;
  fp.add(static_cast<std::uint64_t>(r.best_pricing.size()));
  for (const double p : r.best_pricing) fp.add(p);
  fp.add(r.best_ul_objective);
  fp.add(r.best_gap);
  const bcpop::Evaluation& e = r.best_evaluation;
  fp.add(static_cast<std::uint64_t>(e.ll_feasible));
  fp.add(e.ll_objective);
  fp.add(e.lower_bound);
  fp.add(e.gap_percent);
  fp.add(static_cast<std::uint64_t>(e.selection.size()));
  for (const std::uint8_t s : e.selection) fp.add(std::uint64_t{s});
  fp.add(static_cast<std::uint64_t>(r.ul_evaluations));
  fp.add(static_cast<std::uint64_t>(r.ll_evaluations));
  fp.add(static_cast<std::uint64_t>(r.generations));
  fp.add(static_cast<std::uint64_t>(r.convergence.size()));
  for (const core::ConvergencePoint& pt : r.convergence) {
    fp.add(static_cast<std::uint64_t>(pt.generation));
    fp.add(static_cast<std::uint64_t>(pt.ul_evaluations));
    fp.add(static_cast<std::uint64_t>(pt.ll_evaluations));
    fp.add(pt.best_ul_so_far);
    fp.add(pt.best_gap_so_far);
    fp.add(pt.current_best_ul);
    fp.add(pt.current_mean_gap);
    fp.add(pt.phase);
  }
  return fp.value();
}

/// A generated market in which the leader owns a tenth of the bundles.
bcpop::Instance market(std::size_t bundles, std::size_t services,
                       std::uint64_t seed) {
  cover::GeneratorConfig gen;
  gen.num_bundles = bundles;
  gen.num_services = services;
  gen.seed = seed;
  return bcpop::Instance(cover::generate(gen), bundles / 10);
}

core::RunResult run_nested(std::size_t bundles, std::size_t services,
                           std::uint64_t seed) {
  const bcpop::Instance inst = market(bundles, services, seed);
  NestedGaConfig cfg;
  cfg.population_size = 12;
  cfg.archive_size = 12;
  cfg.archive_reinjection = 3;
  cfg.mutation_prob = 0.2;
  cfg.ul_eval_budget = 240;
  cfg.ll_eval_budget = 240;
  cfg.seed = seed;
  return NestedGaSolver(inst, cfg).run();
}

TEST(NestedGaFingerprint, SmallMarketRunIsFrozen) {
  const core::RunResult r = run_nested(30, 4, 5);
  ASSERT_TRUE(r.best_evaluation.ll_feasible);
  ASSERT_EQ(r.convergence.size(), 20u);
  EXPECT_EQ(fingerprint(r), 0x6bfdbb30ec18712dull);
}

TEST(NestedGaFingerprint, WiderMarketRunIsFrozen) {
  const core::RunResult r = run_nested(80, 12, 17);
  ASSERT_TRUE(r.best_evaluation.ll_feasible);
  ASSERT_EQ(r.convergence.size(), 20u);
  EXPECT_EQ(fingerprint(r), 0xdaf3453aa4afda9full);
}

BigaConfig small_biga(std::size_t population, std::uint64_t seed) {
  BigaConfig cfg;
  cfg.population_size = population;
  cfg.archive_size = population;
  cfg.archive_reinjection = 2;
  cfg.ul_mutation_prob = 0.2;
  cfg.ul_eval_budget = 200;
  cfg.ll_eval_budget = 200;
  cfg.seed = seed;
  return cfg;
}

TEST(BigaFingerprint, SmallMarketRunIsFrozen) {
  const bcpop::Instance inst = market(30, 4, 5);
  const core::RunResult r = BigaSolver(inst, small_biga(10, 5)).run();
  ASSERT_TRUE(r.best_evaluation.ll_feasible);
  ASSERT_EQ(r.convergence.size(), 20u);
  EXPECT_EQ(fingerprint(r), 0x612f482e3a7c80b4ull);
}

// Odd population size on an evaluator that has already charged budget:
// the run counts from the evaluator's counters at its start, and the last
// pair of each generation keeps one child.
TEST(BigaFingerprint, RunOnAChargedEvaluatorIsFrozen) {
  const bcpop::Instance inst = market(60, 8, 11);
  bcpop::ParallelEvaluator eval(inst, /*threads=*/1);
  common::Rng rng(3);
  const std::vector<std::uint8_t> none(inst.market().num_bundles(), 0);
  for (int k = 0; k < 7; ++k) {
    (void)eval.evaluate_with_selection(
        ea::random_real_vector(rng, inst.price_bounds()), none);
  }
  ASSERT_EQ(eval.ll_evaluations(), 7);
  const core::RunResult r = BigaSolver(eval, small_biga(9, 11)).run();
  ASSERT_TRUE(r.best_evaluation.ll_feasible);
  EXPECT_EQ(r.ll_evaluations, 207);
  EXPECT_EQ(fingerprint(r), 0xf1c21343df7be2f6ull);
}

CodbaConfig small_codba(std::uint64_t seed) {
  CodbaConfig cfg;
  cfg.ul_population_size = 11;
  cfg.archive_size = 8;
  cfg.decomposition_width = 4;
  cfg.ll_subpopulation_size = 5;
  cfg.ll_subpopulation_generations = 3;
  cfg.ul_mutation_prob = 0.2;
  cfg.ul_eval_budget = 300;
  cfg.ll_eval_budget = 300;
  cfg.seed = seed;
  return cfg;
}

TEST(CodbaFingerprint, SmallMarketRunIsFrozen) {
  const bcpop::Instance inst = market(30, 4, 5);
  const core::RunResult r = CodbaSolver(inst, small_codba(5)).run();
  ASSERT_TRUE(r.best_evaluation.ll_feasible);
  EXPECT_EQ(r.ll_evaluations, 300);
  EXPECT_EQ(fingerprint(r), 0x96f20169b680d8daull);
}

// Each generation asks for 4 x 3 x 5 = 60 LL evaluations; the LL budget of
// 100 runs out after the second of the three sub-generations of the third
// subproblem of generation 1 (60 + 15 + 15 + 5 + 5 = 100), so the run stops
// inside solve_subproblem and skips the fourth subproblem.
TEST(CodbaFingerprint, LlBudgetBindingMidGenerationIsFrozen) {
  const bcpop::Instance inst = market(60, 8, 11);
  CodbaConfig cfg = small_codba(11);
  cfg.ul_eval_budget = 10'000;
  cfg.ll_eval_budget = 100;
  const core::RunResult r = CodbaSolver(inst, cfg).run();
  ASSERT_TRUE(r.best_evaluation.ll_feasible);
  EXPECT_EQ(r.ll_evaluations, 100);
  ASSERT_EQ(r.convergence.size(), 2u);
  EXPECT_EQ(fingerprint(r), 0x990560df96577b80ull);
}

// Every lower-level construction is cut after one round, so no subproblem
// finds a feasible basket: each generation records current_best_ul = -inf
// and the run ends with the "nothing feasible" values.
TEST(CodbaFingerprint, RunWithoutFeasibleSubproblemsIsFrozen) {
  const bcpop::Instance inst = market(30, 4, 5);
  bcpop::ParallelEvaluator eval(inst, /*threads=*/1);
  guard::GuardConfig guard;
  guard.limits.construction_round_cap = 1;
  eval.set_guard(guard, 0);
  CodbaConfig cfg = small_codba(5);
  cfg.ll_init_density = 0.0;
  const core::RunResult r = CodbaSolver(eval, cfg).run();
  EXPECT_EQ(r.best_ul_objective, 0.0);
  EXPECT_EQ(r.best_gap, 1e9);
  ASSERT_FALSE(r.convergence.empty());
  for (const core::ConvergencePoint& pt : r.convergence) {
    EXPECT_EQ(pt.current_best_ul, -std::numeric_limits<double>::infinity());
  }
  EXPECT_EQ(fingerprint(r), 0xb1ffc09d78304c5eull);
}

}  // namespace
}  // namespace carbon::baselines
