// The single-evaluation contract of the BCPOP evaluator (feasibility,
// objectives, purposes, relaxation memo), exercised on a one-thread
// ParallelEvaluator: the calling thread alone, one context.
#include "carbon/bcpop/parallel_evaluator.hpp"

#include <gtest/gtest.h>

#include <bit>

#include "carbon/bcpop/eval_core.hpp"
#include "carbon/bilevel/gap.hpp"
#include "carbon/cover/generator.hpp"
#include "carbon/ea/binary_ops.hpp"
#include "carbon/gp/generate.hpp"
#include "cover/greedy_reference.hpp"

namespace carbon::bcpop {
namespace {

Instance make_instance() {
  cover::GeneratorConfig cfg;
  cfg.num_bundles = 30;
  cfg.num_services = 4;
  cfg.seed = 17;
  return Instance(cover::generate(cfg), /*num_owned=*/3);
}

Pricing mid_pricing(const Instance& inst) {
  Pricing p;
  for (const auto& b : inst.price_bounds()) p.push_back(0.5 * (b.lo + b.hi));
  return p;
}

gp::Tree cost_effectiveness_tree() {
  // QCOV / COST, the classic greedy, as a GP tree.
  return gp::Tree::apply(gp::OpCode::kDiv,
                         gp::Tree::terminal(gp::Terminal::kQcov),
                         gp::Tree::terminal(gp::Terminal::kCost));
}

TEST(Evaluator, HeuristicEvaluationIsFeasibleAndConsistent) {
  const Instance inst = make_instance();
  ParallelEvaluator eval(inst, /*threads=*/1);
  const Pricing pricing = mid_pricing(inst);
  const Evaluation e =
      eval.evaluate_with_heuristic(pricing, cost_effectiveness_tree());
  ASSERT_TRUE(e.ll_feasible);
  // The customer basket covers demand under the priced instance.
  const cover::Instance ll = inst.lower_level_instance(pricing);
  EXPECT_TRUE(ll.feasible(e.selection));
  // Objectives consistent with the selection.
  EXPECT_NEAR(e.ll_objective, ll.selection_cost(e.selection), 1e-9);
  EXPECT_NEAR(e.ul_objective, inst.leader_revenue(pricing, e.selection),
              1e-9);
  // Gap consistent with Eq. (1).
  EXPECT_NEAR(e.gap_percent,
              bilevel::percent_gap(e.ll_objective, e.lower_bound), 1e-9);
  EXPECT_GE(e.ll_objective, e.lower_bound - 1e-6);
}

TEST(Evaluator, TreeAndScoreFunctionPathsAgree) {
  // The evolved-tree path fed (div QCOV COST) and the nested-GA baseline's
  // built-in cost-effectiveness path compute the same scores (costs are
  // positive), so they must build the same cover.
  const Instance inst = make_instance();
  ParallelEvaluator eval(inst, /*threads=*/1);
  const Pricing pricing = mid_pricing(inst);
  const gp::Tree tree = cost_effectiveness_tree();
  const Evaluation via_tree = eval.evaluate_with_heuristic(pricing, tree);
  const Evaluation via_ce = eval.evaluate_cost_effectiveness(pricing);
  EXPECT_EQ(via_tree.selection, via_ce.selection);
  EXPECT_EQ(via_tree.ll_objective, via_ce.ll_objective);
  EXPECT_EQ(via_tree.gap_percent, via_ce.gap_percent);
}

TEST(Evaluator, SelectionRepairAchievesFeasibility) {
  const Instance inst = make_instance();
  ParallelEvaluator eval(inst, /*threads=*/1);
  const Pricing pricing = mid_pricing(inst);
  common::Rng rng(3);
  for (int rep = 0; rep < 20; ++rep) {
    const auto basket =
        ea::random_binary_vector(rng, inst.num_bundles(), 0.1);
    const Evaluation e = eval.evaluate_with_selection(pricing, basket);
    ASSERT_TRUE(e.ll_feasible);
    const cover::Instance ll = inst.lower_level_instance(pricing);
    ASSERT_TRUE(ll.feasible(e.selection));
    // Repair only adds bundles: everything selected stays selected.
    for (std::size_t j = 0; j < basket.size(); ++j) {
      if (basket[j]) {
        ASSERT_EQ(e.selection[j], 1);
      }
    }
  }
}

TEST(Evaluator, AlreadyFeasibleSelectionUntouched) {
  const Instance inst = make_instance();
  ParallelEvaluator eval(inst, /*threads=*/1);
  const Pricing pricing = mid_pricing(inst);
  const std::vector<std::uint8_t> everything(inst.num_bundles(), 1);
  const Evaluation e = eval.evaluate_with_selection(pricing, everything);
  ASSERT_TRUE(e.ll_feasible);
  EXPECT_EQ(e.selection, everything);
}

TEST(Evaluator, SelectionRepairMatchesReferenceGreedy) {
  // solve_with_selection is the cost-effectiveness greedy started from the
  // genome: it must agree bit for bit with the reference greedy given the
  // same start, for every genome shape and round cap, both without the
  // redundancy pass (COBRA's repair) and with it (the nested-GA baseline,
  // which starts from the empty genome).
  common::Rng rng(2024);
  for (int trial = 0; trial < 12; ++trial) {
    cover::GeneratorConfig cfg;
    cfg.num_bundles = 20 + 7 * static_cast<std::size_t>(trial % 4);
    cfg.num_services = 3 + static_cast<std::size_t>(trial % 4);
    cfg.tightness = trial % 2 == 0 ? 0.45 : 0.7;
    cfg.seed = 500 + static_cast<std::uint64_t>(trial);
    const Instance inst(cover::generate(cfg), /*num_owned=*/4);
    Pricing pricing;
    for (const auto& b : inst.price_bounds()) {
      pricing.push_back(rng.uniform(b.lo, b.hi));
    }
    const cover::Instance ll = inst.lower_level_instance(pricing);
    const std::size_t m = ll.num_bundles();

    const std::vector<std::vector<std::uint8_t>> genomes = {
        {},
        ea::random_binary_vector(rng, m, 0.15),
        cover::greedy_solve(ll, cover::CostEffectiveness{}).selection,
        std::vector<std::uint8_t>(m, 1),
        ea::random_binary_vector(rng, m / 2, 0.3),
        ea::random_binary_vector(rng, m + 5, 0.1),
    };
    EvalContext ctx(inst);
    for (std::size_t g = 0; g < genomes.size(); ++g) {
      for (const long long cap : {0LL, 1LL, 3LL}) {
        for (const bool redundancy : {false, true}) {
          cover::GreedyOptions options;
          options.max_rounds = cap;
          options.eliminate_redundancy = redundancy;
          const cover::SolveResult got =
              solve_with_selection(ctx, pricing, genomes[g], options);
          const cover::SolveResult want = cover::testing::reference_greedy(
              ll, cover::CostEffectiveness{}, {}, {}, genomes[g], options);
          const std::string label =
              "trial " + std::to_string(trial) + " genome " +
              std::to_string(g) + " cap " + std::to_string(cap) +
              (redundancy ? " redundancy pass" : "");
          ASSERT_EQ(got.selection, want.selection) << label;
          ASSERT_EQ(got.feasible, want.feasible) << label;
          ASSERT_EQ(got.rounds_capped, want.rounds_capped) << label;
          ASSERT_EQ(std::bit_cast<std::uint64_t>(got.value),
                    std::bit_cast<std::uint64_t>(want.value))
              << label;
        }
      }
    }
  }
}

TEST(Evaluator, CountsEvaluationsByPurpose) {
  const Instance inst = make_instance();
  ParallelEvaluator eval(inst, /*threads=*/1);
  const Pricing pricing = mid_pricing(inst);
  const gp::Tree tree = cost_effectiveness_tree();

  EXPECT_EQ(eval.ul_evaluations(), 0);
  EXPECT_EQ(eval.ll_evaluations(), 0);

  (void)eval.evaluate_with_heuristic(pricing, tree, EvalPurpose::kLowerOnly);
  EXPECT_EQ(eval.ul_evaluations(), 0);
  EXPECT_EQ(eval.ll_evaluations(), 1);

  (void)eval.evaluate_with_heuristic(pricing, tree, EvalPurpose::kBoth);
  EXPECT_EQ(eval.ul_evaluations(), 1);
  EXPECT_EQ(eval.ll_evaluations(), 2);
}

TEST(Evaluator, RelaxationIsMemoized) {
  const Instance inst = make_instance();
  ParallelEvaluator eval(inst, /*threads=*/1);
  const Pricing pricing = mid_pricing(inst);
  (void)eval.relaxation(pricing);
  const long long solved_once = eval.relaxations_solved();
  (void)eval.relaxation(pricing);
  (void)eval.relaxation(pricing);
  EXPECT_EQ(eval.relaxations_solved(), solved_once);
  EXPECT_EQ(eval.relaxation_cache_hits(), 2);

  Pricing other = pricing;
  other[0] += 1.0;
  (void)eval.relaxation(other);
  EXPECT_EQ(eval.relaxations_solved(), solved_once + 1);
}

TEST(Evaluator, CacheEvictionStillCorrect) {
  const Instance inst = make_instance();
  ParallelEvaluator eval(inst,
                         {.threads = 1, .relaxation_cache_capacity = 2});
  common::Rng rng(5);
  const Pricing base = mid_pricing(inst);
  const double lb0 = eval.relaxation(base)->lower_bound;
  for (int i = 0; i < 10; ++i) {
    Pricing p = base;
    p[0] = rng.uniform(0.0, 100.0);
    (void)eval.relaxation(p);
  }
  // Recomputed after eviction: same value.
  EXPECT_NEAR(eval.relaxation(base)->lower_bound, lb0, 1e-6);
}

TEST(Evaluator, EvictedRelaxationStaysValidWhileHeld) {
  // Regression: relaxation() used to return a reference into the cache map,
  // which dangled as soon as an eviction (or clear) dropped the entry. The
  // cache now hands out shared ownership, so a held relaxation survives any
  // amount of churn in a capacity-1 cache.
  const Instance inst = make_instance();
  ParallelEvaluator eval(inst,
                         {.threads = 1, .relaxation_cache_capacity = 1});
  const Pricing base = mid_pricing(inst);
  const auto held = eval.relaxation(base);
  ASSERT_NE(held, nullptr);
  const double lb0 = held->lower_bound;
  const std::vector<double> fractional = held->relaxed_x;
  common::Rng rng(7);
  for (int i = 0; i < 20; ++i) {
    Pricing p = base;
    p[0] = rng.uniform(0.0, 100.0);
    (void)eval.relaxation(p);  // each call evicts the previous entry
  }
  EXPECT_DOUBLE_EQ(held->lower_bound, lb0);
  EXPECT_EQ(held->relaxed_x, fractional);
  // And a fresh solve of the same pricing agrees with the held copy.
  EXPECT_NEAR(eval.relaxation(base)->lower_bound, lb0, 1e-6);
}

TEST(Evaluator, LowerOnlyDoesNotComputeLeaderRevenue) {
  // EvalPurpose::kLowerOnly evaluations are not charged to the UL budget and
  // must not produce a leader objective: F is computed iff it is paid for.
  const Instance inst = make_instance();
  ParallelEvaluator eval(inst, /*threads=*/1);
  const Pricing pricing = mid_pricing(inst);
  const Evaluation e = eval.evaluate_with_heuristic(
      pricing, cost_effectiveness_tree(), EvalPurpose::kLowerOnly);
  ASSERT_TRUE(e.ll_feasible);
  EXPECT_DOUBLE_EQ(e.ul_objective, 0.0);
  EXPECT_EQ(eval.ul_evaluations(), 0);
  EXPECT_EQ(eval.ll_evaluations(), 1);

  const Evaluation both = eval.evaluate_with_heuristic(
      pricing, cost_effectiveness_tree(), EvalPurpose::kBoth);
  EXPECT_DOUBLE_EQ(both.ul_objective,
                   inst.leader_revenue(pricing, both.selection));
  EXPECT_EQ(eval.ul_evaluations(), 1);
  EXPECT_EQ(eval.ll_evaluations(), 2);
}

TEST(Evaluator, LowerBoundRespondsToLeaderPrices) {
  const Instance inst = make_instance();
  ParallelEvaluator eval(inst, /*threads=*/1);
  Pricing cheap(inst.num_owned(), 0.0);
  Pricing expensive;
  for (const auto& b : inst.price_bounds()) expensive.push_back(b.hi);
  const double lb_cheap = eval.relaxation(cheap)->lower_bound;
  const double lb_expensive = eval.relaxation(expensive)->lower_bound;
  // Raising our prices can only raise (or keep) the customer's optimum.
  EXPECT_LE(lb_cheap, lb_expensive + 1e-9);
}

TEST(Evaluator, ZeroPricedOwnedBundlesAreIrresistible) {
  const Instance inst = make_instance();
  ParallelEvaluator eval(inst, /*threads=*/1);
  const Pricing freebies(inst.num_owned(), 0.0);
  const Evaluation e =
      eval.evaluate_with_heuristic(freebies, cost_effectiveness_tree());
  ASSERT_TRUE(e.ll_feasible);
  // Free bundles generate zero revenue no matter what.
  EXPECT_DOUBLE_EQ(e.ul_objective, 0.0);
}

TEST(Evaluator, GapIsNonNegativeAcrossRandomHeuristics) {
  const Instance inst = make_instance();
  ParallelEvaluator eval(inst, /*threads=*/1);
  common::Rng rng(11);
  const Pricing pricing = mid_pricing(inst);
  for (int rep = 0; rep < 25; ++rep) {
    const gp::Tree tree = gp::generate_ramped(rng);
    const Evaluation e = eval.evaluate_with_heuristic(pricing, tree);
    ASSERT_TRUE(e.ll_feasible);
    ASSERT_GE(e.gap_percent, 0.0);
  }
}

}  // namespace
}  // namespace carbon::bcpop
