// Unit tests for the carbon::guard resource-budget subsystem: the config
// surface (validate / combine_caps / enabled), the degradation ladder in
// eval_core (full LP -> Lagrangian -> greedy-only, each a weaker but valid
// lower bound), construction budgeting, node-budget exhaustion, the
// fault-injection hook firing at an exact deterministic evaluation ordinal,
// and the guard counters surfaced through BackendStats and obs metrics.
//
// The load-bearing property throughout: with every limit at its default the
// guarded paths are BITWISE identical to the historical unguarded ones.

#include "carbon/guard/guard.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <string>
#include <vector>

#include "carbon/bcpop/eval_core.hpp"
#include "carbon/bcpop/instance.hpp"
#include "carbon/bcpop/parallel_evaluator.hpp"
#include "carbon/cover/generator.hpp"
#include "carbon/gp/tree.hpp"
#include "carbon/obs/backend_stats.hpp"
#include "carbon/obs/metrics.hpp"

namespace carbon {
namespace {

using bcpop::EvalContext;
using bcpop::EvalPurpose;
using bcpop::Evaluation;
using bcpop::ParallelEvaluator;

bcpop::Instance make_instance() {
  cover::GeneratorConfig cfg;
  cfg.num_bundles = 30;
  cfg.num_services = 4;
  cfg.seed = 21;
  return bcpop::Instance(cover::generate(cfg), /*num_owned=*/3);
}

/// Every backend counter, compared by name so a mismatch says which one.
void expect_same_stats(const bcpop::BackendStats& want,
                       const bcpop::BackendStats& got) {
  for (const obs::BackendCounter& c : obs::kBackendCounters) {
    EXPECT_EQ(got.*c.member, want.*c.member) << c.journal_key;
  }
}

/// A pricing far from the base market (every owned price at its upper
/// bound), so the warm-started LP needs several pivots to re-optimize.
std::vector<double> stress_pricing(const bcpop::Instance& inst) {
  std::vector<double> p;
  for (const ea::Bounds& b : inst.price_bounds()) p.push_back(b.hi);
  return p;
}

// ---- Config surface --------------------------------------------------------

TEST(GuardConfig, CombineCapsTreatsZeroAsUnlimited) {
  EXPECT_EQ(guard::combine_caps(0, 0), 0);
  EXPECT_EQ(guard::combine_caps(5, 0), 5);
  EXPECT_EQ(guard::combine_caps(0, 7), 7);
  EXPECT_EQ(guard::combine_caps(5, 7), 5);
  EXPECT_EQ(guard::combine_caps(9, 3), 3);
}

TEST(GuardConfig, DefaultsAreUnlimitedAndDisabled) {
  const guard::GuardConfig cfg;
  EXPECT_TRUE(cfg.limits.unlimited());
  EXPECT_FALSE(cfg.enabled());
  // The Lagrangian cap has a non-zero default but is only consulted after a
  // trip, so it must not count toward "limited".
  guard::Limits l;
  l.lagrangian_iteration_cap = 123;
  EXPECT_TRUE(l.unlimited());
  l.ll_node_cap = 1;
  EXPECT_FALSE(l.unlimited());
}

TEST(GuardConfig, InjectionAloneEnablesTheGuard) {
  guard::GuardConfig cfg;
  cfg.inject.at_eval = 0;
  EXPECT_TRUE(cfg.enabled());
  EXPECT_TRUE(cfg.limits.unlimited());
}

TEST(GuardConfig, ValidateRejectsMalformedConfigs) {
  guard::GuardConfig ok;
  EXPECT_NO_THROW(guard::validate(ok));
  ok.limits.lp_iteration_cap = 10;
  ok.inject.at_eval = 5;
  EXPECT_NO_THROW(guard::validate(ok));

  guard::GuardConfig bad;
  bad.limits.lp_iteration_cap = -1;
  EXPECT_THROW(guard::validate(bad), std::invalid_argument);
  bad = {};
  bad.limits.lagrangian_iteration_cap = -2;
  EXPECT_THROW(guard::validate(bad), std::invalid_argument);
  bad = {};
  bad.limits.construction_round_cap = -1;
  EXPECT_THROW(guard::validate(bad), std::invalid_argument);
  bad = {};
  bad.limits.ll_node_cap = -3;
  EXPECT_THROW(guard::validate(bad), std::invalid_argument);
  bad = {};
  bad.limits.watchdog_seconds = -0.5;
  EXPECT_THROW(guard::validate(bad), std::invalid_argument);
  bad = {};
  bad.inject.at_eval = -2;
  EXPECT_THROW(guard::validate(bad), std::invalid_argument);
}

TEST(GuardConfig, ToStringCoversEveryEnumerator) {
  EXPECT_STREQ(to_string(guard::Rung::kFullLp), "full_lp");
  EXPECT_STREQ(to_string(guard::Rung::kLagrangian), "lagrangian");
  EXPECT_STREQ(to_string(guard::Rung::kGreedyOnly), "greedy_only");
  EXPECT_STREQ(to_string(guard::Trip::kNone), "none");
  EXPECT_STREQ(to_string(guard::Trip::kLpIterationCap), "lp_iteration_cap");
  EXPECT_STREQ(to_string(guard::Trip::kConstructionCap), "construction_cap");
  EXPECT_STREQ(to_string(guard::Trip::kNodeBudget), "node_budget");
  EXPECT_STREQ(to_string(guard::Trip::kInjected), "injected");
  EXPECT_STREQ(to_string(guard::Trip::kWatchdog), "watchdog");
}

TEST(GuardOutcome, DegradedAndTrippedPredicates) {
  guard::Outcome o;
  EXPECT_FALSE(o.degraded());
  EXPECT_FALSE(o.tripped());
  o.rung = guard::Rung::kLagrangian;
  EXPECT_TRUE(o.degraded());
  o = {};
  o.construction_capped = true;
  EXPECT_TRUE(o.degraded());
  o = {};
  o.budget_exhausted = true;
  EXPECT_TRUE(o.degraded());
  o = {};
  o.trip = guard::Trip::kWatchdog;
  EXPECT_TRUE(o.tripped());
  EXPECT_FALSE(o.degraded());  // watchdog skip sets budget_exhausted itself
}

// ---- Degradation ladder (eval_core) ----------------------------------------

TEST(GuardLadder, UnlimitedGuardIsBitwiseIdenticalToUnguarded) {
  const bcpop::Instance inst = make_instance();
  EvalContext plain(inst);
  EvalContext guarded(inst);  // default ctx.guard: unlimited
  const std::vector<double> pricing = stress_pricing(inst);
  const cover::Relaxation a =
      bcpop::solve_relaxation_from(plain, pricing, plain.baseline_basis);
  const cover::Relaxation b = bcpop::solve_relaxation_guarded(guarded, pricing);
  EXPECT_EQ(a.lower_bound, b.lower_bound);  // bitwise
  EXPECT_EQ(a.duals, b.duals);
  EXPECT_EQ(a.relaxed_x, b.relaxed_x);
  EXPECT_EQ(b.guard_rung, guard::Rung::kFullLp);
  EXPECT_EQ(b.guard_trip, guard::Trip::kNone);
}

TEST(GuardLadder, LadderOrderingIsExact) {
  // Each rung weakens the bound but keeps it valid:
  //   LB(full LP) >= LB(Lagrangian) >= LB(greedy-only) = 0.
  const bcpop::Instance inst = make_instance();
  EvalContext ctx(inst);
  const std::vector<double> pricing = stress_pricing(inst);

  const cover::Relaxation full = bcpop::solve_relaxation_guarded(ctx, pricing);
  ASSERT_TRUE(full.feasible);
  ASSERT_EQ(full.guard_rung, guard::Rung::kFullLp);

  const cover::Relaxation lagr = bcpop::solve_relaxation_guarded(
      ctx, pricing, guard::Trip::kInjected, guard::Rung::kLagrangian);
  ASSERT_TRUE(lagr.feasible);
  EXPECT_EQ(lagr.guard_rung, guard::Rung::kLagrangian);
  EXPECT_EQ(lagr.guard_trip, guard::Trip::kInjected);

  const cover::Relaxation greedy = bcpop::solve_relaxation_guarded(
      ctx, pricing, guard::Trip::kInjected, guard::Rung::kGreedyOnly);
  ASSERT_TRUE(greedy.feasible);
  EXPECT_EQ(greedy.guard_rung, guard::Rung::kGreedyOnly);
  EXPECT_EQ(greedy.lower_bound, 0.0);
  EXPECT_TRUE(greedy.duals.empty());
  EXPECT_TRUE(greedy.relaxed_x.empty());

  EXPECT_GE(full.lower_bound, lagr.lower_bound - 1e-9);
  EXPECT_GE(lagr.lower_bound, 0.0);
  EXPECT_GT(full.lower_bound, 0.0);
}

TEST(GuardLadder, LadderPositionIsAPureFunctionOfInputs) {
  // Same pricing, same limits, fresh contexts -> bit-identical degraded
  // relaxations (the property that lets degradations ride the cache).
  const bcpop::Instance inst = make_instance();
  const std::vector<double> pricing = stress_pricing(inst);
  cover::Relaxation first;
  for (int run = 0; run < 2; ++run) {
    EvalContext ctx(inst);
    ctx.guard.lp_iteration_cap = 1;
    const cover::Relaxation r = bcpop::solve_relaxation_guarded(ctx, pricing);
    if (run == 0) {
      first = r;
    } else {
      EXPECT_EQ(first.guard_rung, r.guard_rung);
      EXPECT_EQ(first.guard_trip, r.guard_trip);
      EXPECT_EQ(first.lower_bound, r.lower_bound);  // bitwise
      EXPECT_EQ(first.guard_nodes, r.guard_nodes);
    }
  }
}

TEST(GuardLadder, LpIterationCapFallsToLagrangian) {
  const bcpop::Instance inst = make_instance();
  const std::vector<double> pricing = stress_pricing(inst);
  // Establish how many pivots the uncapped solve needs; the stress pricing
  // moves every owned price to its bound, so the baseline basis cannot
  // already be optimal.
  EvalContext probe(inst);
  const cover::Relaxation full = bcpop::solve_relaxation_guarded(probe, pricing);
  ASSERT_GT(full.guard_nodes, 1) << "stress pricing did not force pivots";

  EvalContext ctx(inst);
  ctx.guard.lp_iteration_cap = full.guard_nodes - 1;
  const cover::Relaxation capped = bcpop::solve_relaxation_guarded(ctx, pricing);
  ASSERT_TRUE(capped.feasible);
  EXPECT_EQ(capped.guard_rung, guard::Rung::kLagrangian);
  EXPECT_EQ(capped.guard_trip, guard::Trip::kLpIterationCap);
  EXPECT_LE(capped.lower_bound, full.lower_bound + 1e-9);
  EXPECT_GE(capped.lower_bound, 0.0);
  // The node charge records bound work: the capped pivots plus the
  // subgradient iterations that produced the fallback bound.
  EXPECT_GT(capped.guard_nodes, 0);

  // A cap the solve fits under changes nothing. The simplex checks the
  // limit before it can detect optimality, so "fits" needs one spare.
  EvalContext roomy(inst);
  roomy.guard.lp_iteration_cap = full.guard_nodes + 1;
  const cover::Relaxation fits = bcpop::solve_relaxation_guarded(roomy, pricing);
  EXPECT_EQ(fits.guard_rung, guard::Rung::kFullLp);
  EXPECT_EQ(fits.guard_trip, guard::Trip::kNone);
  EXPECT_EQ(fits.lower_bound, full.lower_bound);  // bitwise
}

TEST(GuardLadder, ZeroLagrangianCapSkipsStraightToGreedyOnly) {
  const bcpop::Instance inst = make_instance();
  EvalContext ctx(inst);
  ctx.guard.lp_iteration_cap = 1;
  ctx.guard.lagrangian_iteration_cap = 0;
  const std::vector<double> pricing = stress_pricing(inst);
  const cover::Relaxation r = bcpop::solve_relaxation_guarded(ctx, pricing);
  ASSERT_TRUE(r.feasible);
  EXPECT_EQ(r.guard_rung, guard::Rung::kGreedyOnly);
  EXPECT_EQ(r.guard_trip, guard::Trip::kLpIterationCap);
  EXPECT_EQ(r.lower_bound, 0.0);
}

// ---- Construction budgeting ------------------------------------------------

TEST(GuardPlan, PlanConstructionCombinesRoundAndNodeCaps) {
  cover::Relaxation relax;
  relax.guard_nodes = 7;

  guard::Limits unlimited;
  bcpop::ConstructionBudget plan = bcpop::plan_construction(unlimited, relax);
  EXPECT_FALSE(plan.skip);
  EXPECT_EQ(plan.options.max_rounds, 0);

  guard::Limits rounds_only;
  rounds_only.construction_round_cap = 5;
  plan = bcpop::plan_construction(rounds_only, relax);
  EXPECT_FALSE(plan.skip);
  EXPECT_EQ(plan.options.max_rounds, 5);

  guard::Limits nodes_only;
  nodes_only.ll_node_cap = 10;  // bound spent 7 -> 3 rounds remain
  plan = bcpop::plan_construction(nodes_only, relax);
  EXPECT_FALSE(plan.skip);
  EXPECT_EQ(plan.options.max_rounds, 3);

  guard::Limits both;
  both.construction_round_cap = 2;
  both.ll_node_cap = 10;
  plan = bcpop::plan_construction(both, relax);
  EXPECT_EQ(plan.options.max_rounds, 2);  // min(2, 3)

  guard::Limits exhausted;
  exhausted.ll_node_cap = 7;  // nothing left after the bound
  plan = bcpop::plan_construction(exhausted, relax);
  EXPECT_TRUE(plan.skip);
}

// ---- Evaluator-level behavior ----------------------------------------------

TEST(GuardEvaluator, DefaultGuardLeavesEvaluationsBitIdentical) {
  const bcpop::Instance inst = make_instance();
  const gp::Tree tree = gp::parse("(div QCOV COST)");
  const std::vector<double> pricing = stress_pricing(inst);

  ParallelEvaluator plain(inst, /*threads=*/1);
  ParallelEvaluator guarded(inst, /*threads=*/1);
  guarded.set_guard(guard::GuardConfig{}, 0);

  const Evaluation a = plain.evaluate_with_heuristic(pricing, tree);
  const Evaluation b = guarded.evaluate_with_heuristic(pricing, tree);
  EXPECT_EQ(a, b);  // field-wise, doubles bitwise
  EXPECT_EQ(b.guard, guard::Outcome{});

  const bcpop::BackendStats stats = guarded.backend_stats();
  EXPECT_EQ(stats.guard_trips, 0);
  EXPECT_EQ(stats.guard_degraded_evals, 0);
  EXPECT_EQ(stats.guard_budget_exhausted, 0);
}

TEST(GuardEvaluator, InjectionFiresAtTheExactOrdinalOnly) {
  const bcpop::Instance inst = make_instance();
  const gp::Tree tree = gp::parse("(div QCOV COST)");
  const std::vector<double> pricing = stress_pricing(inst);

  ParallelEvaluator eval(inst, /*threads=*/1);
  obs::MetricsRegistry metrics;
  eval.set_metrics(&metrics);
  guard::GuardConfig cfg;
  cfg.inject.at_eval = 2;
  cfg.inject.degrade_to = guard::Rung::kLagrangian;
  eval.set_guard(cfg, eval.ll_evaluations());

  for (int i = 0; i < 5; ++i) {
    const Evaluation e =
        eval.evaluate_with_heuristic(pricing, tree, EvalPurpose::kLowerOnly);
    if (i == 2) {
      EXPECT_EQ(e.guard.trip, guard::Trip::kInjected) << "eval " << i;
      EXPECT_EQ(e.guard.rung, guard::Rung::kLagrangian);
      EXPECT_TRUE(e.ll_feasible);  // degraded, still a valid evaluation
    } else {
      EXPECT_EQ(e.guard, guard::Outcome{}) << "eval " << i;
    }
  }
  const bcpop::BackendStats stats = eval.backend_stats();
  EXPECT_EQ(stats.guard_trips, 1);
  EXPECT_EQ(stats.guard_degraded_evals, 1);
  EXPECT_EQ(stats.guard_budget_exhausted, 0);
  const auto snap = metrics.snapshot();
  EXPECT_EQ(snap.counters.at("guard/trips"), 1);
  EXPECT_EQ(snap.counters.at("guard/degraded_evals"), 1);
  EXPECT_EQ(snap.counters.count("guard/budget_exhausted"), 0u);
}

TEST(GuardEvaluator, InjectionHonorsEvalBaseAcrossResume) {
  // Simulates the solver's resume wiring: an evaluator that already served
  // `consumed` evaluations gets eval_base = ll_evaluations() - consumed.
  // An injection ordinal BELOW consumed lands under the current counter and
  // must never fire; one above fires at the same logical run evaluation.
  const bcpop::Instance inst = make_instance();
  const gp::Tree tree = gp::parse("(div QCOV COST)");
  const std::vector<double> pricing = stress_pricing(inst);

  ParallelEvaluator eval(inst, /*threads=*/1);
  for (int i = 0; i < 3; ++i) {  // the "pre-checkpoint" segment
    (void)eval.evaluate_with_heuristic(pricing, tree, EvalPurpose::kLowerOnly);
  }
  guard::GuardConfig cfg;
  cfg.inject.at_eval = 1;  // already happened in the resumed-from segment
  eval.set_guard(cfg, eval.ll_evaluations() - 3);
  for (int i = 0; i < 3; ++i) {
    const Evaluation e =
        eval.evaluate_with_heuristic(pricing, tree, EvalPurpose::kLowerOnly);
    EXPECT_EQ(e.guard, guard::Outcome{}) << "resumed eval " << i;
  }
  EXPECT_EQ(eval.backend_stats().guard_trips, 0);

  cfg.inject.at_eval = 7;  // logical-run ordinal in the post-resume segment
  eval.set_guard(cfg, eval.ll_evaluations() - 6);
  for (int i = 6; i < 9; ++i) {
    const Evaluation e =
        eval.evaluate_with_heuristic(pricing, tree, EvalPurpose::kLowerOnly);
    EXPECT_EQ(e.guard.trip,
              i == 7 ? guard::Trip::kInjected : guard::Trip::kNone)
        << "resumed eval " << i;
  }
  EXPECT_EQ(eval.backend_stats().guard_trips, 1);
}

TEST(GuardEvaluator, TinyNodeBudgetExhaustsBeforeConstruction) {
  const bcpop::Instance inst = make_instance();
  const gp::Tree tree = gp::parse("(div QCOV COST)");
  const std::vector<double> pricing = stress_pricing(inst);

  ParallelEvaluator eval(inst, /*threads=*/1);
  guard::GuardConfig cfg;
  cfg.limits.ll_node_cap = 1;  // the bound alone exceeds this
  cfg.limits.lagrangian_iteration_cap = 1;
  eval.set_guard(cfg, 0);
  const Evaluation e = eval.evaluate_with_heuristic(pricing, tree);
  EXPECT_FALSE(e.ll_feasible);
  EXPECT_TRUE(e.guard.budget_exhausted);
  EXPECT_TRUE(e.guard.tripped());
  EXPECT_EQ(e.gap_percent, 1e9);
  EXPECT_EQ(e.selection.size(), inst.num_bundles());
  for (const std::uint8_t s : e.selection) EXPECT_EQ(s, 0);

  const bcpop::BackendStats stats = eval.backend_stats();
  EXPECT_EQ(stats.guard_budget_exhausted, 1);
  EXPECT_EQ(stats.guard_degraded_evals, 1);
  EXPECT_EQ(stats.guard_trips, 1);
}

TEST(GuardEvaluator, ConstructionRoundCapMarksOutcome) {
  const bcpop::Instance inst = make_instance();
  const gp::Tree tree = gp::parse("(div QCOV COST)");
  const std::vector<double> pricing = stress_pricing(inst);

  // How many selection rounds does the unguarded greedy need?
  ParallelEvaluator probe(inst, /*threads=*/1);
  const Evaluation full = probe.evaluate_with_heuristic(pricing, tree);
  ASSERT_TRUE(full.ll_feasible);
  long long bundles_picked = 0;
  for (const std::uint8_t s : full.selection) bundles_picked += s;
  ASSERT_GT(bundles_picked, 1);

  ParallelEvaluator eval(inst, /*threads=*/1);
  guard::GuardConfig cfg;
  cfg.limits.construction_round_cap = 1;  // can't cover with one selection
  eval.set_guard(cfg, 0);
  const Evaluation e = eval.evaluate_with_heuristic(pricing, tree);
  EXPECT_FALSE(e.ll_feasible);
  EXPECT_TRUE(e.guard.construction_capped);
  EXPECT_EQ(e.guard.trip, guard::Trip::kConstructionCap);
  EXPECT_EQ(eval.backend_stats().guard_trips, 1);

  // A cap with room to spare reproduces the unguarded result bitwise.
  ParallelEvaluator roomy(inst, /*threads=*/1);
  cfg.limits.construction_round_cap = bundles_picked;
  roomy.set_guard(cfg, 0);
  const Evaluation same = roomy.evaluate_with_heuristic(pricing, tree);
  EXPECT_EQ(same, full);
}

TEST(GuardEvaluator, BatchInjectionMatchesScalarCallSequence) {
  // The batch path must charge the injected trip to the same job ordinal as
  // a serial scalar call sequence.
  const bcpop::Instance inst = make_instance();
  const gp::Tree tree_a = gp::parse("(div QCOV COST)");
  const gp::Tree tree_b = gp::parse("(mul DUAL QCOV)");
  const std::vector<double> p1 = stress_pricing(inst);
  std::vector<double> p2 = p1;
  for (double& x : p2) x *= 0.5;

  std::vector<bcpop::HeuristicJob> jobs;
  jobs.push_back({p1, &tree_a, EvalPurpose::kLowerOnly});
  jobs.push_back({p2, &tree_b, EvalPurpose::kLowerOnly});
  jobs.push_back({p2, &tree_a, EvalPurpose::kLowerOnly});
  jobs.push_back({p1, &tree_a, EvalPurpose::kLowerOnly});  // dup of job 0
  jobs.push_back({p1, &tree_b, EvalPurpose::kLowerOnly});

  guard::GuardConfig cfg;
  cfg.inject.at_eval = 3;  // the duplicate job
  cfg.inject.degrade_to = guard::Rung::kGreedyOnly;

  ParallelEvaluator scalar(inst, /*threads=*/1);
  scalar.set_guard(cfg, 0);
  std::vector<Evaluation> want;
  for (const bcpop::HeuristicJob& job : jobs) {
    want.push_back(scalar.evaluate_with_heuristic(job.pricing,
                                                  *job.heuristic,
                                                  job.purpose));
  }

  ParallelEvaluator batch(inst, /*threads=*/1);
  batch.set_guard(cfg, 0);
  const std::vector<Evaluation> got = batch.evaluate_heuristic_batch(jobs);

  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    SCOPED_TRACE("job " + std::to_string(i));
    EXPECT_EQ(got[i], want[i]);
  }
  EXPECT_EQ(got[3].guard.trip, guard::Trip::kInjected);
  EXPECT_EQ(got[3].guard.rung, guard::Rung::kGreedyOnly);
  // The whole ledger agrees but for one entry: job 3 repeats job 0, which
  // the batch answers from its own plan (a dedup hit) and the call sequence
  // from the cross-generation memo (a score-cache hit).
  bcpop::BackendStats want_stats = scalar.backend_stats();
  ASSERT_EQ(want_stats.score_cache_hits, 1);
  want_stats.score_cache_hits = 0;
  want_stats.heuristic_dedup_hits += 1;
  expect_same_stats(want_stats, batch.backend_stats());
}

TEST(GuardEvaluator, InjectedScalarCallIsItsOneJobBatch) {
  // A scalar call is a one-job batch: the injected job probes and fills the
  // score memo and the relaxation cache like its batch twin (the memoized
  // entry is the full-fidelity result), so a repeat hits both.
  const bcpop::Instance inst = make_instance();
  const gp::Tree tree = gp::parse("(div QCOV COST)");
  const std::vector<double> pricing = stress_pricing(inst);
  const std::vector<bcpop::HeuristicJob> job = {
      {pricing, &tree, EvalPurpose::kLowerOnly}};

  guard::GuardConfig cfg;
  cfg.inject.at_eval = 0;
  ParallelEvaluator scalar(inst, /*threads=*/1);
  ParallelEvaluator batch(inst, /*threads=*/1);
  scalar.set_guard(cfg, 0);
  batch.set_guard(cfg, 0);

  const Evaluation injected =
      scalar.evaluate_with_heuristic(pricing, tree, EvalPurpose::kLowerOnly);
  EXPECT_EQ(injected.guard.trip, guard::Trip::kInjected);
  EXPECT_EQ(batch.evaluate_heuristic_batch(job).front(), injected);
  expect_same_stats(scalar.backend_stats(), batch.backend_stats());

  const Evaluation repeat =
      scalar.evaluate_with_heuristic(pricing, tree, EvalPurpose::kLowerOnly);
  EXPECT_EQ(repeat.guard, guard::Outcome{});
  EXPECT_EQ(batch.evaluate_heuristic_batch(job).front(), repeat);
  expect_same_stats(scalar.backend_stats(), batch.backend_stats());
  EXPECT_EQ(scalar.backend_stats().score_cache_hits, 1);
  EXPECT_EQ(scalar.backend_stats().relaxation_cache_misses, 1);
}

TEST(GuardEvaluator, SelectionPathHonorsInjectionAndCaps) {
  const bcpop::Instance inst = make_instance();
  const std::vector<double> pricing = stress_pricing(inst);
  const std::vector<std::uint8_t> empty_genome(inst.num_bundles(), 0);

  ParallelEvaluator eval(inst, /*threads=*/1);
  guard::GuardConfig cfg;
  cfg.inject.at_eval = 1;
  eval.set_guard(cfg, 0);
  const Evaluation first =
      eval.evaluate_with_selection(pricing, empty_genome);
  EXPECT_EQ(first.guard, guard::Outcome{});
  const Evaluation second =
      eval.evaluate_with_selection(pricing, empty_genome);
  EXPECT_EQ(second.guard.trip, guard::Trip::kInjected);
  EXPECT_EQ(second.guard.rung, guard::Rung::kLagrangian);
  // The repair still runs: a degraded bound weakens the gap, not coverage.
  EXPECT_TRUE(second.ll_feasible);
  EXPECT_EQ(second.ll_objective, first.ll_objective);  // same cover, bitwise
}

TEST(GuardEvaluator, ScorePathHonorsInjection) {
  // evaluate_cost_effectiveness (the nested-GA baseline's entry point)
  // charges and trips like a one-job batch.
  const bcpop::Instance inst = make_instance();
  const std::vector<double> pricing = stress_pricing(inst);

  ParallelEvaluator eval(inst, /*threads=*/1);
  guard::GuardConfig cfg;
  cfg.inject.at_eval = 1;
  eval.set_guard(cfg, 0);
  const Evaluation first = eval.evaluate_cost_effectiveness(pricing);
  EXPECT_EQ(first.guard, guard::Outcome{});
  const Evaluation second = eval.evaluate_cost_effectiveness(pricing);
  EXPECT_EQ(second.guard.trip, guard::Trip::kInjected);
  EXPECT_EQ(second.guard.rung, guard::Rung::kLagrangian);
  EXPECT_TRUE(second.ll_feasible);
  EXPECT_EQ(second.selection, first.selection);  // bound-independent score
  EXPECT_EQ(eval.ul_evaluations(), 2);
  EXPECT_EQ(eval.ll_evaluations(), 2);
}

TEST(GuardEvaluator, WatchdogSkipsTheMissOwnerUnderBothWarmStarts) {
  // The opt-in wall-clock watchdog times each staged relaxation solve; one
  // over the limit skips construction (Trip::kWatchdog) for the job that
  // owned the miss. A limit far below any real solve time makes every miss
  // expire, so the outcome below does not depend on machine speed.
  const bcpop::Instance inst = make_instance();
  const gp::Tree tree = gp::parse("(div QCOV COST)");
  const std::vector<double> p1 = stress_pricing(inst);
  std::vector<double> p2 = p1;
  for (double& x : p2) x *= 0.5;
  std::vector<double> p3 = p1;
  for (double& x : p3) x *= 0.25;
  const std::vector<std::uint8_t> empty_genome(inst.num_bundles(), 0);

  for (const bcpop::LpWarm warm :
       {bcpop::LpWarm::kBaseline, bcpop::LpWarm::kPool}) {
    SCOPED_TRACE(bcpop::to_string(warm));
    ParallelEvaluator eval(inst, {.threads = 1, .lp_warm = warm});
    guard::GuardConfig cfg;
    cfg.limits.watchdog_seconds = 1e-12;
    eval.set_guard(cfg, 0);

    // Scalar path: the first evaluation owns the miss and is skipped.
    const Evaluation skipped = eval.evaluate_with_heuristic(p1, tree);
    EXPECT_EQ(skipped.guard.trip, guard::Trip::kWatchdog);
    EXPECT_TRUE(skipped.guard.budget_exhausted);
    EXPECT_FALSE(skipped.ll_feasible);
    EXPECT_EQ(skipped.gap_percent, 1e9);
    // The cached relaxation stays full-fidelity: a repeat is a cache hit,
    // solves nothing, and constructs normally.
    const Evaluation repeat = eval.evaluate_with_heuristic(p1, tree);
    EXPECT_EQ(repeat.guard, guard::Outcome{});
    EXPECT_TRUE(repeat.ll_feasible);
    EXPECT_EQ(repeat.lower_bound, skipped.lower_bound);

    // Selection batch: only the job that owned the miss is skipped; its
    // in-batch duplicate reads the relaxation back as a hit.
    const std::vector<bcpop::SelectionJob> genomes = {
        {p2, empty_genome, EvalPurpose::kBoth},
        {p2, empty_genome, EvalPurpose::kBoth}};
    const std::vector<Evaluation> repaired =
        eval.evaluate_selection_batch(genomes);
    EXPECT_EQ(repaired[0].guard.trip, guard::Trip::kWatchdog);
    EXPECT_TRUE(repaired[0].guard.budget_exhausted);
    EXPECT_EQ(repaired[1].guard, guard::Outcome{});
    EXPECT_TRUE(repaired[1].ll_feasible);

    // Heuristic batch: a fresh pricing expires the same way.
    const std::vector<bcpop::HeuristicJob> heuristics = {
        {p3, &tree, EvalPurpose::kBoth}};
    EXPECT_EQ(eval.evaluate_heuristic_batch(heuristics)[0].guard.trip,
              guard::Trip::kWatchdog);

    // The score memo stays suspended while the watchdog is armed: never
    // probed, never filled.
    EXPECT_EQ(eval.score_cache().size(), 0u);
    EXPECT_EQ(eval.score_cache().hits(), 0);
    EXPECT_EQ(eval.score_cache().misses(), 0);
    const bcpop::BackendStats stats = eval.backend_stats();
    EXPECT_EQ(stats.guard_budget_exhausted, 3);
    EXPECT_EQ(stats.guard_trips, 3);
    EXPECT_EQ(stats.relaxation_cache_misses, 3);
  }
}

}  // namespace
}  // namespace carbon
