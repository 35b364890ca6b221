// Whole-run guard-rail harness: deterministic degradation under budget caps
// and fault injection (docs/ALGORITHMS.md §13).
//
// The contracts under test:
//   * An injected degradation at evaluation #k produces a bit-identical
//     trajectory across eval_threads {1, 4} —
//     the injection ordinal counts charged evaluations in submission order,
//     which no batching or threading may reorder.
//   * Killing an injected run at a checkpoint and resuming reproduces the
//     uninterrupted injected trajectory bit for bit; an injection that
//     already fired before the checkpoint never re-fires after resume.
//   * Tight deterministic caps (LP iteration cap) degrade evaluations onto
//     the Lagrangian rung without breaking cross-thread bit-identity — a
//     cap-induced degradation is a pure function of (pricing, limits), so
//     it must survive the relaxation cache and any evaluation order.
//   * The default (unlimited) guard is inert: trajectories equal the
//     unguarded golden and every guard counter stays zero, which is what
//     lets the golden fixtures stay unregenerated.

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "carbon/cobra/cobra_solver.hpp"
#include "carbon/core/carbon_solver.hpp"
#include "carbon/obs/metrics.hpp"
#include "carbon/obs/run_journal.hpp"
#include "common/temp_dir.hpp"
#include "golden_common.hpp"

namespace carbon {
namespace {

using golden::Trajectory;
using golden::expect_same_trajectory;
using golden::make_instance;
using golden::parse_journal;
using golden::trajectory_of;

long long counter_or_zero(const obs::MetricsRegistry::Snapshot& snap,
                          const std::string& name) {
  const auto it = snap.counters.find(name);
  return it == snap.counters.end() ? 0 : it->second;
}

TEST(GuardDegradation, CarbonInjectionIsThreadAndCompilationInvariant) {
  const bcpop::Instance inst = make_instance();

  // Probe the run length so the injection ordinal is guaranteed to land
  // inside the run (budget accounting is unchanged by degradation, so the
  // injected runs consume exactly as many evaluations).
  const core::CarbonResult probe =
      core::CarbonSolver(inst, golden::carbon_config()).run();
  ASSERT_GT(probe.ll_evaluations, 4);
  const long long inject_at = probe.ll_evaluations / 2;

  Trajectory golden_injected;
  bool have_golden = false;
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    core::CarbonConfig cfg = golden::carbon_config();
    cfg.eval_threads = threads;
    cfg.guard.inject.at_eval = inject_at;
    cfg.guard.inject.degrade_to = guard::Rung::kLagrangian;
    obs::MetricsRegistry metrics;
    cfg.telemetry.metrics = &metrics;

    const Trajectory got =
        trajectory_of(core::CarbonSolver(inst, cfg).run());
    const std::string label = "threads=" + std::to_string(threads);
    const auto snap = metrics.snapshot();
    EXPECT_EQ(counter_or_zero(snap, "guard/trips"), 1) << label;
    EXPECT_EQ(counter_or_zero(snap, "guard/degraded_evals"), 1) << label;
    if (!have_golden) {
      golden_injected = got;
      have_golden = true;
    } else {
      expect_same_trajectory(golden_injected, got, label);
    }
  }
}

TEST(GuardDegradation, CobraInjectionIsThreadAndCompilationInvariant) {
  const bcpop::Instance inst = make_instance();

  const core::RunResult probe =
      cobra::CobraSolver(inst, golden::cobra_config()).run();
  ASSERT_GT(probe.ll_evaluations, 4);
  const long long inject_at = probe.ll_evaluations / 2;

  Trajectory golden_injected;
  bool have_golden = false;
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    cobra::CobraConfig cfg = golden::cobra_config();
    cfg.eval_threads = threads;
    cfg.guard.inject.at_eval = inject_at;
    obs::MetricsRegistry metrics;
    cfg.telemetry.metrics = &metrics;

    const Trajectory got =
        trajectory_of(cobra::CobraSolver(inst, cfg).run());
    const std::string label = "threads=" + std::to_string(threads);
    EXPECT_EQ(counter_or_zero(metrics.snapshot(), "guard/trips"), 1)
        << label;
    if (!have_golden) {
      golden_injected = got;
      have_golden = true;
    } else {
      expect_same_trajectory(golden_injected, got, label);
    }
  }
}

TEST(GuardDegradation, CarbonInjectedKillResumeIsBitIdentical) {
  const bcpop::Instance inst = make_instance();
  const core::CarbonResult probe =
      core::CarbonSolver(inst, golden::carbon_config()).run();
  ASSERT_GT(trajectory_of(probe).generations, 3);

  // Two injection ordinals bracket the checkpoint at generation 2: one
  // fires in the pre-kill segment (and must NOT re-fire after resume — the
  // solver rebases the ordinal against the budget already consumed), one
  // fires only in the resumed segment.
  const long long ordinals[] = {5, probe.ll_evaluations - 3};
  for (const long long inject_at : ordinals) {
    const std::string label = "inject_at=" + std::to_string(inject_at);

    // Uninterrupted injected run: the bitwise reference. The injection must
    // actually fire, or this test would pass vacuously.
    core::CarbonConfig full = golden::carbon_config();
    full.guard.inject.at_eval = inject_at;
    obs::MetricsRegistry full_metrics;
    full.telemetry.metrics = &full_metrics;
    const Trajectory reference =
        trajectory_of(core::CarbonSolver(inst, full).run());
    ASSERT_EQ(counter_or_zero(full_metrics.snapshot(), "guard/trips"), 1)
        << label;

    // Kill right after the checkpoint at generation 2, then resume.
    const std::string path =
        carbon::test::test_temp_dir() + "inject-" +
        std::to_string(inject_at) + ".ckpt";
    core::CarbonConfig part = golden::carbon_config();
    part.guard.inject.at_eval = inject_at;
    part.checkpoint.every = 2;
    part.checkpoint.path = path;
    int killed_at = 0;
    part.checkpoint.stop_after_checkpoint = [&](int gen) {
      killed_at = gen;
      return true;
    };
    (void)core::CarbonSolver(inst, part).run();
    ASSERT_EQ(killed_at, 2) << label;

    core::CarbonConfig resume = golden::carbon_config();
    resume.guard.inject.at_eval = inject_at;
    resume.checkpoint.resume_from = path;
    obs::MetricsRegistry resume_metrics;
    resume.telemetry.metrics = &resume_metrics;
    const Trajectory resumed =
        trajectory_of(core::CarbonSolver(inst, resume).run());
    expect_same_trajectory(reference, resumed, "resumed " + label);
    // The resumed segment re-fires the injection if and only if its
    // ordinal lies beyond the checkpoint's consumed budget.
    const long long resumed_trips =
        counter_or_zero(resume_metrics.snapshot(), "guard/trips");
    if (inject_at == ordinals[0]) {
      EXPECT_EQ(resumed_trips, 0) << label << ": pre-checkpoint injection "
                                              "re-fired after resume";
    } else {
      EXPECT_EQ(resumed_trips, 1) << label;
    }
  }
}

TEST(GuardDegradation, CobraInjectedKillResumeIsBitIdentical) {
  const bcpop::Instance inst = make_instance();
  const core::RunResult probe =
      cobra::CobraSolver(inst, golden::cobra_config()).run();
  ASSERT_GT(trajectory_of(probe).generations, 3);

  const long long inject_at = probe.ll_evaluations - 3;
  cobra::CobraConfig full = golden::cobra_config();
  full.guard.inject.at_eval = inject_at;
  obs::MetricsRegistry full_metrics;
  full.telemetry.metrics = &full_metrics;
  const Trajectory reference =
      trajectory_of(cobra::CobraSolver(inst, full).run());
  ASSERT_EQ(counter_or_zero(full_metrics.snapshot(), "guard/trips"), 1);

  const std::string path = carbon::test::test_temp_dir() + "cobra.ckpt";
  cobra::CobraConfig part = golden::cobra_config();
  part.guard.inject.at_eval = inject_at;
  part.checkpoint.every = 2;
  part.checkpoint.path = path;
  int killed_at = 0;
  part.checkpoint.stop_after_checkpoint = [&](int gen) {
    killed_at = gen;
    return true;
  };
  (void)cobra::CobraSolver(inst, part).run();
  ASSERT_GT(killed_at, 0);

  cobra::CobraConfig resume = golden::cobra_config();
  resume.guard.inject.at_eval = inject_at;
  resume.checkpoint.resume_from = path;
  const Trajectory resumed =
      trajectory_of(cobra::CobraSolver(inst, resume).run());
  expect_same_trajectory(reference, resumed, "cobra resumed");
}

TEST(GuardDegradation, CarbonTightLpCapDegradesDeterministically) {
  // lp_iteration_cap = 1: nearly every pricing needs more than one pivot
  // from the fixed baseline basis, so most evaluations fall to the
  // Lagrangian rung. The run must stay deterministic across thread counts
  // — cap-induced degradations are pure functions of (pricing, limits) and
  // ride the relaxation cache.
  const bcpop::Instance inst = make_instance();

  Trajectory golden_capped;
  bool have_golden = false;
  long long golden_trips = -1;
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    core::CarbonConfig cfg = golden::carbon_config();
    cfg.eval_threads = threads;
    cfg.guard.limits.lp_iteration_cap = 1;
    obs::MetricsRegistry metrics;
    cfg.telemetry.metrics = &metrics;

    const Trajectory got =
        trajectory_of(core::CarbonSolver(inst, cfg).run());
    const std::string label = "threads=" + std::to_string(threads);
    const long long trips =
        counter_or_zero(metrics.snapshot(), "guard/trips");
    EXPECT_GT(trips, 0) << label;
    if (!have_golden) {
      golden_capped = got;
      golden_trips = trips;
      have_golden = true;
    } else {
      expect_same_trajectory(golden_capped, got, label);
      EXPECT_EQ(trips, golden_trips) << label;
    }
  }
}

TEST(GuardDegradation, CarbonTinyNodeBudgetStillTerminates) {
  // A node budget too small for even the bound leaves every evaluation
  // skipped (infeasible, pessimal gap) — the run must degrade gracefully:
  // terminate on its budget, produce a trajectory, and count the skips.
  const bcpop::Instance inst = make_instance();
  core::CarbonConfig cfg = golden::carbon_config();
  cfg.guard.limits.ll_node_cap = 1;
  obs::MetricsRegistry metrics;
  cfg.telemetry.metrics = &metrics;

  const core::CarbonResult r = core::CarbonSolver(inst, cfg).run();
  EXPECT_GT(r.generations, 0);
  EXPECT_GT(r.ll_evaluations, 0);
  const auto snap = metrics.snapshot();
  EXPECT_GT(counter_or_zero(snap, "guard/budget_exhausted"), 0);
  EXPECT_EQ(counter_or_zero(snap, "guard/budget_exhausted"),
            counter_or_zero(snap, "guard/degraded_evals"));

  // Determinism holds here too.
  obs::MetricsRegistry metrics2;
  core::CarbonConfig cfg2 = golden::carbon_config();
  cfg2.guard.limits.ll_node_cap = 1;
  cfg2.eval_threads = 4;
  cfg2.telemetry.metrics = &metrics2;
  const core::CarbonResult r2 = core::CarbonSolver(inst, cfg2).run();
  expect_same_trajectory(trajectory_of(r), trajectory_of(r2),
                         "node-cap threads=4");
}

TEST(GuardDegradation, DefaultGuardIsInertAndCountsZero) {
  // The acceptance criterion that keeps the golden fixtures valid: an
  // explicitly-defaulted guard changes nothing, and the journal's summary
  // reports all guard counters as zero.
  const bcpop::Instance inst = make_instance();
  const Trajectory unguarded =
      trajectory_of(core::CarbonSolver(inst, golden::carbon_config()).run());

  core::CarbonConfig cfg = golden::carbon_config();
  cfg.guard = guard::GuardConfig{};  // explicit default
  obs::MetricsRegistry metrics;
  std::ostringstream sink;
  obs::RunJournal journal(sink, &metrics);
  cfg.telemetry.metrics = &metrics;
  cfg.telemetry.journal = &journal;

  const Trajectory guarded =
      trajectory_of(core::CarbonSolver(inst, cfg).run());
  expect_same_trajectory(unguarded, guarded, "default guard");

  const auto snap = metrics.snapshot();
  EXPECT_EQ(counter_or_zero(snap, "guard/trips"), 0);
  EXPECT_EQ(counter_or_zero(snap, "guard/degraded_evals"), 0);
  EXPECT_EQ(counter_or_zero(snap, "guard/budget_exhausted"), 0);

  const auto records = parse_journal(sink.str());
  ASSERT_FALSE(records.empty());
  const obs::JsonValue& summary = records.back();
  ASSERT_EQ(summary.at("type").as_string(), "summary");
  const obs::JsonValue& backend = summary.at("backend");
  EXPECT_EQ(backend.at("guard_trips").as_integer(), 0);
  EXPECT_EQ(backend.at("guard_degraded").as_integer(), 0);
  EXPECT_EQ(backend.at("guard_exhausted").as_integer(), 0);
}

}  // namespace
}  // namespace carbon
