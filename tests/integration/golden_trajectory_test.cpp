// Golden-trajectory regression harness: the per-generation best-objective
// sequence of a fixed-seed run must be bit-identical to the trajectory
// frozen in golden_common.hpp, across every implementation axis that
// claims trajectory neutrality —
//   simd in {auto, scalar}  x  eval_threads in {1, 4}
//   x  telemetry in {off, metrics+journal}
// for CARBON (whose score memo must serve hits without moving a bit), and
// eval_threads in {1, 4} for COBRA. A regression in the parallel reduction
// order, the compiled scorer, the score memo, the SIMD kernels' bit-identity
// contract, or an instrumentation site that consumes RNG shows up here as a
// diverging trajectory, not as a flaky end-result comparison. The reference is a literal, not a run of
// some other code path, so deleting or rewriting an evaluator cannot move
// the baseline along with it.

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "carbon/cobra/cobra_solver.hpp"
#include "carbon/common/simd_path.hpp"
#include "carbon/core/carbon_solver.hpp"
#include "carbon/obs/json.hpp"
#include "carbon/obs/run_journal.hpp"
#include "golden_common.hpp"

namespace carbon {
namespace {

using golden::Trajectory;
using golden::carbon_config;
using golden::cobra_config;
using golden::expect_same_trajectory;
using golden::make_instance;
using golden::parse_journal;
using golden::trajectory_of;

TEST(GoldenTrajectory, CarbonIsInvariantAcrossSimdThreadsTelemetry) {
  const bcpop::Instance inst = make_instance();
  const Trajectory& golden = golden::kCarbonBaseline;

  for (const char* simd : {"auto", "scalar"}) {
    common::simd::select_path(simd);
    for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
      for (const bool telemetry : {false, true}) {
        core::CarbonConfig cfg = carbon_config();
        cfg.eval_threads = threads;

        obs::MetricsRegistry metrics;
        std::ostringstream sink;
        obs::RunJournal journal(sink, &metrics);
        if (telemetry) {
          cfg.telemetry.metrics = &metrics;
          cfg.telemetry.journal = &journal;
        }

        const core::CarbonResult r = core::CarbonSolver(inst, cfg).run();
        const std::string label =
            std::string("simd=") + common::simd::path_name() +
            " threads=" + std::to_string(threads) +
            " telemetry=" + std::to_string(telemetry);
        expect_same_trajectory(golden, trajectory_of(r), label);

        if (telemetry) {
          // run_start + one record per generation + summary, all parsable.
          const auto records = parse_journal(sink.str());
          ASSERT_EQ(records.size(),
                    static_cast<std::size_t>(r.generations) + 2)
              << label;
          const obs::JsonValue& start = records.front();
          EXPECT_EQ(start.at("type").as_string(), "run_start");
          EXPECT_EQ(start.at("eval_threads").as_integer(),
                    static_cast<long long>(threads));
          EXPECT_EQ(start.at("lp_warm").as_string(), "baseline");
          EXPECT_EQ(start.at("simd").as_string(), common::simd::path_name());
          EXPECT_EQ(records.back().at("type").as_string(), "summary");
          EXPECT_EQ(records.back().at("best_ul").as_number(),
                    r.best_ul_objective);
        }
      }
    }
  }
  common::simd::select_path("auto");
}

TEST(GoldenTrajectory, CarbonIsInvariantAcrossSimdThreadsWithMemoHits) {
  // The cross-generation score memo serves repeated (program, pricing)
  // evaluations without moving a bit — memo hits still charge the Table II
  // budgets — and the task scheduler only reorders execution of
  // pure jobs committed into index-ordered slots (docs/ALGORITHMS.md §14).
  // Each cell must match the frozen trajectory WITH the memo answering.
  const bcpop::Instance inst = make_instance();

  for (const char* simd : {"auto", "scalar"}) {
    common::simd::select_path(simd);
    for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
      core::CarbonConfig cfg = carbon_config();
      cfg.eval_threads = threads;
      obs::MetricsRegistry metrics;
      cfg.telemetry.metrics = &metrics;
      const std::string label = std::string("simd=") +
                                common::simd::path_name() +
                                " threads=" + std::to_string(threads);
      expect_same_trajectory(
          golden::kCarbonBaseline,
          trajectory_of(core::CarbonSolver(inst, cfg).run()), label);
      const auto counters = metrics.snapshot().counters;
      const auto hits = counters.find("memo/xgen_hits");
      ASSERT_NE(hits, counters.end()) << label;
      EXPECT_GT(hits->second, 0) << label;
    }
  }
  common::simd::select_path("auto");
}

TEST(GoldenTrajectory, CobraIsInvariantAcrossThreads) {
  const bcpop::Instance inst = make_instance();

  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    cobra::CobraConfig cfg = cobra_config();
    cfg.eval_threads = threads;
    expect_same_trajectory(
        golden::kCobraBaseline,
        trajectory_of(cobra::CobraSolver(inst, cfg).run()),
        "threads=" + std::to_string(threads));
  }
}

TEST(GoldenTrajectory, CarbonJournalTrajectoryIsThreadCountInvariant) {
  // Beyond the in-memory trace: the *journal contents* (minus wall-clock
  // noise) must agree between a serial and a 4-thread run.
  const bcpop::Instance inst = make_instance();

  const auto journal_of = [&](std::size_t threads) {
    core::CarbonConfig cfg = carbon_config();
    cfg.eval_threads = threads;
    std::ostringstream sink;
    obs::RunJournal journal(sink);
    cfg.telemetry.journal = &journal;
    (void)core::CarbonSolver(inst, cfg).run();
    return parse_journal(sink.str());
  };

  const auto serial = journal_of(1);
  const auto parallel = journal_of(4);
  ASSERT_EQ(serial.size(), parallel.size());
  const char* kTrajectoryFields[] = {
      "best_ul", "mean_ul", "std_ul", "best_gap", "mean_gap", "std_gap",
      "best_ul_so_far", "best_gap_so_far"};
  for (std::size_t i = 0; i < serial.size(); ++i) {
    if (serial[i].at("type").as_string() != "generation") continue;
    SCOPED_TRACE("record " + std::to_string(i));
    for (const char* field : kTrajectoryFields) {
      EXPECT_EQ(serial[i].at(field).as_number(),
                parallel[i].at(field).as_number())
          << field;
    }
    EXPECT_EQ(serial[i].at("ul_evals").as_integer(),
              parallel[i].at("ul_evals").as_integer());
    EXPECT_EQ(serial[i].at("ll_evals").as_integer(),
              parallel[i].at("ll_evals").as_integer());
  }
}

TEST(GoldenTrajectory, CobraIsInvariantAcrossThreadsAndTelemetry) {
  const bcpop::Instance inst = make_instance();
  const Trajectory& golden = golden::kCobraBaseline;

  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    for (const bool telemetry : {false, true}) {
      cobra::CobraConfig cfg = cobra_config();
      cfg.eval_threads = threads;

      obs::MetricsRegistry metrics;
      std::ostringstream sink;
      obs::RunJournal journal(sink, &metrics);
      if (telemetry) {
        cfg.telemetry.metrics = &metrics;
        cfg.telemetry.journal = &journal;
      }

      const core::RunResult r = cobra::CobraSolver(inst, cfg).run();
      const std::string label = "threads=" + std::to_string(threads) +
                                " telemetry=" + std::to_string(telemetry);
      expect_same_trajectory(golden, trajectory_of(r), label);

      if (telemetry) {
        const auto records = parse_journal(sink.str());
        ASSERT_EQ(records.size(),
                  static_cast<std::size_t>(r.generations) + 2)
            << label;
        // COBRA phases round-robin through the schedule.
        bool saw_upper = false;
        bool saw_lower = false;
        bool saw_coevolution = false;
        for (const auto& rec : records) {
          if (rec.at("type").as_string() != "generation") continue;
          const std::string& phase = rec.at("phase").as_string();
          saw_upper = saw_upper || phase == "upper";
          saw_lower = saw_lower || phase == "lower";
          saw_coevolution = saw_coevolution || phase == "coevolution";
        }
        EXPECT_TRUE(saw_upper && saw_lower && saw_coevolution) << label;
      }
    }
  }
}

TEST(GoldenTrajectory, SerialBackendCountersMatchFrozenBaseline) {
  // eval_threads=1 runs the evaluator on the calling thread alone, with
  // one-shard caches: its relaxation-cache and score-memo traffic must be
  // exactly the frozen serial traffic, not merely trajectory-neutral.
  const bcpop::Instance inst = make_instance();
  {
    core::CarbonConfig cfg = carbon_config();
    cfg.eval_threads = 1;
    std::ostringstream sink;
    obs::RunJournal journal(sink);
    cfg.telemetry.journal = &journal;
    const core::CarbonResult r = core::CarbonSolver(inst, cfg).run();
    expect_same_trajectory(golden::kCarbonBaseline, trajectory_of(r),
                           "carbon");
    golden::expect_backend_counters(golden::kCarbonBaselineCounters,
                                    parse_journal(sink.str()).back(),
                                    "carbon");
  }
  {
    cobra::CobraConfig cfg = cobra_config();
    cfg.eval_threads = 1;
    std::ostringstream sink;
    obs::RunJournal journal(sink);
    cfg.telemetry.journal = &journal;
    const core::RunResult r = cobra::CobraSolver(inst, cfg).run();
    expect_same_trajectory(golden::kCobraBaseline, trajectory_of(r), "cobra");
    golden::expect_backend_counters(golden::kCobraBaselineCounters,
                                    parse_journal(sink.str()).back(),
                                    "cobra");
  }
}

TEST(GoldenTrajectory, ReusedTelemetrySinksDoNotPerturbLaterRuns) {
  // One registry + journal observing two back-to-back runs: the second
  // run's trajectory must match a fresh-sink run (the journal diffs timers
  // against begin_run, so history cannot leak into the records either).
  const bcpop::Instance inst = make_instance();
  core::CarbonConfig cfg = carbon_config();

  obs::MetricsRegistry metrics;
  std::ostringstream sink;
  obs::RunJournal journal(sink, &metrics);
  cfg.telemetry.metrics = &metrics;
  cfg.telemetry.journal = &journal;

  const Trajectory first =
      trajectory_of(core::CarbonSolver(inst, cfg).run());
  const Trajectory second =
      trajectory_of(core::CarbonSolver(inst, cfg).run());
  expect_same_trajectory(first, second, "second run, reused sinks");

  const auto records = parse_journal(sink.str());
  EXPECT_EQ(static_cast<long long>(records.size()),
            journal.records_written());
  EXPECT_EQ(records.size(),
            2 * (static_cast<std::size_t>(first.generations) + 2));
}

}  // namespace
}  // namespace carbon
