// Golden-trajectory matrix for the lp_warm=pool axis (docs/ALGORITHMS.md
// §15). Pool mode is a DIFFERENT golden trajectory than baseline mode — a
// pooled start basis rounds the last bits of the duals/x̄ through a
// different B^-1 update history — but it makes its own determinism claims,
// asserted here:
//
//   * one pool trajectory per algorithm, frozen in golden_common.hpp and
//     reproduced bit for bit across simd {auto, scalar} x eval_threads
//     {1, 4} and across repeated runs (the staged select/insert discipline keeps pool state a
//     pure function of the batch sequence, not of thread scheduling);
//   * COBRA's default lp_warm is the pool, so a default-policy cell
//     reproduces kCobraPool, and run_start journals the policy of the
//     evaluator that actually runs;
//   * resume determinism: two resumes from one checkpoint agree bit for
//     bit, and a resumed segment never consumes pooled bases from another
//     segment (clear-on-resume), proven with a pool poisoned by foreign
//     work between kill and resume;
//   * the backend telemetry actually reports pool activity (family
//     rebinds, pool hits) so the counters cannot silently rot, and the
//     eval_threads=1 cache/pool counters match the frozen ones.

#include <gtest/gtest.h>

#include <cstdio>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "carbon/bcpop/parallel_evaluator.hpp"
#include "carbon/cobra/cobra_solver.hpp"
#include "carbon/common/rng.hpp"
#include "carbon/common/simd_path.hpp"
#include "carbon/core/carbon_solver.hpp"
#include "carbon/ea/real_ops.hpp"
#include "carbon/gp/generate.hpp"
#include "carbon/obs/json.hpp"
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

TEST(PoolGolden, CarbonPoolTrajectoryIsInvariantAcrossSimdThreadsRepeats) {
  const bcpop::Instance inst = make_instance();

  for (const char* simd : {"auto", "scalar"}) {
    common::simd::select_path(simd);
    for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
      for (int repeat = 0; repeat < 2; ++repeat) {
        core::CarbonConfig cfg = golden::carbon_config();
        cfg.lp_warm = bcpop::LpWarm::kPool;
        cfg.eval_threads = threads;
        const std::string label =
            std::string("pool simd=") + common::simd::path_name() +
            " threads=" + std::to_string(threads) +
            " repeat=" + std::to_string(repeat);
        expect_same_trajectory(
            golden::kCarbonPool,
            trajectory_of(core::CarbonSolver(inst, cfg).run()), label);
      }
    }
  }
  common::simd::select_path("auto");
}

TEST(PoolGolden, CobraPoolTrajectoryIsInvariantAcrossSimdThreadsRepeats) {
  const bcpop::Instance inst = make_instance();

  for (const char* simd : {"auto", "scalar"}) {
    common::simd::select_path(simd);
    for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
      for (int repeat = 0; repeat < 2; ++repeat) {
        cobra::CobraConfig cfg = golden::cobra_config();
        cfg.lp_warm = bcpop::LpWarm::kPool;
        cfg.eval_threads = threads;
        const std::string label =
            std::string("pool simd=") + common::simd::path_name() +
            " threads=" + std::to_string(threads) +
            " repeat=" + std::to_string(repeat);
        expect_same_trajectory(
            golden::kCobraPool,
            trajectory_of(cobra::CobraSolver(inst, cfg).run()), label);
      }
    }
  }
  common::simd::select_path("auto");
}

TEST(PoolGolden, DefaultCobraConfigRunsThePoolTrajectory) {
  // COBRA warm-starts from the basis pool by default; golden::cobra_config()
  // pins kBaseline, so taking the default back reproduces kCobraPool.
  const bcpop::Instance inst = make_instance();
  cobra::CobraConfig cfg = golden::cobra_config();
  cfg.lp_warm = cobra::CobraConfig{}.lp_warm;
  expect_same_trajectory(golden::kCobraPool,
                         trajectory_of(cobra::CobraSolver(inst, cfg).run()),
                         "default lp_warm");
}

TEST(PoolGolden, RunStartRecordsTheRunningEvaluatorsPolicy) {
  // A caller-owned evaluator runs its own policy whatever the config's
  // lp_warm says (that field only configures an evaluator the solver
  // builds), and run_start must journal the policy that actually runs.
  const bcpop::Instance inst = make_instance();
  for (const bcpop::LpWarm running :
       {bcpop::LpWarm::kBaseline, bcpop::LpWarm::kPool}) {
    const bcpop::LpWarm configured = running == bcpop::LpWarm::kPool
                                         ? bcpop::LpWarm::kBaseline
                                         : bcpop::LpWarm::kPool;
    const std::string want = bcpop::to_string(running);

    bcpop::ParallelEvaluator carbon_eval(
        inst, bcpop::ParallelEvaluator::Options{.threads = 1,
                                                .lp_warm = running});
    core::CarbonConfig carbon = golden::carbon_config();
    carbon.lp_warm = configured;
    std::ostringstream carbon_sink;
    obs::RunJournal carbon_journal(carbon_sink);
    carbon.telemetry.journal = &carbon_journal;
    (void)core::CarbonSolver(carbon_eval, carbon).run();
    EXPECT_EQ(parse_journal(carbon_sink.str()).front().at("lp_warm")
                  .as_string(),
              want);

    bcpop::ParallelEvaluator cobra_eval(
        inst, bcpop::ParallelEvaluator::Options{.threads = 1,
                                                .lp_warm = running});
    cobra::CobraConfig cobra = golden::cobra_config();
    cobra.lp_warm = configured;
    std::ostringstream cobra_sink;
    obs::RunJournal cobra_journal(cobra_sink);
    cobra.telemetry.journal = &cobra_journal;
    const Trajectory t =
        trajectory_of(cobra::CobraSolver(cobra_eval, cobra).run());
    EXPECT_EQ(parse_journal(cobra_sink.str()).front().at("lp_warm")
                  .as_string(),
              want);
    expect_same_trajectory(running == bcpop::LpWarm::kPool
                               ? golden::kCobraPool
                               : golden::kCobraBaseline,
                           t, "cobra on a " + want + " evaluator");
  }
}

TEST(PoolGolden, PoolBackendCountersReportActivity) {
  // Telemetry must not perturb the pool trajectory, and the summary's
  // backend block must show the pool actually working: cost-only rebinds
  // on every relaxation solve and warm-start hits once the pool is primed.
  // At eval_threads=1 every cache and pool counter is frozen as well.
  const bcpop::Instance inst = make_instance();

  core::CarbonConfig cfg = golden::carbon_config();
  cfg.lp_warm = bcpop::LpWarm::kPool;
  obs::MetricsRegistry metrics;
  std::ostringstream sink;
  obs::RunJournal journal(sink, &metrics);
  cfg.telemetry.metrics = &metrics;
  cfg.telemetry.journal = &journal;
  const core::CarbonResult r = core::CarbonSolver(inst, cfg).run();
  expect_same_trajectory(golden::kCarbonPool, trajectory_of(r),
                         "pool + telemetry");

  const auto records = parse_journal(sink.str());
  ASSERT_FALSE(records.empty());
  // The warm-start policy changes trajectories, so run_start records it.
  EXPECT_EQ(records.front().at("lp_warm").as_string(), "pool");
  const obs::JsonValue& summary = records.back();
  ASSERT_EQ(summary.at("type").as_string(), "summary");
  const obs::JsonValue& backend = summary.at("backend");
  EXPECT_GT(backend.at("lp_family_rebinds").as_integer(), 0);
  EXPECT_GT(backend.at("lp_pool_hits").as_integer(), 0);
  // Pool commits come from clean optimal bases of the shared family, so
  // rejections should be the exception, never the rule.
  EXPECT_LE(backend.at("lp_pool_rejects").as_integer(),
            backend.at("lp_pool_hits").as_integer());
  golden::expect_backend_counters(golden::kCarbonPoolCounters, summary,
                                  "carbon pool");

  cobra::CobraConfig cc = golden::cobra_config();
  cc.lp_warm = bcpop::LpWarm::kPool;
  std::ostringstream cobra_sink;
  obs::RunJournal cobra_journal(cobra_sink);
  cc.telemetry.journal = &cobra_journal;
  expect_same_trajectory(golden::kCobraPool,
                         trajectory_of(cobra::CobraSolver(inst, cc).run()),
                         "cobra pool + journal");
  const auto cobra_records = parse_journal(cobra_sink.str());
  EXPECT_EQ(cobra_records.front().at("lp_warm").as_string(), "pool");
  golden::expect_backend_counters(golden::kCobraPoolCounters,
                                  cobra_records.back(), "cobra pool");
}

TEST(PoolGolden, PoolResumeIsDeterministicAndSegmentIsolated) {
  // Pool-mode resume contract: every checkpoint starts a new cache epoch
  // (the writing run empties its caches and basis pool, as a resume does),
  // so a resumed run equals the uninterrupted run with the same checkpoint
  // config bit for bit — CheckpointResume pins that for both policies.
  // This test pins the segment isolation behind it: resuming twice from
  // one checkpoint agrees bit for bit, and the resumed trajectory is
  // IDENTICAL whether the serving evaluator is fresh or carries a pool
  // poisoned by foreign work: the resumed segment never consumes another
  // segment's bases.
  const bcpop::Instance inst = make_instance();
  const std::string path =
      carbon::test::test_temp_dir() + "carbon-pool-resume.ckpt";

  core::CarbonConfig cfg = golden::carbon_config();
  cfg.lp_warm = bcpop::LpWarm::kPool;
  cfg.checkpoint.every = 2;
  cfg.checkpoint.path = path;
  int killed_at = 0;
  cfg.checkpoint.stop_after_checkpoint = [&](int gen) {
    killed_at = gen;
    return true;
  };
  (void)core::CarbonSolver(inst, cfg).run();
  ASSERT_EQ(killed_at, 2);

  core::CarbonConfig resume = golden::carbon_config();
  resume.lp_warm = bcpop::LpWarm::kPool;
  resume.checkpoint.resume_from = path;
  const Trajectory first =
      trajectory_of(core::CarbonSolver(inst, resume).run());
  const Trajectory second =
      trajectory_of(core::CarbonSolver(inst, resume).run());
  expect_same_trajectory(first, second, "pool resume, twice");

  // Poisoned-evaluator resume: warm the external evaluator's basis pool
  // (and caches) with work no segment of the golden run ever performed,
  // then resume on it. clear_caches-on-resume must drop the foreign bases,
  // so the trajectory matches the fresh-evaluator resumes above.
  bcpop::ParallelEvaluator eval(
      inst, bcpop::ParallelEvaluator::Options{
                .threads = 4, .lp_warm = bcpop::LpWarm::kPool});
  common::Rng rng(4242);
  for (int i = 0; i < 8; ++i) {
    const gp::Tree tree = gp::generate_ramped(rng);
    const bcpop::Pricing pricing =
        ea::random_real_vector(rng, eval.price_bounds());
    (void)eval.evaluate_with_heuristic(pricing, tree,
                                       bcpop::EvalPurpose::kLowerOnly);
  }
  ASSERT_GT(eval.basis_pool().size(), 0u)
      << "poisoning must actually seed the pool";

  core::CarbonConfig poisoned = golden::carbon_config();
  poisoned.lp_warm = bcpop::LpWarm::kPool;
  poisoned.checkpoint.resume_from = path;
  const Trajectory via_poisoned =
      trajectory_of(core::CarbonSolver(eval, poisoned).run());
  expect_same_trajectory(first, via_poisoned, "poisoned-pool resume");
  std::remove(path.c_str());
}

TEST(PoolGolden, PoolModeDegenerateDualsAreReproducible) {
  // Evaluator-level pin for the degenerate-LP hazard: the SAME pricing
  // evaluated through pool-mode evaluators with different thread counts and
  // different pool histories must report bit-identical follower reactions
  // and objectives. (The per-batch relaxation of a pricing depends only on
  // the deterministic pool state at that batch — reproduced here by
  // replaying an identical evaluation sequence.)
  const bcpop::Instance inst = make_instance();

  const auto replay = [&](std::size_t threads) {
    bcpop::ParallelEvaluator eval(
        inst, bcpop::ParallelEvaluator::Options{
                  .threads = threads, .lp_warm = bcpop::LpWarm::kPool});
    common::Rng rng(77);
    std::vector<double> gaps;
    std::vector<double> objectives;
    for (int i = 0; i < 12; ++i) {
      const gp::Tree tree = gp::generate_ramped(rng);
      const bcpop::Pricing pricing =
          ea::random_real_vector(rng, eval.price_bounds());
      const bcpop::Evaluation e = eval.evaluate_with_heuristic(
          pricing, tree, bcpop::EvalPurpose::kBoth);
      gaps.push_back(e.gap_percent);
      objectives.push_back(e.ul_objective);
    }
    return std::make_pair(gaps, objectives);
  };

  const auto serial = replay(1);
  const auto parallel = replay(4);
  ASSERT_EQ(serial.first.size(), parallel.first.size());
  for (std::size_t i = 0; i < serial.first.size(); ++i) {
    SCOPED_TRACE("evaluation " + std::to_string(i));
    EXPECT_EQ(serial.first[i], parallel.first[i]);    // bitwise
    EXPECT_EQ(serial.second[i], parallel.second[i]);  // bitwise
  }
}

}  // namespace
}  // namespace carbon
