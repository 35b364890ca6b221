// Kill/resume fault-injection harness for the checkpoint subsystem.
//
// The contract under test (docs/ALGORITHMS.md §11): killing a run right
// after a checkpoint at generation k and resuming from the file reproduces
// the *uninterrupted* run's trajectory bit for bit — for eval_threads
// {1, 4}, across a cross-configuration resume (checkpoint written by a
// serial run, resumed by a parallel one, and vice versa), across chained
// kill/resume/kill/resume sequences, and under both lp_warm policies (each
// checkpoint starts a new cache epoch, so even the basis pool's history
// agrees on both sides of a kill). Also covers the negative paths: a
// truncated, corrupted, wrong-algorithm or wrong-seed file must be rejected
// with CheckpointError before any solver or evaluator state is touched.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>

#include "carbon/bcpop/parallel_evaluator.hpp"
#include "carbon/cobra/cobra_solver.hpp"
#include "carbon/common/rng.hpp"
#include "carbon/core/carbon_solver.hpp"
#include "carbon/core/checkpoint.hpp"
#include "carbon/ea/real_ops.hpp"
#include "carbon/gp/generate.hpp"
#include "carbon/guard/guard.hpp"
#include "common/temp_dir.hpp"
#include "golden_common.hpp"

namespace carbon {
namespace {

using golden::Trajectory;
using golden::expect_same_trajectory;
using golden::make_instance;
using golden::trajectory_of;

/// Unique-per-test file path (tests/common/temp_dir.hpp), so parallel ctest
/// shards never race on a shared checkpoint file.
std::string temp_path(const std::string& name) {
  return carbon::test::test_temp_dir() + name;
}

/// Runs CARBON to completion with checkpointing on but no kill; used as the
/// bitwise reference for the interrupted runs.
Trajectory carbon_golden(const bcpop::Instance& inst) {
  core::CarbonConfig cfg = golden::carbon_config();
  cfg.eval_threads = 1;
  return trajectory_of(core::CarbonSolver(inst, cfg).run());
}

Trajectory cobra_golden(const bcpop::Instance& inst) {
  cobra::CobraConfig cfg = golden::cobra_config();
  cfg.eval_threads = 1;
  return trajectory_of(cobra::CobraSolver(inst, cfg).run());
}

TEST(CheckpointResume, CarbonKillAtKResumesBitIdentically) {
  const bcpop::Instance inst = make_instance();
  const Trajectory golden_run = carbon_golden(inst);
  ASSERT_GT(golden_run.generations, 3);

  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    const std::string label = "threads=" + std::to_string(threads);
    const std::string path =
        temp_path("carbon-" + std::to_string(threads) + ".ckpt");

    // Phase 1: run with checkpointing every 2 generations; the hook
    // simulates a kill right after the first write (generation 2).
    core::CarbonConfig cfg = golden::carbon_config();
    cfg.eval_threads = threads;
    cfg.checkpoint.every = 2;
    cfg.checkpoint.path = path;
    int killed_at = 0;
    cfg.checkpoint.stop_after_checkpoint = [&](int gen) {
      killed_at = gen;
      return true;
    };
    (void)core::CarbonSolver(inst, cfg).run();
    ASSERT_EQ(killed_at, 2) << label;

    // Phase 2: a fresh solver resumes from the file and runs to the end.
    core::CarbonConfig resume = golden::carbon_config();
    resume.eval_threads = threads;
    resume.checkpoint.resume_from = path;
    const Trajectory resumed =
        trajectory_of(core::CarbonSolver(inst, resume).run());
    expect_same_trajectory(golden_run, resumed, "resumed " + label);
    std::remove(path.c_str());
  }
}

TEST(CheckpointResume, CarbonCrossConfigResumeIsBitIdentical) {
  // A checkpoint is evaluator-agnostic: written by a serial run, it must
  // resume bit-identically under a 4-thread evaluator (and vice versa) —
  // the same neutrality the golden-trajectory harness asserts for
  // uninterrupted runs.
  const bcpop::Instance inst = make_instance();
  const Trajectory golden_run = carbon_golden(inst);
  const std::string path = temp_path("carbon-cross.ckpt");

  core::CarbonConfig writer = golden::carbon_config();
  writer.eval_threads = 1;
  writer.checkpoint.every = 2;
  writer.checkpoint.path = path;
  writer.checkpoint.stop_after_checkpoint = [](int) { return true; };
  (void)core::CarbonSolver(inst, writer).run();

  core::CarbonConfig reader = golden::carbon_config();
  reader.eval_threads = 4;
  reader.checkpoint.resume_from = path;
  const Trajectory resumed =
      trajectory_of(core::CarbonSolver(inst, reader).run());
  expect_same_trajectory(golden_run, resumed, "serial->parallel resume");
  std::remove(path.c_str());
}

TEST(CheckpointResume, CarbonChainedKillsResumeBitIdentically) {
  // Kill at the first checkpoint, resume with checkpointing still on, kill
  // at the next one, resume again: two preemptions, one golden trajectory.
  const bcpop::Instance inst = make_instance();
  const Trajectory golden_run = carbon_golden(inst);
  const std::string path = temp_path("carbon-chain.ckpt");

  core::CarbonConfig first = golden::carbon_config();
  first.eval_threads = 1;
  first.checkpoint.every = 2;
  first.checkpoint.path = path;
  first.checkpoint.stop_after_checkpoint = [](int) { return true; };
  (void)core::CarbonSolver(inst, first).run();

  core::CarbonConfig second = first;
  second.checkpoint.resume_from = path;
  int kills = 0;
  second.checkpoint.stop_after_checkpoint = [&](int) { return ++kills == 1; };
  (void)core::CarbonSolver(inst, second).run();
  ASSERT_EQ(kills, 1);

  core::CarbonConfig last = golden::carbon_config();
  last.eval_threads = 1;
  last.checkpoint.resume_from = path;
  const Trajectory resumed =
      trajectory_of(core::CarbonSolver(inst, last).run());
  expect_same_trajectory(golden_run, resumed, "after two kills");
  std::remove(path.c_str());
}

TEST(CheckpointResume, CobraKillAtRoundBoundaryResumesBitIdentically) {
  const bcpop::Instance inst = make_instance();
  const Trajectory golden_run = cobra_golden(inst);
  ASSERT_GT(golden_run.generations, 5);

  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    const std::string label = "threads=" + std::to_string(threads);
    const std::string path =
        temp_path("cobra-" + std::to_string(threads) + ".ckpt");

    cobra::CobraConfig cfg = golden::cobra_config();
    cfg.eval_threads = threads;
    cfg.checkpoint.every = 3;  // first round boundary at or past gen 3
    cfg.checkpoint.path = path;
    int killed_at = -1;
    cfg.checkpoint.stop_after_checkpoint = [&](int gen) {
      killed_at = gen;
      return true;
    };
    (void)cobra::CobraSolver(inst, cfg).run();
    ASSERT_GE(killed_at, 3) << label;

    cobra::CobraConfig resume = golden::cobra_config();
    resume.eval_threads = threads;
    resume.checkpoint.resume_from = path;
    const Trajectory resumed =
        trajectory_of(cobra::CobraSolver(inst, resume).run());
    expect_same_trajectory(golden_run, resumed, "resumed " + label);
    std::remove(path.c_str());
  }
}

TEST(CheckpointResume, CobraCrossConfigResumeIsBitIdentical) {
  const bcpop::Instance inst = make_instance();
  const Trajectory golden_run = cobra_golden(inst);
  const std::string path = temp_path("cobra-cross.ckpt");

  cobra::CobraConfig writer = golden::cobra_config();
  writer.eval_threads = 4;
  writer.checkpoint.every = 3;
  writer.checkpoint.path = path;
  writer.checkpoint.stop_after_checkpoint = [](int) { return true; };
  (void)cobra::CobraSolver(inst, writer).run();

  cobra::CobraConfig reader = golden::cobra_config();
  reader.eval_threads = 1;
  reader.checkpoint.resume_from = path;
  const Trajectory resumed =
      trajectory_of(cobra::CobraSolver(inst, reader).run());
  expect_same_trajectory(golden_run, resumed, "parallel->serial resume");
  std::remove(path.c_str());
}

TEST(CheckpointResume, CheckpointWritesNeverPerturbTheTrajectory) {
  // Checkpointing on (but never killed) must match checkpointing off.
  const bcpop::Instance inst = make_instance();

  core::CarbonConfig cfg = golden::carbon_config();
  cfg.checkpoint.every = 1;
  cfg.checkpoint.path = temp_path("carbon-every1.ckpt");
  const Trajectory with_ckpt =
      trajectory_of(core::CarbonSolver(inst, cfg).run());
  expect_same_trajectory(carbon_golden(inst), with_ckpt,
                         "checkpoint.every=1");
  std::remove(cfg.checkpoint.path.c_str());

  cobra::CobraConfig ccfg = golden::cobra_config();
  ccfg.checkpoint.every = 1;
  ccfg.checkpoint.path = temp_path("cobra-every1.ckpt");
  const Trajectory cobra_with_ckpt =
      trajectory_of(cobra::CobraSolver(inst, ccfg).run());
  expect_same_trajectory(cobra_golden(inst), cobra_with_ckpt,
                         "cobra checkpoint.every=1");
  std::remove(ccfg.checkpoint.path.c_str());
}

/// Runs `cfg` once uninterrupted, then killed right after every checkpoint
/// write and resumed from the file until a segment finishes without a
/// kill; the last segment must reproduce the uninterrupted trajectory.
template <typename Solver, typename Config>
void expect_every_kill_resumes_bit_identically(const bcpop::Instance& inst,
                                               Config cfg,
                                               const std::string& label) {
  cfg.checkpoint.path = temp_path("epoch.ckpt");
  const Trajectory uninterrupted = trajectory_of(Solver(inst, cfg).run());
  bool killed = false;
  cfg.checkpoint.stop_after_checkpoint = [&](int) {
    killed = true;
    return true;
  };
  Trajectory resumed;
  int segments = 0;
  do {
    ASSERT_LT(++segments, 100) << label << ": the run never finished";
    killed = false;
    resumed = trajectory_of(Solver(inst, cfg).run());
    cfg.checkpoint.resume_from = cfg.checkpoint.path;
  } while (killed);
  EXPECT_GT(segments, 2) << label;
  expect_same_trajectory(uninterrupted, resumed, label);
  std::remove(cfg.checkpoint.path.c_str());
}

TEST(CheckpointResume, EveryKillResumesBitIdenticallyUnderBothLpWarmPolicies) {
  // Each checkpoint starts a new cache epoch, so a run killed after any
  // checkpoint and resumed equals the uninterrupted run with the same
  // checkpoint config — under kPool too, whose basis pool (unlike a
  // kBaseline relaxation) carries history into the next solve.
  const bcpop::Instance inst = make_instance();
  for (const bcpop::LpWarm warm :
       {bcpop::LpWarm::kBaseline, bcpop::LpWarm::kPool}) {
    for (const int every : {1, 2, 3}) {
      const std::string label = std::string("lp_warm=") +
                                bcpop::to_string(warm) +
                                " every=" + std::to_string(every);
      core::CarbonConfig carbon = golden::carbon_config();
      carbon.lp_warm = warm;
      carbon.checkpoint.every = every;
      expect_every_kill_resumes_bit_identically<core::CarbonSolver>(
          inst, carbon, "carbon " + label);

      cobra::CobraConfig cobra = golden::cobra_config();
      cobra.lp_warm = warm;
      cobra.checkpoint.every = every;
      expect_every_kill_resumes_bit_identically<cobra::CobraSolver>(
          inst, cobra, "cobra " + label);
    }
  }
}

// ---- Negative paths: rejected files, untouched state -----------------------

/// Writes a valid CARBON checkpoint and returns its path.
std::string write_carbon_checkpoint(const bcpop::Instance& inst,
                                    const std::string& name) {
  core::CarbonConfig cfg = golden::carbon_config();
  cfg.checkpoint.every = 2;
  cfg.checkpoint.path = temp_path(name);
  cfg.checkpoint.stop_after_checkpoint = [](int) { return true; };
  (void)core::CarbonSolver(inst, cfg).run();
  return cfg.checkpoint.path;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

void spit(const std::string& path, const std::string& contents) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << contents;
}

TEST(CheckpointResume, RejectedResumeLeavesEvaluatorUntouched) {
  const bcpop::Instance inst = make_instance();
  const std::string good = write_carbon_checkpoint(inst, "tamper.ckpt");
  const std::string file = slurp(good);
  ASSERT_FALSE(file.empty());

  struct Case {
    const char* name;
    std::string contents;
  };
  std::string bitflip = file;
  bitflip[file.size() / 2] ^= 0x01;
  const Case cases[] = {
      {"truncated", file.substr(0, file.size() / 2)},
      {"bit-flipped", bitflip},
      {"empty", ""},
      {"not json", "hello world\n{}\n"},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    const std::string path = temp_path("bad.ckpt");
    spit(path, c.contents);

    bcpop::ParallelEvaluator eval(inst, /*threads=*/1);
    core::CarbonConfig cfg = golden::carbon_config();
    cfg.checkpoint.resume_from = path;
    EXPECT_THROW((void)core::CarbonSolver(eval, cfg).run(),
                 core::CheckpointError);
    // No partial state: the evaluator was never consulted.
    EXPECT_EQ(eval.ul_evaluations(), 0);
    EXPECT_EQ(eval.ll_evaluations(), 0);
    std::remove(path.c_str());
  }

  // Wrong algorithm: a CARBON file must not resume a COBRA run.
  {
    bcpop::ParallelEvaluator eval(inst, /*threads=*/1);
    cobra::CobraConfig cfg = golden::cobra_config();
    cfg.checkpoint.resume_from = good;
    EXPECT_THROW((void)cobra::CobraSolver(eval, cfg).run(),
                 core::CheckpointError);
    EXPECT_EQ(eval.ul_evaluations(), 0);
    EXPECT_EQ(eval.ll_evaluations(), 0);
  }

  // Wrong seed: the file echoes its config seed and a mismatch rejects.
  {
    bcpop::ParallelEvaluator eval(inst, /*threads=*/1);
    core::CarbonConfig cfg = golden::carbon_config();
    cfg.seed = 12345;
    cfg.checkpoint.resume_from = good;
    EXPECT_THROW((void)core::CarbonSolver(eval, cfg).run(),
                 core::CheckpointError);
    EXPECT_EQ(eval.ul_evaluations(), 0);
  }

  // Wrong population shape.
  {
    bcpop::ParallelEvaluator eval(inst, /*threads=*/1);
    core::CarbonConfig cfg = golden::carbon_config();
    cfg.ul_population_size = 16;
    cfg.checkpoint.resume_from = good;
    EXPECT_THROW((void)core::CarbonSolver(eval, cfg).run(),
                 core::CheckpointError);
    EXPECT_EQ(eval.ul_evaluations(), 0);
  }

  std::remove(good.c_str());
}

TEST(CheckpointResume, ReusedEvaluatorWithWarmCachesResumesBitIdentically) {
  // The cache-poisoning kill-at-k case: ONE external evaluator serves the
  // killed phase-1 run, then absorbs unrelated work between the kill and
  // the resume — first under TIGHT guard limits (degraded-ladder bits in
  // both caches), then re-warmed under the run's own limits so the resume
  // path's set_guard sees UNCHANGED limits and clears nothing itself —
  // and finally serves the resumed run. run_with() must drop that inherited
  // cache state before the first resumed evaluation (clear_caches-on-resume)
  // WITHOUT resetting the lifetime counters its budget/backend offsets are
  // computed from; the resumed trajectory must match the uninterrupted
  // golden run bit for bit despite the evaluator's foreign history.
  const bcpop::Instance inst = make_instance();
  const Trajectory golden_run = carbon_golden(inst);
  const std::string path = temp_path("carbon-poison.ckpt");

  bcpop::ParallelEvaluator eval(inst, /*threads=*/4);

  // Phase 1: kill right after the checkpoint at generation 2.
  core::CarbonConfig cfg = golden::carbon_config();
  cfg.checkpoint.every = 2;
  cfg.checkpoint.path = path;
  cfg.checkpoint.stop_after_checkpoint = [](int) { return true; };
  (void)core::CarbonSolver(eval, cfg).run();
  const long long ll_after_kill = eval.ll_evaluations();

  // Poison wave 1: evaluations under tight limits; wave 2: back to the
  // run's (unlimited) limits — the set_guard transitions clear the caches
  // between waves, so the state the resume inherits was warmed under limits
  // IDENTICAL to the resumed run's, and only clear_caches-on-resume
  // separates the segments.
  for (const bool tight : {true, false}) {
    guard::GuardConfig poison_guard;
    if (tight) {
      poison_guard.limits.lp_iteration_cap = 3;
      poison_guard.limits.construction_round_cap = 2;
    }
    eval.set_guard(poison_guard, 0);
    common::Rng rng(tight ? 99 : 101);
    for (int i = 0; i < 6; ++i) {
      const gp::Tree tree = gp::generate_ramped(rng);
      const bcpop::Pricing pricing =
          ea::random_real_vector(rng, eval.price_bounds());
      (void)eval.evaluate_with_heuristic(pricing, tree,
                                         bcpop::EvalPurpose::kLowerOnly);
    }
  }
  ASSERT_GT(eval.score_cache().size(), 0u) << "poisoning must warm the memo";
  ASSERT_GT(eval.cache().size(), 0u);
  ASSERT_GT(eval.ll_evaluations(), ll_after_kill)
      << "poisoning must consume budget the resume offsets absorb";

  // Phase 2: the SAME evaluator object resumes the run.
  core::CarbonConfig resume = golden::carbon_config();
  resume.checkpoint.resume_from = path;
  const Trajectory resumed =
      trajectory_of(core::CarbonSolver(eval, resume).run());
  expect_same_trajectory(golden_run, resumed, "poisoned-evaluator resume");
  std::remove(path.c_str());
}

TEST(CheckpointResume, AtomicWriteLeavesNoTempFile) {
  const bcpop::Instance inst = make_instance();
  const std::string path = write_carbon_checkpoint(inst, "atomic.ckpt");
  std::ifstream tmp(path + ".tmp");
  EXPECT_FALSE(tmp.good()) << "temporary file left behind";
  std::ifstream final_file(path);
  EXPECT_TRUE(final_file.good());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace carbon
