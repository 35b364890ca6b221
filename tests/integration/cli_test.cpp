// End-to-end test of the `carbon` CLI binary: generate -> relax -> greedy ->
// exact -> solve, checking exit codes and that artifacts appear. The binary
// path is injected by CMake as CARBON_CLI_PATH.
#include <gtest/gtest.h>
#include <sys/wait.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "common/temp_dir.hpp"

#ifndef CARBON_CLI_PATH
#error "CARBON_CLI_PATH must be defined by the build system"
#endif

namespace {

std::string cli() { return CARBON_CLI_PATH; }

int run(const std::string& args) {
  const std::string cmd = cli() + " " + args + " > /dev/null 2>&1";
  return std::system(cmd.c_str());
}

std::string capture(const std::string& args) {
  const std::string out_path = carbon::test::test_temp_dir() + "out.txt";
  const std::string cmd = cli() + " " + args + " > " + out_path + " 2>&1";
  EXPECT_EQ(std::system(cmd.c_str()), 0) << cmd;
  std::ifstream f(out_path);
  std::stringstream ss;
  ss << f.rdbuf();
  return ss.str();
}

TEST(Cli, NoArgumentsIsUsageError) { EXPECT_NE(run(""), 0); }

TEST(Cli, UnknownCommandIsUsageError) { EXPECT_NE(run("frobnicate"), 0); }

TEST(Cli, MissingInputFileFails) {
  EXPECT_NE(run("relax --in /nonexistent/instance.orlib"), 0);
}

TEST(Cli, FullWorkflow) {
  const std::string inst = carbon::test::test_temp_dir() + "market.orlib";
  const std::string conv = carbon::test::test_temp_dir() + "conv.csv";

  // generate
  const std::string gen_out = capture(
      "generate --bundles 30 --services 4 --seed 5 --out " + inst);
  EXPECT_NE(gen_out.find("30 bundles"), std::string::npos);

  // relax
  const std::string relax_out = capture("relax --in " + inst);
  EXPECT_NE(relax_out.find("lower bound:"), std::string::npos);

  // greedy with a hand-written tree
  const std::string greedy_out =
      capture("greedy --in " + inst + " --tree \"(div QCOV COST)\"");
  EXPECT_NE(greedy_out.find("gap:"), std::string::npos);

  // exact
  const std::string exact_out = capture("exact --in " + inst);
  EXPECT_NE(exact_out.find("proven optimal"), std::string::npos);

  // solve with CARBON + convergence dump
  const std::string solve_out = capture(
      "solve --in " + inst +
      " --owned 3 --algo carbon --ul-budget 100 --ll-budget 300 "
      "--pop 10 --convergence " + conv);
  EXPECT_NE(solve_out.find("best leader revenue"), std::string::npos);
  EXPECT_NE(solve_out.find("follower model:"), std::string::npos);

  std::ifstream conv_file(conv);
  ASSERT_TRUE(conv_file.good());
  std::string header;
  std::getline(conv_file, header);
  EXPECT_NE(header.find("generation"), std::string::npos);
}

TEST(Cli, GreedyValueLinesAreFrozen) {
  // The exact `value:` lines of the three greedy scorers on one generated
  // market: a hand-written tree, the built-in cost-effectiveness rule (the
  // same expression as the tree) and the dual score, which picks a
  // different cover here.
  const std::string inst = carbon::test::test_temp_dir() + "greedy.orlib";
  ASSERT_EQ(run("generate --bundles 60 --services 8 --seed 11 --out " + inst),
            0);
  const auto value_line = [&](const std::string& flags) {
    const std::string out = capture("greedy --in " + inst + " " + flags);
    const std::size_t at = out.find("value:");
    EXPECT_NE(at, std::string::npos) << out;
    if (at == std::string::npos) return std::string();
    return out.substr(at, out.find('\n', at) - at);
  };
  EXPECT_EQ(value_line("--tree \"(div QCOV COST)\""),
            "value: 7754.980523  lower bound: 6570.104264  gap: 18.0344%");
  EXPECT_EQ(value_line("--score ce"),
            "value: 7754.980523  lower bound: 6570.104264  gap: 18.0344%");
  EXPECT_EQ(value_line("--score dual"),
            "value: 6832.039768  lower bound: 6570.104264  gap: 3.9868%");
}

TEST(Cli, StrictNumericFlagsAreRejected) {
  const std::string inst = carbon::test::test_temp_dir() + "strict.orlib";
  ASSERT_EQ(run("generate --bundles 20 --services 3 --out " + inst), 0);
  const std::string solve = "solve --in " + inst +
                            " --owned 2 --algo carbon --ul-budget 40 "
                            "--ll-budget 100 --pop 8";
  // Trailing garbage, non-numeric, and non-positive values all fail; the
  // well-formed equivalent succeeds.
  EXPECT_NE(run(solve + " --threads 4x"), 0);
  EXPECT_NE(run(solve + " --threads abc"), 0);
  EXPECT_NE(run(solve + " --threads 0"), 0);
  EXPECT_NE(run(solve + " --threads -2"), 0);
  EXPECT_NE(run("solve --in " + inst +
                " --owned 2 --algo carbon --ul-budget 40 --ll-budget 100 "
                "--pop 0"), 0);
  EXPECT_NE(run("solve --in " + inst +
                " --owned 2 --algo carbon --ul-budget 0 --pop 8"), 0);
  EXPECT_EQ(run(solve + " --threads 2"), 0);
}

TEST(Cli, NegativeCountsAreRejectedWithTheFlagNamed) {
  const std::string inst = carbon::test::test_temp_dir() + "counts.orlib";
  ASSERT_EQ(run("generate --bundles 20 --services 3 --out " + inst), 0);
  // A negative count cast to size_t would wrap to a huge value: for
  // --max-nodes that silently lifts the branch-and-bound node cap.
  const std::string err_path = carbon::test::test_temp_dir() + "err.txt";
  const auto rejected = [&](const std::string& args, const std::string& flag) {
    const std::string cmd =
        cli() + " " + args + " > /dev/null 2> " + err_path;
    EXPECT_NE(std::system(cmd.c_str()), 0) << cmd;
    std::ifstream f(err_path);
    std::stringstream ss;
    ss << f.rdbuf();
    EXPECT_NE(ss.str().find(flag), std::string::npos) << ss.str();
  };
  rejected("exact --in " + inst + " --max-nodes -1", "--max-nodes");
  rejected("generate --bundles -3 --services 3 --out " + inst, "--bundles");
  rejected("generate --bundles 20 --services -1 --out " + inst, "--services");
  rejected("solve --in " + inst + " --owned -2 --algo carbon --ul-budget 40 "
           "--ll-budget 100 --pop 8",
           "--owned");
}

TEST(Cli, CheckpointFlagsAreValidated) {
  const std::string inst = carbon::test::test_temp_dir() + "ckpt.orlib";
  const std::string ckpt = carbon::test::test_temp_dir() + "ckpt.ckpt";
  ASSERT_EQ(run("generate --bundles 20 --services 3 --out " + inst), 0);
  const std::string solve = "solve --in " + inst +
                            " --owned 2 --ul-budget 40 --ll-budget 100 --pop 8";
  // Each checkpoint flag requires its partner, and checkpointing is only
  // meaningful for the generational solvers.
  EXPECT_NE(run(solve + " --algo carbon --checkpoint " + ckpt), 0);
  EXPECT_NE(run(solve + " --algo carbon --checkpoint-every 2"), 0);
  EXPECT_NE(run(solve + " --algo carbon --checkpoint " + ckpt +
                " --checkpoint-every 0"), 0);
  EXPECT_NE(run(solve + " --algo biga --checkpoint " + ckpt +
                " --checkpoint-every 2"), 0);
  EXPECT_NE(run(solve + " --algo nested --resume " + ckpt), 0);
  EXPECT_NE(run(solve + " --algo carbon --resume /nonexistent.ckpt"), 0);
}

TEST(Cli, CheckpointThenResumeSmoke) {
  const std::string inst = carbon::test::test_temp_dir() + "resume.orlib";
  const std::string ckpt = carbon::test::test_temp_dir() + "resume.ckpt";
  ASSERT_EQ(run("generate --bundles 20 --services 3 --out " + inst), 0);
  for (const std::string algo : {"carbon", "cobra"}) {
    SCOPED_TRACE(algo);
    const std::string solve = "solve --in " + inst + " --owned 2 --algo " +
                              algo +
                              " --ul-budget 60 --ll-budget 150 --pop 8";
    // First run writes checkpoints as it goes and reports the destination.
    const std::string first = capture(solve + " --checkpoint " + ckpt +
                                      " --checkpoint-every 1");
    EXPECT_NE(first.find("checkpointing to"), std::string::npos);
    std::ifstream written(ckpt);
    ASSERT_TRUE(written.good());
    // Second run resumes from the finished run's final checkpoint.
    const std::string second = capture(solve + " --resume " + ckpt);
    EXPECT_NE(second.find("resumed from: " + ckpt), std::string::npos);
    EXPECT_NE(second.find("best leader revenue"), std::string::npos);
    std::remove(ckpt.c_str());
  }
}

TEST(Cli, SolveJournalsEachSolversDefaultLpWarm) {
  // Without --lp-warm each solver keeps its own default: the pool for
  // cobra, the baseline basis for carbon. The flag overrides either.
  const std::string inst = carbon::test::test_temp_dir() + "warm.orlib";
  const std::string journal =
      carbon::test::test_temp_dir() + "warm.jsonl";
  ASSERT_EQ(run("generate --bundles 20 --services 3 --out " + inst), 0);
  const auto run_start = [&](const std::string& flags) {
    std::remove(journal.c_str());
    EXPECT_EQ(run("solve --in " + inst +
                  " --owned 2 --ul-budget 40 --ll-budget 100 --pop 8 "
                  "--journal " + journal + " " + flags),
              0)
        << flags;
    std::ifstream f(journal);
    std::string first_line;
    std::getline(f, first_line);
    return first_line;
  };
  EXPECT_NE(run_start("--algo cobra").find("\"lp_warm\":\"pool\""),
            std::string::npos);
  EXPECT_NE(run_start("--algo carbon").find("\"lp_warm\":\"baseline\""),
            std::string::npos);
  EXPECT_NE(run_start("--algo cobra --lp-warm baseline")
                .find("\"lp_warm\":\"baseline\""),
            std::string::npos);
  EXPECT_NE(run_start("--algo carbon --lp-warm pool")
                .find("\"lp_warm\":\"pool\""),
            std::string::npos);
  std::remove(journal.c_str());
}

TEST(Cli, SolveRejectsUnknownFlags) {
  const std::string inst = carbon::test::test_temp_dir() + "flags.orlib";
  ASSERT_EQ(run("generate --bundles 20 --services 3 --out " + inst), 0);
  const std::string solve = "solve --in " + inst +
                            " --owned 2 --algo carbon --ul-budget 40 "
                            "--ll-budget 100 --pop 8";
  const auto exit_code = [](int status) {
    return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  };
  // A typo must not silently fall back to a default (here: one thread).
  EXPECT_EQ(exit_code(run(solve + " --thread 4")), 1);
  EXPECT_EQ(exit_code(run(solve + " --shed parallel_for")), 1);
  // Retired switches — the evaluator engine and the cross-generation memo
  // toggle — are rejected like any unknown flag.
  const std::string retired = "sched";
  EXPECT_EQ(exit_code(run(solve + " --" + retired + " stealing")), 1);
  EXPECT_EQ(exit_code(run(solve + " --" + retired + "=parallel_for")), 1);
  const std::string retired_memo = std::string("memo-") + "xgen";
  EXPECT_EQ(exit_code(run(solve + " --threads 2 --" + retired_memo + " off")),
            1);
}

TEST(Cli, SolveRejectsUnknownAlgorithm) {
  const std::string inst = carbon::test::test_temp_dir() + "market2.orlib";
  ASSERT_EQ(run("generate --bundles 20 --services 3 --out " + inst), 0);
  EXPECT_NE(run("solve --in " + inst + " --algo magic"), 0);
}

TEST(Cli, EveryAlgorithmSolves) {
  const std::string inst = carbon::test::test_temp_dir() + "market3.orlib";
  ASSERT_EQ(run("generate --bundles 20 --services 3 --out " + inst), 0);
  for (const std::string algo :
       {"carbon", "cobra", "biga", "codba", "nested"}) {
    EXPECT_EQ(run("solve --in " + inst + " --owned 2 --algo " + algo +
                  " --ul-budget 60 --ll-budget 150 --pop 8"),
              0)
        << algo;
  }
}

}  // namespace
