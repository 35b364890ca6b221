// Shared fixtures for the golden-trajectory harness: the reference instance
// and solver configurations, the bitwise Trajectory comparison, and the
// journal parser, plus the frozen reference trajectories every golden cell
// is compared against. Used by golden_trajectory_test.cpp and
// pool_golden_test.cpp (neutrality of threads/compilation/memo/telemetry)
// and checkpoint_resume_test.cpp (kill at generation k + resume reproduces
// the uninterrupted trajectory).
#pragma once

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "carbon/cobra/cobra_solver.hpp"
#include "carbon/core/carbon_solver.hpp"
#include "carbon/cover/generator.hpp"
#include "carbon/obs/json.hpp"

namespace carbon::golden {

inline bcpop::Instance make_instance() {
  cover::GeneratorConfig cfg;
  cfg.num_bundles = 30;
  cfg.num_services = 4;
  cfg.seed = 21;
  return bcpop::Instance(cover::generate(cfg), /*num_owned=*/3);
}

inline core::CarbonConfig carbon_config() {
  core::CarbonConfig cfg;
  cfg.ul_population_size = 8;
  cfg.ul_archive_size = 8;
  cfg.gp_population_size = 8;
  cfg.gp_archive_size = 8;
  cfg.heuristic_sample_size = 2;
  cfg.archive_reinjection = 2;
  cfg.ul_eval_budget = 48;
  cfg.ll_eval_budget = 480;
  cfg.seed = 7;
  return cfg;
}

inline cobra::CobraConfig cobra_config() {
  cobra::CobraConfig cfg;
  cfg.ul_population_size = 8;
  cfg.ll_population_size = 8;
  cfg.ul_archive_size = 8;
  cfg.ll_archive_size = 8;
  cfg.upper_phase_generations = 2;
  cfg.lower_phase_generations = 2;
  cfg.coevolution_pairs = 4;
  cfg.archive_reinjection = 2;
  cfg.ul_eval_budget = 80;
  cfg.ll_eval_budget = 800;
  cfg.seed = 7;
  // Pinned: the kCobraBaseline cells test the baseline start basis, while
  // COBRA's own default is the basis pool (kCobraPool).
  cfg.lp_warm = bcpop::LpWarm::kBaseline;
  return cfg;
}

/// The trajectory under test: one entry per recorded generation. Doubles
/// are compared bitwise (EXPECT_EQ), not within a tolerance.
struct Trajectory {
  std::vector<double> best_ul_so_far;
  std::vector<double> best_gap_so_far;
  std::vector<double> current_best_ul;
  std::vector<double> current_mean_gap;
  std::vector<long long> ul_evals;
  std::vector<long long> ll_evals;
  double final_best_ul = 0.0;
  double final_best_gap = 0.0;
  int generations = 0;
};

inline Trajectory trajectory_of(const core::RunResult& r) {
  Trajectory t;
  for (const auto& pt : r.convergence) {
    t.best_ul_so_far.push_back(pt.best_ul_so_far);
    t.best_gap_so_far.push_back(pt.best_gap_so_far);
    t.current_best_ul.push_back(pt.current_best_ul);
    t.current_mean_gap.push_back(pt.current_mean_gap);
    t.ul_evals.push_back(pt.ul_evaluations);
    t.ll_evals.push_back(pt.ll_evaluations);
  }
  t.final_best_ul = r.best_ul_objective;
  t.final_best_gap = r.best_gap;
  t.generations = r.generations;
  return t;
}

inline void expect_same_trajectory(const Trajectory& want,
                                   const Trajectory& got,
                                   const std::string& label) {
  SCOPED_TRACE(label);
  EXPECT_EQ(want.generations, got.generations);
  ASSERT_EQ(want.best_ul_so_far.size(), got.best_ul_so_far.size());
  for (std::size_t g = 0; g < want.best_ul_so_far.size(); ++g) {
    SCOPED_TRACE("generation " + std::to_string(g));
    EXPECT_EQ(want.best_ul_so_far[g], got.best_ul_so_far[g]);    // bitwise
    EXPECT_EQ(want.best_gap_so_far[g], got.best_gap_so_far[g]);  // bitwise
    EXPECT_EQ(want.current_best_ul[g], got.current_best_ul[g]);
    EXPECT_EQ(want.current_mean_gap[g], got.current_mean_gap[g]);
    EXPECT_EQ(want.ul_evals[g], got.ul_evals[g]);
    EXPECT_EQ(want.ll_evals[g], got.ll_evals[g]);
  }
  EXPECT_EQ(want.final_best_ul, got.final_best_ul);
  EXPECT_EQ(want.final_best_gap, got.final_best_gap);
}

// ---------------------------------------------------------------------------
// Frozen golden baselines.
//
// Captured at commit 40ef88f, the last commit that still had a separate
// serial evaluator class: every literal below is what that commit produced
// for carbon_config()/cobra_config() on make_instance(), printed with "%a"
// so the doubles are exact. Every cell of the golden matrices (threads x
// SIMD path x telemetry) must reproduce them bit for bit. Never regenerate
// these: a mismatch is a behaviour change to explain, not a fixture to
// refresh.
// ---------------------------------------------------------------------------

/// lp_warm=baseline trajectories.
inline const Trajectory kCarbonBaseline{
    .best_ul_so_far = {0x1.dd3ef5fc629fp+9, 0x1.e2cbd22e7987dp+9,
                       0x1.e2cbd22e7987dp+9, 0x1.e2cbd22e7987dp+9,
                       0x1.e2cbd22e7987dp+9, 0x1.e2cbd22e7987dp+9},
    .best_gap_so_far = {0x1.eaa1df469455p+3, 0x1.eaa1df469455p+3,
                        0x1.eaa1df469455p+3, 0x1.eaa1df469455p+3,
                        0x1.eaa1df469455p+3, 0x1.eaa1df469455p+3},
    .current_best_ul = {0x1.dd3ef5fc629fp+9, 0x1.e2cbd22e7987dp+9,
                        0x1.e2cbd22e7987dp+9, 0x1.e2cbd22e7987dp+9,
                        0x1.e2cbd22e7987dp+9, 0x1.e2cbd22e7987dp+9},
    .current_mean_gap = {0x1.d2977820edeedp+5, 0x1.2d1c6b6c9602dp+5,
                         0x1.de872a254fbc8p+4, 0x1.c7a5b199cf6edp+4,
                         0x1.0415f2ff7f79cp+5, 0x1.d3d5e19ea95fcp+4},
    .ul_evals = {8, 16, 24, 32, 40, 48},
    .ll_evals = {24, 48, 72, 96, 120, 144},
    .final_best_ul = 0x1.e2cbd22e7987dp+9,
    .final_best_gap = 0x1.eaa1df469455p+3,
    .generations = 6,
};

inline const Trajectory kCobraBaseline{
    .best_ul_so_far = {0x1.0ff73b1689943p+11, 0x1.0ff73b1689943p+11,
                       0x1.0ff73b1689943p+11, 0x1.0ff73b1689943p+11,
                       0x1.0ff73b1689943p+11, 0x1.0ff73b1689943p+11,
                       0x1.0ff73b1689943p+11, 0x1.0ff73b1689943p+11,
                       0x1.0ff73b1689943p+11, 0x1.0ff73b1689943p+11,
                       0x1.0ff73b1689943p+11},
    .best_gap_so_far = {0x1.5c8690831e0e4p+6, 0x1.5c8690831e0e4p+6,
                        0x1.e2e448c55e16p+5, 0x1.dadfd81d183aap+5,
                        0x1.6698dfe44a90ep+5, 0x1.6698dfe44a90ep+5,
                        0x1.6698dfe44a90ep+5, 0x1.6698dfe44a90ep+5,
                        0x1.3df14931d2f02p+5, 0x1.3df14931d2f02p+5,
                        0x1.3df14931d2f02p+5},
    .current_best_ul = {0x1.0ff73b1689943p+11, 0x1.0f464745a26eep+11,
                        0x1.0ff73b1689943p+11, 0x1.1e595d76a6426p+10,
                        0x1.74fe6876b6c42p+10, 0x1.1e595d76a6426p+10,
                        0x1.1ef5d06820454p+10, 0x1.0e8a8355fe5e5p+11,
                        0x1.1e595d76a6426p+10, 0x1.1e595d76a6426p+10,
                        0x1.1ef5d06820454p+10},
    .current_mean_gap = {0x1.e538f380ea257p+6, 0x1.d27bbbab04982p+6,
                         0x1.903b1595e2797p+6, 0x1.1e02d1cb504b8p+6,
                         0x1.d5682464ae674p+5, 0x1.e3d31256a79ffp+5,
                         0x1.f94e0b862b348p+5, 0x1.ea2447845122p+5,
                         0x1.d40dd1a970d7fp+5, 0x1.a971d52562b1cp+5,
                         0x1.ec31c1d273ceep+5},
    .ul_evals = {8, 16, 24, 32, 36, 44, 52, 60, 68, 72, 80},
    .ll_evals = {8, 16, 24, 32, 36, 44, 52, 60, 68, 72, 80},
    .final_best_ul = 0x1.0ff73b1689943p+11,
    .final_best_gap = 0x1.3df14931d2f02p+5,
    .generations = 11,
};

/// lp_warm=pool trajectories (a different golden axis: a pooled start basis
/// rounds the last bits of the duals through a different B^-1 history).
inline const Trajectory kCarbonPool{
    .best_ul_so_far = {0x1.dd3ef5fc629fp+9, 0x1.e2cbd22e7987dp+9,
                       0x1.e2cbd22e7987dp+9, 0x1.e2cbd22e7987dp+9,
                       0x1.e2cbd22e7987dp+9, 0x1.e2cbd22e7987dp+9},
    .best_gap_so_far = {0x1.eaa1df469455p+3, 0x1.eaa1df469455p+3,
                        0x1.eaa1df469455p+3, 0x1.eaa1df469455p+3,
                        0x1.eaa1df469455p+3, 0x1.eaa1df469455p+3},
    .current_best_ul = {0x1.dd3ef5fc629fp+9, 0x1.e2cbd22e7987dp+9,
                        0x1.e2cbd22e7987dp+9, 0x1.e2cbd22e7987dp+9,
                        0x1.e2cbd22e7987dp+9, 0x1.e2cbd22e7987dp+9},
    .current_mean_gap = {0x1.d2977820edeedp+5, 0x1.2d1c6b6c9603p+5,
                         0x1.de872a254fbcap+4, 0x1.c7a5b199cf6efp+4,
                         0x1.0415f2ff7f79cp+5, 0x1.d3d5e19ea95fcp+4},
    .ul_evals = {8, 16, 24, 32, 40, 48},
    .ll_evals = {24, 48, 72, 96, 120, 144},
    .final_best_ul = 0x1.e2cbd22e7987dp+9,
    .final_best_gap = 0x1.eaa1df469455p+3,
    .generations = 6,
};

inline const Trajectory kCobraPool{
    .best_ul_so_far = {0x1.0ff73b1689943p+11, 0x1.0ff73b1689943p+11,
                       0x1.0ff73b1689943p+11, 0x1.0ff73b1689943p+11,
                       0x1.0ff73b1689943p+11, 0x1.0ff73b1689943p+11,
                       0x1.0ff73b1689943p+11, 0x1.0ff73b1689943p+11,
                       0x1.0ff73b1689943p+11, 0x1.0ff73b1689943p+11,
                       0x1.0ff73b1689943p+11},
    .best_gap_so_far = {0x1.5c8690831e0e4p+6, 0x1.5c8690831e0e4p+6,
                        0x1.e2e448c55e16p+5, 0x1.dadfd81d183aap+5,
                        0x1.6698dfe44a90ep+5, 0x1.6698dfe44a90ep+5,
                        0x1.6698dfe44a90ep+5, 0x1.6698dfe44a90ep+5,
                        0x1.3df14931d2f02p+5, 0x1.3df14931d2effp+5,
                        0x1.3df14931d2effp+5},
    .current_best_ul = {0x1.0ff73b1689943p+11, 0x1.0f464745a26eep+11,
                        0x1.0ff73b1689943p+11, 0x1.1e595d76a6426p+10,
                        0x1.74fe6876b6c42p+10, 0x1.1e595d76a6426p+10,
                        0x1.1ef5d06820454p+10, 0x1.0e8a8355fe5e5p+11,
                        0x1.1e595d76a6426p+10, 0x1.1e595d76a6426p+10,
                        0x1.1ef5d06820454p+10},
    .current_mean_gap = {0x1.e538f380ea257p+6, 0x1.d27bbbab04981p+6,
                         0x1.903b1595e2797p+6, 0x1.1e02d1cb504b8p+6,
                         0x1.d5682464ae672p+5, 0x1.e3d31256a79fep+5,
                         0x1.f94e0b862b346p+5, 0x1.ea2447845122p+5,
                         0x1.d40dd1a970d7fp+5, 0x1.a971d52562b1ap+5,
                         0x1.ec31c1d273cecp+5},
    .ul_evals = {8, 16, 24, 32, 36, 44, 52, 60, 68, 72, 80},
    .ll_evals = {8, 16, 24, 32, 36, 44, 52, 60, 68, 72, 80},
    .final_best_ul = 0x1.0ff73b1689943p+11,
    .final_best_gap = 0x1.3df14931d2effp+5,
    .generations = 11,
};

/// Summary-record backend counters of a default-configured (score memo on)
/// eval_threads=1 run at the same commit. They pin the one-shard relaxation
/// and score-memo LRUs of the single-participant evaluator to the serial
/// evaluator's cache traffic.
struct BackendCounters {
  long long relax_cache_hits = 0;
  long long relax_cache_misses = 0;
  long long relax_cache_evictions = 0;
  long long dedup_hits = 0;
  long long xgen_hits = 0;
  long long lp_pool_hits = 0;  ///< 0 under lp_warm=baseline
};

inline constexpr BackendCounters kCarbonBaselineCounters{
    .relax_cache_hits = 62,
    .relax_cache_misses = 16,
    .relax_cache_evictions = 0,
    .dedup_hits = 47,
    .xgen_hits = 19,
    .lp_pool_hits = 0,
};
inline constexpr BackendCounters kCobraBaselineCounters{
    .relax_cache_hits = 52,
    .relax_cache_misses = 28,
    .relax_cache_evictions = 0,
    .dedup_hits = 0,
    .xgen_hits = 0,
    .lp_pool_hits = 0,
};
inline constexpr BackendCounters kCarbonPoolCounters{
    .relax_cache_hits = 62,
    .relax_cache_misses = 16,
    .relax_cache_evictions = 0,
    .dedup_hits = 47,
    .xgen_hits = 19,
    .lp_pool_hits = 14,
};
inline constexpr BackendCounters kCobraPoolCounters{
    .relax_cache_hits = 52,
    .relax_cache_misses = 28,
    .relax_cache_evictions = 0,
    .dedup_hits = 0,
    .xgen_hits = 0,
    .lp_pool_hits = 20,
};

/// Checks a journal summary record's "backend" block against `want`.
inline void expect_backend_counters(const BackendCounters& want,
                                    const obs::JsonValue& summary,
                                    const std::string& label) {
  SCOPED_TRACE(label);
  ASSERT_EQ(summary.at("type").as_string(), "summary");
  const obs::JsonValue& b = summary.at("backend");
  EXPECT_EQ(b.at("relax_cache_hits").as_integer(), want.relax_cache_hits);
  EXPECT_EQ(b.at("relax_cache_misses").as_integer(), want.relax_cache_misses);
  EXPECT_EQ(b.at("relax_cache_evictions").as_integer(),
            want.relax_cache_evictions);
  EXPECT_EQ(b.at("dedup_hits").as_integer(), want.dedup_hits);
  EXPECT_EQ(b.at("xgen_hits").as_integer(), want.xgen_hits);
  EXPECT_EQ(b.at("lp_pool_hits").as_integer(), want.lp_pool_hits);
}

inline std::vector<obs::JsonValue> parse_journal(const std::string& text) {
  std::vector<obs::JsonValue> out;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty()) out.push_back(obs::parse_json(line));
  }
  return out;
}

}  // namespace carbon::golden
