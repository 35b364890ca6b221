// Frozen-answer test of the nested-GA baseline (the NSQ category of the
// paper's Fig. 2). A small run is folded into one 64-bit FNV-1a fingerprint:
// the bits of the best pricing, best_ul_objective, best_gap, the best
// evaluation's selection, the budget counters and every convergence point.
//
// The follower model of this baseline is the fixed cost-effectiveness
// greedy, so the literal pins that greedy's covers across every pricing the
// GA visits, together with the evaluator's charging and archive logic. A
// change of scorer shape, greedy entry point or rescoring regime that keeps
// the literal computes the same run bit for bit.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "carbon/baselines/nested_ga.hpp"
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

core::RunResult run_nested(std::size_t bundles, std::size_t services,
                           std::uint64_t seed) {
  cover::GeneratorConfig gen;
  gen.num_bundles = bundles;
  gen.num_services = services;
  gen.seed = seed;
  const bcpop::Instance inst(cover::generate(gen), bundles / 10);
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

}  // namespace
}  // namespace carbon::baselines
