// Differential tests for the incremental (dirty-set) batched greedy: for
// every scorer regime — BRES-dependent (dense rescore every round),
// QCOV-only (dirty-set rescore), round-invariant (never rescored), started
// from nothing or from a partial selection — the selections, tie-breaks,
// and objective must be bit-identical to the per-bundle reference greedy
// (tests/cover/greedy_reference.hpp), and the GreedyBatchStats must show
// the work actually skipped.
//
// Labeled sanitizer-critical: the gather/scatter sub-batch path indexes
// compacted columns through the surviving-dirty list; ASan validates those
// bounds, and the scratch-reuse tests catch any state leaking between
// solves through a recycled GreedyScratch.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <span>
#include <vector>

#include "carbon/common/rng.hpp"
#include "carbon/cover/generator.hpp"
#include "carbon/cover/greedy.hpp"
#include "carbon/cover/instance.hpp"
#include "carbon/gp/compiled.hpp"
#include "carbon/gp/generate.hpp"
#include "carbon/gp/scoring.hpp"
#include "carbon/gp/tree.hpp"
#include "cover/greedy_reference.hpp"
#include "gp/interpreter.hpp"

namespace carbon::cover {
namespace {

[[nodiscard]] std::uint64_t bits(double v) noexcept {
  return std::bit_cast<std::uint64_t>(v);
}

/// Small instances so the suite stays fast yet runs many greedy rounds.
[[nodiscard]] Instance small_instance(std::uint64_t seed,
                                      std::size_t bundles = 60,
                                      std::size_t services = 8) {
  GeneratorConfig cfg;
  cfg.num_bundles = bundles;
  cfg.num_services = services;
  cfg.tightness = 0.45;  // tighter demand -> more rounds -> more rescoring
  cfg.seed = seed;
  return generate(cfg);
}

/// LP-ish side inputs so DUAL and XBAR are exercised too.
struct SideInputs {
  std::vector<double> duals;
  std::vector<double> xbar;
};

[[nodiscard]] SideInputs side_inputs(common::Rng& rng, const Instance& inst) {
  SideInputs s;
  s.duals.resize(inst.num_services());
  s.xbar.resize(inst.num_bundles());
  for (auto& d : s.duals) d = rng.uniform(0.0, 2.0);
  for (auto& x : s.xbar) x = rng.uniform(0.0, 1.0);
  return s;
}

/// Start selections the core must honor: nothing selected, and a sparse
/// random partial selection whose length is drawn around the bundle count
/// (shorter, equal or longer).
[[nodiscard]] std::vector<std::vector<std::uint8_t>> starts(
    common::Rng& rng, const Instance& inst) {
  const std::size_t m = inst.num_bundles();
  std::vector<std::uint8_t> partial(m / 2 + rng.below(m));
  for (auto& b : partial) b = rng.uniform() < 0.08 ? 1 : 0;
  return {{}, partial};
}

void expect_same_solve(const SolveResult& a, const SolveResult& b,
                       const char* label) {
  ASSERT_EQ(a.feasible, b.feasible) << label;
  ASSERT_EQ(a.rounds_capped, b.rounds_capped) << label;
  ASSERT_EQ(a.selection, b.selection) << label;
  ASSERT_EQ(bits(a.value), bits(b.value)) << label;
}

TEST(GreedyIncremental, MatchesPerBundleReferenceAcrossRandomPrograms) {
  common::Rng rng(4242);
  GreedyScratch scratch;
  std::vector<double> reg_scratch;

  int dirty_regime_seen = 0;
  for (int trial = 0; trial < 40; ++trial) {
    const Instance inst = small_instance(100 + trial);
    const SideInputs side = side_inputs(rng, inst);

    gp::GenerateConfig gen;
    const int depth = 3 + static_cast<int>(rng.below(3));
    gen.min_depth = depth;
    gen.max_depth = depth;
    const gp::Tree tree = gp::generate_full(rng, depth, gen);
    const gp::CompiledProgram program = gp::CompiledProgram::compile(tree);

    for (const std::vector<std::uint8_t>& start : starts(rng, inst)) {
      // Reference: per-bundle interpreter greedy (the paper's algorithm).
      const SolveResult ref = testing::reference_greedy(
          inst, gp::testing::interpreter_scorer(tree), side.duals, side.xbar,
          start);

      // Incremental dirty-set greedy through the dependency-aware scorer.
      GreedyBatchStats stats;
      const SolveResult inc = greedy_solve(
          inst, gp::CompiledBatchScorer(program, reg_scratch), side.duals,
          side.xbar, start, {}, &scratch, &stats);
      expect_same_solve(ref, inc, tree.to_string().c_str());

      // Dense batched baseline: the same program behind a plain lambda (not
      // TerminalAware), which forces a full rescore every round.
      std::vector<double> dense_scratch;
      const SolveResult dense = greedy_solve(
          inst,
          [&](const BatchFeatureView& view, std::span<double> out) {
            program.evaluate_batch(gp::view_to_batch(view), out, dense_scratch);
          },
          side.duals, side.xbar, start);
      expect_same_solve(dense, inc, tree.to_string().c_str());

      // Stats must reflect the regime the program's terminals dictate.
      if (start.empty()) {
        ASSERT_GT(stats.rounds, 0u);
      }
      if (stats.rounds == 0) continue;  // the start already covers demand
      ASSERT_EQ(stats.rescore_slots, stats.rounds * inst.num_bundles());
      if (program.uses_terminal(gp::Terminal::kBres)) {
        EXPECT_EQ(stats.bundles_rescored, stats.rescore_slots)
            << tree.to_string();
      } else if (program.uses_terminal(gp::Terminal::kQcov)) {
        EXPECT_LE(stats.bundles_rescored, stats.rescore_slots);
        if (stats.rounds > 1) {
          EXPECT_LT(stats.rescored_frac(), 1.0) << tree.to_string();
          ++dirty_regime_seen;
        }
      } else {
        // Round-invariant: only the first dense round scores anything.
        EXPECT_EQ(stats.bundles_rescored, inst.num_bundles())
            << tree.to_string();
      }
    }
  }
  // The generator must have produced at least a few multi-round QCOV-only
  // programs, or the dirty-set path went untested.
  EXPECT_GT(dirty_regime_seen, 0);
}

TEST(GreedyIncremental, QcovOnlyProgramsTakeTheDirtySetPath) {
  // Hand-built QCOV-dependent, BRES-free scorers covering div/mul/sub forms.
  const char* programs[] = {
      "(div QCOV COST)",
      "(sub (mul QCOV DUAL) COST)",
      "(add (div QCOV COST) (mul XBAR QCOV))",
      "(div (mul QCOV QCOV) (add COST QSUM))",
  };
  common::Rng rng(99);
  GreedyScratch scratch;
  std::vector<double> reg_scratch;
  for (const char* text : programs) {
    const gp::Tree tree = gp::parse(text);
    const gp::CompiledProgram program = gp::CompiledProgram::compile(tree);
    ASSERT_TRUE(program.uses_terminal(gp::Terminal::kQcov)) << text;
    ASSERT_FALSE(program.uses_terminal(gp::Terminal::kBres)) << text;

    for (std::uint64_t seed : {7ULL, 8ULL, 9ULL}) {
      const Instance inst = small_instance(seed, 120, 10);
      const SideInputs side = side_inputs(rng, inst);

      for (const std::vector<std::uint8_t>& start : starts(rng, inst)) {
        const SolveResult ref = testing::reference_greedy(
            inst, gp::testing::interpreter_scorer(tree), side.duals,
            side.xbar, start);
        GreedyBatchStats stats;
        const SolveResult inc = greedy_solve(
            inst, gp::CompiledBatchScorer(program, reg_scratch), side.duals,
            side.xbar, start, {}, &scratch, &stats);
        expect_same_solve(ref, inc, text);
        if (stats.rounds > 1) {
          EXPECT_LT(stats.rescored_frac(), 1.0) << text << " seed=" << seed;
        }
      }
    }
  }
}

TEST(GreedyIncremental, BaselineScorersMatchReference) {
  // The hand-written batch scorers declare their terminals: CostEffectiveness
  // reads QCOV only (dirty-set rescoring), DualMinusCost reads neither
  // (scored once). Both must give the reference greedy's covers, with and
  // without the redundancy pass and under a round cap.
  common::Rng rng(77);
  GreedyScratch scratch;
  for (std::uint64_t seed : {31ULL, 32ULL, 33ULL, 34ULL}) {
    const Instance inst = small_instance(seed, 90, 9);
    const SideInputs side = side_inputs(rng, inst);
    for (const std::vector<std::uint8_t>& start : starts(rng, inst)) {
      for (const GreedyOptions options :
           {GreedyOptions{}, GreedyOptions{.eliminate_redundancy = false},
            GreedyOptions{.max_rounds = 3}}) {
        GreedyBatchStats ce_stats;
        const SolveResult ce =
            greedy_solve(inst, CostEffectiveness{}, side.duals, side.xbar,
                         start, options, &scratch, &ce_stats);
        expect_same_solve(
            testing::reference_greedy(inst, CostEffectiveness{}, side.duals,
                                      side.xbar, start, options),
            ce, "cost-effectiveness");
        if (ce_stats.rounds > 1) {
          EXPECT_LT(ce_stats.rescored_frac(), 1.0) << "seed " << seed;
        }

        GreedyBatchStats dual_stats;
        const SolveResult dual =
            greedy_solve(inst, DualMinusCost{}, side.duals, side.xbar, start,
                         options, &scratch, &dual_stats);
        expect_same_solve(
            testing::reference_greedy(inst, DualMinusCost{}, side.duals,
                                      side.xbar, start, options),
            dual, "dual minus cost");
        if (dual_stats.rounds > 0) {
          EXPECT_EQ(dual_stats.bundles_rescored, inst.num_bundles());
        }
      }
    }
  }
}

TEST(GreedyIncremental, StaticProgramMatchesSortBasedFastPath) {
  // Scorers reading neither QCOV nor BRES are round-invariant; the batched
  // greedy must agree with greedy_solve_static fed the same score column.
  const gp::Tree tree = gp::parse("(sub (mul DUAL QSUM) (div COST QSUM))");
  const gp::CompiledProgram program = gp::CompiledProgram::compile(tree);
  ASSERT_TRUE(program.is_static());

  common::Rng rng(5);
  std::vector<double> reg_scratch;
  GreedyScratch scratch;
  for (std::uint64_t seed : {11ULL, 12ULL, 13ULL}) {
    const Instance inst = small_instance(seed);
    const SideInputs side = side_inputs(rng, inst);

    GreedyBatchStats stats;
    const SolveResult inc = greedy_solve(
        inst, gp::CompiledBatchScorer(program, reg_scratch), side.duals,
        side.xbar, {}, {}, &scratch, &stats);

    // Score every bundle once (any residual state: scores ignore it).
    std::vector<double> qsum;
    std::vector<double> dual_mass;
    detail::static_masses(inst, side.duals, qsum, dual_mass);
    BatchFeatureView view;
    std::vector<double> zeros(inst.num_bundles(), 0.0);
    view.cost = inst.costs();
    view.qsum = qsum;
    view.qcov = zeros;  // unread by a static program
    view.dual = dual_mass;
    view.xbar = side.xbar;
    view.bres = 0.0;
    view.count = inst.num_bundles();
    std::vector<double> scores(inst.num_bundles());
    gp::CompiledBatchScorer(program, reg_scratch)(view, scores);
    const SolveResult fast = greedy_solve_static(inst, scores);

    expect_same_solve(fast, inc, "static fast path");
    // Round-invariant regime: exactly one dense scoring round.
    EXPECT_EQ(stats.bundles_rescored, inst.num_bundles());
  }
}

TEST(GreedyIncremental, ConstantScoresPreserveIndexTieBreaks) {
  // All-equal scores make every round a pure tie: both paths must pick the
  // lowest-index eligible bundle (strict `>` argmax keeps the first max).
  const gp::Tree tree = gp::parse("(div COST COST)");  // simplifies to 1
  const gp::CompiledProgram program = gp::CompiledProgram::compile(tree);
  std::vector<double> reg_scratch;
  common::Rng rng(23);
  for (std::uint64_t seed : {21ULL, 22ULL}) {
    const Instance inst = small_instance(seed);
    for (const std::vector<std::uint8_t>& start : starts(rng, inst)) {
      const SolveResult ref = testing::reference_greedy(
          inst, gp::testing::interpreter_scorer(tree), {}, {}, start);
      const SolveResult inc = greedy_solve(
          inst, gp::CompiledBatchScorer(program, reg_scratch), {}, {}, start);
      expect_same_solve(ref, inc, "constant scores");
    }
  }
}

TEST(GreedyIncremental, ScratchReuseIsStateless) {
  // A scratch carried across solves of different instances and programs,
  // with and without a start selection, must never change any result
  // relative to a fresh scratch.
  common::Rng rng(314);
  GreedyScratch reused;
  std::vector<double> reg_scratch;
  for (int trial = 0; trial < 12; ++trial) {
    const Instance inst =
        small_instance(300 + trial, 40 + 10 * (trial % 3), 6 + (trial % 2));
    const SideInputs side = side_inputs(rng, inst);
    gp::GenerateConfig gen;
    gen.min_depth = 4;
    gen.max_depth = 4;
    const gp::Tree tree = gp::generate_full(rng, 4, gen);
    const gp::CompiledProgram program = gp::CompiledProgram::compile(tree);

    // A start-selection solve, then a solve from nothing, both through
    // the reused scratch.
    const std::vector<std::uint8_t> partial = starts(rng, inst).back();
    for (const std::span<const std::uint8_t> start :
         {std::span<const std::uint8_t>(partial),
          std::span<const std::uint8_t>()}) {
      const SolveResult with_reused = greedy_solve(
          inst, gp::CompiledBatchScorer(program, reg_scratch), side.duals,
          side.xbar, start, {}, &reused);
      std::vector<double> fresh_regs;
      const SolveResult with_fresh = greedy_solve(
          inst, gp::CompiledBatchScorer(program, fresh_regs), side.duals,
          side.xbar, start, {}, nullptr);
      expect_same_solve(with_fresh, with_reused, tree.to_string().c_str());
    }
  }
}

TEST(GreedyIncremental, CoverStateInvariantsHoldAfterEveryAdd) {
  // detail::CoverState::add updates `useful` incrementally and reports the
  // bundles it touched; the dirty-set rescoring is exact only if, after
  // every addition, (a) each unselected bundle's useful coverage equals
  // Σ_k min(q_jk, residual_k) recomputed from scratch, (b) the reported
  // bundles are exactly those whose useful coverage changed, and
  // (c) outstanding is Σ_k residual_k. Bundles are added in random order,
  // not by score, to reach cover states no scorer would.
  common::Rng rng(2718);
  int adds = 0;
  for (const double tightness : {0.1, 0.45, 0.9}) {
    for (int trial = 0; trial < 8; ++trial) {
      GeneratorConfig cfg;
      cfg.num_bundles = 30 + 10 * static_cast<std::size_t>(trial % 3);
      cfg.num_services = 4 + static_cast<std::size_t>(trial % 4);
      cfg.tightness = tightness;
      cfg.max_quantity = trial % 2 == 0 ? 999 : 12;  // the latter ties often
      cfg.seed = 700 + static_cast<std::uint64_t>(trial);
      const Instance inst = generate(cfg);
      const std::size_t m = inst.num_bundles();
      const std::size_t n = inst.num_services();

      for (const std::vector<std::uint8_t>& start : starts(rng, inst)) {
        detail::CoverState c;
        c.reset(inst, start);
        const auto check = [&](const char* when) {
          ASSERT_EQ(c.residual, inst.residual_demand(c.selection)) << when;
          long long outstanding = 0;
          for (const int r : c.residual) outstanding += r;
          ASSERT_EQ(c.outstanding, outstanding) << when;
          for (std::size_t j = 0; j < m; ++j) {
            if (c.selection[j]) continue;
            long long useful = 0;
            for (std::size_t k = 0; k < n; ++k) {
              useful += std::min(inst.quantity(j, k), c.residual[k]);
            }
            ASSERT_EQ(c.useful[j], static_cast<double>(useful))
                << when << ": bundle " << j;
          }
        };
        ASSERT_NO_FATAL_FAILURE(check("after reset"));

        while (c.outstanding > 0) {
          std::vector<std::size_t> eligible;
          for (std::size_t j = 0; j < m; ++j) {
            if (!c.selection[j] && c.useful[j] > 0.0) eligible.push_back(j);
          }
          ASSERT_FALSE(eligible.empty());  // generated instances are coverable
          const std::size_t pick = eligible[rng.below(eligible.size())];

          const std::vector<double> before = c.useful;
          std::vector<std::uint8_t> reported(m, 0);
          c.add(inst, pick, [&](std::size_t i) { reported[i] = 1; });
          ++adds;
          ASSERT_NO_FATAL_FAILURE(check("after add"));
          for (std::size_t i = 0; i < m; ++i) {
            const bool changed = !c.selection[i] && c.useful[i] != before[i];
            ASSERT_EQ(reported[i] != 0, changed)
                << "bundle " << i << " after adding " << pick;
          }
        }
      }
    }
  }
  EXPECT_GT(adds, 100);
}

TEST(GreedyIncremental, PaperClassInstancesRescoreFractionBelowOne) {
  // The acceptance-criterion shape: on Table III instance classes, a
  // QCOV-only scorer must skip a meaningful share of rescoring work.
  const gp::Tree tree = gp::parse("(div QCOV COST)");
  const gp::CompiledProgram program = gp::CompiledProgram::compile(tree);
  std::vector<double> reg_scratch;
  GreedyScratch scratch;
  for (std::size_t c = 0; c < paper_classes().size(); ++c) {
    const Instance inst = make_paper_instance(c, 0);
    GreedyBatchStats stats;
    const SolveResult solved = greedy_solve(
        inst, gp::CompiledBatchScorer(program, reg_scratch), {}, {}, {}, {},
        &scratch, &stats);
    ASSERT_TRUE(solved.feasible) << "class " << c;
    ASSERT_GT(stats.rounds, 1u) << "class " << c;
    EXPECT_LT(stats.rescored_frac(), 1.0) << "class " << c;
  }
}

}  // namespace
}  // namespace carbon::cover
