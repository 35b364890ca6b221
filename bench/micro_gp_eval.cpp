// Microbenchmark of GP scoring-tree evaluation: compiled SoA batch
// evaluation (gp::CompiledProgram, the only GP evaluator) timed twice —
// forced-scalar kernels and the SIMD-dispatched kernels (AVX2 when built and
// supported). The two kernel paths are asserted bit-identical on every case
// before being timed, so a reported speedup can never come from a semantic
// divergence.
//
// Each (depth, batch) cell is measured for two operator pools:
//   full  — trees over the paper's whole operator set. Protected mod has no
//           bit-identical vector form (docs/ALGORITHMS.md §12), so its
//           scalar libm fmod dominates both kernel paths and caps the
//           end-to-end SIMD gain on mod-heavy trees.
//   arith — the same trees with mod rewritten to div: the all-vectorizable
//           mix, showing the kernel-level speedup the dispatch delivers.
//
// Also measures the incremental batched greedy on the paper's Table III
// instance classes: random depth-6 scoring trees are run through
// cover::greedy_solve with GreedyBatchStats, and the fraction of
// score slots actually recomputed (rescored_frac) is reported per class —
// the dense baseline would be 1.0 everywhere. Random full-depth-6 trees
// almost always read BRES (which forces dense rescoring), so each tree is
// also measured with its BRES leaves redirected to QSUM — the QCOV-only
// regime the dirty set accelerates.
//
// Usage: micro_gp_eval [--smoke] [output.json]
//   Prints tables to stdout and writes machine-readable results (with
//   speedups and the SIMD dispatch report) to the JSON file (default:
//   BENCH_gp_eval.json). --smoke shrinks the grid and repetition counts to
//   a sub-second run for the bench-smoke ctest label.

#include <algorithm>
#include <bit>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "carbon/common/rng.hpp"
#include "carbon/common/simd_path.hpp"
#include "carbon/cover/generator.hpp"
#include "carbon/cover/greedy.hpp"
#include "carbon/gp/compiled.hpp"
#include "carbon/gp/generate.hpp"
#include "carbon/gp/scoring.hpp"
#include "carbon/gp/simd.hpp"
#include "carbon/gp/tree.hpp"

namespace {

using namespace carbon;
using Clock = std::chrono::steady_clock;

struct Case {
  const char* pool;  ///< "full" or "arith"
  int depth;
  std::size_t batch;
  std::size_t tree_nodes;
  std::size_t instructions;
  double scalar_ns;     ///< per evaluation, forced-scalar kernels
  double simd_ns;       ///< per evaluation, dispatched (SIMD) kernels
  double simd_speedup;  ///< scalar / simd
};

struct GreedyCase {
  std::size_t bundles;
  std::size_t services;
  std::size_t trees;        ///< (tree, variant) pairs measured
  std::size_t dirty_trees;  ///< pairs on the dirty-set (QCOV-only) regime
  double mean_rounds;
  double frac_all;    ///< mean rescored_frac over all measured pairs
  double frac_dirty;  ///< mean rescored_frac over dirty-set pairs
};

struct Columns {
  std::array<std::vector<double>, gp::kNumTerminals> data;
  gp::CompiledProgram::TerminalBatch batch;
};

Columns make_columns(common::Rng& rng, std::size_t m) {
  Columns c;
  for (std::size_t t = 0; t < gp::kNumTerminals; ++t) {
    // BRES is a round-scalar in the real greedy: broadcast column.
    const std::size_t len =
        t == static_cast<std::size_t>(gp::Terminal::kBres) ? 1 : m;
    for (std::size_t i = 0; i < len; ++i) {
      c.data[t].push_back(rng.uniform(0.0, 1000.0));
    }
  }
  for (std::size_t t = 0; t < gp::kNumTerminals; ++t) {
    c.batch.columns[t] = c.data[t];
  }
  c.batch.count = m;
  return c;
}

/// Tree surgery through the S-expression round trip: rewrites every `from`
/// token to `to` (used for mod->div and BRES->QSUM families).
gp::Tree rewrite_tokens(const gp::Tree& tree, const std::string& from,
                        const std::string& to) {
  std::string text = tree.to_string();
  std::size_t pos = 0;
  while ((pos = text.find(from, pos)) != std::string::npos) {
    text.replace(pos, from.size(), to);
    pos += to.size();
  }
  return gp::parse(text);
}

Case run_case(common::Rng& rng, const char* pool, int depth, std::size_t m,
              bool smoke) {
  gp::GenerateConfig gen;
  gen.min_depth = depth;
  gen.max_depth = depth;
  gp::Tree tree = gp::generate_full(rng, depth, gen);
  if (std::string(pool) == "arith") {
    tree = rewrite_tokens(tree, "(mod ", "(div ");
  }
  const gp::CompiledProgram program = gp::CompiledProgram::compile(tree);
  const Columns cols = make_columns(rng, m);

  // Enough repetitions that each timing covers a few million evaluations
  // (a few thousand in smoke mode); best-of-3 to shed scheduler noise.
  const std::size_t budget = smoke ? 4'000 : 2'000'000;
  const std::size_t reps =
      std::max<std::size_t>(4, budget / std::max<std::size_t>(1, m));
  const int trials = smoke ? 1 : 3;

  double sink = 0.0;

  const auto best_of = [&](auto body) {
    double best = std::numeric_limits<double>::infinity();
    for (int trial = 0; trial < trials; ++trial) {
      const auto t0 = Clock::now();
      body();
      const auto t1 = Clock::now();
      best = std::min(
          best, std::chrono::duration<double, std::nano>(t1 - t0).count());
    }
    return best / (static_cast<double>(reps) * static_cast<double>(m));
  };

  // Cross-path bitwise check before timing: the speedup below is only
  // meaningful if both kernel tables compute the same doubles.
  std::vector<double> out_scalar(m);
  std::vector<double> out_simd(m);
  std::vector<double> reg_scratch;
  common::simd::select_path("scalar");
  program.evaluate_batch(cols.batch, out_scalar, reg_scratch);
  common::simd::select_path("auto");
  program.evaluate_batch(cols.batch, out_simd, reg_scratch);
  for (std::size_t i = 0; i < m; ++i) {
    if (std::bit_cast<std::uint64_t>(out_scalar[i]) !=
        std::bit_cast<std::uint64_t>(out_simd[i])) {
      std::fprintf(stderr,
                   "FATAL: scalar/simd divergence depth=%d batch=%zu i=%zu "
                   "(%a vs %a)\n",
                   depth, m, i, out_scalar[i], out_simd[i]);
      std::exit(1);
    }
  }

  std::vector<double> out(m);
  common::simd::select_path("scalar");
  const double scalar_ns = best_of([&] {
    for (std::size_t r = 0; r < reps; ++r) {
      program.evaluate_batch(cols.batch, out, reg_scratch);
      sink += out[r % m];
    }
  });

  common::simd::select_path("auto");
  const double simd_ns = best_of([&] {
    for (std::size_t r = 0; r < reps; ++r) {
      program.evaluate_batch(cols.batch, out, reg_scratch);
      sink += out[r % m];
    }
  });

  // Keep `sink` observable so no timed loop can be optimized away.
  if (sink == 0.12345) std::printf("# sink %f\n", sink);

  return {pool,
          depth,
          m,
          tree.size(),
          program.num_instructions(),
          scalar_ns,
          simd_ns,
          scalar_ns / simd_ns};
}

GreedyCase run_greedy_class(std::size_t class_index, bool smoke) {
  const cover::PaperClass& pc = cover::paper_classes()[class_index];
  const cover::Instance inst = cover::make_paper_instance(class_index, 0);

  common::Rng rng(9000 + class_index);
  gp::GenerateConfig gen;
  gen.min_depth = 6;
  gen.max_depth = 6;

  const std::size_t trees = smoke ? 2 : 8;
  GreedyCase gc{pc.num_bundles, pc.num_services, 0, 0, 0.0, 0.0, 0.0};
  cover::GreedyScratch scratch;
  std::vector<double> reg_scratch;
  const auto measure = [&](const gp::Tree& tree) {
    const gp::CompiledProgram program = gp::CompiledProgram::compile(tree);
    if (program.is_static()) return;  // takes the sort fast path in bcpop
    cover::GreedyBatchStats stats;
    (void)cover::greedy_solve(
        inst, gp::CompiledBatchScorer(program, reg_scratch), {}, {}, {}, {},
        &scratch, &stats);
    gc.trees += 1;
    gc.mean_rounds += static_cast<double>(stats.rounds);
    gc.frac_all += stats.rescored_frac();
    if (!program.uses_terminal(gp::Terminal::kBres)) {
      gc.dirty_trees += 1;
      gc.frac_dirty += stats.rescored_frac();
    }
  };
  for (std::size_t t = 0; t < trees; ++t) {
    const gp::Tree tree = gp::generate_full(rng, 6, gen);
    measure(tree);
    // The QCOV-only variant: depth-6 trees essentially always read BRES
    // somewhere, which forces dense rescoring; redirecting those leaves to
    // QSUM yields the regime the dirty set is built for.
    measure(rewrite_tokens(tree, "BRES", "QSUM"));
  }
  if (gc.trees > 0) {
    gc.mean_rounds /= static_cast<double>(gc.trees);
    gc.frac_all /= static_cast<double>(gc.trees);
  }
  if (gc.dirty_trees > 0) {
    gc.frac_dirty /= static_cast<double>(gc.dirty_trees);
  }
  return gc;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::string json_path = "BENCH_gp_eval.json";
  for (int a = 1; a < argc; ++a) {
    const std::string arg = argv[a];
    if (arg == "--smoke") {
      smoke = true;
    } else {
      json_path = arg;
    }
  }
  common::Rng rng(12345);

  // Resolve + report the dispatch up front (also what the JSON records).
  const bool cpu_avx2 = common::simd::cpu_supports_avx2();
  const bool built_avx2 = common::simd::avx2_available();
  common::simd::select_path("auto");
  const char* dispatched = common::simd::path_name();
  const std::size_t lanes = gp::simd::lanes();
  std::printf("simd: cpu_avx2=%d compiled_avx2=%d dispatched=%s lanes=%zu\n",
              cpu_avx2 ? 1 : 0, built_avx2 ? 1 : 0, dispatched, lanes);

  std::vector<Case> cases;
  const std::vector<int> depths = smoke ? std::vector<int>{4}
                                        : std::vector<int>{2, 4, 6, 8};
  const std::vector<std::size_t> batches =
      smoke ? std::vector<std::size_t>{50}
            : std::vector<std::size_t>{50, 200, 1000};
  for (const char* pool : {"full", "arith"}) {
    for (const int depth : depths) {
      for (const std::size_t m : batches) {
        cases.push_back(run_case(rng, pool, depth, m, smoke));
      }
    }
  }

  std::printf("%6s %6s %6s %6s %6s %12s %12s %9s\n", "pool", "depth",
              "batch", "nodes", "instr", "scalar ns", "simd ns", "simd x");
  for (const Case& c : cases) {
    std::printf("%6s %6d %6zu %6zu %6zu %12.2f %12.2f %8.2fx\n", c.pool,
                c.depth, c.batch, c.tree_nodes, c.instructions, c.scalar_ns,
                c.simd_ns, c.simd_speedup);
  }

  // Incremental greedy on the paper's instance classes.
  std::vector<GreedyCase> greedy;
  const std::size_t num_classes =
      smoke ? 2 : cover::paper_classes().size();
  for (std::size_t c = 0; c < num_classes; ++c) {
    greedy.push_back(run_greedy_class(c, smoke));
  }
  std::printf("\n%8s %9s %6s %11s %8s %10s %11s\n", "bundles", "services",
              "trees", "dirty-trees", "rounds", "frac(all)", "frac(dirty)");
  for (const GreedyCase& g : greedy) {
    std::printf("%8zu %9zu %6zu %11zu %8.1f %10.3f %11.3f\n", g.bundles,
                g.services, g.trees, g.dirty_trees, g.mean_rounds, g.frac_all,
                g.frac_dirty);
  }

  std::FILE* f = std::fopen(json_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n", json_path.c_str());
    return 1;
  }
  std::fprintf(f, "{\n  \"bench\": \"gp_eval\",\n");
  std::fprintf(f,
               "  \"simd\": {\"cpu_avx2\": %s, \"compiled_avx2\": %s, "
               "\"dispatched\": \"%s\", \"lanes\": %zu},\n",
               cpu_avx2 ? "true" : "false", built_avx2 ? "true" : "false",
               dispatched, lanes);
  std::fprintf(f, "  \"results\": [\n");
  for (std::size_t i = 0; i < cases.size(); ++i) {
    const Case& c = cases[i];
    std::fprintf(
        f,
        "    {\"pool\": \"%s\", \"depth\": %d, \"batch\": %zu, "
        "\"tree_nodes\": %zu, \"program_instructions\": %zu, "
        "\"compiled_ns_per_eval\": %.3f, \"simd_ns_per_eval\": %.3f, "
        "\"simd_speedup\": %.3f}%s\n",
        c.pool, c.depth, c.batch, c.tree_nodes, c.instructions, c.scalar_ns,
        c.simd_ns, c.simd_speedup, i + 1 < cases.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n  \"greedy_rescoring\": [\n");
  for (std::size_t i = 0; i < greedy.size(); ++i) {
    const GreedyCase& g = greedy[i];
    std::fprintf(f,
                 "    {\"bundles\": %zu, \"services\": %zu, \"trees\": %zu, "
                 "\"dirty_trees\": %zu, \"mean_rounds\": %.2f, "
                 "\"rescored_frac_all\": %.4f, "
                 "\"rescored_frac_dirty\": %.4f}%s\n",
                 g.bundles, g.services, g.trees, g.dirty_trees, g.mean_rounds,
                 g.frac_all, g.frac_dirty, i + 1 < greedy.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("wrote %s\n", json_path.c_str());
  return 0;
}
