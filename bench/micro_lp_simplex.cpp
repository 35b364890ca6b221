// Microbenchmark of the production revised-simplex kernels.
//
// Part 1 — kernel grid: for relaxation-shaped problems (n = 4m covering
// columns, >= rows) across an m x density grid, plus the paper's class-8
// shape (m = 30, n = 500, density 0.75), times the two inner loops the
// solver spends its life in — pricing (A_j^T y for every column, and the
// entering-column choice) and FTRAN column formation (B^-1 A_j) — against
// dense loops over columns materialized with their zeros, kept here as the
// reference. Pricing has these rows, all per column:
//   dense      the per-column dense dot;
//   csc        the per-column dot over stored nonzeros that the solver
//              priced with before column panels (a comparison point);
//   panel      lp::ColumnPanels::multiply_transposed on the active path;
//   3-pass     the pricing the simplex ran before the fused pass, on the
//              portable path: the panel pass into an array, then a scalar
//              scan of the scores (a comparison point);
//   fused      lp::ColumnPanels::choose_entering, what the simplex runs,
//              once per kernel path (portable SSE2, and AVX2 when the build
//              and the CPU have it).
// The sparse FTRAN loop mirrors the solver's over the same storage. Every
// variant must compute bit-identical results (asserted; the choices of the
// fused pass against a scan of the dense dots).
//
// Part 2 — evaluator replay: simulates the UL population walk the
// evaluator actually serves (a population of pricings mutating
// multiplicatively across generations) through the ProblemFamily rebind
// path, comparing the fixed-baseline warm start (lp_warm=baseline) against
// the deterministic nearest-pricing BasisPool (lp_warm=pool, including the
// pool's own select/insert overhead). Reports pivots and us/solve per mode;
// the optimal objective VALUES must agree (the two B^-1 update histories
// may round the answers differently in their last bits).
//
// Usage: micro_lp_simplex [--smoke] [output.json]
//   Prints tables to stdout and writes machine-readable results to the JSON
//   file (default: BENCH_lp_simplex.json). --smoke shrinks the grid and
//   repetition counts to a sub-second run for the bench-smoke ctest label.

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "carbon/bcpop/basis_pool.hpp"
#include "carbon/common/rng.hpp"
#include "carbon/common/simd_path.hpp"
#include "carbon/cover/generator.hpp"
#include "carbon/cover/relaxation.hpp"
#include "carbon/lp/column_panels.hpp"
#include "carbon/lp/simplex.hpp"

namespace {

using namespace carbon;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Covering-relaxation-shaped LP: n columns in [0,1], m >= rows, integer
/// coefficients, nonzero with probability `density`.
lp::Problem make_relaxation_shaped(common::Rng& rng, std::size_t m,
                                   std::size_t n, double density) {
  lp::Problem p;
  for (std::size_t j = 0; j < n; ++j) {
    p.add_variable(rng.uniform(1.0, 1000.0), 0.0, 1.0);
  }
  std::vector<lp::RowEntry> entries;
  for (std::size_t i = 0; i < m; ++i) {
    entries.clear();
    double total = 0.0;
    for (std::size_t j = 0; j < n; ++j) {
      if (!rng.chance(density)) continue;
      const double q = std::floor(rng.uniform(1.0, 1000.0));
      entries.push_back({j, q});
      total += q;
    }
    p.add_constraint(entries, lp::RowSense::kGreaterEqual, 0.25 * total);
  }
  return p;
}

/// Dense column materialization (the pre-sparse storage layout).
std::vector<std::vector<double>> densify(const lp::Problem& p) {
  std::vector<std::vector<double>> cols(p.num_vars(),
                                        std::vector<double>(p.num_rows(), 0.0));
  for (std::size_t j = 0; j < p.num_vars(); ++j) {
    const lp::SparseColumn& col = p.columns[j];
    for (std::size_t k = 0; k < col.nnz(); ++k) {
      cols[j][static_cast<std::size_t>(col.rows[k])] = col.values[k];
    }
  }
  return cols;
}

struct KernelCase {
  std::size_t m, n;
  double density;
  double nnz_frac;  ///< measured nonzero fraction of the matrix
  double pricing_dense_ns;   ///< full pricing sweep, per column
  double pricing_csc_ns;     ///< per-column dot over stored nonzeros
  double pricing_panel_ns;   ///< lp::ColumnPanels::multiply_transposed
  double pricing_speedup;    ///< dense / panel
  double pricing_panel_vs_csc;  ///< csc / panel
  double three_pass_ns;      ///< panel pass + scalar scan, portable path
  double fused_sse2_ns;      ///< choose_entering, portable path
  double fused_avx2_ns;      ///< choose_entering, AVX2 path (-1: n/a)
  double ftran_dense_ns;     ///< one B^-1 A_j, per column
  double ftran_sparse_ns;
  double ftran_speedup;
};

KernelCase run_kernel_case(common::Rng& rng, std::size_t m, std::size_t n,
                           double density, bool smoke) {
  const lp::Problem p = make_relaxation_shaped(rng, m, n, density);
  const auto dense_cols = densify(p);
  const lp::ColumnPanels panels(p);

  std::vector<double> y(m);
  for (auto& v : y) v = rng.uniform(-1.0, 1.0);
  // Stand-in B^-1 (row-major, like the solver's DenseMatrix).
  std::vector<double> binv(m * m);
  for (auto& v : binv) v = rng.uniform(-1.0, 1.0);

  const std::size_t target_macs = smoke ? 2'000'000 : 400'000'000;
  const std::size_t sweep_reps =
      std::max<std::size_t>(3, target_macs / std::max<std::size_t>(1, n * m));

  double sink = 0.0;

  // Pricing sweep, dense: every column is an m-length dot product.
  std::vector<double> dense_aty(n);
  const auto t0 = Clock::now();
  for (std::size_t r = 0; r < sweep_reps; ++r) {
    for (std::size_t j = 0; j < n; ++j) {
      const auto& col = dense_cols[j];
      double acc = 0.0;
      for (std::size_t i = 0; i < m; ++i) acc += col[i] * y[i];
      dense_aty[j] = acc;
    }
    sink += dense_aty[r % n];
  }
  const double dense_sweep_s = seconds_since(t0);

  // Pricing sweep, csc: one dependent-add chain over each column's stored
  // nonzeros. Bit-identical accumulation.
  std::vector<double> csc_aty(n);
  const auto t1 = Clock::now();
  for (std::size_t r = 0; r < sweep_reps; ++r) {
    for (std::size_t j = 0; j < n; ++j) {
      const lp::SparseColumn& col = p.columns[j];
      double acc = 0.0;
      for (std::size_t k = 0; k < col.nnz(); ++k) {
        acc += col.values[k] * y[static_cast<std::size_t>(col.rows[k])];
      }
      csc_aty[j] = acc;
    }
    sink += csc_aty[r % n];
  }
  const double csc_sweep_s = seconds_since(t1);

  // Pricing sweep, panels: the library pass the solver prices with.
  std::vector<double> panel_aty(n);
  const auto t4 = Clock::now();
  for (std::size_t r = 0; r < sweep_reps; ++r) {
    panels.multiply_transposed(y, panel_aty);
    sink += panel_aty[r % n];
  }
  const double panel_sweep_s = seconds_since(t4);

  for (std::size_t j = 0; j < n; ++j) {
    if (csc_aty[j] != dense_aty[j] || panel_aty[j] != dense_aty[j]) {
      std::fprintf(stderr,
                   "pricing mismatch at m=%zu density=%.2f column %zu\n", m,
                   density, j);
      std::abort();
    }
  }

  // Entering-column choice. Costs sit near the dense A_j^T y so that many
  // columns are eligible, and the directions mix the three kinds: -1 (at
  // lower), +1 (at upper), 0 (basic or fixed), as in a mid-solve basis.
  constexpr double kTol = 1e-7;
  std::vector<double> cost(n);
  std::vector<double> dir(n);
  for (std::size_t j = 0; j < n; ++j) {
    cost[j] = dense_aty[j] + rng.uniform(-1.0, 1.0);
    const double u = rng.uniform(0.0, 1.0);
    dir[j] = u < 0.6 ? -1.0 : u < 0.9 ? 1.0 : 0.0;
  }
  lp::ColumnPanels::Choice want{n, kTol};
  for (std::size_t j = 0; j < n; ++j) {
    const double score = dir[j] * (cost[j] - dense_aty[j]);
    if (score > want.score) want = {j, score};
  }
  const auto check_choice = [&](const lp::ColumnPanels::Choice& got) {
    if (got.column != want.column ||
        std::bit_cast<std::uint64_t>(got.score) !=
            std::bit_cast<std::uint64_t>(want.score)) {
      std::fprintf(stderr,
                   "fused choice mismatch at m=%zu density=%.2f path=%s: "
                   "column %zu vs %zu\n",
                   m, density, common::simd::path_name(), got.column,
                   want.column);
      std::abort();
    }
  };

  // The pre-fusion pricing: panel pass into an array, then a scalar scan.
  common::simd::select_path("scalar");
  const auto t5 = Clock::now();
  for (std::size_t r = 0; r < sweep_reps; ++r) {
    panels.multiply_transposed(y, panel_aty);
    lp::ColumnPanels::Choice best{n, kTol};
    for (std::size_t j = 0; j < n; ++j) {
      const double score = dir[j] * (cost[j] - panel_aty[j]);
      if (score > best.score) best = {j, score};
    }
    check_choice(best);
  }
  const double three_pass_s = seconds_since(t5);

  // The fused pass, once per kernel path.
  const auto time_fused = [&]() {
    const auto t = Clock::now();
    for (std::size_t r = 0; r < sweep_reps; ++r) {
      lp::ColumnPanels::Choice best{n, kTol};
      panels.choose_entering(y, cost, dir, /*first_eligible=*/false, best);
      check_choice(best);
    }
    return seconds_since(t);
  };
  const double fused_sse2_s = time_fused();
  double fused_avx2_s = -1.0;
  if (common::simd::select_path("avx2") == common::simd::Path::kAvx2) {
    fused_avx2_s = time_fused();
  }
  common::simd::select_path("auto");

  // FTRAN: alpha = B^-1 A_j for a rotating set of columns.
  const std::size_t ftran_reps = std::max<std::size_t>(
      3, target_macs / std::max<std::size_t>(1, m * m * 8));
  std::vector<double> alpha(m);
  const auto t2 = Clock::now();
  for (std::size_t r = 0; r < ftran_reps; ++r) {
    for (std::size_t j = 0; j < 8; ++j) {
      const auto& col = dense_cols[(r * 8 + j) % n];
      for (std::size_t i = 0; i < m; ++i) {
        double acc = 0.0;
        const double* brow = binv.data() + i * m;
        for (std::size_t c = 0; c < m; ++c) acc += brow[c] * col[c];
        alpha[i] = acc;
      }
      sink += alpha[r % m];
    }
  }
  const double dense_ftran_s = seconds_since(t2);

  std::vector<double> alpha2(m);
  const auto t3 = Clock::now();
  for (std::size_t r = 0; r < ftran_reps; ++r) {
    for (std::size_t j = 0; j < 8; ++j) {
      const lp::SparseColumn& col = p.columns[(r * 8 + j) % n];
      for (std::size_t i = 0; i < m; ++i) {
        double acc = 0.0;
        const double* brow = binv.data() + i * m;
        for (std::size_t k = 0; k < col.nnz(); ++k) {
          acc += brow[static_cast<std::size_t>(col.rows[k])] * col.values[k];
        }
        alpha2[i] = acc;
      }
      sink += alpha2[r % m];
    }
  }
  const double sparse_ftran_s = seconds_since(t3);

  // Bitwise agreement of the final FTRAN column (same (r, j) sequence).
  for (std::size_t i = 0; i < m; ++i) {
    if (alpha[i] != alpha2[i]) {
      std::fprintf(stderr, "kernel mismatch at m=%zu density=%.2f row %zu\n",
                   m, density, i);
      std::abort();
    }
  }
  if (sink == 0.12345) std::printf("# sink %f\n", sink);

  KernelCase c;
  c.m = m;
  c.n = n;
  c.density = density;
  c.nnz_frac = static_cast<double>(p.num_nonzeros()) /
               static_cast<double>(n * m);
  const double sweep_cols =
      static_cast<double>(sweep_reps) * static_cast<double>(n);
  c.pricing_dense_ns = dense_sweep_s * 1e9 / sweep_cols;
  c.pricing_csc_ns = csc_sweep_s * 1e9 / sweep_cols;
  c.pricing_panel_ns = panel_sweep_s * 1e9 / sweep_cols;
  c.pricing_speedup = c.pricing_dense_ns / c.pricing_panel_ns;
  c.pricing_panel_vs_csc = c.pricing_csc_ns / c.pricing_panel_ns;
  c.three_pass_ns = three_pass_s * 1e9 / sweep_cols;
  c.fused_sse2_ns = fused_sse2_s * 1e9 / sweep_cols;
  c.fused_avx2_ns =
      fused_avx2_s < 0.0 ? -1.0 : fused_avx2_s * 1e9 / sweep_cols;
  const double ftran_cols = static_cast<double>(ftran_reps) * 8.0;
  c.ftran_dense_ns = dense_ftran_s * 1e9 / ftran_cols;
  c.ftran_sparse_ns = sparse_ftran_s * 1e9 / ftran_cols;
  c.ftran_speedup = c.ftran_dense_ns / c.ftran_sparse_ns;
  return c;
}

struct ReplayCase {
  std::size_t m, n;  ///< rows (services), columns (bundles)
  double density;
  std::size_t population, generations, solves;
  double baseline_us;  ///< per solve, fixed-baseline warm start
  double pool_us;      ///< per solve, BasisPool warm start (incl. overhead)
  double speedup;
  long long baseline_pivots;
  long long pool_pivots;
  long long pool_hits;     ///< solves served from a pooled basis
  long long pool_rejects;  ///< pooled bases rejected -> baseline re-solve
};

ReplayCase run_replay_case(std::size_t services, std::size_t bundles,
                           double density, bool smoke) {
  cover::GeneratorConfig cfg;
  cfg.num_bundles = bundles;
  cfg.num_services = services;
  cfg.density = density;
  cfg.seed = 7000 + services + bundles;
  const cover::Instance inst = cover::generate(cfg);
  lp::ProblemFamily family(cover::build_relaxation_lp(inst));
  lp::SolveScratch scratch;

  lp::SimplexOptions opts;
  opts.max_iterations = 400'000;

  // Baseline basis, exactly as RelaxationFamily pins it at construction.
  lp::Basis baseline;
  {
    lp::Basis b;
    const lp::Solution sol = lp::solve(family, opts, &b, &scratch);
    if (!sol.optimal()) {
      std::fprintf(stderr, "replay baseline solve failed\n");
      std::abort();
    }
    baseline = b;
  }

  // The UL population walk, shaped like the load the evaluator actually
  // serves: the leader re-prices only an OWNED prefix of the bundles (the
  // pricing-prefix convention), and polynomial mutation touches ~1/n of the
  // genes per offspring — so each generation every member drifts in a
  // couple of owned coordinates, not everywhere. That sparse locality is
  // exactly what nearest-pricing selection exploits: a member's own parent
  // is far closer than any other member.
  const std::size_t population = smoke ? 4 : 24;
  const std::size_t generations = smoke ? 2 : 8;
  const std::size_t owned = std::max<std::size_t>(4, bundles / 5);
  common::Rng rng(31 + services);
  std::vector<std::vector<double>> pop(population);
  for (auto& pr : pop) {
    pr.resize(bundles);
    for (std::size_t j = 0; j < bundles; ++j) pr[j] = inst.cost(j);
    for (std::size_t j = 0; j < owned; ++j) pr[j] *= rng.uniform(0.5, 1.5);
  }
  const double gene_rate = 2.0 / static_cast<double>(owned);
  std::vector<std::vector<std::vector<double>>> walk;  // per generation
  walk.push_back(pop);
  for (std::size_t g = 1; g < generations; ++g) {
    for (auto& pr : pop) {
      for (std::size_t j = 0; j < owned; ++j) {
        if (rng.chance(gene_rate)) pr[j] *= rng.uniform(0.8, 1.2);
      }
    }
    walk.push_back(pop);
  }

  long long baseline_pivots = 0;
  long long pool_pivots = 0;
  long long pool_hits = 0;
  long long pool_rejects = 0;
  double baseline_obj = 0.0;
  double pool_obj = 0.0;
  lp::Basis basis;

  // Mode 1: the fixed-baseline scheme (lp_warm=baseline).
  const auto t0 = Clock::now();
  for (const auto& gen : walk) {
    for (const auto& pr : gen) {
      family.rebind(pr);
      basis = baseline;
      const cover::Relaxation relax =
          cover::solve_relaxation_lp(family, opts, &basis, &scratch);
      baseline_pivots += relax.stats.iterations;
      baseline_obj += relax.lower_bound;
    }
  }
  const double baseline_s = seconds_since(t0);

  // Mode 2: the nearest-pricing pool (lp_warm=pool), fallback to the
  // baseline basis on an empty pool or a rejected warm start — the exact
  // discipline of the pool-mode evaluator, overhead included.
  // Sized like the solvers size it: two generations of the population must
  // fit, or mid-generation LRU evictions reap exactly the parent bases the
  // not-yet-re-evaluated members are about to warm-start from, and the pool
  // degenerates to cousin-basis warm starts (~the baseline's pivot count).
  bcpop::BasisPool pool(2 * population);
  const auto t1 = Clock::now();
  for (const auto& gen : walk) {
    for (const auto& pr : gen) {
      family.rebind(pr);
      const lp::Basis* warm = pool.select(pr);
      const bool from_pool = warm != nullptr;
      basis = from_pool ? *warm : baseline;
      cover::Relaxation relax =
          cover::solve_relaxation_lp(family, opts, &basis, &scratch);
      if (from_pool && relax.stats.warm_start_rejected) {
        ++pool_rejects;
        basis = baseline;
        relax = cover::solve_relaxation_lp(family, opts, &basis, &scratch);
      } else if (from_pool) {
        ++pool_hits;
      }
      pool_pivots += relax.stats.iterations;
      pool_obj += relax.lower_bound;
      if (relax.stats.basis_saved) pool.insert(pr, basis);
    }
  }
  const double pool_s = seconds_since(t1);

  // Optimal VALUES must agree (the bases may legitimately differ).
  const double denom = std::max(1.0, std::abs(baseline_obj));
  if (std::abs(baseline_obj - pool_obj) / denom > 1e-9) {
    std::fprintf(stderr,
                 "replay objective mismatch at m=%zu n=%zu (%.12g vs %.12g)\n",
                 services, bundles, baseline_obj, pool_obj);
    std::abort();
  }

  ReplayCase c;
  c.m = services;
  c.n = bundles;
  c.density = density;
  c.population = population;
  c.generations = generations;
  c.solves = population * generations;
  c.baseline_us = baseline_s * 1e6 / static_cast<double>(c.solves);
  c.pool_us = pool_s * 1e6 / static_cast<double>(c.solves);
  c.speedup = c.baseline_us / c.pool_us;
  c.baseline_pivots = baseline_pivots;
  c.pool_pivots = pool_pivots;
  c.pool_hits = pool_hits;
  c.pool_rejects = pool_rejects;
  return c;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::string json_path = "BENCH_lp_simplex.json";
  for (int a = 1; a < argc; ++a) {
    const std::string arg = argv[a];
    if (arg == "--smoke") {
      smoke = true;
    } else {
      json_path = arg;
    }
  }

  common::Rng rng(424242);

  // Kernel grid: relaxation shape n = 4m across the density ladder. The
  // paper-shaped regime is the sparse end (most bundles cover few services).
  std::vector<KernelCase> kernels;
  const std::vector<std::size_t> kernel_ms =
      smoke ? std::vector<std::size_t>{50}
            : std::vector<std::size_t>{50, 200, 400};
  const std::vector<double> densities =
      smoke ? std::vector<double>{0.10} : std::vector<double>{0.05, 0.10, 0.25, 0.75};
  for (const std::size_t m : kernel_ms) {
    for (const double d : densities) {
      kernels.push_back(run_kernel_case(rng, m, 4 * m, d, smoke));
    }
  }
  // The paper's class 8 (30 services, 500 bundles, density 0.75): the
  // shape of the LPs the class-8 e2e workloads solve.
  if (!smoke) kernels.push_back(run_kernel_case(rng, 30, 500, 0.75, smoke));

  std::printf("kernel grid (pricing + FTRAN, ns per column; simd: cpu_avx2=%d "
              "compiled_avx2=%d)\n",
              common::simd::cpu_supports_avx2() ? 1 : 0,
              common::simd::avx2_available() ? 1 : 0);
  std::printf(
      "%5s %6s %8s %8s | %8s %8s %8s %8s %8s %8s | %8s %8s %8s\n", "m", "n",
      "density", "nnz", "dense", "csc", "panel", "3-pass", "fus sse2",
      "fus avx2", "ftran dn", "ftran sp", "speedup");
  for (const KernelCase& c : kernels) {
    std::printf(
        "%5zu %6zu %8.2f %8.3f | %8.1f %8.1f %8.1f %8.2f %8.2f %8.2f | %8.1f "
        "%8.1f %7.2fx\n",
        c.m, c.n, c.density, c.nnz_frac, c.pricing_dense_ns, c.pricing_csc_ns,
        c.pricing_panel_ns, c.three_pass_ns, c.fused_sse2_ns, c.fused_avx2_ns,
        c.ftran_dense_ns, c.ftran_sparse_ns, c.ftran_speedup);
  }

  // Evaluator replay: baseline vs pool warm starts over a population walk
  // on generated covering instances (services = LP rows, bundles = LP
  // columns).
  struct Shape {
    std::size_t services, bundles;
    double density;
  };
  std::vector<ReplayCase> replay;
  // Table III-shaped classes (services x bundles like the paper's
  // generated instances) plus one LP-bench-sized shape.
  const std::vector<Shape> replay_shapes =
      smoke ? std::vector<Shape>{{20, 80, 0.10}}
            : std::vector<Shape>{{5, 100, 0.10},
                                 {10, 250, 0.10},
                                 {30, 500, 0.10},
                                 {50, 400, 0.10},
                                 {200, 800, 0.05}};
  for (const Shape& s : replay_shapes) {
    std::fprintf(stderr, "# evaluator replay m=%zu n=%zu density=%.2f...\n",
                 s.services, s.bundles, s.density);
    replay.push_back(run_replay_case(s.services, s.bundles, s.density, smoke));
  }

  std::printf("\nevaluator replay: baseline vs pool warm start\n");
  std::printf("%5s %6s %8s %7s | %9s %9s | %12s %12s %8s | %6s %7s\n", "m",
              "n", "density", "solves", "base piv", "pool piv", "base us/sv",
              "pool us/sv", "speedup", "hits", "rejects");
  for (const ReplayCase& c : replay) {
    std::printf(
        "%5zu %6zu %8.2f %7zu | %9lld %9lld | %12.1f %12.1f %7.2fx | %6lld "
        "%7lld\n",
        c.m, c.n, c.density, c.solves, c.baseline_pivots, c.pool_pivots,
        c.baseline_us, c.pool_us, c.speedup, c.pool_hits, c.pool_rejects);
  }

  std::FILE* f = std::fopen(json_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n", json_path.c_str());
    return 1;
  }
  std::fprintf(f,
               "{\n  \"bench\": \"lp_simplex\",\n  \"simd\": {\"cpu_avx2\": %s, "
               "\"compiled_avx2\": %s},\n  \"kernel_grid\": [\n",
               common::simd::cpu_supports_avx2() ? "true" : "false",
               common::simd::avx2_available() ? "true" : "false");
  for (std::size_t i = 0; i < kernels.size(); ++i) {
    const KernelCase& c = kernels[i];
    std::fprintf(
        f,
        "    {\"m\": %zu, \"n\": %zu, \"density\": %.3f, \"nnz_frac\": %.4f, "
        "\"pricing_dense_ns_per_col\": %.2f, \"pricing_csc_ns_per_col\": "
        "%.2f, \"pricing_panel_ns_per_col\": %.2f, \"pricing_speedup\": "
        "%.3f, \"pricing_panel_vs_csc\": %.3f, "
        "\"pricing_three_pass_sse2_ns_per_col\": %.3f, "
        "\"pricing_fused_sse2_ns_per_col\": %.3f, "
        "\"pricing_fused_avx2_ns_per_col\": %.3f, \"ftran_dense_ns_per_col\": "
        "%.2f, \"ftran_sparse_ns_per_col\": %.2f, \"ftran_speedup\": "
        "%.3f}%s\n",
        c.m, c.n, c.density, c.nnz_frac, c.pricing_dense_ns, c.pricing_csc_ns,
        c.pricing_panel_ns, c.pricing_speedup, c.pricing_panel_vs_csc,
        c.three_pass_ns, c.fused_sse2_ns, c.fused_avx2_ns,
        c.ftran_dense_ns, c.ftran_sparse_ns, c.ftran_speedup,
        i + 1 < kernels.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n  \"evaluator_replay\": [\n");
  for (std::size_t i = 0; i < replay.size(); ++i) {
    const ReplayCase& c = replay[i];
    std::fprintf(
        f,
        "    {\"services_m\": %zu, \"bundles_n\": %zu, \"density\": %.3f, "
        "\"population\": %zu, \"generations\": %zu, \"solves\": %zu, "
        "\"baseline_pivots\": %lld, \"pool_pivots\": %lld, "
        "\"baseline_us_per_solve\": %.2f, \"pool_us_per_solve\": %.2f, "
        "\"speedup\": %.3f, \"pool_hits\": %lld, \"pool_rejects\": %lld}%s\n",
        c.m, c.n, c.density, c.population, c.generations, c.solves,
        c.baseline_pivots, c.pool_pivots, c.baseline_us, c.pool_us, c.speedup,
        c.pool_hits, c.pool_rejects, i + 1 < replay.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("wrote %s\n", json_path.c_str());
  return 0;
}
