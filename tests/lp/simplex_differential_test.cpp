// Frozen-answer differential test of the simplex. Each outcome class —
// random bounded LPs, degenerate vertices, redundant rows, infeasible,
// unbounded, panel shapes and Bland's rule — is solved cold and then warm
// from the exported basis, through both entry points (lp::solve(Problem),
// which builds panels per call, and lp::solve(ProblemFamily, scratch)), and
// every output of every solve is folded into one 64-bit FNV-1a fingerprint:
// status, iterations, refactorizations, the bits of the objective, x, duals
// and reduced costs, the warm-start flags and the exported basis.
//
// FusedChoiceMatchesThreePassReference checks the simplex's fused
// pricing-and-choice pass against the three-pass pricing it replaced, on
// the portable and the AVX2 panel kernel.
//
// The literals are the answers of the dense reference kernels (per-column
// dense pricing, dense FTRAN, dense basis assembly) that the solver carried
// until the panel/sparse kernels replaced them; both kernel sets produced
// every literal below bit for bit when it was recorded. Skipping or padding
// a `+= 0.0` term is IEEE-exact, so a changed literal means a kernel changed
// a pivot choice or the low bit of some value. Unlike a comparison between
// two live kernel sets, a frozen literal also catches a change that hits
// every kernel alike, such as a compiler contracting multiplies and adds
// into FMAs.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <string>
#include <type_traits>
#include <vector>

#include "carbon/common/rng.hpp"
#include "carbon/common/simd_path.hpp"
#include "carbon/lp/column_panels.hpp"
#include "carbon/lp/problem_family.hpp"
#include "carbon/lp/simplex.hpp"

namespace carbon::lp {
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
  template <typename T>
  void add(const std::vector<T>& values) {
    add(static_cast<std::uint64_t>(values.size()));
    for (const T v : values) {
      if constexpr (std::is_floating_point_v<T>) {
        add(v);
      } else {
        add(static_cast<std::uint64_t>(v));
      }
    }
  }
  void add(const Solution& s) {
    add(static_cast<std::uint64_t>(s.status));
    add(static_cast<std::uint64_t>(s.iterations));
    add(static_cast<std::uint64_t>(s.refactorizations));
    add(s.objective);
    add(s.x);
    add(s.duals);
    add(s.reduced_costs);
    add(static_cast<std::uint64_t>(s.warm_start_used));
    add(static_cast<std::uint64_t>(s.warm_start_rejected));
    add(static_cast<std::uint64_t>(s.basis_saved));
  }
  void add(const Basis& b) {
    add(b.status);
    add(b.basic_vars);
  }
  [[nodiscard]] std::uint64_t value() const noexcept { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ull;
};

void expect_bitwise_equal(const Solution& a, const Solution& b) {
  ASSERT_EQ(a.status, b.status);
  EXPECT_EQ(a.iterations, b.iterations);
  EXPECT_EQ(a.refactorizations, b.refactorizations);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a.objective),
            std::bit_cast<std::uint64_t>(b.objective));
  EXPECT_EQ(a.x, b.x);
  EXPECT_EQ(a.duals, b.duals);
  EXPECT_EQ(a.reduced_costs, b.reduced_costs);
  EXPECT_EQ(a.warm_start_used, b.warm_start_used);
  EXPECT_EQ(a.basis_saved, b.basis_saved);
}

/// Solves `p` cold through lp::solve(Problem) and through a ProblemFamily
/// with scratch, then, when the cold solve exported an optimal basis, warm
/// from that basis through both again. The two entry points must agree bit
/// for bit; every solution and exported basis is folded into `fp`. Returns
/// the cold solution.
Solution fingerprint_solves(const Problem& p, const SimplexOptions& o,
                            Fingerprint& fp) {
  const ProblemFamily family(p);
  SolveScratch scratch;
  Basis basis;
  Basis family_basis;
  const Solution cold = solve(p, o, &basis);
  const Solution family_cold = solve(family, o, &family_basis, &scratch);
  expect_bitwise_equal(cold, family_cold);
  EXPECT_EQ(basis.status, family_basis.status);
  EXPECT_EQ(basis.basic_vars, family_basis.basic_vars);
  fp.add(cold);
  fp.add(basis);
  fp.add(family_cold);
  fp.add(family_basis);

  if (cold.optimal() && !basis.empty()) {
    // The warm path (refactorize, then pivot from the installed basis) runs
    // different code from the cold start; pin it too.
    Basis warm = basis;
    Basis family_warm = basis;
    const Solution again = solve(p, o, &warm);
    const Solution family_again = solve(family, o, &family_warm, &scratch);
    EXPECT_TRUE(again.warm_start_used);
    expect_bitwise_equal(again, family_again);
    EXPECT_EQ(warm.basic_vars, family_warm.basic_vars);
    fp.add(again);
    fp.add(warm);
    fp.add(family_again);
    fp.add(family_warm);
  }
  return cold;
}

/// Random bounded LP shaped like the covering relaxations (n >> m, sparse
/// non-negative integer coefficients, >= rows) but with knobs to hit every
/// outcome class.
Problem random_lp(common::Rng& rng, std::size_t m, std::size_t n,
                  double density, bool integer_coeffs) {
  Problem p;
  for (std::size_t j = 0; j < n; ++j) {
    const double cost = rng.uniform(-5.0, 100.0);
    const double hi = rng.chance(0.8) ? 1.0 : kInfinity;
    p.add_variable(cost, 0.0, hi);
  }
  for (std::size_t i = 0; i < m; ++i) {
    std::vector<double> row(n, 0.0);
    double total = 0.0;
    for (std::size_t j = 0; j < n; ++j) {
      if (!rng.chance(density)) continue;
      row[j] = integer_coeffs ? std::floor(rng.uniform(1.0, 20.0))
                              : rng.uniform(0.1, 10.0);
      total += row[j];
    }
    const auto sense = rng.chance(0.7)   ? RowSense::kGreaterEqual
                       : rng.chance(0.5) ? RowSense::kLessEqual
                                         : RowSense::kEqual;
    p.add_constraint(row, sense, rng.uniform(0.1, 0.4) * total);
  }
  return p;
}

TEST(SimplexDifferential, RandomizedBoundedLps) {
  common::Rng rng(20240806);
  const struct {
    std::size_t m, n;
    double density;
  } grid[] = {{3, 12, 0.3},  {5, 30, 0.2},  {8, 40, 0.5},
              {10, 80, 0.1}, {15, 60, 0.25}, {20, 150, 0.08}};
  Fingerprint fp;
  for (const auto& g : grid) {
    for (int rep = 0; rep < 6; ++rep) {
      const Problem p =
          random_lp(rng, g.m, g.n, g.density, /*integer_coeffs=*/rep % 2 == 0);
      fingerprint_solves(p, {}, fp);
    }
  }
  EXPECT_EQ(fp.value(), 0x08b8d1c6b17be741ull);
}

TEST(SimplexDifferential, DegenerateVertices) {
  // Many constraints active at the same point (rhs ties) force degenerate
  // pivots, so the stall-and-recover path is pinned too.
  common::Rng rng(7);
  Fingerprint fp;
  for (int rep = 0; rep < 8; ++rep) {
    Problem p;
    const std::size_t n = 10;
    for (std::size_t j = 0; j < n; ++j) {
      p.add_variable(rng.uniform(1.0, 10.0), 0.0, 1.0);
    }
    for (std::size_t i = 0; i < 6; ++i) {
      std::vector<double> row(n, 0.0);
      for (std::size_t j = 0; j < n; ++j) {
        if (rng.chance(0.4)) row[j] = 1.0;  // identical coefficients => ties
      }
      p.add_constraint(row, RowSense::kGreaterEqual, 2.0);
    }
    fingerprint_solves(p, {}, fp);
  }
  EXPECT_EQ(fp.value(), 0x9e3222b3c46e81bdull);
}

TEST(SimplexDifferential, RedundantRows) {
  // Duplicate rows leave artificials pinned on redundant equality rows in
  // Phase 1, which exercises purge_artificials.
  common::Rng rng(11);
  Fingerprint fp;
  for (int rep = 0; rep < 8; ++rep) {
    Problem p;
    const std::size_t n = 8;
    for (std::size_t j = 0; j < n; ++j) {
      p.add_variable(rng.uniform(1.0, 10.0), 0.0, 2.0);
    }
    std::vector<double> row(n, 0.0);
    for (std::size_t j = 0; j < n; ++j) {
      if (rng.chance(0.5)) row[j] = std::floor(rng.uniform(1.0, 5.0));
    }
    p.add_constraint(row, RowSense::kEqual, 3.0);
    p.add_constraint(row, RowSense::kEqual, 3.0);  // exact duplicate
    std::vector<double> row2(n, 1.0);
    p.add_constraint(row2, RowSense::kGreaterEqual, 1.0);
    fingerprint_solves(p, {}, fp);
  }
  EXPECT_EQ(fp.value(), 0x4aba5da1ff5ca335ull);
}

TEST(SimplexDifferential, InfeasibleLps) {
  common::Rng rng(13);
  Fingerprint fp;
  for (int rep = 0; rep < 8; ++rep) {
    Problem p;
    const std::size_t n = 6;
    for (std::size_t j = 0; j < n; ++j) {
      p.add_variable(rng.uniform(1.0, 10.0), 0.0, 1.0);
    }
    std::vector<double> row(n, 0.0);
    double total = 0.0;
    for (std::size_t j = 0; j < n; ++j) {
      row[j] = std::floor(rng.uniform(1.0, 5.0));
      total += row[j];
    }
    // Demand exceeds what the bounded variables can supply.
    p.add_constraint(row, RowSense::kGreaterEqual, total + 1.0);
    EXPECT_EQ(fingerprint_solves(p, {}, fp).status, SolveStatus::kInfeasible);
  }
  EXPECT_EQ(fp.value(), 0x0bf7bc44799a7725ull);
}

TEST(SimplexDifferential, UnboundedLps) {
  common::Rng rng(17);
  Fingerprint fp;
  for (int rep = 0; rep < 8; ++rep) {
    Problem p;
    const std::size_t n = 5;
    for (std::size_t j = 0; j < n; ++j) {
      // Negative cost + infinite upper bound => profitable ray.
      p.add_variable(-rng.uniform(1.0, 5.0), 0.0, kInfinity);
    }
    std::vector<double> row(n, 0.0);
    for (std::size_t j = 0; j < n; ++j) {
      if (rng.chance(0.6)) row[j] = rng.uniform(0.5, 3.0);
    }
    p.add_constraint(row, RowSense::kGreaterEqual, 1.0);
    EXPECT_EQ(fingerprint_solves(p, {}, fp).status, SolveStatus::kUnbounded);
  }
  EXPECT_EQ(fp.value(), 0x27cb5c9c55812725ull);
}

/// LP over `n` columns and `m` rows with every structural feature the
/// column panels must handle: ragged panel tails (n % 8 != 0), an empty row
/// (row 0, when m > 1), a column without nonzeros (column n - 1, when
/// n > 1), a row that exactly one column of each panel touches (row m - 1,
/// when m > 2), and a mix of >=, <= and = rows. Right-hand sides are built
/// from a point inside the bounds, so the LP is always feasible.
Problem panel_shaped_lp(common::Rng& rng, std::size_t m, std::size_t n) {
  Problem p;
  std::vector<double> x0(n);
  for (std::size_t j = 0; j < n; ++j) {
    const bool bounded = rng.chance(0.8);
    // Infinite upper bounds only on costly columns, so the LP stays bounded.
    const double cost =
        bounded ? rng.uniform(-5.0, 50.0) : rng.uniform(1.0, 50.0);
    p.add_variable(cost, 0.0, bounded ? 1.0 : kInfinity);
    x0[j] = rng.uniform(0.0, 1.0);
  }
  for (std::size_t i = 0; i < m; ++i) {
    std::vector<double> row(n, 0.0);
    const bool empty = m > 1 && i == 0;
    const bool one_per_panel = m > 2 && i == m - 1;
    for (std::size_t j = 0; j < n && !empty; ++j) {
      if (n > 1 && j == n - 1) continue;  // the empty column
      const bool take = one_per_panel ? j % ColumnPanels::kWidth == 3
                                      : rng.chance(0.6);
      if (take) row[j] = std::floor(rng.uniform(1.0, 9.0));
    }
    double activity = 0.0;
    for (std::size_t j = 0; j < n; ++j) activity += row[j] * x0[j];
    const double u = rng.uniform(0.0, 1.0);
    if (u < 0.4) {
      p.add_constraint(row, RowSense::kGreaterEqual, activity - 0.5);
    } else if (u < 0.75) {
      p.add_constraint(row, RowSense::kLessEqual, activity + 0.5);
    } else {
      p.add_constraint(row, RowSense::kEqual, activity);
    }
  }
  return p;
}

TEST(SimplexDifferential, PanelPassMatchesDenseDotsBitwise) {
  // The library's panel pass against the reference per-column dense dot,
  // over panel tails, empty rows/columns and single-column panel rows.
  common::Rng rng(101);
  for (const std::size_t n : {1, 7, 8, 9, 17}) {
    for (const std::size_t m : {1, 3, 9, 30}) {
      const Problem p = panel_shaped_lp(rng, m, n);
      const ColumnPanels panels(p);
      EXPECT_EQ(panels.num_cols(), n);
      EXPECT_EQ(panels.num_panels(),
                (n + ColumnPanels::kWidth - 1) / ColumnPanels::kWidth);
      // A stored panel row needs at least one nonzero of that panel.
      EXPECT_LE(panels.stored_rows(), p.num_nonzeros());

      std::vector<double> y(m);
      for (double& v : y) v = rng.uniform(-3.0, 3.0);
      std::vector<double> out(n, -1.0);
      panels.multiply_transposed(y, out);
      for (std::size_t j = 0; j < n; ++j) {
        double acc = 0.0;
        for (std::size_t i = 0; i < m; ++i) acc += p.coefficient(i, j) * y[i];
        EXPECT_EQ(out[j], acc) << "m=" << m << " n=" << n << " col " << j;
      }
    }
  }
}

using detail::VarStatus;

/// The pricing the simplex ran before the fused pass, kept as its oracle:
/// first A_j^T y for every column (a per-column dense dot, bit-equal to the
/// old panel pass), then one scan of all columns that scores each from its
/// status and bounds and keeps the first strict maximum above `tol`, or
/// under Bland the first eligible column.
ColumnPanels::Choice three_pass_choice(const Problem& p,
                                       const std::vector<double>& y,
                                       const std::vector<double>& cost,
                                       const std::vector<VarStatus>& status,
                                       double tol, bool bland) {
  const std::size_t n = p.num_vars();
  std::vector<double> aty(n);
  for (std::size_t j = 0; j < n; ++j) {
    double acc = 0.0;
    for (std::size_t i = 0; i < p.num_rows(); ++i) {
      acc += p.coefficient(i, j) * y[i];
    }
    aty[j] = acc;
  }
  ColumnPanels::Choice best{n, tol};
  for (std::size_t j = 0; j < n; ++j) {
    const VarStatus st = status[j];
    const double d = cost[j] - aty[j];
    const double score = st == VarStatus::kAtLower ? -d : d;
    if (st != VarStatus::kBasic && p.lower[j] != p.upper[j] &&
        score > best.score) {
      best = {j, score};
      if (bland) break;
    }
  }
  return best;
}

/// The fused pass's direction of a column: -1 at lower, +1 at upper, 0 when
/// basic or fixed.
std::vector<double> directions(const Problem& p,
                               const std::vector<VarStatus>& status) {
  std::vector<double> dir(status.size());
  for (std::size_t j = 0; j < status.size(); ++j) {
    dir[j] = status[j] == VarStatus::kBasic || p.lower[j] == p.upper[j]
                 ? 0.0
             : status[j] == VarStatus::kAtLower ? -1.0
                                                : 1.0;
  }
  return dir;
}

/// Restores the auto-dispatched kernel path when a test finishes.
struct PathGuard {
  ~PathGuard() { common::simd::select_path("auto"); }
};

/// Runs the fused-vs-three-pass comparison on the active kernel path and
/// returns how many choices it compared.
int check_fused_choice_on_active_path() {
  common::Rng rng(109);
  int compared = 0;
  const auto compare = [&](const Problem& p, const ColumnPanels& panels,
                           const std::vector<double>& y,
                           const std::vector<double>& cost,
                           const std::vector<VarStatus>& status,
                           const std::string& what) {
    const double tol = 1e-7;
    const std::vector<double> dir = directions(p, status);
    for (const bool bland : {false, true}) {
      SCOPED_TRACE(what + (bland ? " bland" : " dantzig"));
      const ColumnPanels::Choice want =
          three_pass_choice(p, y, cost, status, tol, bland);
      ColumnPanels::Choice got{p.num_vars(), tol};
      const bool moved = panels.choose_entering(y, cost, dir, bland, got);
      EXPECT_EQ(got.column, want.column);
      EXPECT_EQ(std::bit_cast<std::uint64_t>(got.score),
                std::bit_cast<std::uint64_t>(want.score));
      EXPECT_EQ(moved, want.column != p.num_vars());
      ++compared;
    }
  };

  for (const std::size_t n : {1, 7, 8, 9, 17}) {
    for (const std::size_t m : {1, 3, 9, 30}) {
      const std::string shape =
          "m=" + std::to_string(m) + " n=" + std::to_string(n);
      Problem p = panel_shaped_lp(rng, m, n);
      // A few fixed columns (lower == upper): never eligible.
      for (std::size_t j = 0; j < n; ++j) {
        if (rng.chance(0.15)) p.upper[j] = p.lower[j];
      }
      const ColumnPanels panels(p);

      // The second panel entry point, on the same path.
      std::vector<double> y(m);
      for (double& v : y) v = rng.uniform(-3.0, 3.0);
      std::vector<double> aty(n, -1.0);
      panels.multiply_transposed(y, aty);
      for (std::size_t j = 0; j < n; ++j) {
        double acc = 0.0;
        for (std::size_t i = 0; i < m; ++i) acc += p.coefficient(i, j) * y[i];
        EXPECT_EQ(aty[j], acc) << shape << " col " << j;
      }

      for (int rep = 0; rep < 6; ++rep) {
        // Random statuses (basic columns included) and costs; even reps
        // use small integers everywhere, so equal scores are common and
        // the first maximum must win.
        const bool integral = rep % 2 == 0;
        for (double& v : y) {
          v = integral ? std::floor(rng.uniform(-3.0, 3.0))
                       : rng.uniform(-3.0, 3.0);
        }
        std::vector<double> cost(n);
        std::vector<VarStatus> status(n);
        for (std::size_t j = 0; j < n; ++j) {
          cost[j] = integral ? std::floor(rng.uniform(-20.0, 20.0))
                             : rng.uniform(-20.0, 20.0);
          const double u = rng.uniform(0.0, 1.0);
          status[j] = u < 0.5   ? VarStatus::kAtLower
                      : u < 0.8 ? VarStatus::kAtUpper
                                : VarStatus::kBasic;
        }
        compare(p, panels, y, cost, status, shape + " random");

        // Every column scores the same: y = 0, cost -1 at lower and +1 at
        // upper. The first non-basic, non-fixed column must win, across
        // panel boundaries.
        const std::vector<double> zero_y(m, 0.0);
        std::vector<double> tied(n);
        for (std::size_t j = 0; j < n; ++j) {
          tied[j] = status[j] == VarStatus::kAtLower ? -1.0 : 1.0;
        }
        compare(p, panels, zero_y, tied, status, shape + " tied");

        // Nothing eligible: every column basic, then every column fixed.
        const std::vector<VarStatus> basic(n, VarStatus::kBasic);
        compare(p, panels, y, cost, basic, shape + " all basic");
        Problem fixed = p;
        fixed.upper = fixed.lower;
        compare(fixed, panels, y, cost, status, shape + " all fixed");
      }
    }
  }
  return compared;
}

TEST(SimplexDifferential, FusedChoiceMatchesThreePassReference) {
  // The fused pricing-and-choice pass against the three-pass reference it
  // replaced, bitwise in the chosen column and its score, on both panel
  // kernel paths.
  PathGuard guard;
  ASSERT_EQ(common::simd::select_path("scalar"), common::simd::Path::kScalar);
  EXPECT_EQ(check_fused_choice_on_active_path(), 5 * 4 * 6 * 4 * 2);
  if (!common::simd::avx2_available()) {
    GTEST_SKIP() << "AVX2 panel kernel not available on this build/CPU; "
                    "the portable path was checked";
  }
  ASSERT_EQ(common::simd::select_path("avx2"), common::simd::Path::kAvx2);
  EXPECT_EQ(check_fused_choice_on_active_path(), 5 * 4 * 6 * 4 * 2);
}

TEST(SimplexDifferential, PanelShapesAgreeThroughBothEntryPoints) {
  common::Rng rng(103);
  int optimal = 0;
  int solves = 0;
  Fingerprint fp;
  for (const std::size_t n : {1, 7, 9, 17}) {
    for (const std::size_t m : {1, 2, 5, 9}) {
      for (int rep = 0; rep < 4; ++rep) {
        SCOPED_TRACE("m=" + std::to_string(m) + " n=" + std::to_string(n) +
                     " rep=" + std::to_string(rep));
        const Solution cold =
            fingerprint_solves(panel_shaped_lp(rng, m, n), {}, fp);
        optimal += cold.optimal() ? 1 : 0;
        ++solves;
      }
    }
  }
  // Feasible by construction and bounded: nearly every shape must reach an
  // optimum, or the fingerprint pins little.
  EXPECT_GE(optimal, solves * 9 / 10);
  EXPECT_EQ(fp.value(), 0xc9981c8b3cebad79ull);
}

TEST(SimplexDifferential, BlandRuleAgreesThroughBothEntryPoints) {
  // bland_threshold = 1 switches every phase to Bland's rule after its
  // first pivot, so nearly all pivots below choose the first eligible
  // column instead of the largest score.
  SimplexOptions bland;
  bland.bland_threshold = 1;
  common::Rng rng(107);
  int long_solves = 0;
  Fingerprint fp;
  for (const std::size_t n : {9, 17, 40}) {
    for (int rep = 0; rep < 4; ++rep) {
      const Solution panel =
          fingerprint_solves(panel_shaped_lp(rng, 6, n), bland, fp);
      long_solves += panel.iterations > 2 ? 1 : 0;
      const Solution cover = fingerprint_solves(
          random_lp(rng, 8, n, 0.4, rep % 2 == 0), bland, fp);
      long_solves += cover.iterations > 2 ? 1 : 0;
    }
  }
  EXPECT_GT(long_solves, 0);
  EXPECT_EQ(fp.value(), 0x1bc7693b7e1f54ddull);
}

}  // namespace
}  // namespace carbon::lp
