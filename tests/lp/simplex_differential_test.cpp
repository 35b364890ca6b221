// Dense-vs-sparse differential test: the production simplex kernels (column
// panel pricing, sparse FTRAN/accumulation) must be BIT-identical to the
// dense reference kernels (use_dense_kernels) on every outcome class —
// optimal, degenerate, redundant-row, infeasible, unbounded, Bland's rule —
// with and without warm starts, through both entry points that build panels
// (lp::solve(Problem) per call, ProblemFamily once). Not "close": identical.
// Skipping or padding a `+= 0.0` term (or a rank-1 update scaled by an exact
// zero) is IEEE-exact, so any difference in any output bit is a kernel bug,
// and EXPECT_EQ on doubles is the correct comparison.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "carbon/common/rng.hpp"
#include "carbon/lp/column_panels.hpp"
#include "carbon/lp/problem_family.hpp"
#include "carbon/lp/simplex.hpp"

namespace carbon::lp {
namespace {

SimplexOptions dense_opts(SimplexOptions o = {}) {
  o.use_dense_kernels = true;
  return o;
}

void expect_bitwise_equal(const Solution& sparse, const Solution& dense) {
  ASSERT_EQ(sparse.status, dense.status);
  EXPECT_EQ(sparse.iterations, dense.iterations);
  EXPECT_EQ(sparse.refactorizations, dense.refactorizations);
  EXPECT_EQ(sparse.objective, dense.objective);
  ASSERT_EQ(sparse.x.size(), dense.x.size());
  for (std::size_t j = 0; j < sparse.x.size(); ++j) {
    EXPECT_EQ(sparse.x[j], dense.x[j]) << "x[" << j << "]";
  }
  ASSERT_EQ(sparse.duals.size(), dense.duals.size());
  for (std::size_t i = 0; i < sparse.duals.size(); ++i) {
    EXPECT_EQ(sparse.duals[i], dense.duals[i]) << "dual[" << i << "]";
  }
  ASSERT_EQ(sparse.reduced_costs.size(), dense.reduced_costs.size());
  for (std::size_t j = 0; j < sparse.reduced_costs.size(); ++j) {
    EXPECT_EQ(sparse.reduced_costs[j], dense.reduced_costs[j])
        << "reduced_cost[" << j << "]";
  }
}

/// Solves `p` three ways — lp::solve(Problem), a ProblemFamily solve with
/// scratch, and the dense reference — cold and, when an optimal basis
/// emerges, warm, and asserts bitwise agreement of every output, including
/// the exported basis. Returns the reference solution.
Solution differential_check(const Problem& p, const SimplexOptions& o = {}) {
  const ProblemFamily family(p);
  SolveScratch scratch;
  Basis sparse_basis;
  Basis family_basis;
  Basis dense_basis;
  const Solution sparse = solve(p, o, &sparse_basis);
  const Solution from_family = solve(family, o, &family_basis, &scratch);
  const Solution dense = solve(p, dense_opts(o), &dense_basis);
  expect_bitwise_equal(sparse, dense);
  expect_bitwise_equal(from_family, dense);
  EXPECT_EQ(sparse_basis.status, dense_basis.status);
  EXPECT_EQ(sparse_basis.basic_vars, dense_basis.basic_vars);
  EXPECT_EQ(family_basis.status, dense_basis.status);
  EXPECT_EQ(family_basis.basic_vars, dense_basis.basic_vars);

  if (sparse.optimal() && !sparse_basis.empty()) {
    // Warm-start every mode from the basis the cold solves agreed on; the
    // warm path (refactorize + pivots from the installed basis) must agree
    // bitwise too.
    Basis warm_sparse = sparse_basis;
    Basis warm_family = sparse_basis;
    Basis warm_dense = sparse_basis;
    const Solution again_sparse = solve(p, o, &warm_sparse);
    const Solution again_family = solve(family, o, &warm_family, &scratch);
    const Solution again_dense = solve(p, dense_opts(o), &warm_dense);
    EXPECT_TRUE(again_sparse.warm_start_used);
    EXPECT_TRUE(again_family.warm_start_used);
    EXPECT_TRUE(again_dense.warm_start_used);
    expect_bitwise_equal(again_sparse, again_dense);
    expect_bitwise_equal(again_family, again_dense);
  }
  return dense;
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
  for (const auto& g : grid) {
    for (int rep = 0; rep < 6; ++rep) {
      const Problem p =
          random_lp(rng, g.m, g.n, g.density, /*integer_coeffs=*/rep % 2 == 0);
      differential_check(p);
    }
  }
}

TEST(SimplexDifferential, DegenerateVertices) {
  // Many constraints active at the same point (rhs ties) force degenerate
  // pivots; both modes must stall and recover identically.
  common::Rng rng(7);
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
    differential_check(p);
  }
}

TEST(SimplexDifferential, RedundantRows) {
  // Duplicate rows leave artificials pinned on redundant equality rows in
  // Phase 1; purge_artificials must behave identically in both modes.
  common::Rng rng(11);
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
    differential_check(p);
  }
}

TEST(SimplexDifferential, InfeasibleLps) {
  common::Rng rng(13);
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
    const Solution sparse = solve(p);
    const Solution dense = solve(p, dense_opts());
    EXPECT_EQ(sparse.status, SolveStatus::kInfeasible);
    EXPECT_EQ(dense.status, SolveStatus::kInfeasible);
    EXPECT_EQ(sparse.iterations, dense.iterations);
  }
}

TEST(SimplexDifferential, UnboundedLps) {
  common::Rng rng(17);
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
    const Solution sparse = solve(p);
    const Solution dense = solve(p, dense_opts());
    EXPECT_EQ(sparse.status, SolveStatus::kUnbounded);
    EXPECT_EQ(dense.status, SolveStatus::kUnbounded);
    EXPECT_EQ(sparse.iterations, dense.iterations);
  }
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

TEST(SimplexDifferential, PanelShapesAgreeThroughBothEntryPoints) {
  common::Rng rng(103);
  int optimal = 0;
  int solves = 0;
  for (const std::size_t n : {1, 7, 9, 17}) {
    for (const std::size_t m : {1, 2, 5, 9}) {
      for (int rep = 0; rep < 4; ++rep) {
        SCOPED_TRACE("m=" + std::to_string(m) + " n=" + std::to_string(n) +
                     " rep=" + std::to_string(rep));
        const Solution ref = differential_check(panel_shaped_lp(rng, m, n));
        optimal += ref.optimal() ? 1 : 0;
        ++solves;
      }
    }
  }
  // Feasible by construction and bounded: nearly every shape must reach an
  // optimum, or the comparisons above checked little.
  EXPECT_GE(optimal, solves * 9 / 10);
}

TEST(SimplexDifferential, BlandRuleAgreesThroughBothEntryPoints) {
  // bland_threshold = 1 switches every phase to Bland's rule after its
  // first pivot, so nearly all pivots below choose the first eligible
  // column instead of the largest score.
  SimplexOptions bland;
  bland.bland_threshold = 1;
  common::Rng rng(107);
  int long_solves = 0;
  for (const std::size_t n : {9, 17, 40}) {
    for (int rep = 0; rep < 4; ++rep) {
      const Solution ref =
          differential_check(panel_shaped_lp(rng, 6, n), bland);
      long_solves += ref.iterations > 2 ? 1 : 0;
      const Solution cover =
          differential_check(random_lp(rng, 8, n, 0.4, rep % 2 == 0), bland);
      long_solves += cover.iterations > 2 ? 1 : 0;
    }
  }
  EXPECT_GT(long_solves, 0);
}

TEST(SimplexDifferential, SparseSolveReportsSkippedWork) {
  // On a genuinely sparse instance the sparse kernels must report skipped
  // FTRAN MACs; the dense reference must report none (it does all the work).
  common::Rng rng(23);
  const Problem p = random_lp(rng, 12, 60, 0.15, /*integer_coeffs=*/true);
  Basis warm;
  const Solution sparse = solve(p, {}, &warm);
  const Solution dense = solve(p, dense_opts());
  ASSERT_EQ(sparse.status, dense.status);
  EXPECT_GT(sparse.ftran_nnz_skipped, 0);
  EXPECT_EQ(dense.ftran_nnz_skipped, 0);
  if (sparse.optimal() && !warm.empty()) {
    // Installing a warm basis always refactorizes once.
    const Solution again = solve(p, {}, &warm);
    EXPECT_TRUE(again.warm_start_used);
    EXPECT_GT(again.refactorizations, 0);
  }
}

}  // namespace
}  // namespace carbon::lp
