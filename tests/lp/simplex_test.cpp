#include "carbon/lp/simplex.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <ostream>
#include <string>

#include "carbon/common/rng.hpp"

namespace carbon::lp {
namespace {

TEST(Simplex, SimpleMaximizationViaNegation) {
  // max x + 2y s.t. x + y <= 4, y <= 2, x,y >= 0  -> (2, 2), value 6.
  Problem p;
  p.add_variable(-1, 0, kInfinity);
  p.add_variable(-2, 0, 2);
  p.add_constraint({1, 1}, RowSense::kLessEqual, 4);
  const Solution s = solve(p);
  ASSERT_TRUE(s.optimal());
  EXPECT_NEAR(s.objective, -6.0, 1e-9);
  EXPECT_NEAR(s.x[0], 2.0, 1e-9);
  EXPECT_NEAR(s.x[1], 2.0, 1e-9);
}

TEST(Simplex, GreaterEqualRows) {
  // min x1 + x2 s.t. x1 + 2x2 >= 2, 2x1 + x2 >= 2, 0 <= x <= 1.
  Problem p;
  p.add_variable(1, 0, 1);
  p.add_variable(1, 0, 1);
  p.add_constraint({1, 2}, RowSense::kGreaterEqual, 2);
  p.add_constraint({2, 1}, RowSense::kGreaterEqual, 2);
  const Solution s = solve(p);
  ASSERT_TRUE(s.optimal());
  EXPECT_NEAR(s.objective, 4.0 / 3.0, 1e-9);
  EXPECT_NEAR(s.x[0], 2.0 / 3.0, 1e-9);
  EXPECT_NEAR(s.x[1], 2.0 / 3.0, 1e-9);
}

TEST(Simplex, EqualityRow) {
  // min x + y s.t. x + y = 3, x <= 2, y <= 2 -> value 3.
  Problem p;
  p.add_variable(1, 0, 2);
  p.add_variable(1, 0, 2);
  p.add_constraint({1, 1}, RowSense::kEqual, 3);
  const Solution s = solve(p);
  ASSERT_TRUE(s.optimal());
  EXPECT_NEAR(s.objective, 3.0, 1e-9);
  EXPECT_NEAR(s.x[0] + s.x[1], 3.0, 1e-9);
}

TEST(Simplex, DetectsInfeasibility) {
  Problem p;
  p.add_variable(0, 0, 1);
  p.add_constraint({1}, RowSense::kGreaterEqual, 2);
  EXPECT_EQ(solve(p).status, SolveStatus::kInfeasible);
}

TEST(Simplex, DetectsInfeasibleEqualitySystem) {
  Problem p;
  p.add_variable(0, 0, 10);
  p.add_variable(0, 0, 10);
  p.add_constraint({1, 1}, RowSense::kEqual, 5);
  p.add_constraint({1, 1}, RowSense::kEqual, 7);
  EXPECT_EQ(solve(p).status, SolveStatus::kInfeasible);
}

TEST(Simplex, DetectsUnboundedness) {
  Problem p;
  p.add_variable(-1, 0, kInfinity);
  p.add_constraint({1}, RowSense::kGreaterEqual, 0);
  EXPECT_EQ(solve(p).status, SolveStatus::kUnbounded);
}

TEST(Simplex, BoundedVariableMakesItFinite) {
  Problem p;
  p.add_variable(-1, 0, 5);
  p.add_constraint({1}, RowSense::kGreaterEqual, 0);
  const Solution s = solve(p);
  ASSERT_TRUE(s.optimal());
  EXPECT_NEAR(s.objective, -5.0, 1e-9);
}

TEST(Simplex, RedundantRowsHandled) {
  Problem p;
  p.add_variable(1, 0, 10);
  p.add_variable(1, 0, 10);
  p.add_constraint({1, 1}, RowSense::kEqual, 4);
  p.add_constraint({2, 2}, RowSense::kEqual, 8);  // redundant duplicate
  const Solution s = solve(p);
  ASSERT_TRUE(s.optimal());
  EXPECT_NEAR(s.objective, 4.0, 1e-9);
}

TEST(Simplex, NonzeroLowerBounds) {
  // min x + y with x >= 2, y >= 3, x + y >= 7 -> 7.
  Problem p;
  p.add_variable(1, 2, kInfinity);
  p.add_variable(1, 3, kInfinity);
  p.add_constraint({1, 1}, RowSense::kGreaterEqual, 7);
  const Solution s = solve(p);
  ASSERT_TRUE(s.optimal());
  EXPECT_NEAR(s.objective, 7.0, 1e-9);
  EXPECT_GE(s.x[0], 2.0 - 1e-9);
  EXPECT_GE(s.x[1], 3.0 - 1e-9);
}

TEST(Simplex, FixedVariable) {
  Problem p;
  p.add_variable(1, 4, 4);  // fixed at 4
  p.add_variable(1, 0, kInfinity);
  p.add_constraint({1, 1}, RowSense::kGreaterEqual, 6);
  const Solution s = solve(p);
  ASSERT_TRUE(s.optimal());
  EXPECT_NEAR(s.x[0], 4.0, 1e-9);
  EXPECT_NEAR(s.x[1], 2.0, 1e-9);
}

TEST(Simplex, DualSignConventions) {
  // min x s.t. x >= 3 -> dual of >= row must be >= 0 (here exactly 1).
  Problem p;
  p.add_variable(1, 0, kInfinity);
  p.add_constraint({1}, RowSense::kGreaterEqual, 3);
  const Solution s = solve(p);
  ASSERT_TRUE(s.optimal());
  EXPECT_NEAR(s.duals[0], 1.0, 1e-9);

  // max x (min -x) s.t. x <= 3 -> dual of <= row must be <= 0 (here -1).
  Problem q;
  q.add_variable(-1, 0, kInfinity);
  q.add_constraint({1}, RowSense::kLessEqual, 3);
  const Solution t = solve(q);
  ASSERT_TRUE(t.optimal());
  EXPECT_NEAR(t.duals[0], -1.0, 1e-9);
}

TEST(Simplex, ReducedCostsVanishForBasicVariables) {
  Problem p;
  p.add_variable(1, 0, 1);
  p.add_variable(2, 0, 1);
  p.add_variable(3, 0, 1);
  p.add_constraint({1, 1, 1}, RowSense::kGreaterEqual, 1.5);
  const Solution s = solve(p);
  ASSERT_TRUE(s.optimal());
  for (std::size_t j = 0; j < 3; ++j) {
    const bool basic = s.x[j] > 1e-9 && s.x[j] < 1.0 - 1e-9;
    if (basic) {
      EXPECT_NEAR(s.reduced_costs[j], 0.0, 1e-7);
    }
  }
}

TEST(Simplex, MalformedProblemThrows) {
  Problem p;
  p.add_variable(1, 0, 1);
  p.lower[0] = 2.0;  // lower > upper
  EXPECT_THROW((void)solve(p), std::invalid_argument);
}

TEST(Simplex, NonFiniteProblemDataThrows) {
  // Each of these used to reach the solver: a NaN upper bound on this
  // bounded problem made it report "unbounded", a NaN objective "optimal"
  // with a NaN objective value.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const auto base = [] {
    Problem p;
    p.add_variable(1.0, 0.0, 1.0);
    p.add_constraint({1.0}, RowSense::kGreaterEqual, 0.5);
    p.add_constraint({2.0}, RowSense::kLessEqual, 3.0);
    return p;
  };
  ASSERT_TRUE(solve(base()).optimal());
  Problem nan_upper = base();
  nan_upper.upper[0] = nan;
  Problem nan_objective = base();
  nan_objective.objective[0] = nan;
  Problem inf_coefficient = base();
  inf_coefficient.columns[0].values[1] = kInfinity;
  for (const Problem* p : {&nan_upper, &nan_objective, &inf_coefficient}) {
    EXPECT_THROW((void)solve(*p), std::invalid_argument);
    EXPECT_THROW(ProblemFamily{*p}, std::invalid_argument);
  }
}

TEST(Simplex, OutOfRangeTolerancesThrow) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  Problem p;
  p.add_variable(1.0, 0.0, 1.0);
  p.add_constraint({1.0}, RowSense::kGreaterEqual, 0.5);
  const ProblemFamily family(p);
  const auto expect_rejected = [&](const SimplexOptions& o,
                                   const std::string& what) {
    SCOPED_TRACE(what);
    SolveScratch scratch;
    EXPECT_THROW((void)solve(p, o), std::invalid_argument);
    EXPECT_THROW((void)solve(family, o, nullptr, &scratch),
                 std::invalid_argument);
  };
  for (const double bad : {0.0, -1e-7, nan, kInfinity}) {
    SimplexOptions o;
    o.optimality_tol = bad;
    expect_rejected(o, "optimality_tol " + std::to_string(bad));
  }
  for (const double bad : {-1e-7, nan, kInfinity}) {
    SimplexOptions feas;
    feas.feasibility_tol = bad;
    expect_rejected(feas, "feasibility_tol " + std::to_string(bad));
    SimplexOptions pivot;
    pivot.pivot_tol = bad;
    expect_rejected(pivot, "pivot_tol " + std::to_string(bad));
  }
  // Zero feasibility and pivot tolerances are exact tests, not errors.
  SimplexOptions exact;
  exact.feasibility_tol = 0.0;
  exact.pivot_tol = 0.0;
  EXPECT_TRUE(solve(p, exact).optimal());
}

TEST(Simplex, DegenerateProblemTerminates) {
  // Many redundant constraints through the same vertex.
  Problem p;
  p.add_variable(-1, 0, kInfinity);
  p.add_variable(-1, 0, kInfinity);
  for (int i = 1; i <= 8; ++i) {
    p.add_constraint({static_cast<double>(i), static_cast<double>(i)},
                     RowSense::kLessEqual, 4.0 * i);
  }
  const Solution s = solve(p);
  ASSERT_TRUE(s.optimal());
  EXPECT_NEAR(s.objective, -4.0, 1e-8);
}

// ---- Randomized property sweep: covering LPs ----

struct CoveringCase {
  std::size_t vars;
  std::size_t rows;
  std::uint64_t seed;
};

/// Names a case n<vars>_m<rows>_s<seed>. ctest's test discovery puts the
/// printed parameter in place of the case index, so this is what the ctest
/// ids show (instead of the struct's raw bytes).
void PrintTo(const CoveringCase& c, std::ostream* os) {
  *os << 'n' << c.vars << "_m" << c.rows << "_s" << c.seed;
}

class CoveringLpTest : public ::testing::TestWithParam<CoveringCase> {};

TEST_P(CoveringLpTest, PrimalFeasibleAndStrongDuality) {
  const auto [n, m, seed] = GetParam();
  common::Rng rng(seed);
  Problem p;
  for (std::size_t j = 0; j < n; ++j) {
    p.add_variable(rng.uniform(1.0, 100.0), 0.0, 1.0);
  }
  std::vector<std::vector<double>> rows(m, std::vector<double>(n, 0.0));
  for (std::size_t i = 0; i < m; ++i) {
    double total = 0.0;
    for (std::size_t j = 0; j < n; ++j) {
      if (rng.chance(0.7)) {
        rows[i][j] = std::floor(rng.uniform(1.0, 100.0));
        total += rows[i][j];
      }
    }
    p.add_constraint(rows[i], RowSense::kGreaterEqual, 0.3 * total);
  }

  const Solution s = solve(p);
  ASSERT_TRUE(s.optimal());

  // Primal feasibility.
  for (std::size_t j = 0; j < n; ++j) {
    ASSERT_GE(s.x[j], -1e-7);
    ASSERT_LE(s.x[j], 1.0 + 1e-7);
  }
  for (std::size_t i = 0; i < m; ++i) {
    double lhs = 0.0;
    for (std::size_t j = 0; j < n; ++j) lhs += rows[i][j] * s.x[j];
    ASSERT_GE(lhs, p.rhs[i] - 1e-5);
  }

  // Dual feasibility + strong duality for  min c'x, Ax >= b, 0 <= x <= 1:
  //   dual obj = y'b - sum_j max(0, (A'y)_j - c_j),  y >= 0.
  double dual_obj = 0.0;
  for (std::size_t i = 0; i < m; ++i) {
    ASSERT_GE(s.duals[i], -1e-7);
    dual_obj += s.duals[i] * p.rhs[i];
  }
  for (std::size_t j = 0; j < n; ++j) {
    double aty = 0.0;
    for (std::size_t i = 0; i < m; ++i) aty += rows[i][j] * s.duals[i];
    dual_obj -= std::max(0.0, aty - p.objective[j]);
  }
  ASSERT_NEAR(dual_obj, s.objective, 1e-5 * (1.0 + std::abs(s.objective)));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, CoveringLpTest,
    ::testing::Values(CoveringCase{5, 2, 1}, CoveringCase{10, 3, 2},
                      CoveringCase{20, 5, 3}, CoveringCase{50, 8, 4},
                      CoveringCase{100, 10, 5}, CoveringCase{200, 20, 6},
                      CoveringCase{40, 4, 7}, CoveringCase{60, 6, 8}));

TEST(SimplexWarmStart, MatchesColdSolveAfterCostChange) {
  common::Rng rng(77);
  Problem p;
  const std::size_t n = 60;
  const std::size_t m = 6;
  for (std::size_t j = 0; j < n; ++j) {
    p.add_variable(rng.uniform(1.0, 100.0), 0.0, 1.0);
  }
  for (std::size_t i = 0; i < m; ++i) {
    std::vector<double> row(n, 0.0);
    double total = 0.0;
    for (std::size_t j = 0; j < n; ++j) {
      if (rng.chance(0.6)) {
        row[j] = std::floor(rng.uniform(1.0, 50.0));
        total += row[j];
      }
    }
    p.add_constraint(row, RowSense::kGreaterEqual, 0.25 * total);
  }

  Basis warm;
  const Solution first = solve(p, {}, &warm);
  ASSERT_TRUE(first.optimal());
  ASSERT_FALSE(warm.empty());

  for (int round = 0; round < 10; ++round) {
    for (std::size_t j = 0; j < 10; ++j) {
      p.objective[j] = rng.uniform(1.0, 100.0);
    }
    const Solution warm_sol = solve(p, {}, &warm);
    const Solution cold_sol = solve(p);
    ASSERT_TRUE(warm_sol.optimal());
    ASSERT_TRUE(cold_sol.optimal());
    ASSERT_NEAR(warm_sol.objective, cold_sol.objective,
                1e-6 * (1.0 + std::abs(cold_sol.objective)));
    // Warm solves should be no slower (pivot-wise) than cold ones.
    EXPECT_LE(warm_sol.iterations, cold_sol.iterations + 5);
  }
}

TEST(SimplexWarmStart, GarbageBasisFallsBackGracefully) {
  Problem p;
  p.add_variable(1, 0, 1);
  p.add_constraint({1}, RowSense::kGreaterEqual, 0.5);
  Basis garbage;
  garbage.status = {7};          // invalid status code
  garbage.basic_vars = {999};    // out of range
  const Solution s = solve(p, {}, &garbage);
  ASSERT_TRUE(s.optimal());
  EXPECT_FALSE(s.warm_start_used);
  EXPECT_NEAR(s.objective, 0.5, 1e-9);
}

// Each rejection path must fall back to the crash/Phase-1 start and land on
// the same solution a cold solve computes, bit for bit (the fallback runs
// the identical deterministic code path).
namespace {

void expect_identical_to_cold(const Problem& p, Basis bad) {
  const Solution cold = solve(p);
  const Solution fell_back = solve(p, {}, &bad);
  ASSERT_TRUE(cold.optimal());
  ASSERT_TRUE(fell_back.optimal());
  EXPECT_FALSE(fell_back.warm_start_used);
  EXPECT_EQ(fell_back.iterations, cold.iterations);
  EXPECT_EQ(fell_back.objective, cold.objective);
  EXPECT_EQ(fell_back.x, cold.x);
  EXPECT_EQ(fell_back.duals, cold.duals);
  EXPECT_EQ(fell_back.reduced_costs, cold.reduced_costs);
}

/// min x0+x1 s.t. x0+x1 >= 0.5, x in [0,1]; the problems below corrupt a
/// basis for this LP (n_struct = 2, m = 1: status size 3, one basic var).
Problem tiny_covering_lp() {
  Problem p;
  p.add_variable(1, 0, 1);
  p.add_variable(1, 0, 1);
  p.add_constraint({1, 1}, RowSense::kGreaterEqual, 0.5);
  return p;
}

}  // namespace

TEST(SimplexWarmStart, WrongSizeBasisRejected) {
  const Problem p = tiny_covering_lp();
  Basis bad;
  bad.status = {2, 0};      // too short: needs n_struct + m = 3 entries
  bad.basic_vars = {0};
  expect_identical_to_cold(p, bad);

  Basis bad2;
  bad2.status = {2, 0, 0};
  bad2.basic_vars = {0, 1};  // too many basic variables for one row
  expect_identical_to_cold(p, bad2);
}

TEST(SimplexWarmStart, SingularBasisRejected) {
  // Two variables with identical columns: a basis made of both is singular,
  // so refactorize() must fail and the solve fall back.
  Problem p;
  p.add_variable(1, 0, kInfinity);
  p.add_variable(2, 0, kInfinity);
  p.add_constraint({1, 1}, RowSense::kGreaterEqual, 1);
  p.add_constraint({1, 1}, RowSense::kLessEqual, 3);
  Basis singular;
  singular.status = {2, 2, 0, 0};
  singular.basic_vars = {0, 1};
  expect_identical_to_cold(p, singular);
}

TEST(SimplexWarmStart, PrimalInfeasibleBasisRejected) {
  // With x1 parked at its upper bound, the basic x0 would need value
  // 0.5 - 1 = -0.5 < lower: the basis refactorizes fine but fails the
  // primal feasibility check.
  const Problem p = tiny_covering_lp();
  Basis infeasible;
  infeasible.status = {2, 1, 0};
  infeasible.basic_vars = {0};
  expect_identical_to_cold(p, infeasible);
}

TEST(SimplexWarmStart, AtUpperStatusWithInfiniteBoundRejected) {
  Problem p;
  p.add_variable(1, 0, kInfinity);
  p.add_variable(1, 0, 1);
  p.add_constraint({1, 1}, RowSense::kGreaterEqual, 0.5);
  Basis bad;
  bad.status = {1, 0, 2};  // x0 "at upper" but its upper bound is infinite
  bad.basic_vars = {2};    // slack basic
  expect_identical_to_cold(p, bad);
}

TEST(SimplexWarmStart, BasicStatusWithoutBasisEntryRejected) {
  const Problem p = tiny_covering_lp();
  Basis bad;
  bad.status = {2, 2, 0};  // claims two basic variables...
  bad.basic_vars = {0};    // ...but only one row/basis slot
  expect_identical_to_cold(p, bad);
}

TEST(SimplexWarmStart, AcceptedBasisReportsWarmStartUsed) {
  Problem p = tiny_covering_lp();
  Basis warm;
  const Solution first = solve(p, {}, &warm);
  ASSERT_TRUE(first.optimal());
  ASSERT_FALSE(warm.empty());
  p.objective[0] = 3.0;  // cost change keeps the basis primal-feasible
  const Solution again = solve(p, {}, &warm);
  ASSERT_TRUE(again.optimal());
  EXPECT_TRUE(again.warm_start_used);
  // Installing a warm basis always refactorizes once.
  EXPECT_GT(again.refactorizations, 0);
}

}  // namespace
}  // namespace carbon::lp
