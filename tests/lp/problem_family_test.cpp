// Tests for lp::ProblemFamily: once-only validation at construction,
// cost-only rebind() semantics (prefix copy, length check, rebind counter),
// and the central equivalence contract of the hot path — a family solve
// with a reused SolveScratch is bit-identical to a plain validated-Problem
// solve of the same data, including on degenerate LPs with alternate
// optima, where "equally optimal but different bits" would silently break
// the golden-trajectory harness.

#include <gtest/gtest.h>

#include <span>
#include <stdexcept>
#include <vector>

#include "carbon/lp/problem_family.hpp"
#include "carbon/lp/simplex.hpp"

namespace carbon::lp {
namespace {

/// Covering-style LP shaped like the LL relaxation: x in [0, 1], rows
/// "each service covered at least once" over overlapping bundles.
Problem covering_problem(const std::vector<double>& costs) {
  Problem p;
  for (const double c : costs) p.add_variable(c, 0.0, 1.0);
  // 6 variables, 4 rows; every row has >= 2 covering columns.
  p.add_constraint({1, 1, 0, 0, 1, 0}, RowSense::kGreaterEqual, 1.0);
  p.add_constraint({0, 1, 1, 0, 0, 1}, RowSense::kGreaterEqual, 1.0);
  p.add_constraint({1, 0, 1, 1, 0, 0}, RowSense::kGreaterEqual, 1.0);
  p.add_constraint({0, 0, 0, 1, 1, 1}, RowSense::kGreaterEqual, 1.0);
  return p;
}

void expect_bitwise_equal(const Solution& want, const Solution& got) {
  ASSERT_EQ(want.status, got.status);
  EXPECT_EQ(want.objective, got.objective);  // bitwise, not tolerance
  ASSERT_EQ(want.x.size(), got.x.size());
  for (std::size_t j = 0; j < want.x.size(); ++j) {
    EXPECT_EQ(want.x[j], got.x[j]) << "x[" << j << "]";
  }
  ASSERT_EQ(want.duals.size(), got.duals.size());
  for (std::size_t i = 0; i < want.duals.size(); ++i) {
    EXPECT_EQ(want.duals[i], got.duals[i]) << "dual[" << i << "]";
  }
  ASSERT_EQ(want.reduced_costs.size(), got.reduced_costs.size());
  for (std::size_t j = 0; j < want.reduced_costs.size(); ++j) {
    EXPECT_EQ(want.reduced_costs[j], got.reduced_costs[j]) << "rc[" << j << "]";
  }
  EXPECT_EQ(want.iterations, got.iterations);
}

TEST(ProblemFamily, ConstructionValidatesOnce) {
  Problem bad = covering_problem({1, 1, 1, 1, 1, 1});
  bad.lower[2] = 2.0;  // lower > upper: exactly what lp::solve rejects
  EXPECT_THROW(ProblemFamily{std::move(bad)}, std::invalid_argument);
  EXPECT_NO_THROW(ProblemFamily{covering_problem({1, 1, 1, 1, 1, 1})});
}

TEST(ProblemFamily, RebindCopiesPrefixAndCountsCalls) {
  ProblemFamily fam(covering_problem({10, 20, 30, 40, 50, 60}));
  EXPECT_EQ(fam.rebinds(), 0);

  const std::vector<double> prefix = {1.5, 2.5, 3.5};
  fam.rebind(prefix);
  EXPECT_EQ(fam.rebinds(), 1);
  const std::vector<double>& obj = fam.problem().objective;
  EXPECT_EQ(obj[0], 1.5);
  EXPECT_EQ(obj[1], 2.5);
  EXPECT_EQ(obj[2], 3.5);
  // Trailing coefficients keep their current values (pricing-prefix rule).
  EXPECT_EQ(obj[3], 40.0);
  EXPECT_EQ(obj[4], 50.0);
  EXPECT_EQ(obj[5], 60.0);

  const std::vector<double> too_long(7, 1.0);
  EXPECT_THROW(fam.rebind(too_long), std::invalid_argument);
  EXPECT_EQ(fam.rebinds(), 1);

  // Copies share the validated problem but start their own rebind count.
  const ProblemFamily copy(fam);
  EXPECT_EQ(copy.rebinds(), 0);
  EXPECT_EQ(copy.problem().objective, fam.problem().objective);
  ProblemFamily assigned(covering_problem({1, 1, 1, 1, 1, 1}));
  assigned.rebind(prefix);
  EXPECT_EQ(assigned.rebinds(), 1);
  assigned = fam;
  EXPECT_EQ(assigned.rebinds(), 0);
}

TEST(ProblemFamily, CopiesShareColumnPanelsAndRebindLeavesThemUntouched) {
  ProblemFamily fam(covering_problem({10, 20, 30, 40, 50, 60}));
  const ColumnPanels* panels = &fam.panels();
  EXPECT_EQ(panels->num_cols(), 6u);
  const std::size_t stored = panels->stored_rows();

  const std::vector<double> y = {0.5, -1.25, 2.0, 3.5};
  std::vector<double> before(6);
  panels->multiply_transposed(y, before);

  // Copies (EvalContext clones) share the one read-only build.
  const ProblemFamily copy(fam);
  EXPECT_EQ(&copy.panels(), panels);
  ProblemFamily assigned(covering_problem({1, 1, 1, 1, 1, 1}));
  EXPECT_NE(&assigned.panels(), panels);
  assigned = fam;
  EXPECT_EQ(&assigned.panels(), panels);

  // Costs are not part of the panels: a rebind keeps the same object with
  // the same contents.
  fam.rebind(std::vector<double>{9.0, 8.0, 7.0});
  EXPECT_EQ(&fam.panels(), panels);
  EXPECT_EQ(fam.panels().stored_rows(), stored);
  std::vector<double> after(6);
  fam.panels().multiply_transposed(y, after);
  EXPECT_EQ(before, after);
}

TEST(ProblemFamily, FamilySolveMatchesPlainSolveAcrossRebinds) {
  // A reused family + scratch + carried basis must produce the SAME bits as
  // building and solving a fresh validated Problem with the same warm basis
  // at every step of a cost-vector walk (the UL population pattern).
  ProblemFamily fam(covering_problem({3, 5, 2, 7, 4, 6}));
  SolveScratch scratch;
  Basis family_warm;  // carried across the walk, like the evaluator does

  const std::vector<std::vector<double>> walk = {
      {3, 5, 2, 7, 4, 6}, {3.1, 5, 2, 7, 4, 6},   {2.9, 5.2, 2, 7, 4, 6},
      {3, 5, 8, 1, 4, 6}, {0.5, 0.5, 9, 9, 9, 9}, {3.1, 5, 2, 7, 4, 6}};
  for (std::size_t step = 0; step < walk.size(); ++step) {
    SCOPED_TRACE("walk step " + std::to_string(step));
    fam.rebind(walk[step]);

    // Reference: fresh Problem, same warm-basis content.
    Problem plain = covering_problem(walk[step]);
    Basis plain_warm = family_warm;
    const Solution want = solve(plain, {}, &plain_warm);

    const Solution got = solve(fam, {}, &family_warm, &scratch);
    expect_bitwise_equal(want, got);
    ASSERT_TRUE(got.optimal());
    EXPECT_TRUE(got.basis_saved);
    // The written-back bases must match too — they seed the next step.
    EXPECT_EQ(plain_warm.status, family_warm.status);
    EXPECT_EQ(plain_warm.basic_vars, family_warm.basic_vars);
    if (step > 0) EXPECT_TRUE(got.warm_start_used);
  }
  EXPECT_EQ(fam.rebinds(), static_cast<long long>(walk.size()));
}

TEST(ProblemFamily, RejectedWarmBasisFallsBackAndIsReported) {
  ProblemFamily fam(covering_problem({3, 5, 2, 7, 4, 6}));
  SolveScratch scratch;

  Basis garbage;
  garbage.status.assign(2, 9);  // wrong size AND invalid status codes
  garbage.basic_vars = {0, 1};
  const Solution sol = solve(fam, {}, &garbage, &scratch);
  ASSERT_TRUE(sol.optimal());
  EXPECT_TRUE(sol.warm_start_rejected);
  EXPECT_FALSE(sol.warm_start_used);
  // The fallback solve must still equal a cold solve bit for bit.
  Problem plain = covering_problem({3, 5, 2, 7, 4, 6});
  const Solution cold = solve(plain);
  expect_bitwise_equal(cold, sol);

  // The clean optimal basis was written back over the garbage; a re-solve
  // from it is accepted.
  ASSERT_TRUE(sol.basis_saved);
  const Solution again = solve(fam, {}, &garbage, &scratch);
  EXPECT_TRUE(again.warm_start_used);
  EXPECT_FALSE(again.warm_start_rejected);
}

TEST(ProblemFamily, DegenerateAlternateOptimaAreBitwiseReproducible) {
  // Duplicate columns with identical costs: the optimal FACE has many
  // vertices, so "any optimum" is not unique — but for a fixed (family,
  // cost vector, warm basis) the solver must pick the SAME vertex, with the
  // same duals, every time, with or without scratch reuse and regardless of
  // what was solved in between. This is the property that makes the basis
  // pool a golden AXIS rather than a nondeterminism source.
  auto degenerate = [] {
    Problem p;
    for (int j = 0; j < 4; ++j) p.add_variable(1.0, 0.0, 1.0);  // 4 clones
    p.add_variable(3.0, 0.0, 1.0);
    p.add_constraint({1, 1, 1, 1, 0}, RowSense::kGreaterEqual, 1.0);
    p.add_constraint({1, 1, 1, 1, 1}, RowSense::kGreaterEqual, 2.0);
    return p;
  };
  ProblemFamily fam(degenerate());

  // Derive a warm basis from a different cost vector first.
  SolveScratch s0;
  Basis warm;
  fam.rebind(std::vector<double>{2.0, 1.0, 1.0, 2.0, 3.0});
  ASSERT_TRUE(solve(fam, {}, &warm, &s0).optimal());
  const Basis warm_snapshot = warm;

  const std::vector<double> cost = {1.0, 1.0, 1.0, 1.0, 3.0};
  fam.rebind(cost);
  Basis b1 = warm_snapshot;
  const Solution first = solve(fam, {}, &b1, &s0);
  ASSERT_TRUE(first.optimal());

  // Re-solve after polluting the scratch with other work, from a fresh
  // scratch, and from a fresh family copy: all identical bits.
  fam.rebind(std::vector<double>{9.0, 0.1, 5.0, 0.1, 0.2});
  (void)solve(fam, {}, nullptr, &s0);
  fam.rebind(cost);
  Basis b2 = warm_snapshot;
  const Solution polluted = solve(fam, {}, &b2, &s0);
  expect_bitwise_equal(first, polluted);

  SolveScratch fresh;
  ProblemFamily fam2(degenerate());
  fam2.rebind(cost);
  Basis b3 = warm_snapshot;
  const Solution other_family = solve(fam2, {}, &b3, &fresh);
  expect_bitwise_equal(first, other_family);
  EXPECT_EQ(b1.status, b3.status);
  EXPECT_EQ(b1.basic_vars, b3.basic_vars);
}

}  // namespace
}  // namespace carbon::lp
