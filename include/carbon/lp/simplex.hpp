// Bounded-variable revised primal simplex over sparse (CSC) columns.
//
// Two phases: Phase 1 drives artificial variables out of an all-artificial
// start basis, Phase 2 optimizes the real objective. Variables carry explicit
// [l, u] bounds so binary relaxations (x in [0,1]) never inflate the row
// count — the basis stays m x m with m = #constraints, which is what makes
// per-evaluation LP bounds affordable inside an evolutionary loop.
//
// The inverse basis is maintained densely with product-form pivot updates and
// periodic refactorization (Gauss-Jordan with partial pivoting). Pricing
// and the entering-column choice are one fused pass over the ColumnPanels
// of the constraint matrix (8 columns per panel, independent accumulators;
// see column_panels.hpp): per panel it forms A_j^T y, the reduced costs and
// the scores and keeps the running best; the slack and artificial columns
// follow in index order. FTRAN column formation, crash/residual
// accumulation and basis assembly iterate only each column's stored
// nonzeros. Every kernel adds each output's terms in ascending row order,
// and a skipped or padded term adds an exact +-0.0 to a sum that starts at
// +0.0, so the pivot sequence, duals and primal values are bit-for-bit
// those of per-column dense loops on either kernel path;
// tests/lp/simplex_differential_test.cpp pins them as frozen fingerprints. Pricing is Dantzig's rule with an automatic switch to
// Bland's rule after a stall threshold, which guarantees termination.
#pragma once

#include <cstddef>
#include <vector>

#include "carbon/lp/dense_matrix.hpp"
#include "carbon/lp/problem.hpp"
#include "carbon/lp/problem_family.hpp"

namespace carbon::lp {

struct SimplexOptions {
  /// Hard cap on pivots across both phases; 0 means
  /// `50 * (m + n + 2m) + 200` for m rows and n structural variables (the
  /// solver's columns are the n structurals, m slacks and m artificials).
  int max_iterations = 0;
  /// Switch from Dantzig to Bland pricing after this many pivots in a phase.
  int bland_threshold = 2000;
  /// Refactorize the basis inverse every this many pivots.
  int refactor_interval = 100;
  /// Tolerances; lp::solve throws std::invalid_argument unless all three
  /// are finite, optimality_tol > 0 and the other two >= 0.
  double feasibility_tol = 1e-7;
  double optimality_tol = 1e-7;
  double pivot_tol = 1e-9;
};

/// An optimal basis snapshot usable to warm-start a subsequent solve of a
/// problem with the SAME constraint matrix/rhs/bounds but possibly different
/// objective coefficients (primal feasibility of the basis is preserved
/// under cost changes). Statuses cover structural variables then slacks.
struct Basis {
  std::vector<unsigned char> status;      ///< 0 = at lower, 1 = at upper, 2 = basic
  std::vector<std::size_t> basic_vars;    ///< one per row
  [[nodiscard]] bool empty() const noexcept { return basic_vars.empty(); }
};

namespace detail {
/// Nonbasic/basic marker for every column (structural, slack, artificial).
enum class VarStatus : unsigned char { kAtLower, kAtUpper, kBasic };
}  // namespace detail

/// Working memory of one simplex solve: about a dozen vectors plus an m x m
/// matrix (and another per refactorization). A solve without a caller's
/// scratch allocates a fresh one; binding one SolveScratch to consecutive
/// solves of the same ProblemFamily reuses those allocations instead. Every
/// buffer is fully re-assigned before its first read each solve, so a
/// reused scratch gives the same bits as a fresh one. NOT thread-safe: one
/// SolveScratch per thread (EvalContext owns one).
struct SolveScratch {
  std::vector<double> cost, lower, upper, slack_sign, art_sign;
  std::vector<detail::VarStatus> status, status_cand;
  std::vector<unsigned char> mark;
  std::vector<std::size_t> basis;
  std::vector<double> xb, y, dir, alpha, work, work2;
  DenseMatrix binv, refactor;
};

/// Solves `problem` (minimization). Throws std::invalid_argument when the
/// problem fails validate() or the options' tolerances are out of range; the
/// column panels and the working memory are built per call.
/// When `warm` is non-null and holds a compatible basis, the solve starts
/// from it (skipping Phase 1); on optimal exit the basis is written back.
[[nodiscard]] Solution solve(const Problem& problem,
                             const SimplexOptions& options = {},
                             Basis* warm = nullptr);

/// Family fast path: skips validation and the panel build (both done once
/// by ProblemFamily) and, when `scratch` is non-null, reuses its buffers
/// instead of allocating a fresh SolveScratch. Results are bit-identical to
/// solve(family.problem(), options, warm).
[[nodiscard]] Solution solve(const ProblemFamily& family,
                             const SimplexOptions& options = {},
                             Basis* warm = nullptr,
                             SolveScratch* scratch = nullptr);

}  // namespace carbon::lp
