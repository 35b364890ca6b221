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
// computes A_j^T y for every structural column in one pass over the
// ColumnPanels of the constraint matrix (8 columns per panel, independent
// accumulators; see column_panels.hpp), then picks the entering column from
// those values. FTRAN column formation, crash/residual accumulation and
// basis assembly iterate only each column's stored nonzeros. Every kernel
// adds each output's terms in ascending row order, and a skipped or padded
// term adds an exact +-0.0 to a sum that starts at +0.0, so the pivot
// sequence, duals and primal values are bit-for-bit identical to the dense
// reference kernels; SimplexOptions::use_dense_kernels keeps that reference
// path (per-column dense pricing) alive for differential tests and
// benchmarks. Pricing is Dantzig's rule with an automatic switch to Bland's
// rule after a stall threshold, which guarantees termination.
#pragma once

#include <cstddef>
#include <vector>

#include "carbon/lp/column_panels.hpp"
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
  double feasibility_tol = 1e-7;
  double optimality_tol = 1e-7;
  double pivot_tol = 1e-9;
  /// Route pricing/FTRAN/accumulation through dense reference kernels that
  /// materialize every column and price one column at a time (the
  /// pre-sparse implementation). Produces bit-identical solutions to the
  /// panel/sparse kernels; exists for differential tests and the LP
  /// microbenchmark.
  bool use_dense_kernels = false;
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

/// Reusable per-solve working memory for the simplex. A fresh SimplexSolver
/// allocates about a dozen vectors plus an m x m matrix per solve (and
/// another per refactorization); binding one SolveScratch to consecutive
/// solves of the same ProblemFamily reuses those allocations instead. Every
/// buffer is fully re-assigned before its first read each solve, so a
/// scratch-backed solve is bit-identical to a fresh-solver solve. NOT
/// thread-safe: one SolveScratch per thread (EvalContext owns one).
struct SolveScratch {
  std::vector<double> cost, lower, upper, slack_sign, art_sign;
  std::vector<detail::VarStatus> status, status_cand;
  std::vector<unsigned char> mark;
  std::vector<std::size_t> basis;
  std::vector<double> xb, y, alpha, work, work2, col, aty;
  DenseMatrix binv, refactor;
};

/// Solves `problem` (minimization). The problem must pass validate(); the
/// column panels are built per call.
/// When `warm` is non-null and holds a compatible basis, the solve starts
/// from it (skipping Phase 1); on optimal exit the basis is written back.
[[nodiscard]] Solution solve(const Problem& problem,
                             const SimplexOptions& options = {},
                             Basis* warm = nullptr);

/// Family fast path: skips validation and the panel build (both done once
/// by ProblemFamily) and, when `scratch` is non-null, reuses its buffers
/// instead of allocating. Results are bit-identical to
/// solve(family.problem(), options, warm).
[[nodiscard]] Solution solve(const ProblemFamily& family,
                             const SimplexOptions& options = {},
                             Basis* warm = nullptr,
                             SolveScratch* scratch = nullptr);

namespace detail {

/// Internal solver exposed for white-box testing.
class SimplexSolver {
 public:
  /// `panels` must be built from `problem` (unused, and may be empty, under
  /// use_dense_kernels).
  SimplexSolver(const Problem& problem, const ColumnPanels& panels,
                const SimplexOptions& options, SolveScratch* scratch = nullptr);
  Solution run(Basis* warm = nullptr);

 private:
  // Column j of the full (structural + slack + artificial) matrix, densely.
  void full_column(std::size_t j, std::vector<double>& out) const;
  /// A_j^T y for a slack or artificial column, or (dense reference path
  /// only) a structural column.
  double column_dot(std::size_t j, const std::vector<double>& y) const;
  /// aty[j] = A_j^T y for every column: one panel pass over the structural
  /// columns (one dense dot per column under use_dense_kernels), then the
  /// single +-1 entry of each slack and artificial.
  void price(const std::vector<double>& y, std::vector<double>& aty) const;
  /// out[i] += scale * A(i, j) over the stored nonzeros of column j.
  void axpy_column(std::size_t j, double scale, std::vector<double>& out) const;
  /// alpha = B^-1 A_j (the simplex FTRAN); tracks skipped MACs.
  void ftran(std::size_t j, std::vector<double>& alpha);
  /// (row i of B^-1) . A_j.
  double binv_row_dot_column(std::size_t i, std::size_t j) const;
  /// y^T = cB^T B^-1.
  void compute_duals(std::vector<double>& y) const;

  void setup_phase1();
  /// Tries an all-slack "crash" basis with structural variables parked at
  /// their lower (or upper) bounds. Returns true and installs the basis when
  /// it is primal-feasible, letting the solve skip Phase 1 entirely. This is
  /// always possible for covering relaxations started at x = u.
  bool try_crash_start(bool structural_at_upper);
  /// Installs a caller-provided basis (refactorizes; rejects singular or
  /// primal-infeasible bases). Returns success.
  bool try_warm_start(const Basis& warm);
  void save_basis(Basis& out) const;
  void enter_phase2();
  /// Returns final status of the phase iteration loop.
  SolveStatus iterate(bool phase1);
  bool refactorize();
  void recompute_basic_values();
  double nonbasic_value(std::size_t j) const;
  /// Drives remaining basic artificials out (or pins redundant rows).
  void purge_artificials();
  void export_stats(Solution& sol) const;

  const Problem& p_;
  const ColumnPanels& panels_;
  SimplexOptions opt_;

  std::size_t n_struct_ = 0;  // structural variables
  std::size_t m_ = 0;         // rows == slacks == artificials
  std::size_t n_total_ = 0;   // struct + slack + artificial

  // Working memory lives in a SolveScratch — caller-provided (reused across
  // solves) or the solver's own. Every buffer is fully re-assigned by the
  // constructor or by the start-basis installation before its first read,
  // so reuse cannot leak state between solves. The reference members below
  // bind to whichever scratch is active, keeping the solver body identical
  // either way.
  SolveScratch own_;

  std::vector<double>& cost_;        // current phase objective (size n_total_)
  std::vector<double>& lower_;       // bounds for all variables
  std::vector<double>& upper_;
  std::vector<double>& slack_sign_;  // +1 for <=/=, -1 for >=
  std::vector<double>& art_sign_;    // chosen at phase-1 setup

  // Dense reference path only: structural columns materialized with their
  // zeros, exactly as the pre-sparse Problem stored them.
  std::vector<std::vector<double>> dense_cols_;
  std::vector<double>& col_scratch_;

  std::vector<VarStatus>& status_;
  std::vector<std::size_t>& basis_;  // basis_[i] = variable basic in row i
  DenseMatrix& binv_;
  std::vector<double>& xb_;          // values of basic variables

  // Start-basis candidates and per-phase temporaries (see SolveScratch).
  std::vector<VarStatus>& status_cand_;
  std::vector<unsigned char>& mark_;
  DenseMatrix& refactor_;
  std::vector<double>& y_;
  std::vector<double>& aty_;  // A_j^T y of every column
  std::vector<double>& alpha_;
  std::vector<double>& work_;
  std::vector<double>& work2_;

  int iterations_ = 0;
  int refactorizations_ = 0;
  long long ftran_skipped_ = 0;
  bool warm_start_used_ = false;
  bool warm_start_rejected_ = false;
  bool numerical_failure_ = false;
};

}  // namespace detail
}  // namespace carbon::lp
