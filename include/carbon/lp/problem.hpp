// Linear program container:   min c'x   s.t.  A x {<=,=,>=} b,  l <= x <= u.
//
// Columns are stored sparsely (CSC-style: per column, the sorted nonzero
// (row, value) pairs). The covering relaxations this project solves are
// sparse — most bundles cover few services — and the simplex works
// column-wise, so sparse columns shrink both the memory footprint and the
// pricing/FTRAN inner loops. Infinite upper bounds are expressed with
// `kInfinity`; every variable must have a finite lower bound, which covers
// all LPs arising in this project (covering relaxations, tests, examples).
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <span>
#include <string>
#include <vector>

namespace carbon::lp {

inline constexpr double kInfinity = std::numeric_limits<double>::infinity();

enum class RowSense : unsigned char {
  kLessEqual,
  kEqual,
  kGreaterEqual,
};

/// One sparse matrix column: parallel arrays of strictly-increasing row
/// indices and the nonzero values stored at them.
struct SparseColumn {
  std::vector<std::int32_t> rows;
  std::vector<double> values;

  [[nodiscard]] std::size_t nnz() const noexcept { return rows.size(); }
  void push_back(std::int32_t row, double value) {
    rows.push_back(row);
    values.push_back(value);
  }
};

/// One nonzero of a constraint row, addressed by variable index.
struct RowEntry {
  std::size_t column;
  double value;
};

struct Problem {
  /// Objective coefficients, one per structural variable (minimization).
  std::vector<double> objective;
  /// Sparse column-major constraint matrix; columns[j] holds the nonzeros
  /// of A(:, j) with strictly-increasing row indices.
  std::vector<SparseColumn> columns;
  std::vector<double> rhs;
  std::vector<RowSense> sense;
  std::vector<double> lower;
  std::vector<double> upper;

  [[nodiscard]] std::size_t num_vars() const noexcept {
    return objective.size();
  }
  [[nodiscard]] std::size_t num_rows() const noexcept { return rhs.size(); }
  /// Total stored nonzeros across all columns.
  [[nodiscard]] std::size_t num_nonzeros() const noexcept;

  /// A(row, col); zero when the entry is not stored.
  [[nodiscard]] double coefficient(std::size_t row, std::size_t col) const;

  /// Appends a variable; returns its index.
  std::size_t add_variable(double cost, double lo, double hi);
  /// Appends a constraint with the given dense row (zeros are not stored);
  /// returns its index.
  std::size_t add_constraint(const std::vector<double>& row, RowSense s,
                             double b);
  /// Appends a constraint from its nonzeros only; each referenced column
  /// must appear at most once and be < num_vars(). Returns the row index.
  std::size_t add_constraint(std::span<const RowEntry> entries, RowSense s,
                             double b);

  /// Validates dimensions, column structure (sorted in-range row indices),
  /// finiteness (coefficients, objective, lower bounds and rhs finite; upper
  /// bounds finite or +infinity, never NaN) and bound order; returns a
  /// diagnostic message or an empty string when the problem is well-formed.
  [[nodiscard]] std::string validate() const;
};

enum class SolveStatus : unsigned char {
  kOptimal,
  kInfeasible,
  kUnbounded,
  kIterationLimit,
  kNumericalFailure,
};

[[nodiscard]] const char* to_string(SolveStatus s) noexcept;

struct Solution {
  SolveStatus status = SolveStatus::kNumericalFailure;
  double objective = 0.0;
  /// Primal values for the structural variables.
  std::vector<double> x;
  /// Dual values (one per row). Sign convention: for a minimization problem,
  /// duals of >= rows are >= 0, duals of <= rows are <= 0.
  std::vector<double> duals;
  /// Reduced costs for the structural variables.
  std::vector<double> reduced_costs;
  int iterations = 0;
  /// How many times the basis inverse was rebuilt from scratch.
  int refactorizations = 0;
  /// True when a caller-provided warm-start basis was accepted (the solve
  /// skipped the crash/Phase-1 start entirely).
  bool warm_start_used = false;
  /// True when a caller-provided (non-empty) warm-start basis was REJECTED —
  /// wrong size, duplicate/invalid statuses, singular after refactorization,
  /// or primal-infeasible — and the solve fell back to a crash/Phase-1 start.
  bool warm_start_rejected = false;
  /// True when the final optimal basis was clean (artificial-free) and was
  /// written back through the caller's `warm` pointer. Distinguishes "the
  /// basis out-parameter holds the solve's result" from "it still holds the
  /// caller's input" for basis-pool commits.
  bool basis_saved = false;

  [[nodiscard]] bool optimal() const noexcept {
    return status == SolveStatus::kOptimal;
  }
};

}  // namespace carbon::lp
