#include "carbon/lp/problem.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

namespace carbon::lp {

std::size_t Problem::num_nonzeros() const noexcept {
  std::size_t total = 0;
  for (const SparseColumn& col : columns) total += col.nnz();
  return total;
}

double Problem::coefficient(std::size_t row, std::size_t col) const {
  const SparseColumn& c = columns[col];
  const auto it = std::lower_bound(c.rows.begin(), c.rows.end(),
                                   static_cast<std::int32_t>(row));
  if (it == c.rows.end() || *it != static_cast<std::int32_t>(row)) return 0.0;
  return c.values[static_cast<std::size_t>(it - c.rows.begin())];
}

std::size_t Problem::add_variable(double cost, double lo, double hi) {
  objective.push_back(cost);
  lower.push_back(lo);
  upper.push_back(hi);
  columns.emplace_back();
  return num_vars() - 1;
}

std::size_t Problem::add_constraint(const std::vector<double>& row,
                                    RowSense s, double b) {
  const auto r = static_cast<std::int32_t>(num_rows());
  for (std::size_t j = 0; j < num_vars() && j < row.size(); ++j) {
    if (row[j] != 0.0) columns[j].push_back(r, row[j]);
  }
  rhs.push_back(b);
  sense.push_back(s);
  return num_rows() - 1;
}

std::size_t Problem::add_constraint(std::span<const RowEntry> entries,
                                    RowSense s, double b) {
  const auto r = static_cast<std::int32_t>(num_rows());
  for (const RowEntry& e : entries) {
    if (e.value != 0.0 && e.column < num_vars()) {
      columns[e.column].push_back(r, e.value);
    }
  }
  rhs.push_back(b);
  sense.push_back(s);
  return num_rows() - 1;
}

std::string Problem::validate() const {
  std::ostringstream err;
  const std::size_t n = num_vars();
  const std::size_t m = num_rows();
  if (lower.size() != n || upper.size() != n) {
    err << "bounds arrays must match num_vars";
    return err.str();
  }
  if (sense.size() != m) {
    err << "sense array must match num_rows";
    return err.str();
  }
  if (columns.size() != n) {
    err << "columns array must match num_vars";
    return err.str();
  }
  for (std::size_t j = 0; j < n; ++j) {
    const SparseColumn& col = columns[j];
    if (col.rows.size() != col.values.size()) {
      err << "column " << j << " has " << col.rows.size() << " row indices but "
          << col.values.size() << " values";
      return err.str();
    }
    for (std::size_t k = 0; k < col.rows.size(); ++k) {
      if (col.rows[k] < 0 || static_cast<std::size_t>(col.rows[k]) >= m) {
        err << "column " << j << " references row " << col.rows[k]
            << ", but the problem has " << m << " rows";
        return err.str();
      }
      if (k > 0 && col.rows[k] <= col.rows[k - 1]) {
        err << "column " << j << " row indices are not strictly increasing";
        return err.str();
      }
      if (!std::isfinite(col.values[k])) {
        err << "column " << j << " has a non-finite coefficient in row "
            << col.rows[k];
        return err.str();
      }
    }
    if (!std::isfinite(objective[j])) {
      err << "variable " << j << " has a non-finite objective coefficient";
      return err.str();
    }
    if (!std::isfinite(lower[j])) {
      err << "variable " << j << " must have a finite lower bound";
      return err.str();
    }
    if (std::isnan(upper[j])) {
      err << "variable " << j << " has a NaN upper bound";
      return err.str();
    }
    if (upper[j] < lower[j]) {
      err << "variable " << j << " has upper < lower";
      return err.str();
    }
  }
  for (std::size_t i = 0; i < m; ++i) {
    if (!std::isfinite(rhs[i])) {
      err << "rhs " << i << " is not finite";
      return err.str();
    }
  }
  return {};
}

const char* to_string(SolveStatus s) noexcept {
  switch (s) {
    case SolveStatus::kOptimal:
      return "optimal";
    case SolveStatus::kInfeasible:
      return "infeasible";
    case SolveStatus::kUnbounded:
      return "unbounded";
    case SolveStatus::kIterationLimit:
      return "iteration-limit";
    case SolveStatus::kNumericalFailure:
      return "numerical-failure";
  }
  return "unknown";
}

}  // namespace carbon::lp
