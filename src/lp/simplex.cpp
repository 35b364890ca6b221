#include "carbon/lp/simplex.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>
#include <utility>

#include "carbon/lp/column_panels.hpp"

namespace carbon::lp {
namespace {

using detail::VarStatus;

class SimplexSolver {
 public:
  /// `panels` must be built from `problem`; `scratch` holds the working
  /// memory and must outlive the solver.
  SimplexSolver(const Problem& problem, const ColumnPanels& panels,
                const SimplexOptions& options, SolveScratch& scratch);
  Solution run(Basis* warm);

 private:
  /// The entering column of Dantzig's rule (Bland's under `bland`), or
  /// n_total_ when no column improves: one fused pricing-and-choice pass.
  std::size_t choose_entering(const std::vector<double>& y, bool bland) const;
  /// Sets status_[j] and keeps dir_[j] in step with it.
  void set_status(std::size_t j, VarStatus st);
  /// Rebuilds dir_ from status_ and the bounds.
  void refresh_directions();
  /// out[i] += scale * A(i, j) over the stored nonzeros of column j.
  void axpy_column(std::size_t j, double scale, std::vector<double>& out) const;
  /// alpha = B^-1 A_j (the simplex FTRAN).
  void ftran(std::size_t j, std::vector<double>& alpha) const;
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

  // Working memory lives in the SolveScratch. Every buffer is fully
  // re-assigned by the constructor or by the start-basis installation
  // before its first read, so reuse cannot leak state between solves.
  std::vector<double>& cost_;        // current phase objective (size n_total_)
  std::vector<double>& lower_;       // bounds for all variables
  std::vector<double>& upper_;
  std::vector<double>& slack_sign_;  // +1 for <=/=, -1 for >=
  std::vector<double>& art_sign_;    // chosen at phase-1 setup

  std::vector<VarStatus>& status_;
  std::vector<std::size_t>& basis_;  // basis_[i] = variable basic in row i
  DenseMatrix& binv_;
  std::vector<double>& xb_;          // values of basic variables

  // Start-basis candidates and per-phase temporaries (see SolveScratch).
  std::vector<VarStatus>& status_cand_;
  std::vector<unsigned char>& mark_;
  DenseMatrix& refactor_;
  std::vector<double>& y_;
  // Pricing direction of every column inside iterate(): -1 at lower, +1 at
  // upper, 0 when basic or fixed (see set_status).
  std::vector<double>& dir_;
  std::vector<double>& alpha_;
  std::vector<double>& work_;
  std::vector<double>& work2_;

  int iterations_ = 0;
  int refactorizations_ = 0;
  bool warm_start_used_ = false;
  bool warm_start_rejected_ = false;
  bool numerical_failure_ = false;
};

SimplexSolver::SimplexSolver(const Problem& problem, const ColumnPanels& panels,
                             const SimplexOptions& options,
                             SolveScratch& scratch)
    : p_(problem),
      panels_(panels),
      opt_(options),
      cost_(scratch.cost),
      lower_(scratch.lower),
      upper_(scratch.upper),
      slack_sign_(scratch.slack_sign),
      art_sign_(scratch.art_sign),
      status_(scratch.status),
      basis_(scratch.basis),
      binv_(scratch.binv),
      xb_(scratch.xb),
      status_cand_(scratch.status_cand),
      mark_(scratch.mark),
      refactor_(scratch.refactor),
      y_(scratch.y),
      dir_(scratch.dir),
      alpha_(scratch.alpha),
      work_(scratch.work),
      work2_(scratch.work2) {
  n_struct_ = p_.num_vars();
  m_ = p_.num_rows();
  n_total_ = n_struct_ + 2 * m_;
  if (opt_.max_iterations <= 0) {
    opt_.max_iterations = 50 * static_cast<int>(m_ + n_total_) + 200;
  }

  lower_.assign(n_total_, 0.0);
  upper_.assign(n_total_, kInfinity);
  slack_sign_.assign(m_, 1.0);
  art_sign_.assign(m_, 1.0);

  for (std::size_t j = 0; j < n_struct_; ++j) {
    lower_[j] = p_.lower[j];
    upper_[j] = p_.upper[j];
  }
  for (std::size_t i = 0; i < m_; ++i) {
    const std::size_t sj = n_struct_ + i;
    switch (p_.sense[i]) {
      case RowSense::kLessEqual:
        slack_sign_[i] = 1.0;
        lower_[sj] = 0.0;
        upper_[sj] = kInfinity;
        break;
      case RowSense::kGreaterEqual:
        slack_sign_[i] = -1.0;
        lower_[sj] = 0.0;
        upper_[sj] = kInfinity;
        break;
      case RowSense::kEqual:
        slack_sign_[i] = 1.0;
        lower_[sj] = 0.0;
        upper_[sj] = 0.0;  // fixed slack: row is an equality
        break;
    }
  }
}

std::size_t SimplexSolver::choose_entering(const std::vector<double>& y,
                                          bool bland) const {
  // Reduced cost d_j = c_j - A_j^T y; a column scores dir_j * d_j and is
  // eligible when the score exceeds optimality_tol (> 0, so a zero
  // direction never is). Dantzig takes the first maximum score (strict >),
  // Bland the first eligible index. The structural columns go through the
  // panels; the slacks and artificials, whose one entry is +-1 in row i,
  // follow in index order. Each A_j^T y has the bits of a per-column dense
  // dot (see column_panels.hpp).
  ColumnPanels::Choice best{n_total_, opt_.optimality_tol};
  if (panels_.choose_entering(y, cost_, dir_, bland, best) && bland) {
    return best.column;
  }
  for (std::size_t k = 0; k < 2 * m_; ++k) {
    const std::size_t j = n_struct_ + k;
    const std::size_t i = k < m_ ? k : k - m_;
    const double sign = k < m_ ? slack_sign_[i] : art_sign_[i];
    const double score = dir_[j] * (cost_[j] - sign * y[i]);
    if (score > best.score) {
      if (bland) return j;
      best = {j, score};
    }
  }
  return best.column;
}

void SimplexSolver::set_status(std::size_t j, VarStatus st) {
  status_[j] = st;
  dir_[j] = st == VarStatus::kBasic || lower_[j] == upper_[j] ? 0.0
            : st == VarStatus::kAtLower                      ? -1.0
                                                             : 1.0;
}

void SimplexSolver::refresh_directions() {
  dir_.resize(n_total_);
  for (std::size_t j = 0; j < n_total_; ++j) set_status(j, status_[j]);
}

void SimplexSolver::axpy_column(std::size_t j, double scale,
                                std::vector<double>& out) const {
  if (j < n_struct_) {
    const SparseColumn& col = p_.columns[j];
    const std::size_t nnz = col.nnz();
    for (std::size_t k = 0; k < nnz; ++k) {
      out[static_cast<std::size_t>(col.rows[k])] += scale * col.values[k];
    }
  } else if (j < n_struct_ + m_) {
    out[j - n_struct_] += scale * slack_sign_[j - n_struct_];
  } else {
    out[j - n_struct_ - m_] += scale * art_sign_[j - n_struct_ - m_];
  }
}

void SimplexSolver::ftran(std::size_t j, std::vector<double>& alpha) const {
  if (j < n_struct_) {
    const SparseColumn& col = p_.columns[j];
    const std::size_t nnz = col.nnz();
    for (std::size_t i = 0; i < m_; ++i) {
      double acc = 0.0;
      const auto brow = binv_.row(i);
      for (std::size_t k = 0; k < nnz; ++k) {
        acc += brow[static_cast<std::size_t>(col.rows[k])] * col.values[k];
      }
      alpha[i] = acc;
    }
    return;
  }
  const bool slack = j < n_struct_ + m_;
  const std::size_t r = slack ? j - n_struct_ : j - n_struct_ - m_;
  const double sign = slack ? slack_sign_[r] : art_sign_[r];
  for (std::size_t i = 0; i < m_; ++i) alpha[i] = binv_(i, r) * sign;
}

double SimplexSolver::binv_row_dot_column(std::size_t i, std::size_t j) const {
  const auto brow = binv_.row(i);
  if (j >= n_struct_) {
    const bool slack = j < n_struct_ + m_;
    const std::size_t r = slack ? j - n_struct_ : j - n_struct_ - m_;
    return brow[r] * (slack ? slack_sign_[r] : art_sign_[r]);
  }
  const SparseColumn& col = p_.columns[j];
  const std::size_t nnz = col.nnz();
  double acc = 0.0;
  for (std::size_t k = 0; k < nnz; ++k) {
    acc += brow[static_cast<std::size_t>(col.rows[k])] * col.values[k];
  }
  return acc;
}

void SimplexSolver::compute_duals(std::vector<double>& y) const {
  // Transposed accumulation: each y[i] receives its terms in ascending r
  // order, as y[i] = sum_r cB[r] * binv(r, i) would, minus exact-zero cB
  // terms, so the bits are the same — but B^-1 is streamed row-major, and
  // rows whose basic variable has zero cost (all of Phase 1's
  // non-artificials, every slack-basic row of Phase 2) are skipped outright.
  std::fill(y.begin(), y.end(), 0.0);
  for (std::size_t r = 0; r < m_; ++r) {
    const double cr = cost_[basis_[r]];
    if (cr == 0.0) continue;
    const auto brow = binv_.row(r);
    for (std::size_t i = 0; i < m_; ++i) y[i] += cr * brow[i];
  }
}

double SimplexSolver::nonbasic_value(std::size_t j) const {
  return status_[j] == VarStatus::kAtUpper ? upper_[j] : lower_[j];
}

void SimplexSolver::setup_phase1() {
  status_.assign(n_total_, VarStatus::kAtLower);
  // Variables with infinite "lower preference" do not occur (finite lower
  // bounds are enforced by Problem::validate); start everything at lower.
  // Fixed slacks (equality rows) also sit at their lower (= upper = 0).

  // Residual of each row at the nonbasic point.
  std::vector<double>& residual = work_;
  residual.assign(p_.rhs.begin(), p_.rhs.end());
  for (std::size_t j = 0; j < n_struct_ + m_; ++j) {
    const double v = nonbasic_value(j);
    if (v == 0.0) continue;
    axpy_column(j, -v, residual);
  }

  basis_.resize(m_);
  xb_.assign(m_, 0.0);
  binv_.set_identity(m_);
  for (std::size_t i = 0; i < m_; ++i) {
    art_sign_[i] = residual[i] >= 0.0 ? 1.0 : -1.0;
    const std::size_t aj = n_struct_ + m_ + i;
    basis_[i] = aj;
    status_[aj] = VarStatus::kBasic;
    xb_[i] = std::abs(residual[i]);
    binv_(i, i) = art_sign_[i];  // inverse of diag(+-1) is itself
  }

  cost_.assign(n_total_, 0.0);
  for (std::size_t i = 0; i < m_; ++i) cost_[n_struct_ + m_ + i] = 1.0;
}

bool SimplexSolver::try_warm_start(const Basis& warm) {
  if (warm.basic_vars.size() != m_ ||
      warm.status.size() != n_struct_ + m_) {
    return false;
  }
  std::vector<VarStatus>& status = status_cand_;
  status.assign(n_total_, VarStatus::kAtLower);
  std::vector<unsigned char>& is_basic = mark_;
  is_basic.assign(n_total_, 0);
  for (std::size_t i = 0; i < m_; ++i) {
    const std::size_t bj = warm.basic_vars[i];
    if (bj >= n_struct_ + m_ || is_basic[bj]) return false;
    is_basic[bj] = 1;
  }
  for (std::size_t j = 0; j < n_struct_ + m_; ++j) {
    switch (warm.status[j]) {
      case 0:
        status[j] = VarStatus::kAtLower;
        break;
      case 1:
        if (!std::isfinite(upper_[j])) return false;
        status[j] = VarStatus::kAtUpper;
        break;
      case 2:
        if (!is_basic[j]) return false;
        status[j] = VarStatus::kBasic;
        break;
      default:
        return false;
    }
    if (is_basic[j] && status[j] != VarStatus::kBasic) return false;
  }

  std::swap(status_, status);
  basis_.assign(warm.basic_vars.begin(), warm.basic_vars.end());
  xb_.assign(m_, 0.0);
  binv_.set_identity(m_);
  if (!refactorize()) return false;
  // Cost changes keep the basis primal-feasible, but verify anyway (the
  // caller may hand us a basis from a different problem by mistake).
  for (std::size_t i = 0; i < m_; ++i) {
    const std::size_t bj = basis_[i];
    const double scale = 1.0 + std::abs(xb_[i]);
    if (xb_[i] < lower_[bj] - opt_.feasibility_tol * scale) return false;
    if (std::isfinite(upper_[bj]) &&
        xb_[i] > upper_[bj] + opt_.feasibility_tol * scale) {
      return false;
    }
  }
  return true;
}

void SimplexSolver::save_basis(Basis& out) const {
  out.status.assign(n_struct_ + m_, 0);
  for (std::size_t j = 0; j < n_struct_ + m_; ++j) {
    switch (status_[j]) {
      case VarStatus::kAtLower:
        out.status[j] = 0;
        break;
      case VarStatus::kAtUpper:
        out.status[j] = 1;
        break;
      case VarStatus::kBasic:
        out.status[j] = 2;
        break;
    }
  }
  out.basic_vars.assign(basis_.begin(), basis_.end());
}

bool SimplexSolver::try_crash_start(bool structural_at_upper) {
  std::vector<VarStatus>& status = status_cand_;
  status.assign(n_total_, VarStatus::kAtLower);
  if (structural_at_upper) {
    for (std::size_t j = 0; j < n_struct_; ++j) {
      if (std::isfinite(upper_[j])) status[j] = VarStatus::kAtUpper;
    }
  }

  // Row activity at the candidate nonbasic point.
  std::vector<double>& activity = work_;
  activity.assign(m_, 0.0);
  for (std::size_t j = 0; j < n_struct_; ++j) {
    const double v =
        status[j] == VarStatus::kAtUpper ? upper_[j] : lower_[j];
    if (v == 0.0) continue;
    axpy_column(j, v, activity);
  }

  // Slack i value solving (Ax)_i + sign_i * s_i = b_i.
  std::vector<double>& slack = work2_;
  slack.assign(m_, 0.0);
  for (std::size_t i = 0; i < m_; ++i) {
    const double s = slack_sign_[i] * (p_.rhs[i] - activity[i]);
    const std::size_t sj = n_struct_ + i;
    const double scale = 1.0 + std::abs(p_.rhs[i]);
    if (s < lower_[sj] - opt_.feasibility_tol * scale ||
        s > upper_[sj] + opt_.feasibility_tol * scale) {
      return false;
    }
    slack[i] = s;
  }

  std::swap(status_, status);
  basis_.resize(m_);
  xb_.resize(m_);
  binv_.set_identity(m_);
  for (std::size_t i = 0; i < m_; ++i) {
    basis_[i] = n_struct_ + i;
    status_[n_struct_ + i] = VarStatus::kBasic;
    xb_[i] = slack[i];
    binv_(i, i) = slack_sign_[i];  // inverse of diag(+-1) is itself
  }
  return true;
}

void SimplexSolver::enter_phase2() {
  cost_.assign(n_total_, 0.0);
  for (std::size_t j = 0; j < n_struct_; ++j) cost_[j] = p_.objective[j];
  // Artificials must never re-enter: pin them to zero.
  for (std::size_t i = 0; i < m_; ++i) {
    const std::size_t aj = n_struct_ + m_ + i;
    lower_[aj] = 0.0;
    upper_[aj] = 0.0;
    if (status_[aj] != VarStatus::kBasic) status_[aj] = VarStatus::kAtLower;
  }
}

bool SimplexSolver::refactorize() {
  ++refactorizations_;
  DenseMatrix& b = refactor_;
  b.reset(m_, m_);
  // Scatter only the nonzeros into the zero-filled factor input.
  for (std::size_t i = 0; i < m_; ++i) {
    const std::size_t j = basis_[i];
    if (j < n_struct_) {
      const SparseColumn& col = p_.columns[j];
      for (std::size_t k = 0; k < col.nnz(); ++k) {
        b(static_cast<std::size_t>(col.rows[k]), i) = col.values[k];
      }
    } else if (j < n_struct_ + m_) {
      b(j - n_struct_, i) = slack_sign_[j - n_struct_];
    } else {
      b(j - n_struct_ - m_, i) = art_sign_[j - n_struct_ - m_];
    }
  }
  if (!b.invert(opt_.pivot_tol)) return false;
  std::swap(binv_, b);
  recompute_basic_values();
  return true;
}

void SimplexSolver::recompute_basic_values() {
  // xB = B^-1 (b - N xN)
  std::vector<double>& rhs = work_;
  rhs.assign(p_.rhs.begin(), p_.rhs.end());
  for (std::size_t j = 0; j < n_total_; ++j) {
    if (status_[j] == VarStatus::kBasic) continue;
    const double v = nonbasic_value(j);
    if (v == 0.0) continue;
    axpy_column(j, -v, rhs);
  }
  for (std::size_t i = 0; i < m_; ++i) {
    double acc = 0.0;
    const auto brow = binv_.row(i);
    for (std::size_t r = 0; r < m_; ++r) acc += brow[r] * rhs[r];
    xb_[i] = acc;
  }
}

SolveStatus SimplexSolver::iterate(bool phase1) {
  std::vector<double>& y = y_;
  y.assign(m_, 0.0);
  // Status changes between phases (start bases, purge, phase 2's pinned
  // artificials) only touch status_ and the bounds; inside the loop every
  // change goes through set_status().
  refresh_directions();
  std::vector<double>& alpha = alpha_;
  alpha.assign(m_, 0.0);
  int phase_iterations = 0;

  for (;;) {
    if (iterations_ >= opt_.max_iterations) {
      return SolveStatus::kIterationLimit;
    }
    if (opt_.refactor_interval > 0 && iterations_ > 0 &&
        iterations_ % opt_.refactor_interval == 0) {
      if (!refactorize()) return SolveStatus::kNumericalFailure;
    }

    // Duals: y^T = cB^T B^-1.
    compute_duals(y);

    const bool bland = phase_iterations >= opt_.bland_threshold;
    const std::size_t entering = choose_entering(y, bland);
    if (entering == n_total_) {
      return SolveStatus::kOptimal;  // no improving direction
    }
    // Entering direction: +1 when increasing from lower, -1 when
    // decreasing from upper.
    const double entering_sigma =
        status_[entering] == VarStatus::kAtLower ? 1.0 : -1.0;

    // FTRAN: alpha = B^-1 A_entering.
    ftran(entering, alpha);

    // Ratio test. Basic value change: xB_i -= sigma * alpha_i * t, t >= 0.
    double t_max = upper_[entering] - lower_[entering];  // bound flip
    std::size_t leaving_row = m_;   // m_ => bound flip
    bool leaving_to_upper = false;  // where the leaving basic variable lands
    for (std::size_t i = 0; i < m_; ++i) {
      const double rate = -entering_sigma * alpha[i];  // d(xB_i)/dt
      const std::size_t bj = basis_[i];
      if (rate < -opt_.pivot_tol) {
        // Basic variable decreases toward its lower bound.
        if (lower_[bj] == -kInfinity) continue;
        const double room = xb_[i] - lower_[bj];
        const double t = std::max(0.0, room) / (-rate);
        if (t < t_max - opt_.pivot_tol ||
            (bland && t <= t_max + opt_.pivot_tol && leaving_row != m_ &&
             bj < basis_[leaving_row])) {
          t_max = t;
          leaving_row = i;
          leaving_to_upper = false;
        }
      } else if (rate > opt_.pivot_tol) {
        // Basic variable increases toward its upper bound.
        if (upper_[bj] == kInfinity) continue;
        const double room = upper_[bj] - xb_[i];
        const double t = std::max(0.0, room) / rate;
        if (t < t_max - opt_.pivot_tol ||
            (bland && t <= t_max + opt_.pivot_tol && leaving_row != m_ &&
             bj < basis_[leaving_row])) {
          t_max = t;
          leaving_row = i;
          leaving_to_upper = true;
        }
      }
    }

    if (t_max == kInfinity || !std::isfinite(t_max)) {
      return phase1 ? SolveStatus::kNumericalFailure : SolveStatus::kUnbounded;
    }

    ++iterations_;
    ++phase_iterations;

    if (leaving_row == m_) {
      // Bound flip: the entering variable crosses to its opposite bound.
      for (std::size_t i = 0; i < m_; ++i) {
        xb_[i] -= entering_sigma * alpha[i] * t_max;
      }
      set_status(entering, entering_sigma > 0.0 ? VarStatus::kAtUpper
                                                : VarStatus::kAtLower);
      continue;
    }

    const double pivot = alpha[leaving_row];
    if (std::abs(pivot) < opt_.pivot_tol) {
      // Retry from a fresh factorization once; otherwise give up.
      if (!refactorize()) return SolveStatus::kNumericalFailure;
      if (numerical_failure_) return SolveStatus::kNumericalFailure;
      numerical_failure_ = true;
      continue;
    }
    numerical_failure_ = false;

    // Update basic values.
    for (std::size_t i = 0; i < m_; ++i) {
      if (i == leaving_row) continue;
      xb_[i] -= entering_sigma * alpha[i] * t_max;
    }
    const std::size_t leaving_var = basis_[leaving_row];
    set_status(leaving_var,
               leaving_to_upper ? VarStatus::kAtUpper : VarStatus::kAtLower);
    xb_[leaving_row] = nonbasic_value(entering) + entering_sigma * t_max;
    basis_[leaving_row] = entering;
    set_status(entering, VarStatus::kBasic);

    // Product-form update of B^-1. A rank-1 update row whose pivot-column
    // entry is exactly zero is skipped — the update would add 0 * row, which
    // is the identity, so skipping it is IEEE-exact.
    const double inv_pivot = 1.0 / pivot;
    for (std::size_t c = 0; c < m_; ++c) binv_(leaving_row, c) *= inv_pivot;
    for (std::size_t i = 0; i < m_; ++i) {
      if (i == leaving_row) continue;
      const double factor = alpha[i];
      if (factor == 0.0) continue;
      for (std::size_t c = 0; c < m_; ++c) {
        binv_(i, c) -= factor * binv_(leaving_row, c);
      }
    }
  }
}

void SimplexSolver::purge_artificials() {
  std::vector<double>& alpha = alpha_;
  alpha.assign(m_, 0.0);
  for (std::size_t i = 0; i < m_; ++i) {
    if (basis_[i] < n_struct_ + m_) continue;  // not artificial
    // Degenerate pivot: replace the artificial with any non-artificial column
    // that has a nonzero entry in this row of the simplex tableau.
    bool replaced = false;
    for (std::size_t j = 0; j < n_struct_ + m_ && !replaced; ++j) {
      if (status_[j] == VarStatus::kBasic) continue;
      const double entry = binv_row_dot_column(i, j);
      if (std::abs(entry) < 1e-7) continue;
      // t = 0 pivot (the artificial is at value 0, so nothing moves).
      const std::size_t art = basis_[i];
      status_[art] = VarStatus::kAtLower;
      basis_[i] = j;
      status_[j] = VarStatus::kBasic;
      const double inv_pivot = 1.0 / entry;
      // alpha = B^-1 A_j for the binv update.
      ftran(j, alpha);
      for (std::size_t c = 0; c < m_; ++c) binv_(i, c) *= inv_pivot;
      for (std::size_t r = 0; r < m_; ++r) {
        if (r == i) continue;
        const double factor = alpha[r];
        if (factor == 0.0) continue;
        for (std::size_t c = 0; c < m_; ++c) {
          binv_(r, c) -= factor * binv_(i, c);
        }
      }
      recompute_basic_values();
      replaced = true;
    }
    // If no replacement exists the row is redundant; the artificial stays
    // basic, pinned at zero by its [0,0] bounds in phase 2.
  }
}

void SimplexSolver::export_stats(Solution& sol) const {
  sol.iterations = iterations_;
  sol.refactorizations = refactorizations_;
  sol.warm_start_used = warm_start_used_;
  sol.warm_start_rejected = warm_start_rejected_;
}

Solution SimplexSolver::run(Basis* warm) {
  Solution sol;

  const bool warm_requested = warm != nullptr && !warm->empty();
  warm_start_used_ = warm_requested && try_warm_start(*warm);
  warm_start_rejected_ = warm_requested && !warm_start_used_;
  bool started = warm_start_used_;
  if (!started) {
    started = try_crash_start(/*structural_at_upper=*/false) ||
              try_crash_start(/*structural_at_upper=*/true);
  }
  if (!started) {
    setup_phase1();
    SolveStatus phase1_status = iterate(/*phase1=*/true);
    if (phase1_status == SolveStatus::kIterationLimit ||
        phase1_status == SolveStatus::kNumericalFailure) {
      sol.status = phase1_status;
      export_stats(sol);
      return sol;
    }
    // Phase-1 objective = sum of artificial values.
    double infeas = 0.0;
    for (std::size_t i = 0; i < m_; ++i) {
      if (basis_[i] >= n_struct_ + m_) infeas += std::abs(xb_[i]);
    }
    if (infeas > opt_.feasibility_tol * (1.0 + std::abs(infeas))) {
      sol.status = SolveStatus::kInfeasible;
      export_stats(sol);
      return sol;
    }
    purge_artificials();
  }

  enter_phase2();
  SolveStatus st;
  recompute_basic_values();
  st = iterate(/*phase1=*/false);
  sol.status = st;
  export_stats(sol);
  if (st != SolveStatus::kOptimal) return sol;

  // Extract the primal point.
  sol.x.assign(n_struct_, 0.0);
  for (std::size_t j = 0; j < n_struct_; ++j) {
    if (status_[j] != VarStatus::kBasic) sol.x[j] = nonbasic_value(j);
  }
  for (std::size_t i = 0; i < m_; ++i) {
    if (basis_[i] < n_struct_) {
      // Clamp tiny bound violations from accumulated rounding.
      const std::size_t j = basis_[i];
      sol.x[j] = std::clamp(xb_[i], lower_[j],
                            std::isfinite(upper_[j]) ? upper_[j] : xb_[i]);
    }
  }

  sol.objective = 0.0;
  for (std::size_t j = 0; j < n_struct_; ++j) {
    sol.objective += p_.objective[j] * sol.x[j];
  }

  // Duals and reduced costs.
  sol.duals.assign(m_, 0.0);
  compute_duals(sol.duals);
  sol.reduced_costs.assign(n_struct_, 0.0);
  panels_.multiply_transposed(sol.duals, sol.reduced_costs);
  for (std::size_t j = 0; j < n_struct_; ++j) {
    sol.reduced_costs[j] = p_.objective[j] - sol.reduced_costs[j];
  }
  // Basis contains no artificials here unless a redundant row pinned one;
  // such a basis still warm-starts correctly (the artificial is fixed at 0),
  // but we only export clean bases to keep the contract simple.
  if (warm != nullptr) {
    const bool clean = std::all_of(basis_.begin(), basis_.end(),
                                   [&](std::size_t b) { return b < n_struct_ + m_; });
    if (clean) {
      save_basis(*warm);
      sol.basis_saved = true;
    }
  }
  return sol;
}

}  // namespace

namespace {

/// Throws std::invalid_argument unless every tolerance is finite, with
/// optimality_tol positive (pricing relies on it: a column that may not
/// move scores +-0 and must never pass the test) and the other two
/// non-negative.
void check_options(const SimplexOptions& o) {
  const auto reject = [](const char* what) {
    throw std::invalid_argument(std::string("lp::solve: ") + what);
  };
  if (!std::isfinite(o.optimality_tol) || o.optimality_tol <= 0.0) {
    reject("optimality_tol must be finite and positive");
  }
  if (!std::isfinite(o.feasibility_tol) || o.feasibility_tol < 0.0) {
    reject("feasibility_tol must be finite and non-negative");
  }
  if (!std::isfinite(o.pivot_tol) || o.pivot_tol < 0.0) {
    reject("pivot_tol must be finite and non-negative");
  }
}

}  // namespace

Solution solve(const Problem& problem, const SimplexOptions& options,
               Basis* warm) {
  check_options(options);
  const std::string err = problem.validate();
  if (!err.empty()) {
    throw std::invalid_argument("lp::solve: malformed problem: " + err);
  }
  const ColumnPanels panels(problem);
  SolveScratch scratch;
  return SimplexSolver(problem, panels, options, scratch).run(warm);
}

Solution solve(const ProblemFamily& family, const SimplexOptions& options,
               Basis* warm, SolveScratch* scratch) {
  check_options(options);
  // ProblemFamily validated and built its panels at construction.
  SolveScratch local;
  return SimplexSolver(family.problem(), family.panels(), options,
                       scratch != nullptr ? *scratch : local)
      .run(warm);
}

}  // namespace carbon::lp
