// A "problem family" is an LP whose constraint matrix, senses, rhs and bounds
// are frozen for its lifetime while the objective vector is re-bound per
// solve. Within a CARBON/COBRA run every LL relaxation shares one constraint
// matrix — only the UL pricing moves the costs — so validating, copying and
// re-allocating the whole lp::Problem on every evaluation is pure waste.
// ProblemFamily validates once at construction and exposes a cost-only
// rebind(); lp::solve(family, ...) then skips per-solve validation entirely.
// Because the constraint data is frozen, the family also builds the column
// panels the simplex prices with once, and every copy shares them read-only.
#pragma once

#include <memory>
#include <span>

#include "carbon/lp/column_panels.hpp"
#include "carbon/lp/problem.hpp"

namespace carbon::lp {

class ProblemFamily {
 public:
  /// Takes ownership of `problem` and validates it once, throwing
  /// std::invalid_argument on a malformed problem exactly like lp::solve.
  /// Copying a family does NOT re-validate (the invariant is preserved).
  explicit ProblemFamily(Problem problem);

  /// Copies share the validated problem and its column panels but start
  /// their own rebind count — each EvalContext clones the shared prototype
  /// and counts locally.
  ProblemFamily(const ProblemFamily& other)
      : p_(other.p_), panels_(other.panels_) {}
  ProblemFamily& operator=(const ProblemFamily& other) {
    p_ = other.p_;
    panels_ = other.panels_;
    rebinds_ = 0;
    return *this;
  }
  ProblemFamily(ProblemFamily&&) = default;
  ProblemFamily& operator=(ProblemFamily&&) = default;

  /// Cost-only rebind: copies `c` over the first c.size() objective
  /// coefficients; trailing coefficients keep their current values (the
  /// pricing-prefix convention of the LL relaxation, where only owned
  /// services are re-priced). Throws std::invalid_argument, leaving the
  /// objective and the rebind count as they were, when `c` is longer than
  /// the objective or holds a non-finite entry (the check lp::solve's
  /// validate() makes for a plain Problem). Constraint data is untouched,
  /// so any basis saved from a previous solve of this family stays
  /// primal-feasible.
  void rebind(std::span<const double> c);

  [[nodiscard]] const Problem& problem() const noexcept { return p_; }

  /// Column panels of the constraint matrix, built at construction and
  /// shared by every copy (rebind() never touches them).
  [[nodiscard]] const ColumnPanels& panels() const noexcept {
    return *panels_;
  }

  /// Number of rebind() calls since this object was constructed or copied
  /// (feeds the lp/family_rebinds backend counter).
  [[nodiscard]] long long rebinds() const noexcept { return rebinds_; }

 private:
  Problem p_;
  std::shared_ptr<const ColumnPanels> panels_;
  long long rebinds_ = 0;
};

}  // namespace carbon::lp
