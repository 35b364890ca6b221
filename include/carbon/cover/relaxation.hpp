// Continuous relaxation of a covering instance.
//
// The relaxation plays three roles in the paper: it supplies the lower bound
// LB(x) that defines the %-gap (Eq. 1), and its dual values d_k and relaxed
// solution x̄_j feed the GP terminal set (Table I). We solve it with the
// bounded-variable simplex, so the basis size is the (small) service count.
#pragma once

#include <vector>

#include "carbon/cover/instance.hpp"
#include "carbon/guard/guard.hpp"
#include "carbon/lp/problem.hpp"
#include "carbon/lp/problem_family.hpp"
#include "carbon/lp/simplex.hpp"

namespace carbon::cover {

/// Solver-side counters from the simplex run that produced a Relaxation.
/// Consumed by the obs layer (lp/* metrics); never part of the trajectory.
struct LpStats {
  int iterations = 0;
  int refactorizations = 0;
  bool warm_start_used = false;
  bool warm_start_rejected = false;
  /// The final clean optimal basis was written back through `warm` (basis
  /// pool commits key off this, never off the raw out-parameter content).
  bool basis_saved = false;
};

struct Relaxation {
  bool feasible = false;
  double lower_bound = 0.0;          ///< LP optimum = LB(x).
  std::vector<double> duals;         ///< One per service (>= 0).
  std::vector<double> relaxed_x;     ///< One per bundle, in [0, 1].
  LpStats stats;                     ///< Solve-effort counters (observability).
  // Guard bookkeeping. A budget-capped relaxation is still a pure function
  // of (pricing, limits), so these travel with cached entries: a cache hit
  // charges exactly the same node budget and lands on the same ladder rung
  // as a fresh solve would, regardless of eviction order under threading.
  guard::Rung guard_rung = guard::Rung::kFullLp;  ///< Ladder position.
  guard::Trip guard_trip = guard::Trip::kNone;    ///< Cap event, if any.
  long long guard_nodes = 0;  ///< Deterministic node units spent on the bound.
};

/// Builds the LP  min c'x, Qx >= b, 0 <= x <= 1  for the instance, emitting
/// only the nonzero coefficients (via the instance's supplier index).
[[nodiscard]] lp::Problem build_relaxation_lp(const Instance& instance);

/// Shared per-instance relaxation structure: the constraint matrix, slack
/// layout and bounds of the relaxation LP are identical across every solve
/// of a run — only the cost vector moves with the UL pricing — so build and
/// validate them once, then clone the (cheap-to-copy, never re-validated)
/// ProblemFamily into each EvalContext and rebind() costs per evaluation.
struct RelaxationFamily {
  /// Validated prototype with the instance's base costs as the objective.
  lp::ProblemFamily family;
  /// Optimal basis of the base-cost LP; empty when that solve was not
  /// optimal. Cost-only rebinding keeps it primal-feasible, so it is the
  /// fixed warm-start fallback for every evaluation.
  lp::Basis baseline_basis;

  explicit RelaxationFamily(const Instance& instance);
};

/// Solves a relaxation family (built from build_relaxation_lp, possibly
/// rebound to a different objective) into a Relaxation. This is the one
/// kernel path shared by cover::relax() and bcpop's per-evaluation solve:
/// warm-started when `warm` is non-null, crash-started otherwise, reusing
/// `scratch` when it is non-null. Throws std::runtime_error on solver
/// failure (iteration limit / numerical breakdown), which indicates a bug
/// rather than a property of the instance.
[[nodiscard]] Relaxation solve_relaxation_lp(const lp::ProblemFamily& family,
                                             const lp::SimplexOptions& options,
                                             lp::Basis* warm,
                                             lp::SolveScratch* scratch);

/// Budget-capped variant of solve_relaxation_lp: an
/// iteration-limited solve comes back as a Relaxation with guard_trip =
/// kLpIterationCap (infeasible, so callers fall down the degradation ladder)
/// instead of throwing. All other failure statuses still throw — they
/// indicate bugs, not budgets.
[[nodiscard]] Relaxation solve_relaxation_lp_capped(
    const lp::ProblemFamily& family, const lp::SimplexOptions& options,
    lp::Basis* warm, lp::SolveScratch* scratch);

/// Solves the relaxation of `instance` from scratch via the shared kernel.
[[nodiscard]] Relaxation relax(const Instance& instance);

}  // namespace carbon::cover
