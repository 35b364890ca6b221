#include "carbon/cover/exact.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "carbon/cover/greedy.hpp"
#include "carbon/cover/relaxation.hpp"
#include "carbon/lp/simplex.hpp"

namespace carbon::cover {

namespace {

class BranchAndBound {
 public:
  BranchAndBound(const Instance& instance, const ExactOptions& options)
      : inst_(instance), opt_(options), lp_(build_relaxation_lp(instance)) {}

  ExactResult run() {
    // Warm-start the incumbent with the classic greedy.
    const SolveResult greedy = greedy_solve(inst_, CostEffectiveness{});
    if (greedy.feasible) {
      incumbent_ = greedy.selection;
      incumbent_value_ = greedy.value;
    }

    const bool complete = explore(0);

    ExactResult out;
    out.nodes_explored = nodes_;
    if (!incumbent_.empty()) {
      out.feasible = true;
      out.value = incumbent_value_;
      out.selection = incumbent_;
      out.proven_optimal = complete;
    }
    return out;
  }

 private:
  /// Returns true when the subtree was fully explored (no budget cutoff).
  bool explore(int depth) {
    if (nodes_ >= opt_.max_nodes) return false;
    ++nodes_;

    const lp::Solution rel = lp::solve(lp_);
    if (rel.status == lp::SolveStatus::kInfeasible) return true;  // pruned
    if (rel.status != lp::SolveStatus::kOptimal) return false;    // give up

    if (!incumbent_.empty() &&
        rel.objective >= incumbent_value_ - opt_.bound_tolerance) {
      return true;  // bound prune
    }

    // Integral solution? Then it is optimal for this subtree.
    std::size_t branch_var = inst_.num_bundles();
    double most_fractional = 0.0;
    for (std::size_t j = 0; j < inst_.num_bundles(); ++j) {
      const double frac = std::abs(rel.x[j] - std::round(rel.x[j]));
      if (frac > 1e-6 && frac > most_fractional) {
        most_fractional = frac;
        branch_var = j;
      }
    }
    if (branch_var == inst_.num_bundles()) {
      // Integral: candidate incumbent.
      std::vector<std::uint8_t> sel(inst_.num_bundles(), 0);
      for (std::size_t j = 0; j < inst_.num_bundles(); ++j) {
        sel[j] = rel.x[j] > 0.5 ? 1 : 0;
      }
      const double value = inst_.selection_cost(sel);
      if (incumbent_.empty() || value < incumbent_value_) {
        incumbent_ = std::move(sel);
        incumbent_value_ = value;
      }
      return true;
    }

    // Branch: try x_j = 1 first (covers demand sooner in a min-cover).
    bool complete = true;
    const double old_lower = lp_.lower[branch_var];
    const double old_upper = lp_.upper[branch_var];

    lp_.lower[branch_var] = 1.0;
    lp_.upper[branch_var] = 1.0;
    complete &= explore(depth + 1);
    lp_.lower[branch_var] = 0.0;
    lp_.upper[branch_var] = 0.0;
    complete &= explore(depth + 1);
    lp_.lower[branch_var] = old_lower;
    lp_.upper[branch_var] = old_upper;
    return complete;
  }

  const Instance& inst_;
  ExactOptions opt_;
  lp::Problem lp_;
  std::vector<std::uint8_t> incumbent_;
  double incumbent_value_ = std::numeric_limits<double>::infinity();
  std::size_t nodes_ = 0;
};

}  // namespace

ExactResult exact_solve(const Instance& instance, const ExactOptions& options) {
  BranchAndBound bb(instance, options);
  return bb.run();
}

}  // namespace carbon::cover
