#include "carbon/cover/relaxation.hpp"

#include <stdexcept>
#include <vector>

#include "carbon/lp/simplex.hpp"

namespace carbon::cover {

lp::Problem build_relaxation_lp(const Instance& instance) {
  const std::size_t m = instance.num_bundles();
  const std::size_t n = instance.num_services();
  lp::Problem p;
  p.objective.reserve(m);
  for (std::size_t j = 0; j < m; ++j) {
    p.add_variable(instance.cost(j), 0.0, 1.0);
  }
  // Row k's nonzeros are exactly the suppliers of service k (quantities are
  // validated non-negative, so q_jk > 0 <=> q_jk != 0). Constraints are added
  // in ascending k, which keeps every column's row indices sorted. Each
  // entry lands in its own column, so the order of the supplier list (by
  // quantity, see Instance::suppliers) leaves the LP unchanged.
  std::vector<lp::RowEntry> entries;
  for (std::size_t k = 0; k < n; ++k) {
    const auto suppliers = instance.suppliers(k);
    const auto quantities = instance.supplier_quantities(k);
    entries.clear();
    entries.reserve(suppliers.size());
    for (std::size_t s = 0; s < suppliers.size(); ++s) {
      entries.push_back({static_cast<std::size_t>(suppliers[s]),
                         static_cast<double>(quantities[s])});
    }
    p.add_constraint(entries, lp::RowSense::kGreaterEqual,
                     static_cast<double>(instance.demand(k)));
  }
  return p;
}

RelaxationFamily::RelaxationFamily(const Instance& instance)
    : family(build_relaxation_lp(instance)) {
  // Solve the base-cost LP once to pin the fixed warm-start basis. If the
  // base market is not coverable the basis stays empty and every later solve
  // crash-starts, which is equally deterministic.
  lp::Basis basis;
  const lp::Solution sol = lp::solve(family, {}, &basis);
  if (sol.status == lp::SolveStatus::kOptimal) {
    baseline_basis = std::move(basis);
  }
}

namespace {

Relaxation relaxation_from_solution(const lp::Solution& sol, bool capped) {
  Relaxation out;
  out.stats.iterations = sol.iterations;
  out.stats.refactorizations = sol.refactorizations;
  out.stats.warm_start_used = sol.warm_start_used;
  out.stats.warm_start_rejected = sol.warm_start_rejected;
  out.stats.basis_saved = sol.basis_saved;
  out.guard_nodes = sol.iterations;
  switch (sol.status) {
    case lp::SolveStatus::kOptimal:
      out.feasible = true;
      out.lower_bound = sol.objective;
      out.duals = sol.duals;
      out.relaxed_x = sol.x;
      return out;
    case lp::SolveStatus::kInfeasible:
      out.feasible = false;
      return out;
    case lp::SolveStatus::kIterationLimit:
      if (capped) {
        // A deliberate budget cap, not a solver bug: report the trip and let
        // the caller degrade down the ladder.
        out.feasible = false;
        out.guard_trip = guard::Trip::kLpIterationCap;
        return out;
      }
      [[fallthrough]];
    default:
      throw std::runtime_error(
          std::string("cover: relaxation LP solver failed with status ") +
          lp::to_string(sol.status));
  }
}

}  // namespace

Relaxation solve_relaxation_lp(const lp::ProblemFamily& family,
                               const lp::SimplexOptions& options,
                               lp::Basis* warm, lp::SolveScratch* scratch) {
  return relaxation_from_solution(lp::solve(family, options, warm, scratch),
                                  /*capped=*/false);
}

Relaxation solve_relaxation_lp_capped(const lp::ProblemFamily& family,
                                      const lp::SimplexOptions& options,
                                      lp::Basis* warm,
                                      lp::SolveScratch* scratch) {
  return relaxation_from_solution(lp::solve(family, options, warm, scratch),
                                  /*capped=*/true);
}

Relaxation relax(const Instance& instance) {
  const lp::ProblemFamily family(build_relaxation_lp(instance));
  return solve_relaxation_lp(family, {}, nullptr, nullptr);
}

}  // namespace carbon::cover
