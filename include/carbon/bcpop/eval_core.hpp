// Evaluation core of the BCPOP evaluator (bcpop::ParallelEvaluator).
//
// Everything here is a pure function of (context, inputs): no counters, no
// caches, no hidden state that depends on call history. That property is
// what makes parallel batch evaluation bit-deterministic — a relaxation or a
// greedy solve computes the same bits no matter which thread runs it, in
// what order, or whether a cache hit short-circuited it on another run.
//
// EvalContext owns the mutable scratch one evaluation thread needs: a
// working copy of the market (leader prices are substituted in place), the
// relaxation LP, and a FIXED warm-start basis. The basis is the optimal
// basis of the base-market LP, computed once at construction: it stays
// primal-feasible for every pricing (only objective coefficients change),
// so every solve still skips Phase 1, but — unlike the previous
// carry-the-last-basis scheme — the pivot sequence for a pricing no longer
// depends on which pricing happened to be evaluated before it.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "carbon/bcpop/evaluator_interface.hpp"
#include "carbon/bcpop/instance.hpp"
#include "carbon/cover/greedy.hpp"
#include "carbon/cover/relaxation.hpp"
#include "carbon/guard/guard.hpp"
#include "carbon/gp/compiled.hpp"
#include "carbon/gp/tree.hpp"
#include "carbon/lp/simplex.hpp"

namespace carbon::obs {
class MetricsRegistry;
}  // namespace carbon::obs

namespace carbon::bcpop {

/// Per-thread mutable evaluation state for one market.
struct EvalContext {
  /// Builds (and validates, and baseline-solves) the relaxation family for
  /// this context alone.
  explicit EvalContext(const Instance& instance);
  /// Clones the relaxation structure from a shared, already-validated
  /// family — the parallel evaluator builds ONE RelaxationFamily and stamps
  /// out per-thread contexts from it, so the matrix is built/validated and
  /// the baseline LP solved once per evaluator instead of once per thread.
  EvalContext(const Instance& instance, const cover::RelaxationFamily& shared);

  const Instance* inst;
  cover::Instance ll;  ///< Working copy; leader prices substituted.
  /// Relaxation LP family: constraint matrix/bounds frozen, validated once;
  /// only the objective moves via rebind(). Replaces the per-evaluation
  /// rebuild/re-validate of a plain lp::Problem.
  lp::ProblemFamily ll_family;
  /// Reusable simplex working memory bound to every solve of this context.
  lp::SolveScratch lp_scratch;
  lp::Basis baseline_basis;  ///< Optimal basis of the base-market LP.
  /// Per-solve working copy of baseline_basis. Assigned (not constructed)
  /// each call, so the two basis vectors keep their capacity and the hot
  /// path stops paying two heap allocations per evaluation.
  lp::Basis basis_scratch;
  // Evaluation scratch, reused across solves so the hot path never
  // allocates: the compiled program's register file (num_registers x
  // bundles doubles), the batched greedy's working memory (residuals,
  // feature columns, score buffer, dirty set), and the static fast path's
  // score column.
  std::vector<double> reg_scratch;
  cover::GreedyScratch greedy_scratch;
  std::vector<double> static_scores;
  /// Per-evaluation resource budgets (default: unlimited, which makes every
  /// guarded entry point bitwise-identical to its historical unguarded
  /// form). Owned per context but always set uniformly by the evaluator, so
  /// evaluations stay pure functions of (pricing, limits).
  guard::Limits guard{};
};

/// Budget-guarded relaxation from an explicit start basis — the kernel
/// behind every evaluation that is not force-tripped. Rung 0 runs the
/// simplex warm-started from a copy of `start` (empty = crash start) under
/// ctx.guard's iteration cap (the tighter of lp_iteration_cap and
/// ll_node_cap; with neither set this is the uncapped solve from `start`,
/// bit for bit). A capped-out solve falls to the rung-1 Lagrangian subgradient
/// bound, and past that to the rung-2 greedy-only bound (LB = 0, empty
/// duals/x̄). When `final_basis` is non-null and rung 0 finished optimal
/// with an artificial-free basis, that basis is copied out for the caller
/// to commit to its basis pool; degraded rungs never export one. The result
/// — rung, trip and node charge included — is a pure function of (pricing,
/// start, ctx.guard), so cap-induced degradations are safely cacheable.
[[nodiscard]] cover::Relaxation solve_relaxation_from(
    EvalContext& ctx, std::span<const double> pricing, const lp::Basis& start,
    lp::Basis* final_basis = nullptr);

/// solve_relaxation_from the context's fixed baseline basis, or — with a
/// forced (injected) trip — straight to `force_rung` without running the
/// simplex. Forced degradations are eval-ordinal-dependent and must bypass
/// the relaxation cache.
[[nodiscard]] cover::Relaxation solve_relaxation_guarded(
    EvalContext& ctx, std::span<const double> pricing,
    guard::Trip force_trip = guard::Trip::kNone,
    guard::Rung force_rung = guard::Rung::kLagrangian);

/// Construction-stage budget derived from the limits and the node charge
/// the bound already consumed. When `skip` is set the whole node budget is
/// gone: score the evaluation via skipped_evaluation without running the
/// greedy at all.
struct ConstructionBudget {
  bool skip = false;
  cover::GreedyOptions options{};
};

[[nodiscard]] ConstructionBudget plan_construction(
    const guard::Limits& limits, const cover::Relaxation& relax);

/// Assembles the Evaluation for a construction stage that never ran (node
/// budget exhausted before the greedy, or the wall-clock watchdog fired):
/// infeasible, sentinel gap, all-zero selection, budget_exhausted set.
/// `trip` overrides the relaxation's own trip when that is kNone.
[[nodiscard]] Evaluation skipped_evaluation(const Instance& inst,
                                            std::span<const double> pricing,
                                            const cover::Relaxation& relax,
                                            guard::Trip trip,
                                            EvalPurpose purpose);

/// Records the solver-effort counters of a freshly computed relaxation into
/// `metrics` (lp/iterations, lp/refactorizations, lp/warm_start_hits,
/// lp/warm_start_rejects). Null-safe; call only on
/// cache MISSES so the counters measure actual simplex work, not cache hits.
void record_lp_metrics(obs::MetricsRegistry* metrics,
                       const cover::Relaxation& relax);

/// Greedy driven by a compiled GP program, batch-scored in SoA layout
/// through the incremental cover::greedy_solve: round 1 scores every
/// bundle, later rounds rescore only the dirty set the last selection
/// invalidated (none at all when the program ignores BRES and QCOV; every
/// bundle when it reads BRES). Programs that are static *after*
/// simplification (CompiledProgram::is_static — catches trees like
/// (sub QCOV QCOV) whose dynamic terminals fold away) take the sort-based
/// fast path. Both give the cover of the plain per-bundle greedy over the
/// tree's values (the CompiledProgram equivalence contract; finite features
/// only, which the solve path guarantees). When `metrics` is non-null the
/// rescoring effort is recorded as greedy/rounds, greedy/bundles_rescored,
/// greedy/rescore_slots counters and a greedy/rescored_frac gauge.
[[nodiscard]] cover::SolveResult solve_with_program(
    EvalContext& ctx, const cover::Relaxation& relax,
    std::span<const double> pricing, const gp::CompiledProgram& program,
    bool polish, obs::MetricsRegistry* metrics = nullptr,
    const cover::GreedyOptions& greedy = {});

/// Per-batch score memo: jobs whose (scoring tree, pricing, purpose) key
/// repeats within one heuristic batch are evaluated once and the result is
/// scattered to every duplicate. Trees are keyed by their CANONICAL form,
/// so genomes that differ syntactically but simplify to the same program
/// (common after a few GP generations) also collapse; each distinct tree is
/// compiled exactly once per batch. The plan
/// is computed before any fan-out, so deduplication is lock-free and
/// thread-count independent.
struct HeuristicBatchPlan {
  struct Unique {
    std::size_t job_index;  ///< Representative job for this key.
    /// Program compiled from the representative's tree (never null).
    std::shared_ptr<const gp::CompiledProgram> program;
  };
  std::vector<Unique> uniques;
  /// result_of[i] indexes `uniques` for jobs[i]; duplicates share an entry.
  std::vector<std::size_t> result_of;

  [[nodiscard]] std::size_t duplicates() const noexcept {
    return result_of.size() - uniques.size();
  }
};

[[nodiscard]] HeuristicBatchPlan plan_heuristic_batch(
    std::span<const HeuristicJob> jobs);

/// The cost-effectiveness greedy (cover::CostEffectiveness) started from
/// `selection` (padded or truncated to the bundle count; empty = nothing
/// selected) adds the cheapest-per-useful-coverage bundles until demand is
/// covered. `greedy` is passed through as is: its round cap bounds
/// ADDITIONS (bundles already set in the start are free — the budget meters
/// work, not genome content) and its eliminate_redundancy decides the
/// reverse pass. COBRA's genome repair turns that pass off so the genome is
/// respected; the nested-GA baseline starts from nothing and keeps it.
/// Needs no relaxation: the scorer reads neither duals nor x̄.
[[nodiscard]] cover::SolveResult solve_with_selection(
    EvalContext& ctx, std::span<const double> pricing,
    std::span<const std::uint8_t> selection,
    const cover::GreedyOptions& greedy = {});

/// Assembles the Evaluation from a solved lower level. Leader revenue (the
/// UL objective F) is computed only for EvalPurpose::kBoth — computing F is
/// exactly what the Table II UL budget charges for, so an evaluation must
/// never obtain it under a purpose that does not pay (the caller mirrors
/// this rule when incrementing its counters). Also folds the relaxation's
/// guard bookkeeping and the construction round-cap flag into the
/// Evaluation's guard::Outcome.
[[nodiscard]] Evaluation finalize_evaluation(const Instance& inst,
                                             std::span<const double> pricing,
                                             const cover::SolveResult& solved,
                                             const cover::Relaxation& relax,
                                             EvalPurpose purpose);

}  // namespace carbon::bcpop
