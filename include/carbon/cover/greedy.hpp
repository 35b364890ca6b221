// Score-driven greedy multicover heuristic — the algorithm template whose
// scoring function the GP population evolves (paper §IV-B).
//
// The greedy repeatedly scores every not-yet-selected bundle that still adds
// useful coverage, picks the highest-scoring one, and stops when all demands
// are met. An optional reverse pass then drops redundant bundles (most
// expensive first). Features exposed to the scoring function implement the
// paper's terminal set (Table I) with the per-service terminals aggregated
// over services, as discussed in DESIGN.md §5.1.
//
// There is one construction core, greedy_solve: a template over a batch
// scorer (so the compiled GP scorer in the innermost loop of every fitness
// evaluation pays no indirection), optionally started from a partial
// selection (COBRA's genome repair); detail::CoverState is its partial-cover
// bookkeeping. Every scorer is a batch scorer: gp::CompiledBatchScorer for
// evolved trees, CostEffectiveness and DualMinusCost for the hand-written
// baselines. greedy_solve_static is the sort-based path for round-invariant
// scores.
#pragma once

#include <algorithm>
#include <cmath>
#include <concepts>
#include <cstdint>
#include <limits>
#include <span>
#include <type_traits>
#include <vector>

#include "carbon/cover/instance.hpp"

namespace carbon::cover {

/// SoA view of the features of EVERY bundle for one greedy round: one
/// contiguous column per terminal (bres is a scalar — the outstanding demand
/// is shared by all bundles within a round). A batch scorer fills `out[j]`
/// for all j in one sweep of elementwise loops. Scorers must be pure (the
/// score of bundle j a function of its feature row alone): the core may
/// score any bundle in any round, selected and exhausted ones included, and
/// ignores the scores it does not need.
struct BatchFeatureView {
  std::span<const double> cost;  ///< c_j
  std::span<const double> qsum;  ///< Σ_k q_jk
  std::span<const double> qcov;  ///< Σ_k min(q_jk, residual_k)
  std::span<const double> dual;  ///< Σ_k d_k q_jk
  std::span<const double> xbar;  ///< x̄_j
  double bres = 0.0;             ///< Σ_k residual_k (broadcast)
  std::size_t count = 0;         ///< number of bundles (size of each column)
};

struct GreedyOptions {
  /// Drop redundant bundles after reaching feasibility.
  bool eliminate_redundancy = true;
  /// Deterministic cap on selection rounds (0 = unlimited). A solve that
  /// still has outstanding demand when the cap is reached returns
  /// feasible=false with SolveResult::rounds_capped set, and skips the
  /// redundancy pass (the partial selection is not a cover).
  long long max_rounds = 0;
};

namespace detail {

/// NaN/inf scores would otherwise poison the argmax.
inline double sanitize_score(double score) noexcept {
  return std::isfinite(score) ? score : -std::numeric_limits<double>::max();
}

/// Reverse pass shared by every constructive solver here: try to drop
/// selected bundles, most expensive first, keeping feasibility.
void eliminate_redundancy(const Instance& instance,
                          std::vector<std::uint8_t>& selection);

/// Per-bundle static masses (independent of the residual): qsum[j] and the
/// dual-weighted coverage dual_mass[j], accumulated in service order.
void static_masses(const Instance& instance, std::span<const double> duals,
                   std::vector<double>& qsum, std::vector<double>& dual_mass);

/// The partial cover every construction here grows: the selection, the
/// residual demand and each bundle's useful coverage
/// useful[j] = Σ_k min(q_jk, residual_k). `useful` holds integers exactly in
/// doubles and is updated incrementally through the service→bundle supplier
/// index; entries of selected bundles go stale (scorers may still see them,
/// but their scores are never used).
struct CoverState {
  std::vector<std::uint8_t> selection;
  std::vector<int> residual;
  std::vector<double> useful;
  long long outstanding = 0;  ///< Σ_k residual_k

  /// Starts from `start` (empty = nothing selected): its bytes are copied
  /// into the selection, padded with 0 or truncated to num_bundles. The
  /// residual is the demand minus the start's coverage, clamped at 0
  /// (Instance::residual_demand).
  void reset(const Instance& instance, std::span<const std::uint8_t> start);

  /// Selects bundle j, lowers the residual, and lowers `useful` of every
  /// unselected bundle whose useful coverage moved, calling
  /// on_qcov_changed(i) for each such bundle i (once per service that moved
  /// it).
  ///
  /// A supplier's term min(q, r) changes from r_old to r_new by
  /// min(q, r_old) − min(q, r_new), which is 0 exactly when q ≤ r_new.
  /// Instance::suppliers(k) lists quantities in descending order, so the
  /// walk stops at the first such supplier: every later one is unchanged
  /// too, and a service whose residual stays at or above its largest
  /// quantity costs one comparison. The result is the full walk's: `useful`
  /// holds integers (exact in doubles, so the order of the subtractions is
  /// irrelevant), each bundle still sees its services in ascending k, and
  /// only the order of on_qcov_changed calls differs, which the dirty-set
  /// rescoring does not observe (it gathers and scatters by index).
  template <typename OnQcovChanged>
  void add(const Instance& instance, std::size_t j,
           OnQcovChanged&& on_qcov_changed) {
    selection[j] = 1;
    const auto chosen = instance.bundle(j);
    for (std::size_t k = 0; k < instance.num_services(); ++k) {
      const int r_old = residual[k];
      if (r_old <= 0 || chosen[k] <= 0) continue;
      const int r_new = r_old - std::min(chosen[k], r_old);
      residual[k] = r_new;
      outstanding -= r_old - r_new;
      const auto idx = instance.suppliers(k);
      const auto qty = instance.supplier_quantities(k);
      for (std::size_t t = 0; t < idx.size(); ++t) {
        const int q = qty[t];
        if (q <= r_new) break;  // this and every later qcov term unchanged
        const std::size_t i = idx[t];
        if (selection[i]) continue;
        useful[i] -= std::min(q, r_old) - r_new;
        on_qcov_changed(i);
      }
    }
  }

  /// Ends the construction: runs the redundancy pass on a feasible cover
  /// when asked, prices the selection and moves it into the result.
  [[nodiscard]] SolveResult finish(const Instance& instance, bool feasible,
                                   bool rounds_capped, bool redundancy_pass);
};

}  // namespace detail

/// Batch scorers that can report which residual-dependent terminals they
/// read (gp::CompiledBatchScorer queries the CANONICAL compiled program, so
/// terminals that simplify away do not count). greedy_solve uses the
/// answers to skip rescoring work; scorers without these members are
/// conservatively rescored dense every round.
template <typename S>
concept TerminalAwareBatchScorer = requires(const std::remove_cvref_t<S>& s) {
  { s.depends_on_bres() } -> std::convertible_to<bool>;
  { s.depends_on_qcov() } -> std::convertible_to<bool>;
};

/// Classic baseline score: useful coverage per unit cost
/// (cost-effectiveness). It reads QCOV but not BRES, so the core rescores
/// only the bundles whose coverage moved. COBRA's genome repair, the
/// nested-GA baseline and cover::exact's incumbent use it.
struct CostEffectiveness {
  [[nodiscard]] bool depends_on_bres() const noexcept { return false; }
  [[nodiscard]] bool depends_on_qcov() const noexcept { return true; }
  void operator()(const BatchFeatureView& view, std::span<double> out) const {
    for (std::size_t j = 0; j < view.count; ++j) {
      out[j] = view.qcov[j] / std::max(view.cost[j], 1e-9);
    }
  }
};

/// Baseline score using LP duals: dual-weighted coverage minus cost (the LP
/// "attractiveness" of the column). It reads neither QCOV nor BRES, so the
/// core scores every bundle once.
struct DualMinusCost {
  [[nodiscard]] bool depends_on_bres() const noexcept { return false; }
  [[nodiscard]] bool depends_on_qcov() const noexcept { return false; }
  void operator()(const BatchFeatureView& view, std::span<double> out) const {
    for (std::size_t j = 0; j < view.count; ++j) {
      out[j] = view.dual[j] - view.cost[j];
    }
  }
};

/// Caller-owned working memory for greedy_solve. Hot callers (one
/// per bcpop::EvalContext, mirroring the per-context lp::Basis scratch) keep
/// one across evaluations so the ~10^5 greedy solves per run stop paying a
/// dozen heap allocations each; every vector is assign()ed at entry, so a
/// reused scratch never leaks state between solves.
struct GreedyScratch {
  detail::CoverState cover;
  std::vector<double> qsum;
  std::vector<double> dual_mass;
  std::vector<double> xbar;
  std::vector<double> scores;
  std::vector<std::uint32_t> dirty;      ///< bundles whose qcov changed
  std::vector<std::uint8_t> dirty_flag;  ///< dirty_flag[j] == j in `dirty`
  /// Compacted feature columns + results for dirty-only rescoring.
  std::vector<double> sub_cost;
  std::vector<double> sub_qsum;
  std::vector<double> sub_qcov;
  std::vector<double> sub_dual;
  std::vector<double> sub_xbar;
  std::vector<double> sub_out;

  /// Fills the residual-independent feature columns: qsum, dual_mass
  /// (detail::static_masses) and xbar (padded or truncated to num_bundles,
  /// absent -> 0).
  void load_static_columns(const Instance& instance,
                           std::span<const double> duals,
                           std::span<const double> relaxed_x);

  /// Starts one construction from `start` (see detail::CoverState::reset):
  /// resets the cover, loads the static columns and returns the feature
  /// view over them, bres left 0. A start that already covers the demand
  /// loads nothing and returns an empty view.
  BatchFeatureView begin(const Instance& instance,
                         std::span<const double> duals,
                         std::span<const double> relaxed_x,
                         std::span<const std::uint8_t> start);
};

/// Rescoring effort of one greedy solve. The dense baseline scores
/// every bundle every round (rescore_slots); the dirty-set greedy only
/// recomputes bundles_rescored of them, so rescored_frac < 1 measures the
/// work the incremental path avoided.
struct GreedyBatchStats {
  std::size_t rounds = 0;
  std::size_t bundles_rescored = 0;
  std::size_t rescore_slots = 0;  ///< rounds * num_bundles

  [[nodiscard]] double rescored_frac() const noexcept {
    return rescore_slots == 0
               ? 0.0
               : static_cast<double>(bundles_rescored) /
                     static_cast<double>(rescore_slots);
  }
};

/// The greedy construction core. Every bundle's score comes from one batch
/// scorer call per round, and the argmax takes the first strict maximum, so
/// the cover equals that of the plain per-bundle greedy of paper §IV-B fed
/// the same scores (tests/cover/greedy_reference.hpp).
///
/// `duals` and `relaxed_x` may be empty (or short), in which case the
/// corresponding features read as 0. `start` (empty = nothing selected)
/// pre-selects bundles, as COBRA's genome repair does: see
/// detail::CoverState::reset. Bundles of the start are free —
/// options.max_rounds counts additions only. Returns feasible=false without
/// rounds_capped only when the demand cannot be covered.
///
/// Scoring is LAZY: a bundle's score is a pure function of its feature row,
/// and selecting a bundle only changes qcov for bundles sharing a service
/// whose residual moved (tracked through the instance's service→bundle CSR
/// index) and bres for all of them. So after the first dense round, a
/// TerminalAwareBatchScorer that ignores BRES is re-evaluated only on that
/// dirty set — gathered into a compact sub-batch, scored, and scattered
/// back. Every rescore recomputes exactly the double a dense sweep would
/// (kernel ops are elementwise, so batch composition cannot change any
/// element's bits), hence the argmax and its index tie-breaks are identical
/// to the dense greedy. Scorers that read BRES — or scorers that cannot
/// say — are rescored dense every round.
///
/// `scratch` (optional) supplies caller-owned working memory; `stats`
/// (optional) receives the rescoring effort of this solve.
template <typename BatchScore>
[[nodiscard]] SolveResult greedy_solve(
    const Instance& instance, BatchScore&& batch_score,
    std::span<const double> duals = {}, std::span<const double> relaxed_x = {},
    std::span<const std::uint8_t> start = {},
    const GreedyOptions& options = {}, GreedyScratch* scratch = nullptr,
    GreedyBatchStats* stats = nullptr) {
  const std::size_t m = instance.num_bundles();

  GreedyScratch local;
  GreedyScratch& s = scratch != nullptr ? *scratch : local;
  detail::CoverState& c = s.cover;
  BatchFeatureView view = s.begin(instance, duals, relaxed_x, start);
  GreedyBatchStats st;
  const auto finish = [&](bool feasible, bool rounds_capped) {
    if (stats != nullptr) *stats = st;
    return c.finish(instance, feasible, rounds_capped,
                    options.eliminate_redundancy);
  };

  // Round-invariance of the scorer decides the rescoring regime once.
  bool rescore_all = true;
  bool track_dirty = false;
  if constexpr (TerminalAwareBatchScorer<BatchScore>) {
    rescore_all = batch_score.depends_on_bres();
    track_dirty = !rescore_all && batch_score.depends_on_qcov();
  }
  // Cleared unconditionally: a reused scratch may carry a dirty list from a
  // previous solve (possibly of a LARGER instance), which must never leak
  // into this one.
  s.dirty.clear();
  if (track_dirty) {
    s.dirty_flag.assign(m, 0);
  }
  s.scores.assign(m, 0.0);

  bool first_round = true;
  long long rounds = 0;
  while (c.outstanding > 0) {
    if (options.max_rounds > 0 && rounds >= options.max_rounds) {
      return finish(false, true);
    }
    ++rounds;
    view.bres = static_cast<double>(c.outstanding);
    if (first_round || rescore_all) {
      batch_score(view, std::span<double>(s.scores));
      st.bundles_rescored += m;
    } else if (track_dirty && !s.dirty.empty()) {
      // Gather the still-eligible dirty bundles into a compact sub-batch
      // (bundles that dropped to zero useful coverage can never be selected
      // again, so their stale scores are never read).
      std::size_t d = 0;
      s.sub_cost.resize(s.dirty.size());
      s.sub_qsum.resize(s.dirty.size());
      s.sub_qcov.resize(s.dirty.size());
      s.sub_dual.resize(s.dirty.size());
      s.sub_xbar.resize(s.dirty.size());
      s.sub_out.resize(s.dirty.size());
      for (const std::uint32_t j : s.dirty) {
        if (c.selection[j] || c.useful[j] <= 0.0) continue;
        s.sub_cost[d] = view.cost[j];
        s.sub_qsum[d] = s.qsum[j];
        s.sub_qcov[d] = c.useful[j];
        s.sub_dual[d] = s.dual_mass[j];
        s.sub_xbar[d] = s.xbar[j];
        s.dirty[d] = j;  // keep the surviving index for the scatter
        ++d;
      }
      if (d > 0) {
        BatchFeatureView sub;
        sub.cost = std::span<const double>(s.sub_cost.data(), d);
        sub.qsum = std::span<const double>(s.sub_qsum.data(), d);
        sub.qcov = std::span<const double>(s.sub_qcov.data(), d);
        sub.dual = std::span<const double>(s.sub_dual.data(), d);
        sub.xbar = std::span<const double>(s.sub_xbar.data(), d);
        sub.bres = view.bres;
        sub.count = d;
        batch_score(sub, std::span<double>(s.sub_out.data(), d));
        for (std::size_t t = 0; t < d; ++t) {
          s.scores[s.dirty[t]] = s.sub_out[t];
        }
      }
      st.bundles_rescored += d;
    }
    if (track_dirty && !first_round) {
      for (const std::uint32_t j : s.dirty) s.dirty_flag[j] = 0;
      s.dirty.clear();
    }
    first_round = false;
    st.rounds += 1;
    st.rescore_slots += m;

    double best_score = -std::numeric_limits<double>::infinity();
    std::size_t best_j = m;
    for (std::size_t j = 0; j < m; ++j) {
      if (c.selection[j]) continue;
      if (c.useful[j] <= 0.0) continue;  // adds nothing: never select
      const double sc = detail::sanitize_score(s.scores[j]);
      if (sc > best_score) {
        best_score = sc;
        best_j = j;
      }
    }

    if (best_j == m) {
      // No bundle adds coverage yet demand remains: instance not coverable.
      return finish(false, false);
    }

    // The dirty list comes out in supplier order, not index order; the
    // gather and scatter above go by index and the batch kernels are
    // elementwise, so that order cannot change any score.
    c.add(instance, best_j, [&](std::size_t j) {
      if (track_dirty && !s.dirty_flag[j]) {
        s.dirty_flag[j] = 1;
        s.dirty.push_back(static_cast<std::uint32_t>(j));
      }
    });
  }
  return finish(true, false);
}

/// Fast path for *static* scorers (scores independent of the residual
/// demand): one score per bundle, computed up front. Semantically identical
/// to the argmax greedy for any scorer that ignores qcov/bres: useful
/// coverage only ever decreases, so the argmax sequence equals the
/// score-descending sweep (ties broken by index in both). Complexity drops
/// from O(steps * M * score) to O(M log M + M * N).
[[nodiscard]] SolveResult greedy_solve_static(
    const Instance& instance, std::span<const double> scores,
    const GreedyOptions& options = {});

}  // namespace carbon::cover
