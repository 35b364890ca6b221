// Abstraction over bi-level evaluation backends.
//
// CARBON and COBRA only need four things from the problem: the leader's
// decision box, the length of a binary follower genome, and the two batch
// evaluation entry points (heuristic-driven and genome-driven; a single
// evaluation is a one-job batch). Putting that
// behind an interface lets the same solvers run on the single-customer BCPOP
// (bcpop::ParallelEvaluator, the one BCPOP backend) and on extensions such
// as the multi-follower market (bcpop::MultiFollowerEvaluator) — the
// direction the paper's conclusion names as future work.
#pragma once

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "carbon/bcpop/basis_pool.hpp"
#include "carbon/ea/real_ops.hpp"
#include "carbon/gp/tree.hpp"
#include "carbon/guard/guard.hpp"
#include "carbon/obs/backend_stats.hpp"

namespace carbon::obs {
class MetricsRegistry;
}  // namespace carbon::obs

namespace carbon::bcpop {

/// What an evaluation is being used for — determines which budget counters
/// it charges (Table II tracks UL and LL fitness evaluations separately)
/// and which objectives are computed. kLowerOnly evaluations never compute
/// the leader revenue F: computing F is what the UL budget charges for, so
/// an uncharged purpose must not produce it.
enum class EvalPurpose : unsigned char {
  kLowerOnly,  ///< heuristic-fitness evaluation (CARBON predators)
  kBoth,       ///< complete bi-level evaluation (prey fitness, COBRA pairs)
};

/// The result of one bi-level evaluation.
struct Evaluation {
  bool ll_feasible = false;
  double ul_objective = 0.0;  ///< F(x, y): leader revenue (kBoth only).
  double ll_objective = 0.0;  ///< f(x, y) = A(x): follower cost (minimized).
  double lower_bound = 0.0;   ///< LB(x): relaxation optimum.
  double gap_percent = 0.0;   ///< Eq. (1).
  std::vector<std::uint8_t> selection;  ///< Follower decision vector.
  /// Where on the guard degradation ladder this evaluation ran (default:
  /// full fidelity, untripped). See carbon/guard/guard.hpp.
  guard::Outcome guard{};

  /// Field-wise (bitwise for doubles) equality; the checkpoint round-trip
  /// tests rely on this being exact.
  bool operator==(const Evaluation&) const = default;
};

/// One heuristic-driven evaluation request in a batch. The referenced
/// pricing and tree must outlive the batch call.
struct HeuristicJob {
  std::span<const double> pricing;
  const gp::Tree* heuristic = nullptr;
  EvalPurpose purpose = EvalPurpose::kBoth;
};

/// One genome-driven evaluation request in a batch.
struct SelectionJob {
  std::span<const double> pricing;
  std::span<const std::uint8_t> selection;
  EvalPurpose purpose = EvalPurpose::kBoth;
};

/// The backend counters every evaluator reports (carbon/obs/backend_stats.hpp
/// lists them once).
using BackendStats = obs::BackendStats;

class EvaluatorInterface {
 public:
  virtual ~EvaluatorInterface() = default;

  /// Box bounds of the leader's decision vector.
  [[nodiscard]] virtual std::span<const ea::Bounds> price_bounds() const = 0;

  /// Length of a binary lower-level genome (COBRA's encoding).
  [[nodiscard]] virtual std::size_t genome_length() const = 0;

  /// Evaluates a generation's worth of heuristic jobs — the one heuristic
  /// entry point every backend implements. Results come back in submission
  /// order (results[i] answers jobs[i] — solvers rely on that for
  /// deterministic reduction).
  virtual std::vector<Evaluation> evaluate_heuristic_batch(
      std::span<const HeuristicJob> jobs) = 0;

  /// Genome-driven counterpart (binary follower genomes, repaired if
  /// needed); same ordering guarantee as evaluate_heuristic_batch.
  virtual std::vector<Evaluation> evaluate_selection_batch(
      std::span<const SelectionJob> jobs) = 0;

  /// One evaluation is a one-job batch: same charge, memo, cache and
  /// injection behaviour as the batch twin.
  Evaluation evaluate_with_heuristic(
      std::span<const double> pricing, const gp::Tree& heuristic,
      EvalPurpose purpose = EvalPurpose::kBoth) {
    const HeuristicJob job{pricing, &heuristic, purpose};
    return std::move(evaluate_heuristic_batch({&job, 1}).front());
  }
  Evaluation evaluate_with_selection(
      std::span<const double> pricing,
      std::span<const std::uint8_t> selection,
      EvalPurpose purpose = EvalPurpose::kBoth) {
    const SelectionJob job{pricing, selection, purpose};
    return std::move(evaluate_selection_batch({&job, 1}).front());
  }

  [[nodiscard]] virtual long long ul_evaluations() const = 0;
  [[nodiscard]] virtual long long ll_evaluations() const = 0;

  /// Start-basis policy of the relaxation solves this evaluator runs
  /// (docs/ALGORITHMS.md §15). The run journal records it, since it is the
  /// one evaluator axis that changes trajectories.
  [[nodiscard]] virtual LpWarm lp_warm() const noexcept = 0;

  /// Cumulative backend statistics snapshot; the default (for backends with
  /// no caches or memos) is all-zero. Must be safe to call between batches.
  [[nodiscard]] virtual BackendStats backend_stats() const { return {}; }

  /// Attaches a metrics registry for instrumentation (per-phase timers);
  /// null detaches. Instrumentation must be trajectory-neutral — attaching
  /// a registry may never change evaluation results — so the default is to
  /// ignore it. Configure between batches, not during one.
  virtual void set_metrics(obs::MetricsRegistry* /*metrics*/) noexcept {}

  /// Installs per-evaluation resource budgets and the fault-injection hook
  /// (see carbon/guard/guard.hpp). `eval_base` is this evaluator's
  /// ll_evaluations() reading that corresponds to run-evaluation #0, so the
  /// injection fires when ll_evaluations() == eval_base + inject.at_eval —
  /// solvers pass their post-resume offset, which makes an injection that
  /// already fired before a checkpoint land below the current counter and
  /// never re-fire after resume. Backends without guard support ignore the
  /// call (their evaluations always run full fidelity). Configure between
  /// batches, not during one.
  virtual void set_guard(const guard::GuardConfig& /*config*/,
                         long long /*eval_base*/) noexcept {}

  /// Drops every cached intermediate (relaxations, cross-generation score
  /// entries, pooled bases) while keeping the budget counters. Solvers call
  /// this when resuming from a checkpoint: a caller-owned evaluator may
  /// have been warmed under a different configuration (other guard limits,
  /// another run's pricings), and resume must reproduce the uninterrupted
  /// run from cold caches, not inherit stale entries. They also call it
  /// right after writing a checkpoint, so the uninterrupted run goes on
  /// from the same cold caches. No-op for backends without caches. Call
  /// between batches, not during one.
  virtual void clear_caches() noexcept {}
};

}  // namespace carbon::bcpop
