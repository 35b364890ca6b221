// Deterministic per-evaluation resource budgets with a fixed degradation
// ladder for the lower-level solve pipeline.
//
// A production deployment cannot let one pathological instance stall a whole
// experiment, but the repo's core guarantee — bit-identical trajectories for
// any eval_threads × SIMD path — rules out wall-clock
// limits as the default mechanism. Budgets are therefore counted in
// deterministic work units (simplex iterations, subgradient iterations,
// greedy selection rounds), and tripping a budget degrades the evaluation
// along a fixed ladder instead of aborting it:
//
//   rung 0  kFullLp      capped sparse revised simplex (exact LB on success)
//   rung 1  kLagrangian  subgradient Lagrangian bound (valid LB, cheaper)
//   rung 2  kGreedyOnly  greedy-only scoring, LB = 0 (always terminates)
//
// Every degraded evaluation stays a *valid* evaluation — the lower bound only
// weakens, so the %-gap (Eq. 1) stays a correct optimistic measure — which is
// what lets a guarded run keep the same trajectory contract as an unguarded
// one: the ladder position is itself a pure function of (pricing, limits),
// never of thread interleaving.
//
// `GuardConfig::inject` is the fault hook: force a budget trip at lower-level
// evaluation #k (deterministic ordinal, counted in charge order) so the
// ladder is testable end-to-end the same way `stop_after_checkpoint` made
// crash-safety testable.
#pragma once

#include <stdexcept>

namespace carbon::guard {

/// Degradation-ladder position of a lower-level relaxation/bound.
enum class Rung : unsigned char {
  kFullLp = 0,      ///< Exact LP relaxation (possibly iteration-capped).
  kLagrangian = 1,  ///< Subgradient Lagrangian lower bound.
  kGreedyOnly = 2,  ///< No bound at all (LB = 0); greedy scoring only.
};

/// Why an evaluation left the full-fidelity path (error taxonomy).
enum class Trip : unsigned char {
  kNone = 0,         ///< Full-fidelity evaluation.
  kLpIterationCap,   ///< Simplex hit its deterministic iteration cap.
  kConstructionCap,  ///< Greedy hit its selection-round cap.
  kNodeBudget,       ///< Per-evaluation LL node budget exhausted.
  kInjected,         ///< Forced by GuardConfig::inject (fault hook).
  kWatchdog,         ///< Opt-in wall-clock watchdog fired (non-deterministic).
};

[[nodiscard]] constexpr const char* to_string(Rung r) noexcept {
  switch (r) {
    case Rung::kFullLp: return "full_lp";
    case Rung::kLagrangian: return "lagrangian";
    case Rung::kGreedyOnly: return "greedy_only";
  }
  return "invalid";
}

[[nodiscard]] constexpr const char* to_string(Trip t) noexcept {
  switch (t) {
    case Trip::kNone: return "none";
    case Trip::kLpIterationCap: return "lp_iteration_cap";
    case Trip::kConstructionCap: return "construction_cap";
    case Trip::kNodeBudget: return "node_budget";
    case Trip::kInjected: return "injected";
    case Trip::kWatchdog: return "watchdog";
  }
  return "invalid";
}

/// Structured outcome of one guarded lower-level evaluation (the issue's
/// `GuardOutcome`). Part of bcpop::Evaluation, so it rides the checkpoint
/// format and the journal like every other evaluation field.
struct Outcome {
  Rung rung = Rung::kFullLp;  ///< Ladder position the bound came from.
  Trip trip = Trip::kNone;    ///< First budget event, kNone if untripped.
  /// Greedy construction was cut short by a round cap; the reported
  /// selection may be infeasible (treated like any uncoverable outcome).
  bool construction_capped = false;
  /// The whole node budget was consumed before construction could start;
  /// the evaluation was scored as infeasible without running greedy.
  bool budget_exhausted = false;

  [[nodiscard]] bool degraded() const noexcept {
    return rung != Rung::kFullLp || construction_capped || budget_exhausted;
  }
  [[nodiscard]] bool tripped() const noexcept { return trip != Trip::kNone; }

  friend bool operator==(const Outcome&, const Outcome&) = default;
};

/// Deterministic per-evaluation budget limits. 0 always means "unlimited";
/// with every field at its default the guarded path is bitwise-identical to
/// the historical unguarded one.
struct Limits {
  /// Simplex iteration cap for the rung-0 LP solve.
  long long lp_iteration_cap = 0;
  /// Subgradient iteration cap for the rung-1 Lagrangian bound. Setting this
  /// to 0 while a trip is active skips rung 1 entirely (straight to rung 2).
  long long lagrangian_iteration_cap = 50;
  /// Greedy selection-round cap for the construction stage.
  long long construction_round_cap = 0;
  /// Total deterministic node budget per evaluation: LP/subgradient
  /// iterations spent on the bound plus greedy selection rounds.
  long long ll_node_cap = 0;
  /// Opt-in wall-clock watchdog (seconds; 0 disables). Checked only at
  /// stage boundaries and NEVER affects the cached relaxation — explicitly
  /// non-deterministic, for service deployments that prefer liveness over
  /// reproducibility.
  double watchdog_seconds = 0.0;

  [[nodiscard]] bool unlimited() const noexcept {
    return lp_iteration_cap == 0 && construction_round_cap == 0 &&
           ll_node_cap == 0 && watchdog_seconds == 0.0;
  }

  friend bool operator==(const Limits&, const Limits&) = default;
};

/// Fault-injection hook: force a budget trip at lower-level evaluation
/// #`at_eval` (0-based, in deterministic charge order). -1 disables.
struct Inject {
  long long at_eval = -1;
  Rung degrade_to = Rung::kLagrangian;  ///< Ladder rung the trip lands on.

  friend bool operator==(const Inject&, const Inject&) = default;
};

struct GuardConfig {
  Limits limits{};
  Inject inject{};

  [[nodiscard]] bool enabled() const noexcept {
    return !limits.unlimited() || inject.at_eval >= 0;
  }

  friend bool operator==(const GuardConfig&, const GuardConfig&) = default;
};

/// Rejects malformed configurations (negative caps, negative watchdog,
/// injection ordinal below -1). Shared by the solvers' config validation
/// and the CLI.
inline void validate(const GuardConfig& cfg) {
  const Limits& l = cfg.limits;
  if (l.lp_iteration_cap < 0 || l.lagrangian_iteration_cap < 0 ||
      l.construction_round_cap < 0 || l.ll_node_cap < 0) {
    throw std::invalid_argument("guard: budget caps must be >= 0");
  }
  if (l.watchdog_seconds < 0.0) {
    throw std::invalid_argument("guard: watchdog_seconds must be >= 0");
  }
  if (cfg.inject.at_eval < -1) {
    throw std::invalid_argument("guard: inject.at_eval must be >= -1");
  }
}

/// Min-combines two caps where 0 means unlimited.
[[nodiscard]] constexpr long long combine_caps(long long a,
                                               long long b) noexcept {
  if (a <= 0) return b <= 0 ? 0 : b;
  if (b <= 0) return a;
  return a < b ? a : b;
}

}  // namespace carbon::guard
