// The evaluator's backend counters, listed once.
//
// Every bi-level evaluator reports the same 14 cumulative counters
// (bcpop::EvaluatorInterface::backend_stats()); the solvers journal them
// per generation (docs/ALGORITHMS.md §9) and carry them across checkpoints
// (§11). kBackendCounters is the single field list: each row names a
// member, its journal key, its checkpoint key and its checkpoint group, and
// the arithmetic, the journal writer and the checkpoint codec all iterate
// it. A member added without a row fails the static_assert below.
#pragma once

#include <array>
#include <string_view>

namespace carbon::obs {

/// Backend statistics for telemetry (run journal records, checkpoints, CLI
/// --metrics). Counters are cumulative over the evaluator's lifetime;
/// backends without a given mechanism report 0 for it.
struct BackendStats {
  long long relaxation_cache_hits = 0;
  /// Lookups that ran the LP solver (== relaxations solved).
  long long relaxation_cache_misses = 0;
  /// Entries dropped by the LRU capacity bound (pinned entries held by
  /// callers survive eviction; this counts cache-side drops only).
  long long relaxation_cache_evictions = 0;
  /// Batch heuristic jobs answered by the per-batch score memo.
  long long heuristic_dedup_hits = 0;
  /// Heuristic evaluations answered by the cross-generation score cache
  /// (still charged to the Table II budgets — the cache saves wall-clock,
  /// never evaluations; see docs/ALGORITHMS.md §14).
  long long score_cache_hits = 0;
  /// Cross-generation score-cache entries dropped by the LRU bound.
  long long score_cache_evictions = 0;
  /// Charged evaluations whose guard outcome recorded a budget trip.
  long long guard_trips = 0;
  /// Charged evaluations that ran degraded (off-rung bound, capped or
  /// skipped construction) — a superset of guard_trips' effects.
  long long guard_degraded_evals = 0;
  /// Charged evaluations whose node budget ran out before construction.
  long long guard_budget_exhausted = 0;
  // LP family / warm-start-pool counters (docs/ALGORITHMS.md §15). All zero
  // for evaluators that do not implement pool mode.
  /// Cost-only rebind() calls on per-context problem families (== rung-0
  /// simplex attempts; replaces the per-evaluation problem rebuild).
  long long lp_family_rebinds = 0;
  /// Warm-start bases rejected by the solver (fell back to a crash start).
  long long lp_warm_start_rejects = 0;
  /// Solves warm-started from a pooled (nearest-pricing) basis.
  long long lp_pool_hits = 0;
  /// Pooled bases the solver rejected (re-solved from the fixed baseline).
  long long lp_pool_rejects = 0;
  /// Estimated pivots avoided by pooled warm starts: for each accepted
  /// pooled solve, max(0, round(mean baseline-start iterations) - actual
  /// iterations), accumulated in submission order (deterministic).
  long long lp_pivots_saved = 0;

  /// Field-wise sums and differences over kBackendCounters.
  BackendStats& operator+=(const BackendStats& other) noexcept;
  BackendStats& operator-=(const BackendStats& other) noexcept;
  friend BackendStats operator-(BackendStats a,
                                const BackendStats& b) noexcept {
    return a -= b;
  }

  bool operator==(const BackendStats&) const = default;
};

/// Checkpoint group of a counter. kAlways counters are always written; an
/// optional group is written only when one of its counters is non-zero, so
/// checkpoints from runs without that mechanism keep their historical
/// bytes, and a file without the group reads back as zeros.
enum class CheckpointGroup : unsigned char {
  kAlways,
  kScoreMemo,
  kGuard,
  kLp,
};

/// One row of the field list.
struct BackendCounter {
  long long BackendStats::*member;
  std::string_view journal_key;
  std::string_view checkpoint_key;
  CheckpointGroup group;
};

/// Every counter, in journal and checkpoint emission order.
inline constexpr std::array<BackendCounter, 14> kBackendCounters = [] {
  using enum CheckpointGroup;
  using S = BackendStats;
  return std::array<BackendCounter, 14>{{
      {&S::relaxation_cache_hits, "relax_cache_hits", "rch", kAlways},
      {&S::relaxation_cache_misses, "relax_cache_misses", "rcm", kAlways},
      {&S::relaxation_cache_evictions, "relax_cache_evictions", "rce", kAlways},
      {&S::heuristic_dedup_hits, "dedup_hits", "ddh", kAlways},
      {&S::score_cache_hits, "xgen_hits", "xgh", kScoreMemo},
      {&S::score_cache_evictions, "xgen_evictions", "xge", kScoreMemo},
      {&S::guard_trips, "guard_trips", "gtr", kGuard},
      {&S::guard_degraded_evals, "guard_degraded", "gde", kGuard},
      {&S::guard_budget_exhausted, "guard_exhausted", "gex", kGuard},
      {&S::lp_family_rebinds, "lp_family_rebinds", "lpf", kLp},
      {&S::lp_warm_start_rejects, "lp_warm_rejects", "wsr", kLp},
      {&S::lp_pool_hits, "lp_pool_hits", "lph", kLp},
      {&S::lp_pool_rejects, "lp_pool_rejects", "lpr", kLp},
      {&S::lp_pivots_saved, "lp_pivots_saved", "lps", kLp},
  }};
}();

static_assert(sizeof(BackendStats) ==
                  kBackendCounters.size() * sizeof(long long),
              "every BackendStats member needs a kBackendCounters row");

inline BackendStats& BackendStats::operator+=(
    const BackendStats& other) noexcept {
  for (const BackendCounter& c : kBackendCounters) {
    this->*c.member += other.*c.member;
  }
  return *this;
}

inline BackendStats& BackendStats::operator-=(
    const BackendStats& other) noexcept {
  for (const BackendCounter& c : kBackendCounters) {
    this->*c.member -= other.*c.member;
  }
  return *this;
}

}  // namespace carbon::obs
