// The BCPOP evaluator: every CARBON/COBRA fitness is one pass through it.
//
// Every pricing x induces a fresh lower-level covering instance LL(x). An
// evaluation
//   1. substitutes the leader's prices into the market,
//   2. solves (and memoizes) the LP relaxation -> LB(x), duals d_k, x̄,
//   3. obtains a customer decision y: either by running a (GP-evolved)
//      greedy heuristic, or by repairing a binary genome (COBRA's encoding),
//   4. reports F (leader revenue), f = A(x) (customer cost) and the %-gap,
// and charges the UL/LL evaluation counters used as the stopping criterion
// (Table II allots 50 000 evaluations to each level).
//
// A generation evaluates hundreds of independent (pricing × heuristic) or
// (pricing × genome) pairs before any reduction happens — the hottest path
// of the whole system. ParallelEvaluator fans those batches across a
// work-stealing common::TaskScheduler: threads == 1 makes the calling thread
// the only participant (no worker thread is spawned), threads == N > 1 runs
// N workers plus the caller, threads == 0 means hardware concurrency.
// Participant p evaluates on its own EvalContext, contexts_[p] (market
// copy, LP, scratch); the scheduler guarantees that participant 0 is the
// calling thread and that no two jobs share a participant at once.
//
// The two batch calls are the evaluator's entry points; a scalar call
// (EvaluatorInterface::evaluate_with_heuristic/_selection) is a one-job
// batch, and evaluate_cost_effectiveness runs the same stages for one job. One
// relaxation discipline serves them all (resolve_relaxations,
// docs/ALGORITHMS.md §7):
//   A. the submitting thread probes the relaxation cache and picks each
//      miss's start basis, in submission order;
//   B. the distinct misses fan out as pure LP solves;
//   C. the submitting thread commits the solves — metrics, counters, cache
//      inserts and pool commits — in submission order;
// then only the construction stage (greedy, repair) fans out. Workers never
// touch shared mutable state: the relaxation cache, the cross-generation
// ScoreCache (docs/ALGORITHMS.md §14), the basis pool and every counter are
// plain single-threaded structures that evolve identically for any thread
// count. The contract is ONE submitting thread per evaluator: no entry
// point may be called concurrently with another.
//
// Options::lp_warm (docs/ALGORITHMS.md §15) decides exactly two things:
// where a miss's start basis comes from — the fixed base-cost basis
// (kBaseline) or the nearest pooled basis (kPool) — and whether stage C
// commits final bases to the pool. A rejected pooled basis is re-solved
// from the baseline, so its result is bit-identical to a pool miss.
//
// Determinism: every Evaluation is a pure function of its job inputs and
// the staged state (greedy, repair and scoring are deterministic;
// evaluation consumes no RNG), budget counters are charged per job in
// submission order — memo hits included, so the Table II accounting never
// changes — and batch results are returned in submission order. A run is
// therefore bit-identical for any thread count at a fixed seed. The only
// exception is the opt-in wall-clock watchdog: it times each stage-B solve,
// and when one overruns, the job that owned the miss skips construction
// (Trip::kWatchdog) while the score memo stays suspended.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "carbon/bcpop/basis_pool.hpp"
#include "carbon/bcpop/eval_core.hpp"
#include "carbon/bcpop/evaluator_interface.hpp"
#include "carbon/bcpop/instance.hpp"
#include "carbon/bcpop/relaxation_cache.hpp"
#include "carbon/bcpop/score_cache.hpp"
#include "carbon/common/task_scheduler.hpp"
#include "carbon/cover/greedy.hpp"
#include "carbon/obs/metrics.hpp"

namespace carbon::bcpop {

class ParallelEvaluator final : public EvaluatorInterface {
 public:
  using RelaxationPtr = RelaxationCache::RelaxationPtr;

  struct Options {
    /// 1 = the calling thread alone; N > 1 = N workers plus the caller;
    /// 0 = hardware concurrency.
    std::size_t threads = 0;
    std::size_t relaxation_cache_capacity = 4096;
    /// Bound on the cross-generation score memo (docs/ALGORITHMS.md §14).
    std::size_t score_cache_capacity = 4096;
    /// Start basis of the relaxation solves: the fixed base-cost basis
    /// (kBaseline, default) or the nearest pooled one (kPool, which also
    /// commits final bases to the pool).
    LpWarm lp_warm = LpWarm::kBaseline;
    /// Bound on the basis pool (pool mode only).
    std::size_t basis_pool_capacity = BasisPool::kDefaultCapacity;
  };

  ParallelEvaluator(const Instance& instance, Options options);
  /// Convenience: `threads` as in Options, default cache geometry.
  ParallelEvaluator(const Instance& instance, std::size_t threads)
      : ParallelEvaluator(instance, Options{.threads = threads}) {}

  /// Fans the jobs across the scheduler; results[i] answers jobs[i]. Heuristic
  /// batches first deduplicate through the per-batch score memo (planned on
  /// the calling thread, so the evaluated set — and therefore the result
  /// bits — is independent of the thread count); duplicates still charge
  /// the Table II budget. Scoring trees are compiled (gp::CompiledProgram);
  /// programs without residual-dependent terminals take the sort-based
  /// cover::greedy_solve_static fast path.
  std::vector<Evaluation> evaluate_heuristic_batch(
      std::span<const HeuristicJob> jobs) override;
  /// Binary customer genomes (COBRA's lower level). Infeasible selections
  /// are greedily repaired (cheapest effective bundle first); redundant
  /// bundles are NOT removed, the genome is respected otherwise.
  std::vector<Evaluation> evaluate_selection_batch(
      std::span<const SelectionJob> jobs) override;
  /// The follower answers with the fixed cost-effectiveness greedy
  /// (cover::CostEffectiveness from an empty start, redundancy pass on):
  /// the nested-GA baseline's evaluation. Charged before it runs and
  /// force-tripped like a one-job batch, on the calling thread's context
  /// through the same staged resolve; not memoized.
  Evaluation evaluate_cost_effectiveness(
      std::span<const double> pricing,
      EvalPurpose purpose = EvalPurpose::kBoth);

  /// LP relaxation of LL(pricing) through the staged resolve: memoized in
  /// the bounded LRU, warm-started per lp_warm. The returned entry
  /// is pinned: it stays valid for as long as the caller holds the pointer,
  /// no matter what the cache evicts afterwards. Charges no budget.
  [[nodiscard]] RelaxationPtr relaxation(std::span<const double> pricing);

  /// When enabled, heuristic-built covers are polished with
  /// cover::local_search (drop + swap descent) before scoring — the memetic
  /// variant evaluated by bench/ablation_memetic. Off by default: the
  /// paper's CARBON scores the raw greedy output. Toggling drops the
  /// cross-generation score cache (entries were computed under the other
  /// setting). Configure between batches.
  void set_polish(bool enabled) noexcept {
    if (enabled != polish_) xgen_.clear();
    polish_ = enabled;
  }
  [[nodiscard]] bool polish() const noexcept { return polish_; }

  [[nodiscard]] std::span<const ea::Bounds> price_bounds() const override {
    return inst_.price_bounds();
  }
  [[nodiscard]] std::size_t genome_length() const override {
    return inst_.num_bundles();
  }
  [[nodiscard]] const Instance& instance() const noexcept { return inst_; }
  /// Resolved thread count (Options::threads with 0 replaced).
  [[nodiscard]] std::size_t threads() const noexcept { return threads_; }
  /// Worker threads spawned: 0 when the caller is the only participant.
  [[nodiscard]] std::size_t workers() const noexcept {
    return scheduler_.workers();
  }
  /// Warm-start policy this evaluator was built with (immutable: switching
  /// would invalidate cached relaxations computed under the other policy).
  [[nodiscard]] LpWarm lp_warm() const noexcept override { return lp_warm_; }
  /// The warm-start basis pool (empty and untouched under kBaseline).
  [[nodiscard]] const BasisPool& basis_pool() const noexcept {
    return basis_pool_;
  }
  /// Scheduler-side counters (tasks/steals/idle). Timing-dependent —
  /// observability only.
  [[nodiscard]] common::TaskScheduler::Stats sched_stats() const noexcept {
    return scheduler_.stats();
  }

  [[nodiscard]] long long ul_evaluations() const override {
    return ul_evals_;
  }
  [[nodiscard]] long long ll_evaluations() const override {
    return ll_evals_;
  }
  [[nodiscard]] long long relaxations_solved() const noexcept {
    return cache_.solves();
  }
  [[nodiscard]] long long relaxation_cache_hits() const noexcept {
    return cache_.hits();
  }
  [[nodiscard]] const RelaxationCache& cache() const noexcept {
    return cache_;
  }
  /// Batch heuristic jobs answered by the per-batch score memo instead of a
  /// fresh greedy solve (still charged to the budget).
  [[nodiscard]] long long heuristic_dedup_hits() const noexcept {
    return dedup_hits_;
  }

  /// Cross-generation score memoization (docs/ALGORITHMS.md §14): finished
  /// heuristic Evaluations are cached across batches and generations, keyed
  /// by the canonical program. Hits still charge the Table II budgets, so
  /// trajectories are bit-identical to fresh solves. Suspended while the
  /// wall-clock watchdog is armed.
  [[nodiscard]] const ScoreCache& score_cache() const noexcept {
    return xgen_;
  }

  /// Uniform telemetry snapshot: cache, memo, guard and LP family / pool
  /// counters.
  [[nodiscard]] BackendStats backend_stats() const override;

  /// Attaches a metrics registry; workers then time LP-relaxation solves
  /// ("time/lp_relaxation") and LL greedy solves ("time/ll_solve") from
  /// their own threads (the registry is thread-sharded). Configure between
  /// batches, like the other toggles; trajectory-neutral.
  void set_metrics(obs::MetricsRegistry* metrics) noexcept override {
    metrics_ = metrics;
  }

  /// Installs deterministic per-evaluation budgets + the injection hook on
  /// every context. Injection ordinals are assigned in submission order
  /// (batch job i gets ordinal base+i, planned before fan-out), so the trip
  /// lands on the same evaluation for any thread count. Configure between
  /// batches. Changing the LIMITS drops both caches, the basis pool and the
  /// pivots-saved baseline — entries warmed under other limits would serve
  /// stale degradation rungs.
  void set_guard(const guard::GuardConfig& config,
                 long long eval_base) noexcept override;

  /// Drops the relaxation cache, the cross-generation score cache, the
  /// basis pool and the pivots-saved baseline (counters kept). Called by
  /// solvers after every checkpoint write and on resume.
  void clear_caches() noexcept override;

 private:
  /// One pricing answered by resolve_relaxations.
  struct Resolved {
    RelaxationPtr relax;
    /// The armed watchdog expired while this pricing's own miss was being
    /// solved (in-batch duplicates and cache hits never expire).
    bool watchdog_expired = false;
  };

  /// Runs body(contexts_[participant], i) for every i in [0, n) on the
  /// scheduler and pushes sched/{tasks,steals,idle_ns} deltas to the
  /// metrics registry at the barrier. With a single participant every job
  /// runs inline, in order.
  void for_each(std::size_t n,
                const std::function<void(EvalContext&, std::size_t)>& body);

  /// True when the cross-generation cache may serve/absorb results right
  /// now (armed watchdog makes evaluations wall-clock-dependent).
  [[nodiscard]] bool xgen_active() const noexcept {
    return guard_.limits.watchdog_seconds <= 0.0;
  }

  /// The staged relaxation resolve behind every evaluation (see the header
  /// comment): stage A probes the cache and chooses start bases on the
  /// calling thread in submission order; stage B fans the distinct misses
  /// out through solve_relaxation_from (a rejected pooled basis is
  /// re-solved from the fixed baseline); stage C — again the calling
  /// thread, in submission order — records metrics and counters, commits
  /// final bases to the pool and inserts the results into the cache.
  /// Returns one pinned relaxation per input pricing; duplicates share a
  /// solve and count as cache hits.
  [[nodiscard]] std::vector<Resolved> resolve_relaxations(
      std::span<const std::span<const double>> pricings);
  /// Force-tripped relaxation of the injected evaluation. Its degradation
  /// is ordinal-dependent, so it bypasses the cache and the pool.
  [[nodiscard]] cover::Relaxation injected_relaxation(
      EvalContext& ctx, std::span<const double> pricing) const;
  /// construct(relax) for a resolved relaxation, or a skipped evaluation
  /// (Trip::kWatchdog) when the watchdog expired on its miss. The caller
  /// charges per submitted job, so memo hits still pay.
  template <typename Construct>
  Evaluation construct_resolved(const Resolved& resolved,
                                std::span<const double> pricing,
                                EvalPurpose purpose,
                                const Construct& construct) const;
  /// Construction stage under the guard plan: skipped when the node budget
  /// is gone, otherwise solve(greedy options) under the ll_solve timer,
  /// then finalized.
  template <typename Solve>
  Evaluation construct_with(EvalContext& ctx, const cover::Relaxation& relax,
                            std::span<const double> pricing,
                            EvalPurpose purpose, const Solve& solve);
  /// Construction for a heuristic job scored by `program` (compiled from
  /// job.heuristic).
  Evaluation finish_heuristic(EvalContext& ctx, const cover::Relaxation& relax,
                              const HeuristicJob& job,
                              const gp::CompiledProgram& program);
  /// Construction (repair) for a genome job.
  Evaluation finish_selection(EvalContext& ctx, const cover::Relaxation& relax,
                              const SelectionJob& job);
  /// Inserts into the cross-generation cache, counting evictions.
  void memoize(std::span<const gp::Node> key, std::span<const double> pricing,
               EvalPurpose purpose, const Evaluation& result);
  /// Charges the budget counters for one evaluation of `purpose` and
  /// reports whether it is the one the injection hook must force-trip.
  bool charge(EvalPurpose purpose) noexcept;
  void count_guard(const Evaluation& evaluation) noexcept;
  [[nodiscard]] bool inject_now(long long ordinal) const noexcept {
    return inject_at_ >= 0 && ordinal == inject_at_;
  }

  const Instance& inst_;
  std::size_t threads_;
  LpWarm lp_warm_;
  common::TaskScheduler scheduler_;
  RelaxationCache cache_;
  ScoreCache xgen_;
  /// contexts_[p] belongs to scheduler participant p (0 = the caller).
  std::vector<std::unique_ptr<EvalContext>> contexts_;
  // Everything below is only ever touched on the submitting thread, in
  // submission order (charges, guard counts, stages A/C of
  // resolve_relaxations) — the determinism argument for plain fields.
  long long ul_evals_ = 0;
  long long ll_evals_ = 0;
  long long dedup_hits_ = 0;
  long long guard_trips_ = 0;
  long long guard_degraded_ = 0;
  long long guard_exhausted_ = 0;
  /// Warm-start bases the solver rejected (pooled and baseline alike).
  long long warm_rejects_ = 0;
  BasisPool basis_pool_;
  long long pool_hits_ = 0;
  long long pool_rejects_ = 0;
  long long pivots_saved_ = 0;
  /// Running mean inputs for the pivots_saved estimate: iterations of
  /// baseline-start, full-rung, feasible solves seen so far. Reset with the
  /// pool (clear_caches / limit changes) so a resumed segment estimates
  /// from its own history only.
  long long base_iter_sum_ = 0;
  long long base_iter_count_ = 0;
  bool polish_ = false;
  obs::MetricsRegistry* metrics_ = nullptr;
  guard::GuardConfig guard_{};
  long long inject_at_ = -1;  ///< Absolute ll ordinal to trip; -1 = never.
};

}  // namespace carbon::bcpop
