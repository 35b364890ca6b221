#include "carbon/bcpop/parallel_evaluator.hpp"

#include <algorithm>
#include <cmath>
#include <thread>
#include <unordered_map>
#include <utility>

#include "carbon/common/stopwatch.hpp"
#include "carbon/gp/simd.hpp"

namespace carbon::bcpop {

EvalContext* ParallelEvaluator::acquire_context() {
  std::unique_lock lock(free_mutex_);
  free_cv_.wait(lock, [&] { return !free_contexts_.empty(); });
  EvalContext* ctx = free_contexts_.back();
  free_contexts_.pop_back();
  return ctx;
}

void ParallelEvaluator::release_context(EvalContext* ctx) noexcept {
  {
    std::lock_guard lock(free_mutex_);
    free_contexts_.push_back(ctx);
  }
  free_cv_.notify_one();
}

/// Pops a context off the free list (waiting if every context is in use —
/// only possible under caller-side oversubscription) and returns it on
/// destruction, exception-safe.
class ParallelEvaluator::ContextLease {
 public:
  explicit ContextLease(ParallelEvaluator& owner)
      : owner_(owner), ctx_(owner.acquire_context()) {}
  ~ContextLease() { owner_.release_context(ctx_); }
  ContextLease(const ContextLease&) = delete;
  ContextLease& operator=(const ContextLease&) = delete;

  [[nodiscard]] EvalContext& get() noexcept { return *ctx_; }

 private:
  ParallelEvaluator& owner_;
  EvalContext* ctx_ = nullptr;
};

/// Per-participant context leases for one scheduler batch. Slot p is only
/// ever touched by participant p (the scheduler guarantees a participant id
/// is never observed by two jobs concurrently), so acquisition is lazy and
/// lock-free on the slot itself; all acquired contexts return to the free
/// list at the batch barrier.
class ParallelEvaluator::BatchLeases {
 public:
  BatchLeases(ParallelEvaluator& owner, std::size_t participants)
      : owner_(owner), slots_(participants, nullptr) {}
  ~BatchLeases() {
    for (EvalContext* ctx : slots_) {
      if (ctx != nullptr) owner_.release_context(ctx);
    }
  }
  BatchLeases(const BatchLeases&) = delete;
  BatchLeases& operator=(const BatchLeases&) = delete;

  [[nodiscard]] EvalContext& get(std::size_t participant) {
    EvalContext*& slot = slots_[participant];
    if (slot == nullptr) slot = owner_.acquire_context();
    return *slot;
  }

 private:
  ParallelEvaluator& owner_;
  std::vector<EvalContext*> slots_;
};

namespace {

/// Worker threads for a resolved thread count: one thread means the caller
/// alone; N > 1 means N workers next to the caller.
std::size_t workers_for(std::size_t threads) {
  return threads == 1 ? 0 : threads;
}

/// Cache shards: ONE when every lookup and insert happens on the calling
/// thread in job order — a single participant, or pool mode, which stages
/// them there for any thread count — so a single global LRU evicts as a
/// pure function of the job sequence.
std::size_t shards_for(std::size_t requested, std::size_t threads,
                       LpWarm lp_warm) {
  if (threads == 1 || lp_warm == LpWarm::kPool) return 1;
  return std::max<std::size_t>(requested, 1);
}

}  // namespace

ParallelEvaluator::ParallelEvaluator(const Instance& instance, Options options)
    : inst_(instance),
      threads_(options.threads != 0
                   ? options.threads
                   : std::max<std::size_t>(
                         1, std::thread::hardware_concurrency())),
      lp_warm_(options.lp_warm),
      scheduler_(workers_for(threads_)),
      cache_(std::max<std::size_t>(options.relaxation_cache_capacity, 1),
             shards_for(options.cache_shards, threads_, lp_warm_)),
      xgen_(std::max<std::size_t>(options.score_cache_capacity, 1),
            shards_for(options.score_cache_shards, threads_, lp_warm_)),
      memo_xgen_(options.memo_xgen),
      basis_pool_(std::max<std::size_t>(options.basis_pool_capacity, 1)) {
  // Build + validate the relaxation structure and solve the base-cost LP
  // once, then stamp every per-participant context from the shared family.
  const cover::RelaxationFamily shared(inst_.market());
  const std::size_t n = scheduler_.participants();
  contexts_.reserve(n);
  free_contexts_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    contexts_.push_back(std::make_unique<EvalContext>(inst_, shared));
    free_contexts_.push_back(contexts_.back().get());
  }
}

void ParallelEvaluator::for_each(
    std::size_t n, const std::function<void(EvalContext&, std::size_t)>& body) {
  const common::TaskScheduler::Stats before = scheduler_.stats();
  {
    BatchLeases leases(*this, scheduler_.participants());
    scheduler_.parallel_for(n, [&](std::size_t participant, std::size_t i) {
      body(leases.get(participant), i);
    });
  }
  if (metrics_ != nullptr) {
    const common::TaskScheduler::Stats after = scheduler_.stats();
    obs::count(metrics_, "sched/tasks", after.tasks - before.tasks);
    if (after.steals > before.steals) {
      obs::count(metrics_, "sched/steals", after.steals - before.steals);
    }
    if (after.idle_ns > before.idle_ns) {
      obs::count(metrics_, "sched/idle_ns", after.idle_ns - before.idle_ns);
    }
  }
}

bool ParallelEvaluator::charge(EvalPurpose purpose) noexcept {
  const long long ordinal = ll_evals_.fetch_add(1, std::memory_order_relaxed);
  if (purpose == EvalPurpose::kBoth) {
    ul_evals_.fetch_add(1, std::memory_order_relaxed);
  }
  return inject_now(ordinal);
}

void ParallelEvaluator::count_guard(const Evaluation& evaluation) noexcept {
  const guard::Outcome& g = evaluation.guard;
  if (g.tripped()) {
    guard_trips_.fetch_add(1, std::memory_order_relaxed);
    obs::count(metrics_, "guard/trips");
  }
  if (g.degraded()) {
    guard_degraded_.fetch_add(1, std::memory_order_relaxed);
    obs::count(metrics_, "guard/degraded_evals");
  }
  if (g.budget_exhausted) {
    guard_exhausted_.fetch_add(1, std::memory_order_relaxed);
    obs::count(metrics_, "guard/budget_exhausted");
  }
}

void ParallelEvaluator::set_guard(const guard::GuardConfig& config,
                                  long long eval_base) noexcept {
  if (!(config.limits == guard_.limits)) {
    // Cached relaxations and evaluations are pure functions of
    // (inputs, limits); entries warmed under other limits would serve
    // stale degradation rungs. The basis pool and the pivots-saved
    // baseline mean are dropped with them: pooled pivot counts (and what
    // gets committed at all) depend on the rung-0 caps.
    cache_.clear();
    xgen_.clear();
    basis_pool_.clear();
    base_iter_sum_ = 0;
    base_iter_count_ = 0;
  }
  guard_ = config;
  inject_at_ =
      config.inject.at_eval >= 0 ? eval_base + config.inject.at_eval : -1;
  for (const auto& ctx : contexts_) ctx->guard = config.limits;
}

void ParallelEvaluator::clear_caches() noexcept {
  cache_.clear();
  xgen_.clear();
  // Resume isolation: a resumed segment must never consume another
  // segment's pooled bases (or its pivots-saved baseline estimate), so the
  // pool is cleared — clocks included — alongside the caches. Counters are
  // kept; solvers subtract their checkpointed offsets.
  basis_pool_.clear();
  base_iter_sum_ = 0;
  base_iter_count_ = 0;
}

ParallelEvaluator::RelaxationPtr ParallelEvaluator::cached_relaxation(
    EvalContext& ctx, std::span<const double> pricing) {
  return cache_.get_or_compute(pricing, [&](std::span<const double> p) {
    obs::ScopedTimer timer(metrics_, "time/lp_relaxation");
    cover::Relaxation relax = solve_relaxation_guarded(ctx, p);
    timer.stop();
    record_lp_metrics(metrics_, relax);
    if (relax.stats.warm_start_rejected) {
      warm_rejects_.fetch_add(1, std::memory_order_relaxed);
    }
    return relax;
  });
}

ParallelEvaluator::RelaxationPtr ParallelEvaluator::relaxation(
    std::span<const double> pricing) {
  if (lp_warm_ == LpWarm::kPool) {
    const std::span<const double> one[] = {pricing};
    return resolve_pooled(one).front();
  }
  ContextLease lease(*this);
  return cached_relaxation(lease.get(), pricing);
}

template <typename Solve>
Evaluation ParallelEvaluator::construct_with(
    EvalContext& ctx, const cover::Relaxation& relax,
    std::span<const double> pricing, EvalPurpose purpose, const Solve& solve) {
  const ConstructionBudget plan = plan_construction(ctx.guard, relax);
  if (plan.skip) {
    return skipped_evaluation(inst_, pricing, relax, guard::Trip::kNodeBudget,
                              purpose);
  }
  obs::ScopedTimer timer(metrics_, "time/ll_solve");
  const cover::SolveResult solved = solve(plan.options);
  timer.stop();
  return finalize_evaluation(inst_, pricing, solved, relax, purpose);
}

Evaluation ParallelEvaluator::finish_heuristic(
    EvalContext& ctx, const cover::Relaxation& relax, const HeuristicJob& job,
    const gp::CompiledProgram* program) {
  return construct_with(
      ctx, relax, job.pricing, job.purpose,
      [&](const cover::GreedyOptions& options) {
        return program != nullptr
                   ? solve_with_program(ctx, relax, job.pricing, *program,
                                        polish_, metrics_, options)
                   : solve_with_heuristic(ctx, relax, job.pricing,
                                          *job.heuristic, polish_, options);
      });
}

Evaluation ParallelEvaluator::finish_selection(EvalContext& ctx,
                                               const cover::Relaxation& relax,
                                               const SelectionJob& job) {
  return construct_with(ctx, relax, job.pricing, job.purpose,
                        [&](const cover::GreedyOptions& options) {
                          return solve_with_selection(ctx, relax, job.pricing,
                                                      job.selection, options);
                        });
}

template <typename Construct>
Evaluation ParallelEvaluator::evaluate_job(EvalContext& ctx,
                                           std::span<const double> pricing,
                                           EvalPurpose purpose, bool injected,
                                           const Construct& construct) {
  if (injected) {
    // Forced trip: the degradation is ordinal-dependent, so it must never
    // land in — or come from — the pricing-keyed shared cache (nor touch
    // the basis pool in pool mode).
    const cover::Relaxation relax = solve_relaxation_guarded(
        ctx, pricing, guard::Trip::kInjected, guard_.inject.degrade_to);
    if (relax.stats.warm_start_rejected) {
      warm_rejects_.fetch_add(1, std::memory_order_relaxed);
    }
    return construct(relax);
  }
  common::Stopwatch watchdog;
  const RelaxationPtr relax = cached_relaxation(ctx, pricing);
  if (guard_.limits.watchdog_seconds > 0.0 &&
      watchdog.seconds() > guard_.limits.watchdog_seconds) {
    // Only this evaluation's construction stage is skipped; the cached
    // relaxation stays full-fidelity. Opt-in, explicitly non-deterministic.
    return skipped_evaluation(inst_, pricing, *relax, guard::Trip::kWatchdog,
                              purpose);
  }
  return construct(*relax);
}

template <typename Construct>
Evaluation ParallelEvaluator::evaluate_scalar(std::span<const double> pricing,
                                              EvalPurpose purpose,
                                              bool injected,
                                              const Construct& construct) {
  Evaluation result;
  if (lp_warm_ == LpWarm::kPool && !injected) {
    // Inline staging (single-element batch). NOT safe to call concurrently
    // in pool mode — the pool is single-threaded by contract. The context
    // is leased only after staging, which leases contexts of its own.
    const RelaxationPtr relax = relaxation(pricing);
    ContextLease lease(*this);
    result = construct(lease.get(), *relax);
  } else {
    ContextLease lease(*this);
    EvalContext& ctx = lease.get();
    result = evaluate_job(ctx, pricing, purpose, injected,
                          [&](const cover::Relaxation& relax) {
                            return construct(ctx, relax);
                          });
  }
  count_guard(result);
  return result;
}

void ParallelEvaluator::memoize(std::span<const gp::Node> key,
                                std::span<const double> pricing,
                                EvalPurpose purpose,
                                const Evaluation& result) {
  const long long evictions_before = xgen_.evictions();
  xgen_.insert(key, pricing, purpose, result);
  const long long evicted = xgen_.evictions() - evictions_before;
  if (evicted > 0) obs::count(metrics_, "memo/xgen_evictions", evicted);
}

std::vector<ParallelEvaluator::RelaxationPtr>
ParallelEvaluator::resolve_pooled(
    std::span<const std::span<const double>> pricings) {
  std::vector<RelaxationPtr> out(pricings.size());
  struct Pending {
    std::size_t out_index = 0;
    std::span<const double> pricing;
    lp::Basis warm;          ///< copied pooled start basis (from_pool only)
    bool from_pool = false;
    bool rejected = false;   ///< pooled basis rejected, re-solved baseline
    cover::Relaxation relax;
    lp::Basis final_basis;   ///< valid iff relax.stats.basis_saved
    RelaxationPtr result;
  };
  std::vector<Pending> pending;
  /// (out index, pending index) of duplicates of an in-batch miss.
  std::vector<std::pair<std::size_t, std::size_t>> aliases;
  std::unordered_map<std::vector<double>, std::size_t, PricingHash> index_of;

  // Stage A — calling thread, submission order: cache probes and pool
  // selections. The selected basis is COPIED out: the select() pointer dies
  // at the next insert(), and workers must not touch the pool at all.
  for (std::size_t i = 0; i < pricings.size(); ++i) {
    std::vector<double> key(pricings[i].begin(), pricings[i].end());
    if (const auto it = index_of.find(key); it != index_of.end()) {
      aliases.emplace_back(i, it->second);
      continue;
    }
    if (RelaxationPtr hit = cache_.lookup(pricings[i])) {
      out[i] = std::move(hit);
      continue;
    }
    Pending p;
    p.out_index = i;
    p.pricing = pricings[i];
    if (const lp::Basis* nearest = basis_pool_.select(pricings[i])) {
      p.warm = *nearest;
      p.from_pool = true;
    }
    index_of.emplace(std::move(key), pending.size());
    pending.push_back(std::move(p));
  }

  // Stage B — fan-out: each miss solves from its pre-selected start basis.
  // A rejected pooled basis re-solves from the fixed baseline, so the
  // resulting relaxation is bit-identical to what a pool miss produces.
  for_each(pending.size(), [&](EvalContext& ctx, std::size_t k) {
    Pending& p = pending[k];
    obs::ScopedTimer timer(metrics_, "time/lp_relaxation");
    const lp::Basis& start = p.from_pool ? p.warm : ctx.baseline_basis;
    p.relax = solve_relaxation_pooled(ctx, p.pricing, start, &p.final_basis);
    if (p.from_pool && p.relax.stats.warm_start_rejected) {
      p.rejected = true;
      p.final_basis = lp::Basis{};
      p.relax = solve_relaxation_pooled(ctx, p.pricing, ctx.baseline_basis,
                                        &p.final_basis);
    }
  });

  // Stage C — calling thread, pending order: metrics, counters, pool
  // commits, cache inserts. Deterministic because the pending order is the
  // submission order and nothing here depends on solve timing.
  for (Pending& p : pending) {
    record_lp_metrics(metrics_, p.relax);
    if (p.rejected) {
      ++pool_rejects_;
      warm_rejects_.fetch_add(1, std::memory_order_relaxed);
    }
    if (p.relax.stats.warm_start_rejected) {
      warm_rejects_.fetch_add(1, std::memory_order_relaxed);
    }
    const bool full_rung = p.relax.guard_trip == guard::Trip::kNone &&
                           p.relax.guard_rung == guard::Rung::kFullLp;
    if (p.from_pool && !p.rejected) {
      ++pool_hits_;
      if (full_rung && p.relax.feasible && base_iter_count_ > 0) {
        const long long mean = std::llround(
            static_cast<double>(base_iter_sum_) / base_iter_count_);
        pivots_saved_ +=
            std::max(0LL, mean - static_cast<long long>(
                                     p.relax.stats.iterations));
      }
    } else if (full_rung && p.relax.feasible) {
      base_iter_sum_ += p.relax.stats.iterations;
      ++base_iter_count_;
    }
    if (p.relax.stats.basis_saved) {
      basis_pool_.insert(p.pricing, p.final_basis);
    }
    p.result = std::make_shared<const cover::Relaxation>(std::move(p.relax));
    cache_.insert(p.pricing, p.result);
    out[p.out_index] = p.result;
  }
  // In-batch duplicates read back through the cache so the hit counters
  // match the serial call sequence; the direct pointer covers the (tiny
  // cache) case where a later insert already evicted the entry.
  for (const auto& [i, k] : aliases) {
    RelaxationPtr hit = cache_.lookup(pricings[i]);
    out[i] = hit != nullptr ? std::move(hit) : pending[k].result;
  }
  return out;
}

BackendStats ParallelEvaluator::backend_stats() const {
  BackendStats s;
  s.relaxation_cache_hits = cache_.hits();
  s.relaxation_cache_misses = cache_.solves();
  s.relaxation_cache_evictions = cache_.evictions();
  s.heuristic_dedup_hits = dedup_hits_.load(std::memory_order_relaxed);
  s.score_cache_hits = xgen_.hits();
  s.score_cache_evictions = xgen_.evictions();
  s.guard_trips = guard_trips_.load(std::memory_order_relaxed);
  s.guard_degraded_evals = guard_degraded_.load(std::memory_order_relaxed);
  s.guard_budget_exhausted =
      guard_exhausted_.load(std::memory_order_relaxed);
  long long rebinds = 0;
  for (const auto& ctx : contexts_) rebinds += ctx->ll_family.rebinds();
  s.lp_family_rebinds = rebinds;
  s.lp_warm_start_rejects = warm_rejects_.load(std::memory_order_relaxed);
  s.lp_pool_hits = pool_hits_;
  s.lp_pool_rejects = pool_rejects_;
  s.lp_pivots_saved = pivots_saved_;
  return s;
}

std::vector<Evaluation> ParallelEvaluator::evaluate_heuristic_batch(
    std::span<const HeuristicJob> jobs) {
  std::vector<Evaluation> results(jobs.size());
  if (jobs.empty()) return results;
  // Which kernel width the compiled scorer dispatched to (1 = scalar,
  // 4 = AVX2) — constant per process, but recorded per batch so journals
  // from different machines stay attributable.
  obs::gauge(metrics_, "gp/lanes", static_cast<double>(gp::simd::lanes()));
  // Plan the score memo on the calling thread BEFORE fan-out: the plan is a
  // pure function of the submitted jobs, so deduplication needs no locks
  // and the set of real solves is identical for any thread count.
  const HeuristicBatchPlan plan =
      plan_heuristic_batch(jobs, compiled_scoring_);
  // Jobs are charged in submission order below, so job i's ll ordinal is
  // base + i — the same ordinal a scalar call sequence would assign. The
  // injection target is therefore identical for any batching.
  const long long base = ll_evals_.load(std::memory_order_relaxed);
  std::vector<Evaluation> unique_results(plan.uniques.size());
  const auto job_of = [&](std::size_t u) -> const HeuristicJob& {
    return jobs[plan.uniques[u].job_index];
  };
  const auto key_nodes_of = [&](std::size_t u) -> std::span<const gp::Node> {
    const HeuristicBatchPlan::Unique& uq = plan.uniques[u];
    return uq.program != nullptr ? uq.program->canonical_nodes()
                                 : job_of(u).heuristic->nodes();
  };

  // Cross-generation memo: probe on the calling thread in unique order (so
  // hit/miss counters and the LRU walk are thread-count independent), fan
  // out only the misses, then insert the fresh results — again in unique
  // order, after the barrier. The cache state after the batch is therefore
  // a pure function of the submitted jobs.
  const bool use_xgen = xgen_active();
  std::vector<std::size_t> misses;
  misses.reserve(plan.uniques.size());
  long long xgen_hits = 0;
  for (std::size_t u = 0; u < plan.uniques.size(); ++u) {
    if (use_xgen && xgen_.lookup(key_nodes_of(u), job_of(u).pricing,
                                 job_of(u).purpose, &unique_results[u])) {
      ++xgen_hits;
    } else {
      misses.push_back(u);
    }
  }
  if (xgen_hits > 0) obs::count(metrics_, "memo/xgen_hits", xgen_hits);

  // Pool mode resolves the misses' relaxations through the staged basis
  // pool first (submission-order pool/cache traffic on this thread), so
  // only the construction stage fans out.
  std::vector<RelaxationPtr> pooled;
  if (lp_warm_ == LpWarm::kPool) {
    std::vector<std::span<const double>> pricings;
    pricings.reserve(misses.size());
    for (const std::size_t u : misses) pricings.push_back(job_of(u).pricing);
    pooled = resolve_pooled(pricings);
  }
  for_each(misses.size(), [&](EvalContext& ctx, std::size_t m) {
    const std::size_t u = misses[m];
    const gp::CompiledProgram* program = plan.uniques[u].program.get();
    const auto finish = [&](const cover::Relaxation& relax) {
      return finish_heuristic(ctx, relax, job_of(u), program);
    };
    unique_results[u] =
        pooled.empty() ? evaluate_job(ctx, job_of(u).pricing,
                                      job_of(u).purpose, /*injected=*/false,
                                      finish)
                       : finish(*pooled[m]);
  });

  if (use_xgen) {
    for (const std::size_t u : misses) {
      memoize(key_nodes_of(u), job_of(u).pricing, job_of(u).purpose,
              unique_results[u]);
    }
  }
  // Every submitted job pays the budget — the memo optimizes wall-clock,
  // never the Table II accounting, so trajectories stay bit-identical.
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    if (inject_now(base + static_cast<long long>(i))) {
      // The injected job gets its own forced-trip evaluation on the calling
      // thread; its memo siblings keep the full-fidelity result, exactly as
      // a scalar call sequence would produce.
      ContextLease lease(*this);
      EvalContext& ctx = lease.get();
      results[i] = evaluate_job(
          ctx, jobs[i].pricing, jobs[i].purpose, /*injected=*/true,
          [&](const cover::Relaxation& relax) {
            return finish_heuristic(
                ctx, relax, jobs[i],
                plan.uniques[plan.result_of[i]].program.get());
          });
    } else {
      results[i] = unique_results[plan.result_of[i]];
    }
    charge(jobs[i].purpose);
    count_guard(results[i]);
  }
  dedup_hits_.fetch_add(static_cast<long long>(plan.duplicates()),
                        std::memory_order_relaxed);
  return results;
}

std::vector<Evaluation> ParallelEvaluator::evaluate_selection_batch(
    std::span<const SelectionJob> jobs) {
  std::vector<Evaluation> results(jobs.size());
  if (jobs.empty()) return results;
  // Injection ordinals are assigned by submission index BEFORE fan-out
  // (job i gets base + i — the ordinal a scalar call sequence would charge
  // it with), so the tripped job is the same for any thread count.
  const long long base = ll_evals_.load(std::memory_order_relaxed);
  const auto injected = [&](std::size_t i) {
    return inject_now(base + static_cast<long long>(i));
  };
  // Pool mode: relaxations first (pool/cache traffic on this thread, in
  // submission order), then only the construction stage fans out. Injected
  // jobs bypass the pool like they bypass the cache.
  std::vector<RelaxationPtr> pooled(jobs.size());
  if (lp_warm_ == LpWarm::kPool) {
    std::vector<std::size_t> staged;
    std::vector<std::span<const double>> pricings;
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      if (!injected(i)) {
        staged.push_back(i);
        pricings.push_back(jobs[i].pricing);
      }
    }
    const std::vector<RelaxationPtr> relaxes = resolve_pooled(pricings);
    for (std::size_t k = 0; k < staged.size(); ++k) {
      pooled[staged[k]] = relaxes[k];
    }
  }
  // Tasks write disjoint slots of `results`; the scheduler drains every
  // task before returning (even on exceptions), so the by-reference
  // captures cannot dangle.
  for_each(jobs.size(), [&](EvalContext& ctx, std::size_t i) {
    const auto finish = [&](const cover::Relaxation& relax) {
      return finish_selection(ctx, relax, jobs[i]);
    };
    results[i] = pooled[i] != nullptr
                     ? finish(*pooled[i])
                     : evaluate_job(ctx, jobs[i].pricing, jobs[i].purpose,
                                    injected(i), finish);
  });
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    charge(jobs[i].purpose);
    count_guard(results[i]);
  }
  return results;
}

Evaluation ParallelEvaluator::evaluate_with_heuristic(
    std::span<const double> pricing, const gp::Tree& heuristic,
    EvalPurpose purpose) {
  const HeuristicJob job{pricing, &heuristic, purpose};
  const bool injected = charge(purpose);

  const gp::CompiledProgram* program = nullptr;
  gp::CompiledProgram compiled;
  if (compiled_scoring_) {
    compiled = gp::CompiledProgram::compile(heuristic);
    program = &compiled;
  }
  // Cross-generation memo, keyed by the canonical program (compiled
  // scoring) or the raw tree (interpreter); skipped for injected jobs —
  // their degradation is ordinal-dependent. A hit still charges the full
  // budget. Concurrent scalar callers race benignly: both compute
  // identical bits, insert() keeps one.
  const bool use_xgen = xgen_active() && !injected;
  const std::span<const gp::Node> key_nodes =
      program != nullptr ? program->canonical_nodes() : heuristic.nodes();
  if (use_xgen) {
    Evaluation cached;
    if (xgen_.lookup(key_nodes, pricing, purpose, &cached)) {
      obs::count(metrics_, "memo/xgen_hits");
      count_guard(cached);
      return cached;
    }
  }
  Evaluation result = evaluate_scalar(
      pricing, purpose, injected,
      [&](EvalContext& ctx, const cover::Relaxation& relax) {
        return finish_heuristic(ctx, relax, job, program);
      });
  if (use_xgen) memoize(key_nodes, pricing, purpose, result);
  return result;
}

Evaluation ParallelEvaluator::evaluate_with_selection(
    std::span<const double> pricing, std::span<const std::uint8_t> selection,
    EvalPurpose purpose) {
  const SelectionJob job{pricing, selection, purpose};
  return evaluate_scalar(pricing, purpose, charge(purpose),
                         [&](EvalContext& ctx, const cover::Relaxation& relax) {
                           return finish_selection(ctx, relax, job);
                         });
}

Evaluation ParallelEvaluator::evaluate_with_score(
    std::span<const double> pricing, const cover::ScoreFunction& score,
    EvalPurpose purpose) {
  return evaluate_scalar(
      pricing, purpose, charge(purpose),
      [&](EvalContext& ctx, const cover::Relaxation& relax) {
        return construct_with(ctx, relax, pricing, purpose,
                              [&](const cover::GreedyOptions& options) {
                                return solve_with_score(ctx, relax, pricing,
                                                        score, options);
                              });
      });
}

}  // namespace carbon::bcpop
