#include "carbon/bcpop/parallel_evaluator.hpp"

#include <algorithm>
#include <cmath>
#include <thread>
#include <unordered_map>
#include <utility>

#include "carbon/gp/simd.hpp"

namespace carbon::bcpop {

namespace {

/// Worker threads for a resolved thread count: one thread means the caller
/// alone; N > 1 means N workers next to the caller.
std::size_t workers_for(std::size_t threads) {
  return threads == 1 ? 0 : threads;
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
      cache_(options.relaxation_cache_capacity),
      xgen_(options.score_cache_capacity),
      basis_pool_(std::max<std::size_t>(options.basis_pool_capacity, 1)) {
  // Build + validate the relaxation structure and solve the base-cost LP
  // once, then stamp every per-participant context from the shared family.
  const cover::RelaxationFamily shared(inst_.market());
  const std::size_t n = scheduler_.participants();
  contexts_.reserve(n);
  for (std::size_t p = 0; p < n; ++p) {
    contexts_.push_back(std::make_unique<EvalContext>(inst_, shared));
  }
}

void ParallelEvaluator::for_each(
    std::size_t n, const std::function<void(EvalContext&, std::size_t)>& body) {
  const common::TaskScheduler::Stats before = scheduler_.stats();
  scheduler_.parallel_for(n, [&](std::size_t participant, std::size_t i) {
    body(*contexts_[participant], i);
  });
  if (metrics_ != nullptr) {
    const common::TaskScheduler::Stats after = scheduler_.stats();
    obs::count(metrics_, "sched/tasks", after.tasks - before.tasks);
    if (after.idle_ns > before.idle_ns) {
      obs::count(metrics_, "sched/idle_ns", after.idle_ns - before.idle_ns);
    }
  }
}

bool ParallelEvaluator::charge(EvalPurpose purpose) noexcept {
  const long long ordinal = ll_evals_++;
  if (purpose == EvalPurpose::kBoth) ++ul_evals_;
  return inject_now(ordinal);
}

void ParallelEvaluator::count_guard(const Evaluation& evaluation) noexcept {
  const guard::Outcome& g = evaluation.guard;
  if (g.tripped()) {
    ++guard_trips_;
    obs::count(metrics_, "guard/trips");
  }
  if (g.degraded()) {
    ++guard_degraded_;
    obs::count(metrics_, "guard/degraded_evals");
  }
  if (g.budget_exhausted) {
    ++guard_exhausted_;
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

ParallelEvaluator::RelaxationPtr ParallelEvaluator::relaxation(
    std::span<const double> pricing) {
  const std::span<const double> one[] = {pricing};
  return resolve_relaxations(one).front();
}

template <typename Solve>
Evaluation ParallelEvaluator::construct_with(
    EvalContext& ctx, const cover::Relaxation& relax,
    std::span<const double> pricing, EvalPurpose purpose, const Solve& solve) {
  const ConstructionBudget plan = plan_construction(ctx.guard, relax);
  if (plan.skip) {
    return skipped_evaluation(inst_, pricing, relax, purpose);
  }
  obs::ScopedTimer timer(metrics_, "time/ll_solve");
  const cover::SolveResult solved = solve(plan.options);
  timer.stop();
  return finalize_evaluation(inst_, pricing, solved, relax, purpose);
}

Evaluation ParallelEvaluator::finish_heuristic(
    EvalContext& ctx, const cover::Relaxation& relax, const HeuristicJob& job,
    const gp::CompiledProgram& program) {
  return construct_with(ctx, relax, job.pricing, job.purpose,
                        [&](const cover::GreedyOptions& options) {
                          return solve_with_program(ctx, relax, job.pricing,
                                                    program, polish_, metrics_,
                                                    options);
                        });
}

Evaluation ParallelEvaluator::finish_selection(EvalContext& ctx,
                                               const cover::Relaxation& relax,
                                               const SelectionJob& job) {
  return construct_with(ctx, relax, job.pricing, job.purpose,
                        [&](cover::GreedyOptions options) {
                          // Repair respects the genome: no reverse pass.
                          options.eliminate_redundancy = false;
                          return solve_with_selection(ctx, job.pricing,
                                                      job.selection, options);
                        });
}

cover::Relaxation ParallelEvaluator::injected_relaxation(
    EvalContext& ctx, std::span<const double> pricing) const {
  return solve_relaxation_guarded(ctx, pricing, guard::Trip::kInjected,
                                  guard_.inject.degrade_to);
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
ParallelEvaluator::resolve_relaxations(
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

  // Stage A — calling thread, submission order: cache probes and start
  // bases. A pooled basis is COPIED out: the select() pointer dies at the
  // next insert(), and workers must not touch the pool at all.
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
    if (lp_warm_ == LpWarm::kPool) {
      if (const lp::Basis* nearest = basis_pool_.select(pricings[i])) {
        p.warm = *nearest;
        p.from_pool = true;
      }
    }
    index_of.emplace(std::move(key), pending.size());
    pending.push_back(std::move(p));
  }

  // Stage B — fan-out: each miss solves from its chosen start basis. A
  // rejected pooled basis re-solves from the fixed baseline, so the result
  // is bit-identical to what a pool miss produces.
  for_each(pending.size(), [&](EvalContext& ctx, std::size_t k) {
    Pending& p = pending[k];
    obs::ScopedTimer timer(metrics_, "time/lp_relaxation");
    const lp::Basis& start = p.from_pool ? p.warm : ctx.baseline_basis;
    p.relax = solve_relaxation_from(ctx, p.pricing, start, &p.final_basis);
    if (p.from_pool && p.relax.stats.warm_start_rejected) {
      p.rejected = true;
      p.final_basis = lp::Basis{};
      p.relax = solve_relaxation_from(ctx, p.pricing, ctx.baseline_basis,
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
      ++warm_rejects_;
    }
    if (p.relax.stats.warm_start_rejected) ++warm_rejects_;
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
    if (lp_warm_ == LpWarm::kPool && p.relax.stats.basis_saved) {
      basis_pool_.insert(p.pricing, p.final_basis);
    }
    p.result = std::make_shared<const cover::Relaxation>(std::move(p.relax));
    cache_.insert(p.pricing, p.result);
    out[p.out_index] = p.result;
  }
  // In-batch duplicates read back through the cache so the hit counters
  // and the LRU walk match a sequence of one-job calls; the pinned pointer
  // covers the (tiny cache) case where a later insert already evicted the
  // entry, and still counts as the hit it is.
  for (const auto& [i, k] : aliases) {
    RelaxationPtr hit = cache_.lookup(pricings[i]);
    if (hit == nullptr) {
      cache_.count_pinned_hit();
      hit = pending[k].result;
    }
    out[i] = std::move(hit);
  }
  return out;
}

BackendStats ParallelEvaluator::backend_stats() const {
  BackendStats s;
  s.relaxation_cache_hits = cache_.hits();
  s.relaxation_cache_misses = cache_.solves();
  s.relaxation_cache_evictions = cache_.evictions();
  s.heuristic_dedup_hits = dedup_hits_;
  s.score_cache_hits = xgen_.hits();
  s.score_cache_evictions = xgen_.evictions();
  s.guard_trips = guard_trips_;
  s.guard_degraded_evals = guard_degraded_;
  s.guard_budget_exhausted = guard_exhausted_;
  long long rebinds = 0;
  for (const auto& ctx : contexts_) rebinds += ctx->ll_family.rebinds();
  s.lp_family_rebinds = rebinds;
  s.lp_warm_start_rejects = warm_rejects_;
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
  const HeuristicBatchPlan plan = plan_heuristic_batch(jobs);
  // Jobs are charged in submission order below, so job i's ll ordinal is
  // base + i — the same ordinal a sequence of one-job calls would assign. The
  // injection target is therefore identical for any batching.
  const long long base = ll_evals_;
  std::vector<Evaluation> unique_results(plan.uniques.size());
  const auto job_of = [&](std::size_t u) -> const HeuristicJob& {
    return jobs[plan.uniques[u].job_index];
  };
  const auto key_nodes_of = [&](std::size_t u) -> std::span<const gp::Node> {
    return plan.uniques[u].program->canonical_nodes();
  };

  // Cross-generation memo: probe on the calling thread in unique order (so
  // hit/miss counters and the LRU walk are thread-count independent), fan
  // out only the misses, then insert the fresh results — again in unique
  // order, after the barrier. The cache state after the batch is therefore
  // a pure function of the submitted jobs.
  std::vector<std::size_t> misses;
  misses.reserve(plan.uniques.size());
  long long xgen_hits = 0;
  for (std::size_t u = 0; u < plan.uniques.size(); ++u) {
    if (xgen_.lookup(key_nodes_of(u), job_of(u).pricing, job_of(u).purpose,
                     &unique_results[u])) {
      ++xgen_hits;
    } else {
      misses.push_back(u);
    }
  }
  if (xgen_hits > 0) obs::count(metrics_, "memo/xgen_hits", xgen_hits);

  // Relaxations first (staged on this thread), then only the construction
  // stage fans out.
  std::vector<std::span<const double>> pricings;
  pricings.reserve(misses.size());
  for (const std::size_t u : misses) pricings.push_back(job_of(u).pricing);
  const std::vector<RelaxationPtr> resolved = resolve_relaxations(pricings);
  for_each(misses.size(), [&](EvalContext& ctx, std::size_t m) {
    const std::size_t u = misses[m];
    unique_results[u] = finish_heuristic(ctx, *resolved[m], job_of(u),
                                         *plan.uniques[u].program);
  });

  for (const std::size_t u : misses) {
    memoize(key_nodes_of(u), job_of(u).pricing, job_of(u).purpose,
            unique_results[u]);
  }
  // Every submitted job pays the budget — the memo optimizes wall-clock,
  // never the Table II accounting, so trajectories stay bit-identical.
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    if (inject_now(base + static_cast<long long>(i))) {
      // The injected job gets its own forced-trip evaluation on the calling
      // thread; its memo siblings keep the full-fidelity result, exactly as
      // a sequence of one-job calls would produce.
      EvalContext& ctx = *contexts_[0];
      results[i] = finish_heuristic(
          ctx, injected_relaxation(ctx, jobs[i].pricing), jobs[i],
          *plan.uniques[plan.result_of[i]].program);
    } else {
      results[i] = unique_results[plan.result_of[i]];
    }
    charge(jobs[i].purpose);
    count_guard(results[i]);
  }
  dedup_hits_ += static_cast<long long>(plan.duplicates());
  return results;
}

std::vector<Evaluation> ParallelEvaluator::evaluate_selection_batch(
    std::span<const SelectionJob> jobs) {
  std::vector<Evaluation> results(jobs.size());
  if (jobs.empty()) return results;
  // Injection ordinals are assigned by submission index BEFORE fan-out
  // (job i gets base + i — the ordinal a sequence of one-job calls would
  // charge it with), so the tripped job is the same for any thread count.
  const long long base = ll_evals_;
  const auto injected = [&](std::size_t i) {
    return inject_now(base + static_cast<long long>(i));
  };
  // Relaxations first (staged on this thread), then only the construction
  // stage fans out. Injected jobs bypass the cache and the pool.
  std::vector<std::span<const double>> pricings;
  std::vector<std::size_t> staged_at(jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    if (!injected(i)) {
      staged_at[i] = pricings.size();
      pricings.push_back(jobs[i].pricing);
    }
  }
  const std::vector<RelaxationPtr> resolved = resolve_relaxations(pricings);
  // Tasks write disjoint slots of `results`; the scheduler drains every
  // task before returning (even on exceptions), so the by-reference
  // captures cannot dangle.
  for_each(jobs.size(), [&](EvalContext& ctx, std::size_t i) {
    if (injected(i)) {
      results[i] = finish_selection(
          ctx, injected_relaxation(ctx, jobs[i].pricing), jobs[i]);
    } else {
      results[i] = finish_selection(ctx, *resolved[staged_at[i]], jobs[i]);
    }
  });
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    charge(jobs[i].purpose);
    count_guard(results[i]);
  }
  return results;
}

Evaluation ParallelEvaluator::evaluate_cost_effectiveness(
    std::span<const double> pricing, EvalPurpose purpose) {
  const bool injected = charge(purpose);
  // The caller's own context: a one-pricing resolve runs its stage B
  // inline on participant 0 too, strictly before construction.
  EvalContext& ctx = *contexts_[0];
  const auto finish = [&](const cover::Relaxation& relax) {
    return construct_with(ctx, relax, pricing, purpose,
                          [&](const cover::GreedyOptions& options) {
                            return solve_with_selection(ctx, pricing, {},
                                                        options);
                          });
  };
  Evaluation result;
  if (injected) {
    result = finish(injected_relaxation(ctx, pricing));
  } else {
    result = finish(*relaxation(pricing));
  }
  count_guard(result);
  return result;
}

}  // namespace carbon::bcpop
