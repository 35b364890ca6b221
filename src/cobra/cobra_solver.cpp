#include "carbon/cobra/cobra_solver.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "carbon/bcpop/parallel_evaluator.hpp"
#include "carbon/common/statistics.hpp"
#include "carbon/ea/archive.hpp"
#include "carbon/gp/simd.hpp"

namespace carbon::cobra {

namespace {

struct ArchivedSolution {
  bcpop::Pricing pricing;
  std::vector<std::uint8_t> basket;
  bcpop::Evaluation evaluation;
};

using Basket = std::vector<std::uint8_t>;

/// Backend counters accumulated since run() entry (the evaluator may be
/// external and carry history from earlier runs).
obs::JournalBackendStats backend_delta(const bcpop::BackendStats& now,
                                       const bcpop::BackendStats& start) {
  obs::JournalBackendStats d;
  d.relaxation_cache_hits =
      now.relaxation_cache_hits - start.relaxation_cache_hits;
  d.relaxation_cache_misses =
      now.relaxation_cache_misses - start.relaxation_cache_misses;
  d.relaxation_cache_evictions =
      now.relaxation_cache_evictions - start.relaxation_cache_evictions;
  d.heuristic_dedup_hits =
      now.heuristic_dedup_hits - start.heuristic_dedup_hits;
  d.score_cache_hits = now.score_cache_hits - start.score_cache_hits;
  d.score_cache_evictions =
      now.score_cache_evictions - start.score_cache_evictions;
  d.guard_trips = now.guard_trips - start.guard_trips;
  d.guard_degraded_evals =
      now.guard_degraded_evals - start.guard_degraded_evals;
  d.guard_budget_exhausted =
      now.guard_budget_exhausted - start.guard_budget_exhausted;
  d.lp_family_rebinds = now.lp_family_rebinds - start.lp_family_rebinds;
  d.lp_warm_start_rejects =
      now.lp_warm_start_rejects - start.lp_warm_start_rejects;
  d.lp_pool_hits = now.lp_pool_hits - start.lp_pool_hits;
  d.lp_pool_rejects = now.lp_pool_rejects - start.lp_pool_rejects;
  d.lp_pivots_saved = now.lp_pivots_saved - start.lp_pivots_saved;
  return d;
}

}  // namespace

namespace {

void validate_config(const CobraConfig& cfg) {
  if (cfg.ul_population_size < 2 || cfg.ll_population_size < 2) {
    throw std::invalid_argument("CobraSolver: population sizes must be >= 2");
  }
  if (cfg.upper_phase_generations < 1 || cfg.lower_phase_generations < 1) {
    throw std::invalid_argument("CobraSolver: phase generations must be >= 1");
  }
  if (cfg.checkpoint.every < 0) {
    throw std::invalid_argument("CobraSolver: checkpoint.every must be >= 0");
  }
  if (cfg.checkpoint.every > 0 && cfg.checkpoint.path.empty()) {
    throw std::invalid_argument(
        "CobraSolver: checkpoint.path required when checkpoint.every > 0");
  }
  guard::validate(cfg.guard);
}

}  // namespace

CobraSolver::CobraSolver(const bcpop::Instance& instance, CobraConfig config)
    : inst_(&instance), cfg_(std::move(config)) {
  validate_config(cfg_);
}

CobraSolver::CobraSolver(bcpop::EvaluatorInterface& evaluator,
                         CobraConfig config)
    : external_(&evaluator), cfg_(std::move(config)) {
  validate_config(cfg_);
}

core::RunResult CobraSolver::run() {
  if (external_ != nullptr) return run_with(*external_);
  // Two generations of UL pricing bases must fit, or mid-generation LRU
  // evictions reap the parents the rest of the batch is about to warm-
  // start from (see CarbonSolver::run for the full argument).
  const std::size_t pool_cap =
      std::max<std::size_t>(bcpop::BasisPool::kDefaultCapacity,
                            2 * cfg_.ul_population_size);
  bcpop::ParallelEvaluator eval(
      *inst_,
      bcpop::ParallelEvaluator::Options{.threads = cfg_.eval_threads,
                                        .lp_warm = cfg_.lp_warm,
                                        .basis_pool_capacity = pool_cap});
  return run_with(eval);
}

core::RunResult CobraSolver::run_with(bcpop::EvaluatorInterface& eval) {
  // Load (and fully validate) any resume checkpoint before touching solver
  // or telemetry state, so a bad file rejects with nothing applied.
  const bool resuming = !cfg_.checkpoint.resume_from.empty();
  core::CobraCheckpoint ck;
  if (resuming) {
    ck = core::CobraCheckpoint::load(cfg_.checkpoint.resume_from);
    if (ck.seed != cfg_.seed) {
      throw core::CheckpointError("checkpoint: seed mismatch (file " +
                                  std::to_string(ck.seed) + ", config " +
                                  std::to_string(cfg_.seed) + ")");
    }
    if (ck.ul_pop.size() != cfg_.ul_population_size ||
        ck.ll_pop.size() != cfg_.ll_population_size) {
      throw core::CheckpointError(
          "checkpoint: population shape does not match the configured run");
    }
  }

  common::Rng rng(cfg_.seed);
  const auto bounds = eval.price_bounds();
  const std::size_t num_bundles = eval.genome_length();
  long long ul_start = eval.ul_evaluations();
  long long ll_start = eval.ll_evaluations();

  // Telemetry is pure observation: nothing below reads it back, so the
  // trajectory is bit-identical whether or not sinks are attached.
  obs::MetricsRegistry* const metrics = cfg_.telemetry.metrics;
  obs::RunJournal* const journal = cfg_.telemetry.journal;
  if (metrics != nullptr) eval.set_metrics(metrics);
  bcpop::BackendStats backend_start = eval.backend_stats();
  if (journal != nullptr) {
    journal->begin_run("cobra", cfg_.seed, cfg_.eval_threads,
                       bcpop::to_string(cfg_.lp_warm), gp::simd::path_name());
  }

  // --- Initial populations (Algorithm 1 lines 1-3; skipped on resume: the
  // checkpoint carries the populations and the RNG state that already
  // consumed this entropy) ---
  std::vector<bcpop::Pricing> ul_pop;
  std::vector<Basket> ll_pop;
  if (!resuming) {
    for (std::size_t i = 0; i < cfg_.ul_population_size; ++i) {
      ul_pop.push_back(ea::random_real_vector(rng, bounds));
    }
    for (std::size_t i = 0; i < cfg_.ll_population_size; ++i) {
      ll_pop.push_back(
          ea::random_binary_vector(rng, num_bundles, cfg_.ll_init_density));
    }
  } else {
    ul_pop = std::move(ck.ul_pop);
    ll_pop = std::move(ck.ll_pop);
  }

  // Upper archive keyed by F (max); lower archive keyed by f (min) — the
  // paper extracts results from the lower archive.
  ea::Archive<ArchivedSolution> upper_archive(cfg_.ul_archive_size, true);
  ea::Archive<ArchivedSolution> lower_archive(cfg_.ll_archive_size, false);

  core::RunResult result;
  result.best_gap = std::numeric_limits<double>::infinity();
  result.best_ul_objective = -std::numeric_limits<double>::infinity();

  std::vector<double> ul_fitness(ul_pop.size(), 0.0);
  std::vector<double> ll_fitness(ll_pop.size(), 0.0);

  // Current champions used for pairing across levels.
  Basket paired_basket = ll_pop[0];
  bcpop::Pricing paired_pricing = ul_pop[0];

  int generation = 0;
  if (resuming) {
    rng.set_state(ck.progress.rng);
    generation = ck.progress.generation;
    // Budgets and backend counters continue from the checkpoint: offset the
    // fresh evaluator's cumulative counters by what the original run had
    // consumed, so `now - start` spans both run segments.
    ul_start = eval.ul_evaluations() - ck.progress.consumed_ul;
    ll_start = eval.ll_evaluations() - ck.progress.consumed_ll;
    backend_start.relaxation_cache_hits -=
        ck.progress.backend.relaxation_cache_hits;
    backend_start.relaxation_cache_misses -=
        ck.progress.backend.relaxation_cache_misses;
    backend_start.relaxation_cache_evictions -=
        ck.progress.backend.relaxation_cache_evictions;
    backend_start.heuristic_dedup_hits -=
        ck.progress.backend.heuristic_dedup_hits;
    backend_start.score_cache_hits -= ck.progress.backend.score_cache_hits;
    backend_start.score_cache_evictions -=
        ck.progress.backend.score_cache_evictions;
    backend_start.guard_trips -= ck.progress.backend.guard_trips;
    backend_start.guard_degraded_evals -=
        ck.progress.backend.guard_degraded_evals;
    backend_start.guard_budget_exhausted -=
        ck.progress.backend.guard_budget_exhausted;
    backend_start.lp_family_rebinds -= ck.progress.backend.lp_family_rebinds;
    backend_start.lp_warm_start_rejects -=
        ck.progress.backend.lp_warm_start_rejects;
    backend_start.lp_pool_hits -= ck.progress.backend.lp_pool_hits;
    backend_start.lp_pool_rejects -= ck.progress.backend.lp_pool_rejects;
    backend_start.lp_pivots_saved -= ck.progress.backend.lp_pivots_saved;
    result = std::move(ck.progress.result);
    // Drop any cache state the (possibly reused) evaluator accumulated
    // before this resume: entries warmed by a different run segment — e.g.
    // under other guard limits or toggles — must not leak into the resumed
    // trajectory. Counters survive; the offsets above rely on them.
    eval.clear_caches();
    // Archives are stored best-first; re-adding in that order reproduces
    // the exact internal ordering (ties keep insertion order).
    for (core::ArchivedPairState& e : ck.upper_archive) {
      upper_archive.add(
          {std::move(e.pricing), std::move(e.basket), std::move(e.evaluation)},
          e.fitness);
    }
    for (core::ArchivedPairState& e : ck.lower_archive) {
      lower_archive.add(
          {std::move(e.pricing), std::move(e.basket), std::move(e.evaluation)},
          e.fitness);
    }
    paired_pricing = std::move(ck.paired_pricing);
    paired_basket = std::move(ck.paired_basket);
    if (journal != nullptr) {
      obs::ResumeRecord rec;
      rec.generation = generation;
      rec.ul_evals = ck.progress.consumed_ul;
      rec.ll_evals = ck.progress.consumed_ll;
      rec.checkpoint_path = cfg_.checkpoint.resume_from;
      journal->write_resume(rec);
    }
  }

  // Guard budgets + injection countdown. ll_start is the evaluator counter
  // reading at run-evaluation #0 (already offset by the resumed segment's
  // consumption), so an injection ordinal counts evaluations of the WHOLE
  // logical run: a trip injected before the checkpoint never re-fires after
  // resume, and one injected after it fires exactly once, at the same
  // evaluation as in the uninterrupted run.
  eval.set_guard(cfg_.guard, ll_start);

  const auto write_checkpoint = [&] {
    core::CobraCheckpoint out;
    out.seed = cfg_.seed;
    out.progress.rng = rng.state();
    out.progress.generation = generation;
    out.progress.consumed_ul = eval.ul_evaluations() - ul_start;
    out.progress.consumed_ll = eval.ll_evaluations() - ll_start;
    out.progress.backend = backend_delta(eval.backend_stats(), backend_start);
    out.progress.result = result;
    out.ul_pop = ul_pop;
    out.ll_pop = ll_pop;
    for (const auto& e : upper_archive.entries()) {
      out.upper_archive.push_back(
          {e.item.pricing, e.item.basket, e.item.evaluation, e.fitness});
    }
    for (const auto& e : lower_archive.entries()) {
      out.lower_archive.push_back(
          {e.item.pricing, e.item.basket, e.item.evaluation, e.fitness});
    }
    out.paired_pricing = paired_pricing;
    out.paired_basket = paired_basket;
    out.save(cfg_.checkpoint.path);
  };
  long long next_checkpoint =
      cfg_.checkpoint.every > 0 ? generation + cfg_.checkpoint.every : 0;

  const auto note_solution = [&](const bcpop::Pricing& x, const Basket& y,
                                 const bcpop::Evaluation& e) {
    upper_archive.add({x, y, e}, e.ul_objective);
    lower_archive.add({x, y, e}, e.ll_objective);
    if (e.ll_feasible) {
      result.best_gap = std::min(result.best_gap, e.gap_percent);
      if (e.ul_objective > result.best_ul_objective) {
        result.best_ul_objective = e.ul_objective;
        result.best_pricing = x;
        result.best_evaluation = e;
      }
    }
  };

  const auto budget_left = [&] {
    return eval.ul_evaluations() - ul_start < cfg_.ul_eval_budget &&
           eval.ll_evaluations() - ll_start < cfg_.ll_eval_budget;
  };

  const auto record = [&](int gen, const char* phase,
                          const common::RunningStats& uls,
                          const common::RunningStats& gaps) {
    if (cfg_.record_convergence) {
      core::ConvergencePoint pt;
      pt.generation = gen;
      pt.ul_evaluations = eval.ul_evaluations() - ul_start;
      pt.ll_evaluations = eval.ll_evaluations() - ll_start;
      pt.best_ul_so_far = result.best_ul_objective;
      pt.best_gap_so_far = result.best_gap;
      pt.current_best_ul = uls.max();
      pt.current_mean_gap = gaps.mean();
      pt.phase = phase;
      result.convergence.push_back(std::move(pt));
    }
    if (journal != nullptr) {
      obs::GenerationRecord rec;
      rec.generation = gen;
      rec.phase = phase;
      rec.best_ul = uls.max();
      rec.mean_ul = uls.mean();
      rec.std_ul = uls.stddev();
      rec.best_gap = gaps.min();
      rec.mean_gap = gaps.mean();
      rec.std_gap = gaps.stddev();
      rec.best_ul_so_far = result.best_ul_objective;
      rec.best_gap_so_far = result.best_gap;
      rec.archive_size = upper_archive.size();
      rec.ll_archive_size = lower_archive.size();
      rec.ul_evals = eval.ul_evaluations() - ul_start;
      rec.ll_evals = eval.ll_evaluations() - ll_start;
      rec.backend = backend_delta(eval.backend_stats(), backend_start);
      journal->write_generation(rec);
    }
  };

  while (budget_left()) {
    // ================= Upper improvement phase =================
    for (int g = 0; g < cfg_.upper_phase_generations && budget_left(); ++g) {
      common::RunningStats uls;
      common::RunningStats gaps;
      std::vector<bcpop::SelectionJob> jobs;
      jobs.reserve(ul_pop.size());
      for (const bcpop::Pricing& x : ul_pop) {
        jobs.push_back({x, paired_basket, bcpop::EvalPurpose::kBoth});
      }
      obs::ScopedTimer batch_timer(metrics, "time/eval_batch");
      std::vector<bcpop::Evaluation> evals =
          eval.evaluate_selection_batch(jobs);
      batch_timer.stop();
      for (std::size_t i = 0; i < ul_pop.size(); ++i) {
        const bcpop::Evaluation& e = evals[i];
        ul_fitness[i] = e.ul_objective;
        uls.add(e.ul_objective);
        gaps.add(e.gap_percent);
        note_solution(ul_pop[i], paired_basket, e);
      }
      record(generation, "upper", uls, gaps);
      ++generation;

      // Selection + variation (same GA as CARBON's upper level).
      std::vector<bcpop::Pricing> next;
      next.reserve(ul_pop.size());
      while (next.size() < ul_pop.size()) {
        obs::ScopedTimer sel_timer(metrics, "time/selection");
        const std::size_t ia = ea::binary_tournament(rng, ul_fitness, true);
        const std::size_t ib = ea::binary_tournament(rng, ul_fitness, true);
        sel_timer.stop();
        bcpop::Pricing a = ul_pop[ia];
        bcpop::Pricing b = ul_pop[ib];
        obs::ScopedTimer var_timer(metrics, "time/variation");
        if (rng.chance(cfg_.ul_crossover_prob)) {
          ea::sbx_crossover(rng, a, b, bounds, cfg_.sbx);
        }
        if (rng.chance(cfg_.ul_mutation_prob)) {
          ea::polynomial_mutation(rng, a, bounds, cfg_.mutation);
        }
        if (rng.chance(cfg_.ul_mutation_prob)) {
          ea::polynomial_mutation(rng, b, bounds, cfg_.mutation);
        }
        var_timer.stop();
        next.push_back(std::move(a));
        if (next.size() < ul_pop.size()) next.push_back(std::move(b));
      }
      ul_pop = std::move(next);
    }
    // Champion pricing for the lower phase.
    if (!upper_archive.empty()) {
      paired_pricing = upper_archive.best().item.pricing;
    }

    // ================= Lower improvement phase =================
    for (int g = 0; g < cfg_.lower_phase_generations && budget_left(); ++g) {
      common::RunningStats uls;
      common::RunningStats gaps;
      std::vector<bcpop::SelectionJob> jobs;
      jobs.reserve(ll_pop.size());
      for (const Basket& y : ll_pop) {
        jobs.push_back({paired_pricing, y, bcpop::EvalPurpose::kBoth});
      }
      obs::ScopedTimer batch_timer(metrics, "time/eval_batch");
      std::vector<bcpop::Evaluation> evals =
          eval.evaluate_selection_batch(jobs);
      batch_timer.stop();
      for (std::size_t i = 0; i < ll_pop.size(); ++i) {
        const bcpop::Evaluation& e = evals[i];
        ll_fitness[i] = e.ll_objective;  // minimize customer cost
        uls.add(e.ul_objective);
        gaps.add(e.gap_percent);
        note_solution(paired_pricing, ll_pop[i], e);
      }
      record(generation, "lower", uls, gaps);
      ++generation;

      std::vector<Basket> next;
      next.reserve(ll_pop.size());
      while (next.size() < ll_pop.size()) {
        obs::ScopedTimer sel_timer(metrics, "time/selection");
        const std::size_t ia = ea::binary_tournament(rng, ll_fitness, false);
        const std::size_t ib = ea::binary_tournament(rng, ll_fitness, false);
        sel_timer.stop();
        Basket a = ll_pop[ia];
        Basket b = ll_pop[ib];
        obs::ScopedTimer var_timer(metrics, "time/variation");
        if (rng.chance(cfg_.ll_crossover_prob)) {
          ea::two_point_crossover(rng, a, b);
        }
        ea::swap_mutation(rng, a, cfg_.ll_mutation_prob);
        ea::swap_mutation(rng, b, cfg_.ll_mutation_prob);
        var_timer.stop();
        next.push_back(std::move(a));
        if (next.size() < ll_pop.size()) next.push_back(std::move(b));
      }
      ll_pop = std::move(next);
    }
    // Champion basket for the next upper phase.
    if (!lower_archive.empty()) {
      paired_basket = lower_archive.best().item.basket;
    }

    // ================= Coevolution operator =================
    // Kept serial: the legacy loop re-checks budget_left() between
    // individual pairs, which a batch cannot replicate for an arbitrary
    // evaluator; the operator is only ~coevolution_pairs evals per round.
    if (budget_left()) {
      common::RunningStats uls;
      common::RunningStats gaps;
      for (std::size_t p = 0; p < cfg_.coevolution_pairs && budget_left();
           ++p) {
        const bcpop::Pricing& x = ul_pop[rng.below(ul_pop.size())];
        const Basket& y = ll_pop[rng.below(ll_pop.size())];
        obs::ScopedTimer pair_timer(metrics, "time/eval_batch");
        const bcpop::Evaluation e = eval.evaluate_with_selection(x, y);
        pair_timer.stop();
        uls.add(e.ul_objective);
        gaps.add(e.gap_percent);
        note_solution(x, y, e);
      }
      record(generation, "coevolution", uls, gaps);
      ++generation;
    }

    // ================= Archive re-injection (line 9) =================
    const std::size_t ru =
        std::min({cfg_.archive_reinjection, upper_archive.size(),
                  ul_pop.size()});
    for (std::size_t r = 0; r < ru; ++r) {
      ul_pop[ul_pop.size() - 1 - r] = upper_archive.at(r).item.pricing;
    }
    const std::size_t rl =
        std::min({cfg_.archive_reinjection, lower_archive.size(),
                  ll_pop.size()});
    for (std::size_t r = 0; r < rl; ++r) {
      ll_pop[ll_pop.size() - 1 - r] = lower_archive.at(r).item.basket;
    }

    // Checkpoint at the outer-round boundary: populations, archives, paired
    // champions, RNG and counters now fully determine the rest of the run.
    if (cfg_.checkpoint.every > 0 && generation >= next_checkpoint) {
      write_checkpoint();
      next_checkpoint = generation + cfg_.checkpoint.every;
      if (cfg_.checkpoint.stop_after_checkpoint &&
          cfg_.checkpoint.stop_after_checkpoint(generation)) {
        // Simulated preemption (fault-injection tests): everything after
        // the write is exactly what a real crash would lose.
        break;
      }
    }
  }

  result.generations = generation;
  result.ul_evaluations = eval.ul_evaluations() - ul_start;
  result.ll_evaluations = eval.ll_evaluations() - ll_start;
  if (!std::isfinite(result.best_ul_objective)) result.best_ul_objective = 0.0;
  if (!std::isfinite(result.best_gap)) result.best_gap = 1e9;
  if (journal != nullptr) {
    obs::RunSummary summary;
    summary.generations = result.generations;
    summary.ul_evals = result.ul_evaluations;
    summary.ll_evals = result.ll_evaluations;
    summary.best_ul = result.best_ul_objective;
    summary.best_gap = result.best_gap;
    summary.backend = backend_delta(eval.backend_stats(), backend_start);
    journal->finish_run(summary);
  }
  return result;
}

}  // namespace carbon::cobra
