#include "carbon/core/carbon_solver.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "carbon/bcpop/parallel_evaluator.hpp"
#include "carbon/common/statistics.hpp"
#include "carbon/core/checkpoint.hpp"
#include "carbon/ea/archive.hpp"
#include "carbon/gp/generate.hpp"
#include "carbon/gp/population_stats.hpp"
#include "carbon/gp/simd.hpp"

namespace carbon::core {

namespace {

/// A complete bi-level solution held in the archive.
struct ArchivedSolution {
  bcpop::Pricing pricing;
  bcpop::Evaluation evaluation;
};

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

void validate_config(const CarbonConfig& cfg) {
  if (cfg.ul_population_size < 2 || cfg.gp_population_size < 2) {
    throw std::invalid_argument("CarbonSolver: population sizes must be >= 2");
  }
  if (cfg.heuristic_sample_size < 1) {
    throw std::invalid_argument("CarbonSolver: heuristic_sample_size >= 1");
  }
  if (cfg.checkpoint.every < 0) {
    throw std::invalid_argument("CarbonSolver: checkpoint.every must be >= 0");
  }
  if (cfg.checkpoint.every > 0 && cfg.checkpoint.path.empty()) {
    throw std::invalid_argument(
        "CarbonSolver: checkpoint.path required when checkpoint.every > 0");
  }
  guard::validate(cfg.guard);
}

}  // namespace

CarbonSolver::CarbonSolver(const bcpop::Instance& instance,
                           CarbonConfig config)
    : inst_(&instance), cfg_(std::move(config)) {
  validate_config(cfg_);
}

CarbonSolver::CarbonSolver(bcpop::EvaluatorInterface& evaluator,
                           CarbonConfig config)
    : external_(&evaluator), cfg_(std::move(config)) {
  validate_config(cfg_);
}

CarbonResult CarbonSolver::run() {
  if (external_ != nullptr) return run_with(*external_);
  // The pool must hold at least two generations of the UL population's
  // bases: with fewer slots the LRU evicts the not-yet-re-evaluated
  // members' parent bases mid-generation (their last touch is a whole
  // generation old), and every such member falls back to a far-away
  // cousin basis instead of its own lineage.
  const std::size_t pool_cap =
      std::max<std::size_t>(bcpop::BasisPool::kDefaultCapacity,
                            2 * cfg_.ul_population_size);
  bcpop::ParallelEvaluator eval(
      *inst_,
      bcpop::ParallelEvaluator::Options{.threads = cfg_.eval_threads,
                                        .lp_warm = cfg_.lp_warm,
                                        .basis_pool_capacity = pool_cap});
  eval.set_polish(cfg_.memetic_polish);
  return run_with(eval);
}

CarbonResult CarbonSolver::run_with(bcpop::EvaluatorInterface& eval) {
  // Load (and fully validate) any resume checkpoint before touching solver
  // or telemetry state, so a bad file rejects with nothing applied.
  const bool resuming = !cfg_.checkpoint.resume_from.empty();
  CarbonCheckpoint ck;
  if (resuming) {
    ck = CarbonCheckpoint::load(cfg_.checkpoint.resume_from);
    if (ck.seed != cfg_.seed) {
      throw CheckpointError("checkpoint: seed mismatch (file " +
                            std::to_string(ck.seed) + ", config " +
                            std::to_string(cfg_.seed) + ")");
    }
    if (ck.ul_pop.size() != cfg_.ul_population_size ||
        ck.gp_pop.size() != cfg_.gp_population_size) {
      throw CheckpointError(
          "checkpoint: population shape does not match the configured run");
    }
  }

  common::Rng rng(cfg_.seed);
  const auto bounds = eval.price_bounds();
  long long ul_start = eval.ul_evaluations();
  long long ll_start = eval.ll_evaluations();

  // Telemetry is pure observation: nothing below reads it back, so the
  // trajectory is bit-identical whether or not sinks are attached.
  obs::MetricsRegistry* const metrics = cfg_.telemetry.metrics;
  obs::RunJournal* const journal = cfg_.telemetry.journal;
  if (metrics != nullptr) eval.set_metrics(metrics);
  bcpop::BackendStats backend_start = eval.backend_stats();
  if (journal != nullptr) {
    journal->begin_run("carbon", cfg_.seed, cfg_.eval_threads,
                       bcpop::to_string(cfg_.lp_warm), gp::simd::path_name());
  }

  // --- Initial populations (skipped on resume: the checkpoint carries the
  // populations and the RNG state that already consumed this entropy) ---
  std::vector<bcpop::Pricing> ul_pop;
  ul_pop.reserve(cfg_.ul_population_size);
  std::vector<gp::Tree> gp_pop;
  gp_pop.reserve(cfg_.gp_population_size);
  if (!resuming) {
    for (std::size_t i = 0; i < cfg_.ul_population_size; ++i) {
      ul_pop.push_back(ea::random_real_vector(rng, bounds));
    }
    for (std::size_t i = 0; i < cfg_.gp_population_size; ++i) {
      gp_pop.push_back(gp::generate_ramped(rng, cfg_.gp_ops.generate));
    }
  }

  ea::Archive<ArchivedSolution> solution_archive(cfg_.ul_archive_size,
                                                 /*maximize=*/true);
  ea::Archive<gp::Tree> heuristic_archive(cfg_.gp_archive_size,
                                          /*maximize=*/false);

  CarbonResult result;
  result.best_gap = std::numeric_limits<double>::infinity();
  result.best_ul_objective = -std::numeric_limits<double>::infinity();

  std::vector<double> ul_fitness(cfg_.ul_population_size, 0.0);
  std::vector<double> gp_fitness(cfg_.gp_population_size, 0.0);

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
    static_cast<RunResult&>(result) = std::move(ck.progress.result);
    // Drop any cache state the (possibly reused) evaluator accumulated
    // before this resume: entries warmed by a different run segment — e.g.
    // under other guard limits or toggles — must not leak into the resumed
    // trajectory. Counters survive; the offsets above rely on them.
    eval.clear_caches();
    ul_pop = std::move(ck.ul_pop);
    gp_pop = std::move(ck.gp_pop);
    // Archives are stored best-first; re-adding in that order reproduces
    // the exact internal ordering (ties keep insertion order).
    for (ArchivedPricingState& e : ck.solution_archive) {
      solution_archive.add({std::move(e.pricing), std::move(e.evaluation)},
                           e.fitness);
    }
    for (ArchivedHeuristicState& e : ck.heuristic_archive) {
      heuristic_archive.add(std::move(e.tree), e.fitness);
    }
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
  // logical run: one that fired before the checkpoint lands below the
  // current counter and never re-fires, and a degraded-then-resumed run is
  // bit-identical to an uninterrupted one.
  eval.set_guard(cfg_.guard, ll_start);

  const auto write_checkpoint = [&] {
    CarbonCheckpoint out;
    out.seed = cfg_.seed;
    out.progress.rng = rng.state();
    out.progress.generation = generation;
    out.progress.consumed_ul = eval.ul_evaluations() - ul_start;
    out.progress.consumed_ll = eval.ll_evaluations() - ll_start;
    out.progress.backend = backend_delta(eval.backend_stats(), backend_start);
    out.progress.result = static_cast<const RunResult&>(result);
    out.ul_pop = ul_pop;
    out.gp_pop = gp_pop;
    for (const auto& e : solution_archive.entries()) {
      out.solution_archive.push_back(
          {e.item.pricing, e.item.evaluation, e.fitness});
    }
    for (const auto& e : heuristic_archive.entries()) {
      out.heuristic_archive.push_back({e.item, e.fitness});
    }
    out.save(cfg_.checkpoint.path);
  };
  long long next_checkpoint =
      cfg_.checkpoint.every > 0 ? generation + cfg_.checkpoint.every : 0;
  while (eval.ul_evaluations() - ul_start < cfg_.ul_eval_budget &&
         eval.ll_evaluations() - ll_start < cfg_.ll_eval_budget) {
    // ---- 1. Competition sample: pricings the predators must solve well ----
    std::vector<const bcpop::Pricing*> sample;
    sample.reserve(cfg_.heuristic_sample_size);
    for (std::size_t s = 0; s < cfg_.heuristic_sample_size; ++s) {
      // Mix current prey with archived elites once the archive has content.
      if (!solution_archive.empty() && rng.chance(0.3)) {
        sample.push_back(&solution_archive.sample(rng).item.pricing);
      } else {
        sample.push_back(&ul_pop[rng.below(ul_pop.size())]);
      }
    }

    // ---- 2. Predator evaluation: mean %-gap over the sample ----
    // One batch of (heuristic × sample pricing) jobs; the evaluator may fan
    // them across threads. Reduction walks the results in submission order,
    // so fitness, archive updates and the champion choice are bit-identical
    // to the serial loop.
    common::RunningStats generation_gap;
    {
      std::vector<bcpop::HeuristicJob> jobs;
      jobs.reserve(gp_pop.size() * sample.size());
      for (std::size_t h = 0; h < gp_pop.size(); ++h) {
        for (const bcpop::Pricing* x : sample) {
          jobs.push_back(
              {*x, &gp_pop[h], bcpop::EvalPurpose::kLowerOnly});
        }
      }
      obs::ScopedTimer timer(metrics, "time/eval_batch");
      const std::vector<bcpop::Evaluation> evals =
          eval.evaluate_heuristic_batch(jobs);
      timer.stop();
      for (std::size_t h = 0; h < gp_pop.size(); ++h) {
        common::RunningStats gaps;
        for (std::size_t s = 0; s < sample.size(); ++s) {
          const bcpop::Evaluation& e = evals[h * sample.size() + s];
          gaps.add(cfg_.predator_fitness == PredatorFitness::kGap
                       ? e.gap_percent
                       : e.ll_objective);
        }
        gp_fitness[h] = gaps.mean();
        generation_gap.add(gp_fitness[h]);
        heuristic_archive.add(gp_pop[h], gp_fitness[h]);
      }
    }
    const std::size_t champion_idx = static_cast<std::size_t>(
        std::min_element(gp_fitness.begin(), gp_fitness.end()) -
        gp_fitness.begin());
    // The follower model: the best heuristic known overall (archive head).
    const gp::Tree& follower_model = heuristic_archive.best().item;

    // ---- 3. Prey evaluation: leader revenue under the follower model ----
    // Optimistic stance: the single best model speaks for the follower.
    // Pessimistic stance: consult the top-E archived models and keep the
    // least favourable revenue (paper §II's pessimistic position).
    const std::size_t ensemble =
        cfg_.stance == Stance::kPessimistic
            ? std::max<std::size_t>(
                  1, std::min(cfg_.follower_ensemble,
                              heuristic_archive.size()))
            : 1;
    double current_best_ul = -std::numeric_limits<double>::infinity();
    std::vector<bcpop::HeuristicJob> prey_jobs;
    prey_jobs.reserve(ul_pop.size() * ensemble);
    for (std::size_t i = 0; i < ul_pop.size(); ++i) {
      prey_jobs.push_back(
          {ul_pop[i], &follower_model, bcpop::EvalPurpose::kBoth});
      // Ensemble alternates consume the leader revenue they compute (the
      // pessimistic min below), so they are full bi-level evaluations and
      // charge the UL budget — kLowerOnly here would obtain F without
      // paying for it (the Table II accounting bug).
      for (std::size_t h = 1; h < ensemble; ++h) {
        prey_jobs.push_back({ul_pop[i], &heuristic_archive.at(h).item,
                             bcpop::EvalPurpose::kBoth});
      }
    }
    obs::ScopedTimer prey_timer(metrics, "time/eval_batch");
    std::vector<bcpop::Evaluation> prey_evals =
        eval.evaluate_heuristic_batch(prey_jobs);
    prey_timer.stop();
    for (std::size_t i = 0; i < ul_pop.size(); ++i) {
      bcpop::Evaluation e = std::move(prey_evals[i * ensemble]);
      for (std::size_t h = 1; h < ensemble; ++h) {
        bcpop::Evaluation& alt = prey_evals[i * ensemble + h];
        if (alt.ll_feasible && alt.ul_objective < e.ul_objective) {
          e = std::move(alt);
        }
      }
      ul_fitness[i] = e.ul_objective;
      current_best_ul = std::max(current_best_ul, e.ul_objective);
      if (e.ll_feasible) {
        result.best_gap = std::min(result.best_gap, e.gap_percent);
        if (e.ul_objective > result.best_ul_objective) {
          result.best_ul_objective = e.ul_objective;
          result.best_pricing = ul_pop[i];
          result.best_evaluation = e;
        }
      }
      solution_archive.add({ul_pop[i], std::move(e)}, ul_fitness[i]);
    }

    // ---- 4. Convergence trace ----
    if (cfg_.record_convergence) {
      ConvergencePoint pt;
      pt.generation = generation;
      pt.ul_evaluations = eval.ul_evaluations() - ul_start;
      pt.ll_evaluations = eval.ll_evaluations() - ll_start;
      pt.best_ul_so_far = result.best_ul_objective;
      pt.best_gap_so_far = result.best_gap;
      pt.current_best_ul = current_best_ul;
      pt.current_mean_gap = generation_gap.mean();
      const gp::PopulationStats pop_stats = gp::analyze_population(gp_pop);
      pt.gp_unique_fraction =
          static_cast<double>(pop_stats.unique_structures) /
          static_cast<double>(std::max<std::size_t>(1, pop_stats.population));
      pt.gp_mean_tree_size = pop_stats.mean_size;
      pt.phase = "carbon";
      result.convergence.push_back(std::move(pt));
    }
    if (journal != nullptr) {
      common::RunningStats ul_stats;
      for (const double f : ul_fitness) ul_stats.add(f);
      obs::GenerationRecord rec;
      rec.generation = generation;
      rec.phase = "carbon";
      rec.best_ul = ul_stats.max();
      rec.mean_ul = ul_stats.mean();
      rec.std_ul = ul_stats.stddev();
      // Predator-population fitness: the mean %-gap per heuristic under the
      // paper's default (raw LL value under the kValue ablation).
      rec.best_gap = generation_gap.min();
      rec.mean_gap = generation_gap.mean();
      rec.std_gap = generation_gap.stddev();
      rec.best_ul_so_far = result.best_ul_objective;
      rec.best_gap_so_far = result.best_gap;
      rec.archive_size = solution_archive.size();
      rec.ll_archive_size = heuristic_archive.size();
      rec.ul_evals = eval.ul_evaluations() - ul_start;
      rec.ll_evals = eval.ll_evaluations() - ll_start;
      rec.backend = backend_delta(eval.backend_stats(), backend_start);
      journal->write_generation(rec);
    }

    // ---- 5. Breed prey (GA: tournament + SBX + polynomial mutation) ----
    {
      std::vector<bcpop::Pricing> next;
      next.reserve(ul_pop.size());
      while (next.size() < ul_pop.size()) {
        obs::ScopedTimer sel_timer(metrics, "time/selection");
        const std::size_t ia =
            ea::binary_tournament(rng, ul_fitness, /*maximize=*/true);
        const std::size_t ib =
            ea::binary_tournament(rng, ul_fitness, /*maximize=*/true);
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
      // Elitist re-injection from the archive (Algorithm 1 line 9 analogue).
      const std::size_t reinject =
          std::min(cfg_.archive_reinjection, solution_archive.size());
      for (std::size_t r = 0; r < reinject && r < next.size(); ++r) {
        next[next.size() - 1 - r] = solution_archive.at(r).item.pricing;
      }
      ul_pop = std::move(next);
    }

    // ---- 6. Breed predators (GP: tournament + subtree xover + mutation +
    //         reproduction) ----
    {
      std::vector<gp::Tree> next;
      next.reserve(gp_pop.size());
      // Elitism: keep the champion so the follower model never regresses.
      next.push_back(gp_pop[champion_idx]);
      while (next.size() < gp_pop.size()) {
        const double op = rng.uniform();
        if (op < cfg_.gp_reproduction_prob) {
          obs::ScopedTimer sel_timer(metrics, "time/selection");
          const std::size_t i = ea::tournament_select(
              rng, gp_fitness, cfg_.gp_tournament_size, /*maximize=*/false);
          sel_timer.stop();
          next.push_back(gp_pop[i]);
        } else if (op < cfg_.gp_reproduction_prob + cfg_.gp_crossover_prob) {
          obs::ScopedTimer sel_timer(metrics, "time/selection");
          const std::size_t ia = ea::tournament_select(
              rng, gp_fitness, cfg_.gp_tournament_size, /*maximize=*/false);
          const std::size_t ib = ea::tournament_select(
              rng, gp_fitness, cfg_.gp_tournament_size, /*maximize=*/false);
          sel_timer.stop();
          obs::ScopedTimer var_timer(metrics, "time/variation");
          auto [ca, cb] =
              gp::subtree_crossover(rng, gp_pop[ia], gp_pop[ib], cfg_.gp_ops);
          var_timer.stop();
          next.push_back(std::move(ca));
          if (next.size() < gp_pop.size()) next.push_back(std::move(cb));
        } else {
          obs::ScopedTimer sel_timer(metrics, "time/selection");
          const std::size_t i = ea::tournament_select(
              rng, gp_fitness, cfg_.gp_tournament_size, /*maximize=*/false);
          sel_timer.stop();
          obs::ScopedTimer var_timer(metrics, "time/variation");
          gp::Tree mutant = gp::uniform_mutation(rng, gp_pop[i], cfg_.gp_ops);
          var_timer.stop();
          next.push_back(std::move(mutant));
        }
      }
      // Independent mutation sweep at the configured rate.
      for (std::size_t i = 1; i < next.size(); ++i) {
        if (rng.chance(cfg_.gp_mutation_prob)) {
          obs::ScopedTimer var_timer(metrics, "time/variation");
          next[i] = gp::uniform_mutation(rng, next[i], cfg_.gp_ops);
        }
      }
      gp_pop = std::move(next);
    }

    ++generation;

    // Checkpoint at the generation boundary: populations, archives, RNG and
    // counters now fully determine the rest of the run.
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
  if (!heuristic_archive.empty()) {
    result.best_heuristic = heuristic_archive.best().item;
    result.best_heuristic_gap = heuristic_archive.best().fitness;
  }
  if (!std::isfinite(result.best_ul_objective)) {
    result.best_ul_objective = 0.0;  // nothing feasible was found
  }
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

}  // namespace carbon::core
