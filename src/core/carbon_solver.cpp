#include "carbon/core/carbon_solver.hpp"

#include <algorithm>
#include <optional>
#include <stdexcept>

#include "carbon/common/statistics.hpp"
#include "carbon/core/run_shell.hpp"
#include "carbon/ea/archive.hpp"
#include "carbon/gp/generate.hpp"
#include "carbon/gp/population_stats.hpp"

namespace carbon::core {

namespace {

/// A complete bi-level solution held in the archive.
struct ArchivedSolution {
  bcpop::Pricing pricing;
  bcpop::Evaluation evaluation;
};

void validate_config(const CarbonConfig& cfg) {
  if (cfg.ul_population_size < 2 || cfg.gp_population_size < 2) {
    throw std::invalid_argument("CarbonSolver: population sizes must be >= 2");
  }
  if (cfg.heuristic_sample_size < 1) {
    throw std::invalid_argument("CarbonSolver: heuristic_sample_size >= 1");
  }
  validate_run_config("CarbonSolver", cfg.checkpoint, cfg.guard);
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
  bcpop::ParallelEvaluator eval(*inst_, owned_evaluator_options(cfg_));
  eval.set_polish(cfg_.memetic_polish);
  return run_with(eval);
}

CarbonResult CarbonSolver::run_with(bcpop::EvaluatorInterface& eval) {
  std::optional<CarbonCheckpoint> ck =
      load_resume<CarbonCheckpoint>(cfg_, [&](const CarbonCheckpoint& c) {
        return c.ul_pop.size() == cfg_.ul_population_size &&
               c.gp_pop.size() == cfg_.gp_population_size;
      });

  common::Rng rng(cfg_.seed);
  const auto bounds = eval.price_bounds();
  obs::MetricsRegistry* const metrics = cfg_.telemetry.metrics;
  CarbonResult result;
  RunShell shell("carbon", cfg_, eval, rng, result,
                 ck ? &ck->progress : nullptr);

  ea::Archive<ArchivedSolution> solution_archive(cfg_.ul_archive_size,
                                                 /*maximize=*/true);
  ea::Archive<gp::Tree> heuristic_archive(cfg_.gp_archive_size,
                                          /*maximize=*/false);
  std::vector<bcpop::Pricing> ul_pop;
  std::vector<gp::Tree> gp_pop;
  if (!ck) {
    // --- Initial populations (a resumed run's RNG state already consumed
    // this entropy) ---
    ul_pop.reserve(cfg_.ul_population_size);
    gp_pop.reserve(cfg_.gp_population_size);
    for (std::size_t i = 0; i < cfg_.ul_population_size; ++i) {
      ul_pop.push_back(ea::random_real_vector(rng, bounds));
    }
    for (std::size_t i = 0; i < cfg_.gp_population_size; ++i) {
      gp_pop.push_back(gp::generate_ramped(rng, cfg_.gp_ops.generate));
    }
  } else {
    ul_pop = std::move(ck->ul_pop);
    gp_pop = std::move(ck->gp_pop);
    // Archives are stored best-first; re-adding in that order reproduces
    // the exact internal ordering (ties keep insertion order).
    for (ArchivedPricingState& e : ck->solution_archive) {
      solution_archive.add({std::move(e.pricing), std::move(e.evaluation)},
                           e.fitness);
    }
    for (ArchivedHeuristicState& e : ck->heuristic_archive) {
      heuristic_archive.add(std::move(e.tree), e.fitness);
    }
  }

  std::vector<double> ul_fitness(cfg_.ul_population_size, 0.0);
  std::vector<double> gp_fitness(cfg_.gp_population_size, 0.0);

  const auto write_checkpoint = [&](SolverProgress progress) {
    CarbonCheckpoint out;
    out.seed = cfg_.seed;
    out.progress = std::move(progress);
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

  while (shell.budget_left()) {
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

    // ---- 4. Convergence trace and journal ----
    // The journal's gap statistics are the predator-population fitness: the
    // mean %-gap per heuristic under the paper's default (raw LL value under
    // the kValue ablation).
    common::RunningStats ul_stats;
    for (const double f : ul_fitness) ul_stats.add(f);
    if (ConvergencePoint* pt =
            shell.record("carbon", ul_stats, generation_gap,
                         solution_archive.size(), heuristic_archive.size())) {
      const gp::PopulationStats pop_stats = gp::analyze_population(gp_pop);
      pt->gp_unique_fraction =
          static_cast<double>(pop_stats.unique_structures) /
          static_cast<double>(std::max<std::size_t>(1, pop_stats.population));
      pt->gp_mean_tree_size = pop_stats.mean_size;
    }

    // ---- 5. Breed prey (GA: tournament + SBX + polynomial mutation), then
    //         elitist re-injection from the archive (Algorithm 1 line 9
    //         analogue) ----
    ul_pop = breed_pricings(rng, ul_pop, ul_fitness, bounds,
                            UpperVariation::of(cfg_), metrics);
    const std::size_t reinject =
        std::min(cfg_.archive_reinjection, solution_archive.size());
    for (std::size_t r = 0; r < reinject && r < ul_pop.size(); ++r) {
      ul_pop[ul_pop.size() - 1 - r] = solution_archive.at(r).item.pricing;
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

    // Checkpoint at the generation boundary: populations, archives, RNG and
    // counters now fully determine the rest of the run.
    if (shell.checkpoint(write_checkpoint)) break;
  }

  if (!heuristic_archive.empty()) {
    result.best_heuristic = heuristic_archive.best().item;
    result.best_heuristic_gap = heuristic_archive.best().fitness;
  }
  shell.finish();
  return result;
}

}  // namespace carbon::core
