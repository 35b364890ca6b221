#include "carbon/cobra/cobra_solver.hpp"

#include <algorithm>
#include <optional>
#include <stdexcept>

#include "carbon/common/statistics.hpp"
#include "carbon/core/run_shell.hpp"
#include "carbon/ea/archive.hpp"

namespace carbon::cobra {

namespace {

struct ArchivedSolution {
  bcpop::Pricing pricing;
  std::vector<std::uint8_t> basket;
  bcpop::Evaluation evaluation;
};

using Basket = std::vector<std::uint8_t>;

void validate_config(const CobraConfig& cfg) {
  if (cfg.ul_population_size < 2 || cfg.ll_population_size < 2) {
    throw std::invalid_argument("CobraSolver: population sizes must be >= 2");
  }
  if (cfg.upper_phase_generations < 1 || cfg.lower_phase_generations < 1) {
    throw std::invalid_argument("CobraSolver: phase generations must be >= 1");
  }
  core::validate_run_config("CobraSolver", cfg.checkpoint, cfg.guard);
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
  bcpop::ParallelEvaluator eval(*inst_, core::owned_evaluator_options(cfg_));
  return run_with(eval);
}

core::RunResult CobraSolver::run_with(bcpop::EvaluatorInterface& eval) {
  std::optional<core::CobraCheckpoint> ck = core::load_resume<
      core::CobraCheckpoint>(cfg_, [&](const core::CobraCheckpoint& c) {
    return c.ul_pop.size() == cfg_.ul_population_size &&
           c.ll_pop.size() == cfg_.ll_population_size;
  });

  common::Rng rng(cfg_.seed);
  const auto bounds = eval.price_bounds();
  const std::size_t num_bundles = eval.genome_length();
  obs::MetricsRegistry* const metrics = cfg_.telemetry.metrics;
  core::RunResult result;
  core::RunShell shell("cobra", cfg_, eval, rng, result,
                       ck ? &ck->progress : nullptr);

  // Upper archive keyed by F (max); lower archive keyed by f (min) — the
  // paper extracts results from the lower archive.
  ea::Archive<ArchivedSolution> upper_archive(cfg_.ul_archive_size, true);
  ea::Archive<ArchivedSolution> lower_archive(cfg_.ll_archive_size, false);
  std::vector<bcpop::Pricing> ul_pop;
  std::vector<Basket> ll_pop;
  // Current champions used for pairing across levels.
  bcpop::Pricing paired_pricing;
  Basket paired_basket;
  if (!ck) {
    // --- Initial populations (Algorithm 1 lines 1-3; a resumed run's RNG
    // state already consumed this entropy) ---
    for (std::size_t i = 0; i < cfg_.ul_population_size; ++i) {
      ul_pop.push_back(ea::random_real_vector(rng, bounds));
    }
    for (std::size_t i = 0; i < cfg_.ll_population_size; ++i) {
      ll_pop.push_back(
          ea::random_binary_vector(rng, num_bundles, cfg_.ll_init_density));
    }
    paired_pricing = ul_pop[0];
    paired_basket = ll_pop[0];
  } else {
    ul_pop = std::move(ck->ul_pop);
    ll_pop = std::move(ck->ll_pop);
    // Archives are stored best-first; re-adding in that order reproduces
    // the exact internal ordering (ties keep insertion order).
    for (core::ArchivedPairState& e : ck->upper_archive) {
      upper_archive.add(
          {std::move(e.pricing), std::move(e.basket), std::move(e.evaluation)},
          e.fitness);
    }
    for (core::ArchivedPairState& e : ck->lower_archive) {
      lower_archive.add(
          {std::move(e.pricing), std::move(e.basket), std::move(e.evaluation)},
          e.fitness);
    }
    paired_pricing = std::move(ck->paired_pricing);
    paired_basket = std::move(ck->paired_basket);
  }

  std::vector<double> ul_fitness(ul_pop.size(), 0.0);
  std::vector<double> ll_fitness(ll_pop.size(), 0.0);

  const auto write_checkpoint = [&](core::SolverProgress progress) {
    core::CobraCheckpoint out;
    out.seed = cfg_.seed;
    out.progress = std::move(progress);
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

  while (shell.budget_left()) {
    // ================= Upper improvement phase =================
    for (int g = 0;
         g < cfg_.upper_phase_generations && shell.budget_left(); ++g) {
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
      shell.record("upper", uls, gaps, upper_archive.size(),
                   lower_archive.size());

      // Selection + variation (same GA as CARBON's upper level).
      ul_pop = core::breed_pricings(rng, ul_pop, ul_fitness, bounds,
                                    core::UpperVariation::of(cfg_), metrics);
    }
    // Champion pricing for the lower phase.
    if (!upper_archive.empty()) {
      paired_pricing = upper_archive.best().item.pricing;
    }

    // ================= Lower improvement phase =================
    for (int g = 0;
         g < cfg_.lower_phase_generations && shell.budget_left(); ++g) {
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
      shell.record("lower", uls, gaps, upper_archive.size(),
                   lower_archive.size());

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
    // Kept serial: the legacy loop re-checks the budget between individual
    // pairs, which a batch cannot replicate for an arbitrary evaluator; the
    // operator is only ~coevolution_pairs evals per round.
    if (shell.budget_left()) {
      common::RunningStats uls;
      common::RunningStats gaps;
      for (std::size_t p = 0;
           p < cfg_.coevolution_pairs && shell.budget_left(); ++p) {
        const bcpop::Pricing& x = ul_pop[rng.below(ul_pop.size())];
        const Basket& y = ll_pop[rng.below(ll_pop.size())];
        obs::ScopedTimer pair_timer(metrics, "time/eval_batch");
        const bcpop::Evaluation e = eval.evaluate_with_selection(x, y);
        pair_timer.stop();
        uls.add(e.ul_objective);
        gaps.add(e.gap_percent);
        note_solution(x, y, e);
      }
      shell.record("coevolution", uls, gaps, upper_archive.size(),
                   lower_archive.size());
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
    if (shell.checkpoint(write_checkpoint)) break;
  }

  shell.finish();
  return result;
}

}  // namespace carbon::cobra
