#include "carbon/core/run_shell.hpp"

#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>
#include <utility>

#include "carbon/common/simd_path.hpp"

namespace carbon::core {

void validate_run_config(std::string_view solver,
                         const CheckpointConfig& checkpoint,
                         const guard::GuardConfig& guard) {
  const std::string who(solver);
  if (checkpoint.every < 0) {
    throw std::invalid_argument(who + ": checkpoint.every must be >= 0");
  }
  if (checkpoint.every > 0 && checkpoint.path.empty()) {
    throw std::invalid_argument(
        who + ": checkpoint.path required when checkpoint.every > 0");
  }
  guard::validate(guard);
}

std::vector<bcpop::Pricing> breed_pricings(
    common::Rng& rng, std::span<const bcpop::Pricing> pop,
    std::span<const double> fitness, std::span<const ea::Bounds> bounds,
    const UpperVariation& variation, obs::MetricsRegistry* metrics) {
  std::vector<bcpop::Pricing> next;
  next.reserve(pop.size());
  while (next.size() < pop.size()) {
    obs::ScopedTimer sel_timer(metrics, "time/selection");
    const std::size_t ia =
        ea::binary_tournament(rng, fitness, /*maximize=*/true);
    const std::size_t ib =
        ea::binary_tournament(rng, fitness, /*maximize=*/true);
    sel_timer.stop();
    bcpop::Pricing a = pop[ia];
    bcpop::Pricing b = pop[ib];
    obs::ScopedTimer var_timer(metrics, "time/variation");
    if (rng.chance(variation.crossover_prob)) {
      ea::sbx_crossover(rng, a, b, bounds, variation.sbx);
    }
    if (rng.chance(variation.mutation_prob)) {
      ea::polynomial_mutation(rng, a, bounds, variation.mutation);
    }
    if (rng.chance(variation.mutation_prob)) {
      ea::polynomial_mutation(rng, b, bounds, variation.mutation);
    }
    var_timer.stop();
    next.push_back(std::move(a));
    if (next.size() < pop.size()) next.push_back(std::move(b));
  }
  return next;
}

RunShell::RunShell(const Settings& settings, bcpop::EvaluatorInterface& eval,
                   common::Rng& rng, RunResult& result,
                   SolverProgress* resumed)
    : s_(settings),
      eval_(eval),
      rng_(rng),
      result_(result),
      ul_start_(eval.ul_evaluations()),
      ll_start_(eval.ll_evaluations()) {
  // Telemetry is pure observation: nothing reads it back, so the
  // trajectory is bit-identical whether or not sinks are attached.
  obs::RunJournal* const journal = s_.telemetry.journal;
  if (s_.telemetry.metrics != nullptr) eval_.set_metrics(s_.telemetry.metrics);
  backend_start_ = eval_.backend_stats();
  if (journal != nullptr) {
    journal->begin_run(s_.algo, s_.seed, s_.eval_threads,
                       bcpop::to_string(eval_.lp_warm()),
                       common::simd::path_name());
  }
  result_.best_gap = std::numeric_limits<double>::infinity();
  result_.best_ul_objective = -std::numeric_limits<double>::infinity();
  if (resumed != nullptr) {
    rng_.set_state(resumed->rng);
    generation_ = resumed->generation;
    ul_start_ = eval_.ul_evaluations() - resumed->consumed_ul;
    ll_start_ = eval_.ll_evaluations() - resumed->consumed_ll;
    backend_start_ -= resumed->backend;
    result_ = std::move(resumed->result);
    // Counters survive clear_caches(); the offsets above rely on them.
    eval_.clear_caches();
    if (journal != nullptr) {
      journal->write_resume({.generation = generation_,
                             .ul_evals = resumed->consumed_ul,
                             .ll_evals = resumed->consumed_ll,
                             .checkpoint_path = s_.checkpoint->resume_from});
    }
  }
  eval_.set_guard(*s_.guard, ll_start_);
  next_checkpoint_ =
      s_.checkpoint->every > 0 ? generation_ + s_.checkpoint->every : 0;
}

bool RunShell::budget_left() const {
  return ul_spent() < s_.ul_eval_budget && ll_spent() < s_.ll_eval_budget;
}

ConvergencePoint* RunShell::record(std::string_view phase,
                                   const common::RunningStats& ul,
                                   const common::RunningStats& gap,
                                   std::size_t archive_size,
                                   std::size_t ll_archive_size) {
  ConvergencePoint* point = nullptr;
  if (s_.record_convergence) {
    ConvergencePoint pt;
    pt.generation = generation_;
    pt.ul_evaluations = ul_spent();
    pt.ll_evaluations = ll_spent();
    pt.best_ul_so_far = result_.best_ul_objective;
    pt.best_gap_so_far = result_.best_gap;
    pt.current_best_ul = ul.max();
    pt.current_mean_gap = gap.mean();
    pt.phase = phase;
    result_.convergence.push_back(std::move(pt));
    point = &result_.convergence.back();
  }
  if (s_.telemetry.journal != nullptr) {
    obs::GenerationRecord rec;
    rec.generation = generation_;
    rec.phase = phase;
    rec.best_ul = ul.max();
    rec.mean_ul = ul.mean();
    rec.std_ul = ul.stddev();
    rec.best_gap = gap.min();
    rec.mean_gap = gap.mean();
    rec.std_gap = gap.stddev();
    rec.best_ul_so_far = result_.best_ul_objective;
    rec.best_gap_so_far = result_.best_gap;
    rec.archive_size = archive_size;
    rec.ll_archive_size = ll_archive_size;
    rec.ul_evals = ul_spent();
    rec.ll_evals = ll_spent();
    rec.backend = backend_spent();
    s_.telemetry.journal->write_generation(rec);
  }
  ++generation_;
  return point;
}

SolverProgress RunShell::progress() const {
  SolverProgress p;
  p.rng = rng_.state();
  p.generation = generation_;
  p.consumed_ul = ul_spent();
  p.consumed_ll = ll_spent();
  p.backend = backend_spent();
  p.result = result_;
  return p;
}

bool RunShell::checkpoint_due() const noexcept {
  return s_.checkpoint->every > 0 && generation_ >= next_checkpoint_;
}

bool RunShell::checkpoint_written() {
  next_checkpoint_ = generation_ + s_.checkpoint->every;
  // A resume from this file starts from empty caches and an empty basis
  // pool; the run being checkpointed does the same, so the two agree bit
  // for bit. Under kBaseline a relaxation is a pure function of the
  // pricing, and only the cache-hit counters see the flush.
  eval_.clear_caches();
  return s_.checkpoint->stop_after_checkpoint &&
         s_.checkpoint->stop_after_checkpoint(generation_);
}

void RunShell::finish() {
  result_.generations = generation_;
  result_.ul_evaluations = ul_spent();
  result_.ll_evaluations = ll_spent();
  if (!std::isfinite(result_.best_ul_objective)) {
    result_.best_ul_objective = 0.0;  // nothing feasible was found
  }
  if (!std::isfinite(result_.best_gap)) result_.best_gap = 1e9;
  if (s_.telemetry.journal != nullptr) {
    s_.telemetry.journal->finish_run({.generations = result_.generations,
                                      .ul_evals = result_.ul_evaluations,
                                      .ll_evals = result_.ll_evaluations,
                                      .best_ul = result_.best_ul_objective,
                                      .best_gap = result_.best_gap,
                                      .backend = backend_spent()});
  }
}

}  // namespace carbon::core
