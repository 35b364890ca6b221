#include "carbon/core/run_shell.hpp"

#include <cmath>
#include <stdexcept>
#include <string>
#include <utility>

#include "carbon/common/simd_path.hpp"
#include "carbon/ea/binary_ops.hpp"

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

std::vector<Basket> breed_baskets(common::Rng& rng, std::span<const Basket> pop,
                                  std::span<const double> fitness,
                                  double crossover_prob, double mutation_prob,
                                  obs::MetricsRegistry* metrics) {
  std::vector<Basket> next;
  next.reserve(pop.size());
  while (next.size() < pop.size()) {
    obs::ScopedTimer sel_timer(metrics, "time/selection");
    const std::size_t ia =
        ea::binary_tournament(rng, fitness, /*maximize=*/false);
    const std::size_t ib =
        ea::binary_tournament(rng, fitness, /*maximize=*/false);
    sel_timer.stop();
    Basket a = pop[ia];
    Basket b = pop[ib];
    obs::ScopedTimer var_timer(metrics, "time/variation");
    if (rng.chance(crossover_prob)) ea::two_point_crossover(rng, a, b);
    ea::swap_mutation(rng, a, mutation_prob);
    ea::swap_mutation(rng, b, mutation_prob);
    var_timer.stop();
    next.push_back(std::move(a));
    if (next.size() < pop.size()) next.push_back(std::move(b));
  }
  return next;
}

void RunLedger::note(const bcpop::Pricing& pricing,
                     const bcpop::Evaluation& e) {
  if (!e.ll_feasible) return;
  result_.best_gap = std::min(result_.best_gap, e.gap_percent);
  if (e.ul_objective > result_.best_ul_objective) {
    result_.best_ul_objective = e.ul_objective;
    result_.best_pricing = pricing;
    result_.best_evaluation = e;
  }
}

ConvergencePoint* RunLedger::point(std::string_view phase,
                                   const common::RunningStats& ul,
                                   const common::RunningStats& gap) {
  ConvergencePoint* pt = nullptr;
  if (record_convergence_) {
    ConvergencePoint& p = result_.convergence.emplace_back();
    p.generation = generation_;
    p.ul_evaluations = ul_spent();
    p.ll_evaluations = ll_spent();
    p.best_ul_so_far = result_.best_ul_objective;
    p.best_gap_so_far = result_.best_gap;
    p.current_best_ul = ul.max();
    p.current_mean_gap = gap.mean();
    p.phase = phase;
    pt = &p;
  }
  ++generation_;
  return pt;
}

void RunLedger::finish() {
  result_.generations = generation_;
  result_.ul_evaluations = ul_spent();
  result_.ll_evaluations = ll_spent();
  if (!std::isfinite(result_.best_ul_objective)) {
    result_.best_ul_objective = 0.0;  // nothing feasible was found
  }
  if (!std::isfinite(result_.best_gap)) result_.best_gap = 1e9;
}

void RunLedger::resume(SolverProgress& progress) {
  generation_ = progress.generation;
  ul_start_ = eval_.ul_evaluations() - progress.consumed_ul;
  ll_start_ = eval_.ll_evaluations() - progress.consumed_ll;
  result_ = std::move(progress.result);
}

RunShell::RunShell(const Settings& settings, RunLedger ledger,
                   bcpop::EvaluatorInterface& eval, common::Rng& rng,
                   SolverProgress* resumed)
    : s_(settings), ledger_(std::move(ledger)), eval_(eval), rng_(rng) {
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
  if (resumed != nullptr) {
    rng_.set_state(resumed->rng);
    backend_start_ -= resumed->backend;
    ledger_.resume(*resumed);
    // Counters survive clear_caches(); the ledger's offsets rely on them.
    eval_.clear_caches();
    if (journal != nullptr) {
      journal->write_resume({.generation = ledger_.generation(),
                             .ul_evals = resumed->consumed_ul,
                             .ll_evals = resumed->consumed_ll,
                             .checkpoint_path = s_.checkpoint->resume_from});
    }
  }
  eval_.set_guard(*s_.guard, ledger_.ll_start());
  next_checkpoint_ = s_.checkpoint->every > 0
                         ? ledger_.generation() + s_.checkpoint->every
                         : 0;
}

ConvergencePoint* RunShell::record(std::string_view phase,
                                   const common::RunningStats& ul,
                                   const common::RunningStats& gap,
                                   std::size_t archive_size,
                                   std::size_t ll_archive_size) {
  if (s_.telemetry.journal != nullptr) {
    const RunResult& result = ledger_.result();
    obs::GenerationRecord rec;
    rec.generation = ledger_.generation();
    rec.phase = phase;
    rec.best_ul = ul.max();
    rec.mean_ul = ul.mean();
    rec.std_ul = ul.stddev();
    rec.best_gap = gap.min();
    rec.mean_gap = gap.mean();
    rec.std_gap = gap.stddev();
    rec.best_ul_so_far = result.best_ul_objective;
    rec.best_gap_so_far = result.best_gap;
    rec.archive_size = archive_size;
    rec.ll_archive_size = ll_archive_size;
    rec.ul_evals = ledger_.ul_spent();
    rec.ll_evals = ledger_.ll_spent();
    rec.backend = backend_spent();
    s_.telemetry.journal->write_generation(rec);
  }
  return ledger_.point(phase, ul, gap);
}

SolverProgress RunShell::progress() const {
  SolverProgress p;
  p.rng = rng_.state();
  p.generation = ledger_.generation();
  p.consumed_ul = ledger_.ul_spent();
  p.consumed_ll = ledger_.ll_spent();
  p.backend = backend_spent();
  p.result = ledger_.result();
  return p;
}

bool RunShell::checkpoint_due() const noexcept {
  return s_.checkpoint->every > 0 && ledger_.generation() >= next_checkpoint_;
}

bool RunShell::checkpoint_written() {
  next_checkpoint_ = ledger_.generation() + s_.checkpoint->every;
  // A resume from this file starts from empty caches and an empty basis
  // pool; the run being checkpointed does the same, so the two agree bit
  // for bit. Under kBaseline a relaxation is a pure function of the
  // pricing, and only the cache-hit counters see the flush.
  eval_.clear_caches();
  return s_.checkpoint->stop_after_checkpoint &&
         s_.checkpoint->stop_after_checkpoint(ledger_.generation());
}

void RunShell::finish() {
  ledger_.finish();
  if (s_.telemetry.journal != nullptr) {
    const RunResult& result = ledger_.result();
    s_.telemetry.journal->finish_run({.generations = result.generations,
                                      .ul_evals = result.ul_evaluations,
                                      .ll_evals = result.ll_evaluations,
                                      .best_ul = result.best_ul_objective,
                                      .best_gap = result.best_gap,
                                      .backend = backend_spent()});
  }
}

}  // namespace carbon::core
