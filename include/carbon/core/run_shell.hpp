// The run bookkeeping of all five solvers (docs/ALGORITHMS.md §5, §9, §11).
// RunLedger counts the budgets, keeps the best so far and records one
// convergence point per generation; the baselines use it alone. RunShell
// holds a ledger and adds what CARBON and COBRA also need: resume, the
// journal's run_start / resume / generation / summary records, the guard
// and the checkpoint cadence. A baseline's run reads
//
//   RunLedger ledger(cfg, eval, result);
//   while (ledger.budget_left()) {
//     ... evaluate, ledger.note(x, e) ..., ledger.point("x", ul, gap);
//     ... breed ...
//   }
//   ledger.finish();
//
// and CARBON's and COBRA's run_with()
//
//   auto ck = load_resume<XCheckpoint>(cfg, shape_fits);  // may throw
//   RunShell shell("x", cfg, eval, rng, result, ck ? &ck->progress : nullptr);
//   ... fresh populations, or restored populations and archives ...
//   while (shell.budget_left()) {
//     ... evaluate, shell.note(x, e) ..., shell.record(...), breed ...
//     if (shell.checkpoint(save)) break;
//   }
//   shell.finish();
//
// breed_pricings and breed_baskets are the GA steps the solvers share.
// Beyond restoring a checkpoint, ledger and shell only read solver state
// and the evaluator's counters, so they never change a trajectory.
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "carbon/bcpop/evaluator_interface.hpp"
#include "carbon/bcpop/parallel_evaluator.hpp"
#include "carbon/common/rng.hpp"
#include "carbon/common/statistics.hpp"
#include "carbon/core/checkpoint.hpp"
#include "carbon/core/result.hpp"
#include "carbon/ea/real_ops.hpp"
#include "carbon/guard/guard.hpp"
#include "carbon/obs/run_journal.hpp"

namespace carbon::core {

/// Rejects a checkpoint/guard configuration; `solver` prefixes the message.
void validate_run_config(std::string_view solver,
                         const CheckpointConfig& checkpoint,
                         const guard::GuardConfig& guard);

/// Loads cfg.checkpoint.resume_from (nullopt for a fresh run) and validates
/// it fully — seed, then `fits(checkpoint)` for the population shape —
/// before the run touches any solver or telemetry state, so a bad file
/// rejects with nothing applied.
template <typename Checkpoint, typename Config, typename Fits>
std::optional<Checkpoint> load_resume(const Config& cfg, const Fits& fits) {
  if (cfg.checkpoint.resume_from.empty()) return std::nullopt;
  Checkpoint ck = Checkpoint::load(cfg.checkpoint.resume_from);
  if (ck.seed != cfg.seed) {
    throw CheckpointError("checkpoint: seed mismatch (file " +
                          std::to_string(ck.seed) + ", config " +
                          std::to_string(cfg.seed) + ")");
  }
  if (!fits(ck)) {
    throw CheckpointError(
        "checkpoint: population shape does not match the configured run");
  }
  return ck;
}

/// Options of the evaluator a solver builds for itself. The basis pool must
/// hold at least two generations of the UL population's bases: with fewer
/// slots the LRU evicts the not-yet-re-evaluated members' parent bases
/// mid-generation (their last touch is a whole generation old), and every
/// such member falls back to a far-away cousin basis instead of its own
/// lineage.
template <typename Config>
bcpop::ParallelEvaluator::Options owned_evaluator_options(const Config& cfg) {
  return {.threads = cfg.eval_threads,
          .lp_warm = cfg.lp_warm,
          .basis_pool_capacity = std::max<std::size_t>(
              bcpop::BasisPool::kDefaultCapacity,
              2 * cfg.ul_population_size)};
}

/// The upper-level variation parameters of CARBON, COBRA and CODBA.
struct UpperVariation {
  double crossover_prob = 0.0;
  double mutation_prob = 0.0;
  ea::SbxConfig sbx{};
  ea::PolynomialMutationConfig mutation{};

  template <typename Config>
  static UpperVariation of(const Config& cfg) {
    return {cfg.ul_crossover_prob, cfg.ul_mutation_prob, cfg.sbx,
            cfg.mutation};
  }
};

/// One generation of UL offspring (CARBON step 5, the COBRA upper phase,
/// the CODBA and nested-GA pricings): binary tournaments on `fitness`
/// (maximized), SBX with probability crossover_prob, then polynomial
/// mutation of each child with probability mutation_prob. Selection and
/// variation are timed under "time/selection" / "time/variation" (no timing
/// when `metrics` is null).
[[nodiscard]] std::vector<bcpop::Pricing> breed_pricings(
    common::Rng& rng, std::span<const bcpop::Pricing> pop,
    std::span<const double> fitness, std::span<const ea::Bounds> bounds,
    const UpperVariation& variation, obs::MetricsRegistry* metrics);

/// A follower basket: one 0/1 entry per bundle.
using Basket = std::vector<std::uint8_t>;

/// A complete bi-level solution held in a solver's archive. CARBON and the
/// nested GA, whose followers answer by construction, leave the basket empty.
struct ArchivedSolution {
  bcpop::Pricing pricing;
  Basket basket;
  bcpop::Evaluation evaluation;
};

/// One generation of LL offspring (the COBRA lower phase, a CODBA
/// subpopulation): binary tournaments on `fitness` (minimized), two-point
/// crossover with probability crossover_prob, then swap mutation of each
/// child at rate mutation_prob (<0 = 1/#variables). Timed like
/// breed_pricings.
[[nodiscard]] std::vector<Basket> breed_baskets(
    common::Rng& rng, std::span<const Basket> pop,
    std::span<const double> fitness, double crossover_prob,
    double mutation_prob, obs::MetricsRegistry* metrics);

/// The counter-and-result half of a run. Budgets count from the
/// evaluator's counters when the ledger is made, so a caller-owned
/// evaluator that has already been charged starts the run at zero.
class RunLedger {
 public:
  /// Reads the budgets and record_convergence of a solver config, takes
  /// the budget baselines of `eval` and starts the best-so-far fields of
  /// `result` at -inf (revenue) and +inf (gap). The evaluator and the
  /// result must outlive the ledger.
  template <typename Config>
  RunLedger(const Config& cfg, const bcpop::EvaluatorInterface& eval,
            RunResult& result)
      : eval_(eval),
        result_(result),
        ul_budget_(cfg.ul_eval_budget),
        ll_budget_(cfg.ll_eval_budget),
        record_convergence_(cfg.record_convergence),
        ul_start_(eval.ul_evaluations()),
        ll_start_(eval.ll_evaluations()) {
    result_.best_gap = std::numeric_limits<double>::infinity();
    result_.best_ul_objective = -std::numeric_limits<double>::infinity();
  }

  /// Neither evaluation budget is spent yet.
  [[nodiscard]] bool budget_left() const {
    return ul_spent() < ul_budget_ && ll_spent() < ll_budget_;
  }

  /// The best-so-far rule: a feasible evaluation of `pricing` lowers the
  /// best gap, and becomes the best solution when its leader revenue beats
  /// the best so far (ties keep the earlier one). Infeasible ones are
  /// ignored.
  void note(const bcpop::Pricing& pricing, const bcpop::Evaluation& e);

  /// Closes the generation just evaluated: appends a convergence point
  /// (when record_convergence) and advances the generation counter. `ul` is
  /// the leader revenue over the evaluated population, `gap` its %-gap
  /// (CARBON: the predator fitness); an empty `ul` records 0 as the
  /// current best. Returns the point so the solver can add its own fields,
  /// or nullptr when convergence is not recorded.
  ConvergencePoint* point(std::string_view phase,
                          const common::RunningStats& ul,
                          const common::RunningStats& gap);

  /// Generation and budget totals, and non-finite bests replaced (0
  /// revenue, 1e9 gap: nothing feasible was found).
  void finish();

  /// Continues a checkpointed run: its generation and result, and the
  /// counter baselines offset by what it consumed, so `now - start` spans
  /// both segments.
  void resume(SolverProgress& progress);

  [[nodiscard]] int generation() const noexcept { return generation_; }
  [[nodiscard]] long long ul_spent() const {
    return eval_.ul_evaluations() - ul_start_;
  }
  [[nodiscard]] long long ll_spent() const {
    return eval_.ll_evaluations() - ll_start_;
  }
  /// The evaluator's ll_evaluations() reading at run-evaluation #0.
  [[nodiscard]] long long ll_start() const noexcept { return ll_start_; }
  [[nodiscard]] const RunResult& result() const noexcept { return result_; }

 private:
  const bcpop::EvaluatorInterface& eval_;
  RunResult& result_;
  long long ul_budget_;
  long long ll_budget_;
  bool record_convergence_;
  long long ul_start_;
  long long ll_start_;
  int generation_ = 0;
};

class RunShell {
 public:
  /// Reads the shared fields of a solver config (seed, eval_threads, the
  /// budgets, record_convergence, telemetry, checkpoint and guard; the
  /// config must outlive the shell), makes the run's ledger, attaches the
  /// metrics registry, takes the backend-counter baseline of `eval` and
  /// journals "run_start" with the warm-start policy of `eval` — the
  /// evaluator that actually runs, which a caller-owned one may set apart
  /// from the config's lp_warm. `rng` and `result` are the solver's own.
  ///
  /// A resumed run (`resumed` non-null) then continues the checkpoint's RNG
  /// stream, generation and result, offsets the counter baselines by what
  /// the original run consumed (so `now - start` spans both segments),
  /// drops the evaluator's caches — entries warmed by another segment must
  /// not leak into the resumed trajectory — and journals "resume". Either
  /// way the guard is armed last, against the post-resume ll baseline, so
  /// an injection ordinal counts evaluations of the whole logical run: one
  /// that fired before the checkpoint never re-fires.
  template <typename Config>
  RunShell(std::string_view algo, const Config& cfg,
           bcpop::EvaluatorInterface& eval, common::Rng& rng,
           RunResult& result, SolverProgress* resumed)
      : RunShell(Settings{algo, cfg.seed, cfg.eval_threads, cfg.telemetry,
                          &cfg.checkpoint, &cfg.guard},
                 RunLedger(cfg, eval, result), eval, rng, resumed) {}

  /// Neither evaluation budget is spent yet.
  [[nodiscard]] bool budget_left() const { return ledger_.budget_left(); }

  /// The ledger's best-so-far rule (RunLedger::note).
  void note(const bcpop::Pricing& pricing, const bcpop::Evaluation& e) {
    ledger_.note(pricing, e);
  }

  /// Records the generation just evaluated: journals a "generation" record
  /// (when a journal is attached) and closes the generation in the ledger
  /// (RunLedger::point), whose convergence point it returns.
  ConvergencePoint* record(std::string_view phase,
                           const common::RunningStats& ul,
                           const common::RunningStats& gap,
                           std::size_t archive_size,
                           std::size_t ll_archive_size);

  /// Call where populations, archives, RNG and counters fully determine the
  /// rest of the run. When the cadence is due, passes the shared progress
  /// to save(SolverProgress) — which writes the solver's checkpoint
  /// — then drops the evaluator's caches and asks the stop_after_checkpoint
  /// hook; returns true when the run must stop there (simulated preemption:
  /// everything after the write is exactly what a real crash would lose).
  /// Every checkpoint thus starts a new cache epoch: the run goes on from
  /// the same empty caches and basis pool a resume from this file starts
  /// from, so the resumed run equals the uninterrupted one bit for bit
  /// under either lp_warm policy (docs/ALGORITHMS.md §11, §15).
  template <typename Save>
  bool checkpoint(const Save& save) {
    if (!checkpoint_due()) return false;
    save(progress());
    return checkpoint_written();
  }

  /// The ledger's final bookkeeping (RunLedger::finish), then the
  /// journal's "summary" record.
  void finish();

 private:
  struct Settings {
    std::string_view algo;
    std::uint64_t seed;
    std::size_t eval_threads;
    obs::TelemetryConfig telemetry;
    const CheckpointConfig* checkpoint;
    const guard::GuardConfig* guard;
  };

  RunShell(const Settings& settings, RunLedger ledger,
           bcpop::EvaluatorInterface& eval, common::Rng& rng,
           SolverProgress* resumed);

  [[nodiscard]] obs::BackendStats backend_spent() const {
    return eval_.backend_stats() - backend_start_;
  }
  [[nodiscard]] SolverProgress progress() const;
  [[nodiscard]] bool checkpoint_due() const noexcept;
  /// Advances the cadence, starts the new cache epoch and asks the stop
  /// hook.
  bool checkpoint_written();

  Settings s_;
  RunLedger ledger_;
  bcpop::EvaluatorInterface& eval_;
  common::Rng& rng_;
  obs::BackendStats backend_start_;
  long long next_checkpoint_ = 0;
};

}  // namespace carbon::core
