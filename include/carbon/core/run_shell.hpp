// The run bookkeeping CARBON and COBRA share: resume checks, budget and
// backend-counter baselines with their resume offsets, the journal's
// run_start / resume / generation / summary records (docs/ALGORITHMS.md §9),
// the budget test, the checkpoint cadence (§11), the final result
// normalisation, and the UL breeding step. Populations, archives,
// generation bodies and checkpoint payloads stay with each solver, whose
// run_with() reads:
//
//   auto ck = load_resume<XCheckpoint>(cfg, shape_fits);  // may throw
//   RunShell shell("x", cfg, eval, rng, result, ck ? &ck->progress : nullptr);
//   ... fresh populations, or restored populations and archives ...
//   while (shell.budget_left()) {
//     ... evaluate, shell.record(...), breed ...
//     if (shell.checkpoint(save)) break;
//   }
//   shell.finish();
//
// Beyond restoring a checkpoint, the shell only reads solver state and the
// evaluator's counters, so it never changes a trajectory.
#pragma once

#include <algorithm>
#include <cstdint>
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

/// The upper-level variation parameters both solvers configure.
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

/// One generation of UL offspring (CARBON step 5, the COBRA upper phase):
/// binary tournaments on `fitness` (maximized), SBX with probability
/// crossover_prob, then polynomial mutation of each child with probability
/// mutation_prob. Selection and variation are timed under
/// "time/selection" / "time/variation".
[[nodiscard]] std::vector<bcpop::Pricing> breed_pricings(
    common::Rng& rng, std::span<const bcpop::Pricing> pop,
    std::span<const double> fitness, std::span<const ea::Bounds> bounds,
    const UpperVariation& variation, obs::MetricsRegistry* metrics);

class RunShell {
 public:
  /// Reads the shared fields of a solver config (seed, eval_threads, the
  /// budgets, record_convergence, telemetry, checkpoint and guard; the
  /// config must outlive the shell), takes the budget and backend-counter
  /// baselines of `eval`, attaches the metrics registry and journals
  /// "run_start" with the warm-start policy of `eval` — the evaluator that
  /// actually runs, which a caller-owned one may set apart from the
  /// config's lp_warm. `rng` and `result` are the solver's own; the
  /// best-so-far fields start at -inf (revenue) and +inf (gap).
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
      : RunShell(Settings{algo, cfg.seed, cfg.eval_threads,
                          cfg.ul_eval_budget, cfg.ll_eval_budget,
                          cfg.record_convergence, cfg.telemetry,
                          &cfg.checkpoint, &cfg.guard},
                 eval, rng, result, resumed) {}

  /// Neither evaluation budget is spent yet.
  [[nodiscard]] bool budget_left() const;

  /// Records the generation just evaluated and advances the generation
  /// counter: appends a convergence point (when record_convergence) and
  /// journals a "generation" record (when a journal is attached). `ul` is
  /// the leader revenue over the evaluated population, `gap` its %-gap
  /// (CARBON: the predator fitness). Returns the point so the solver can
  /// add its own fields, or nullptr when convergence is not recorded.
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

  /// Final bookkeeping: generation and budget totals, non-finite bests
  /// replaced (0 revenue, 1e9 gap: nothing feasible was found), and the
  /// journal's "summary" record.
  void finish();

 private:
  struct Settings {
    std::string_view algo;
    std::uint64_t seed;
    std::size_t eval_threads;
    long long ul_eval_budget;
    long long ll_eval_budget;
    bool record_convergence;
    obs::TelemetryConfig telemetry;
    const CheckpointConfig* checkpoint;
    const guard::GuardConfig* guard;
  };

  RunShell(const Settings& settings, bcpop::EvaluatorInterface& eval,
           common::Rng& rng, RunResult& result, SolverProgress* resumed);

  [[nodiscard]] long long ul_spent() const {
    return eval_.ul_evaluations() - ul_start_;
  }
  [[nodiscard]] long long ll_spent() const {
    return eval_.ll_evaluations() - ll_start_;
  }
  [[nodiscard]] obs::BackendStats backend_spent() const {
    return eval_.backend_stats() - backend_start_;
  }
  [[nodiscard]] SolverProgress progress() const;
  [[nodiscard]] bool checkpoint_due() const noexcept;
  /// Advances the cadence, starts the new cache epoch and asks the stop
  /// hook.
  bool checkpoint_written();

  Settings s_;
  bcpop::EvaluatorInterface& eval_;
  common::Rng& rng_;
  RunResult& result_;
  long long ul_start_ = 0;
  long long ll_start_ = 0;
  obs::BackendStats backend_start_;
  int generation_ = 0;
  long long next_checkpoint_ = 0;
};

}  // namespace carbon::core
