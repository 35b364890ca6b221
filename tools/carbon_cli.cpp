// carbon — command-line front end for the library.
//
//   carbon generate --bundles M --services N [--tightness T] [--density D]
//                   [--seed S] --out FILE
//       Writes a covering instance in the OR-library text format.
//
//   carbon relax --in FILE
//       LP relaxation: lower bound, simplex iterations, dual values.
//
//   carbon exact --in FILE [--max-nodes N]
//       LP-based branch & bound (small instances).
//
//   carbon greedy --in FILE [--score ce|dual | --tree "(div QCOV COST)"]
//       Greedy cover with a built-in or hand-written scoring function.
//
//   carbon solve --in FILE --owned L --algo carbon|cobra|biga|codba|nested
//                [--ul-budget U] [--ll-budget L] [--pop P] [--seed S]
//                [--threads T] [--convergence OUT.csv] [--memetic]
//                [--journal OUT.jsonl] [--metrics]
//                [--checkpoint FILE --checkpoint-every N] [--resume FILE]
//                [--guard-lp-iters N] [--guard-rounds N] [--guard-nodes N]
//                [--lp-warm baseline|pool]
//       Treats the first L bundles as the leader's and solves the bi-level
//       pricing problem. Any other flag is rejected as a usage error.
//       --threads 1 (the default) evaluates on the calling thread alone;
//       T > 1 adds T worker threads — results are identical for any T.
//       --journal appends one JSON record per generation
//       plus a run summary (schema: docs/ALGORITHMS.md §9); --metrics
//       prints counter/timer totals after the run. Telemetry never alters
//       the trajectory (carbon and cobra only). --checkpoint/--checkpoint-
//       every write crash-safe solver state every N generations; --resume
//       continues bit-identically from such a file (carbon and cobra only;
//       schema: docs/ALGORITHMS.md §11). --guard-* set deterministic
//       per-evaluation budgets (simplex iterations, greedy rounds, total LL
//       nodes) with a fixed degradation ladder (carbon and cobra only;
//       docs/ALGORITHMS.md §13).
//       --lp-warm picks the LL relaxation warm-start policy: baseline
//       (the fixed base-cost basis; carbon's default) or pool (the nearest
//       pooled basis; cobra's default, deterministic for any --threads but
//       a DIFFERENT golden axis). Without the flag each solver keeps its
//       default (carbon and cobra only; docs/ALGORITHMS.md §15).
//
// Exit codes: 0 success, 1 usage error, 2 runtime failure.

#include <cstdio>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "carbon/baselines/biga.hpp"
#include "carbon/baselines/codba.hpp"
#include "carbon/baselines/nested_ga.hpp"
#include "carbon/cobra/cobra_solver.hpp"
#include "carbon/common/cli.hpp"
#include "carbon/common/csv.hpp"
#include "carbon/core/carbon_solver.hpp"
#include "carbon/core/checkpoint.hpp"
#include "carbon/cover/exact.hpp"
#include "carbon/cover/generator.hpp"
#include "carbon/cover/orlib_io.hpp"
#include "carbon/cover/relaxation.hpp"
#include "carbon/gp/scoring.hpp"
#include "carbon/obs/metrics.hpp"
#include "carbon/obs/run_journal.hpp"

namespace {

using namespace carbon;

int usage() {
  std::fprintf(stderr,
               "usage: carbon <generate|relax|exact|greedy|solve> [flags]\n"
               "run with a command and no flags for its required arguments\n");
  return 1;
}

cover::Instance load(const common::CliArgs& args) {
  const std::string path = args.get("in", "");
  if (path.empty()) {
    throw std::runtime_error("--in FILE is required");
  }
  return cover::load_orlib(path);
}

int cmd_generate(const common::CliArgs& args) {
  const std::string out = args.get("out", "");
  if (out.empty()) {
    std::fprintf(stderr, "generate: --out FILE is required\n");
    return 1;
  }
  cover::GeneratorConfig cfg;
  // Counts land in size_t fields: reject zero/negative with the flag named
  // instead of letting the cast wrap.
  cfg.num_bundles =
      static_cast<std::size_t>(args.get_positive_int("bundles", 100));
  cfg.num_services =
      static_cast<std::size_t>(args.get_positive_int("services", 5));
  cfg.tightness = args.get_double("tightness", cfg.tightness);
  cfg.density = args.get_double("density", cfg.density);
  cfg.seed = static_cast<std::uint64_t>(args.get_int("seed", 42));
  const cover::Instance inst = cover::generate(cfg);
  cover::save_orlib(out, inst);
  std::printf("wrote %s: %s\n", out.c_str(), inst.describe().c_str());
  return 0;
}

int cmd_relax(const common::CliArgs& args) {
  const cover::Instance inst = load(args);
  const cover::Relaxation r = cover::relax(inst);
  if (!r.feasible) {
    std::printf("infeasible: demands exceed market supply\n");
    return 0;
  }
  std::printf("lower bound: %.6f\n", r.lower_bound);
  std::printf("duals:");
  for (double d : r.duals) std::printf(" %.4f", d);
  std::printf("\n");
  return 0;
}

int cmd_exact(const common::CliArgs& args) {
  const cover::Instance inst = load(args);
  cover::ExactOptions opts;
  // A negative cap would wrap to SIZE_MAX and silently lift the node limit.
  opts.max_nodes =
      static_cast<std::size_t>(args.get_positive_int("max-nodes", 200'000));
  const cover::ExactResult r = cover::exact_solve(inst, opts);
  if (!r.feasible) {
    std::printf("infeasible\n");
    return 0;
  }
  std::printf("value: %.6f (%s, %zu nodes)\n", r.value,
              r.proven_optimal ? "proven optimal" : "node budget hit",
              r.nodes_explored);
  std::printf("selection:");
  for (std::size_t j = 0; j < r.selection.size(); ++j) {
    if (r.selection[j]) std::printf(" %zu", j);
  }
  std::printf("\n");
  return 0;
}

int cmd_greedy(const common::CliArgs& args) {
  const cover::Instance inst = load(args);
  const cover::Relaxation rel = cover::relax(inst);
  if (!rel.feasible) {
    std::printf("infeasible\n");
    return 0;
  }
  cover::SolveResult r;
  std::string how;
  if (args.has("tree")) {
    const gp::Tree tree = gp::parse(args.get("tree", ""));
    const gp::CompiledProgram program = gp::CompiledProgram::compile(tree);
    std::vector<double> reg_scratch;
    r = cover::greedy_solve(inst, gp::CompiledBatchScorer(program, reg_scratch),
                            rel.duals, rel.relaxed_x);
    how = tree.to_string();
  } else {
    const std::string score = args.get("score", "ce");
    if (score == "ce") {
      r = cover::greedy_solve(inst, cover::CostEffectiveness{}, rel.duals,
                              rel.relaxed_x);
      how = "cost-effectiveness";
    } else if (score == "dual") {
      r = cover::greedy_solve(inst, cover::DualMinusCost{}, rel.duals,
                              rel.relaxed_x);
      how = "dual score";
    } else {
      std::fprintf(stderr, "greedy: unknown --score '%s' (ce|dual)\n",
                   score.c_str());
      return 1;
    }
  }
  if (!r.feasible) {
    std::printf("instance cannot be covered\n");
    return 0;
  }
  std::printf("heuristic: %s\n", how.c_str());
  std::printf("value: %.6f  lower bound: %.6f  gap: %.4f%%\n", r.value,
              rel.lower_bound,
              100.0 * (r.value - rel.lower_bound) /
                  std::max(rel.lower_bound, 1.0));
  return 0;
}

int cmd_solve(const common::CliArgs& args) {
  if (const auto flag = args.unknown_flag(
          {"in", "owned", "algo", "pop", "ul-budget", "ll-budget", "seed",
           "threads", "convergence", "memetic", "journal", "metrics",
           "checkpoint", "checkpoint-every", "resume", "guard-lp-iters",
           "guard-rounds", "guard-nodes", "lp-warm"})) {
    std::fprintf(stderr, "solve: unknown flag --%s\n", flag->c_str());
    return 1;
  }
  const cover::Instance market = load(args);
  const auto owned = static_cast<std::size_t>(args.get_positive_int(
      "owned", static_cast<long long>(market.num_bundles() / 10)));
  const bcpop::Instance inst(market, owned);

  const std::string algo = args.get("algo", "carbon");
  // Counts land in unsigned config fields: reject zero/negative here, with
  // the flag named, instead of letting the cast wrap to a huge value.
  const auto pop = static_cast<std::size_t>(args.get_positive_int("pop", 30));
  const long long ul_budget = args.get_positive_int("ul-budget", 1'000);
  const long long ll_budget = args.get_positive_int("ll-budget", 3'000);
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
  const auto threads =
      static_cast<std::size_t>(args.get_positive_int("threads", 1));

  // Checkpoint/resume wiring (carbon and cobra only).
  core::CheckpointConfig checkpoint;
  checkpoint.path = args.get("checkpoint", "");
  checkpoint.every = args.get_positive_int("checkpoint-every", 0);
  checkpoint.resume_from = args.get("resume", "");
  if (checkpoint.every > 0 && checkpoint.path.empty()) {
    std::fprintf(stderr,
                 "solve: --checkpoint-every requires --checkpoint FILE\n");
    return 1;
  }
  if (!checkpoint.path.empty() && checkpoint.every == 0) {
    std::fprintf(stderr,
                 "solve: --checkpoint requires --checkpoint-every N\n");
    return 1;
  }
  const bool want_checkpoint =
      checkpoint.every > 0 || !checkpoint.resume_from.empty();
  if (want_checkpoint && algo != "carbon" && algo != "cobra") {
    std::fprintf(stderr,
                 "solve: --checkpoint/--resume require --algo carbon|cobra\n");
    return 1;
  }

  // Resource-budget guardrails (carbon and cobra only). 0 = unlimited.
  guard::GuardConfig guard_cfg;
  guard_cfg.limits.lp_iteration_cap = args.get_positive_int("guard-lp-iters", 0);
  guard_cfg.limits.construction_round_cap =
      args.get_positive_int("guard-rounds", 0);
  guard_cfg.limits.ll_node_cap = args.get_positive_int("guard-nodes", 0);
  if (guard_cfg.enabled() && algo != "carbon" && algo != "cobra") {
    std::fprintf(stderr, "solve: --guard-* require --algo carbon|cobra\n");
    return 1;
  }

  // Relaxation warm-start policy (docs/ALGORITHMS.md §15); without the
  // flag each solver keeps its own default.
  std::optional<bcpop::LpWarm> lp_warm;
  if (args.has("lp-warm")) {
    const std::string lp_warm_str = args.get("lp-warm", "");
    if (lp_warm_str == "pool") {
      lp_warm = bcpop::LpWarm::kPool;
    } else if (lp_warm_str == "baseline") {
      lp_warm = bcpop::LpWarm::kBaseline;
    } else {
      std::fprintf(stderr, "solve: --lp-warm must be baseline|pool\n");
      return 1;
    }
  }
  if (lp_warm && algo != "carbon" && algo != "cobra") {
    std::fprintf(stderr, "solve: --lp-warm requires --algo carbon|cobra\n");
    return 1;
  }

  // Optional telemetry sinks (outlive the solver run below).
  const std::string journal_path = args.get("journal", "");
  const bool want_metrics = args.get_bool("metrics");
  std::unique_ptr<obs::MetricsRegistry> metrics;
  std::unique_ptr<obs::RunJournal> journal;
  obs::TelemetryConfig telemetry;
  if (want_metrics || !journal_path.empty()) {
    metrics = std::make_unique<obs::MetricsRegistry>();
    telemetry.metrics = metrics.get();
  }
  if (!journal_path.empty()) {
    journal = std::make_unique<obs::RunJournal>(journal_path, metrics.get());
    telemetry.journal = journal.get();
  }
  if (telemetry.enabled() && algo != "carbon" && algo != "cobra") {
    std::fprintf(stderr,
                 "solve: --journal/--metrics require --algo carbon|cobra\n");
    return 1;
  }

  core::RunResult result;
  std::string heuristic_repr;
  if (algo == "carbon") {
    core::CarbonConfig cfg;
    cfg.ul_population_size = pop;
    cfg.gp_population_size = pop;
    cfg.ul_eval_budget = ul_budget;
    cfg.ll_eval_budget = ll_budget;
    cfg.memetic_polish = args.get_bool("memetic");
    cfg.seed = seed;
    cfg.eval_threads = threads;
    if (lp_warm) cfg.lp_warm = *lp_warm;
    cfg.telemetry = telemetry;
    cfg.checkpoint = checkpoint;
    cfg.guard = guard_cfg;
    const core::CarbonResult r = core::CarbonSolver(inst, cfg).run();
    heuristic_repr = gp::simplify(r.best_heuristic).to_string();
    result = r;
  } else if (algo == "cobra") {
    cobra::CobraConfig cfg;
    cfg.ul_population_size = pop;
    cfg.ll_population_size = pop;
    cfg.ul_eval_budget = ul_budget;
    cfg.ll_eval_budget = ll_budget;
    cfg.seed = seed;
    cfg.eval_threads = threads;
    if (lp_warm) cfg.lp_warm = *lp_warm;
    cfg.telemetry = telemetry;
    cfg.checkpoint = checkpoint;
    cfg.guard = guard_cfg;
    result = cobra::CobraSolver(inst, cfg).run();
  } else if (algo == "biga") {
    baselines::BigaConfig cfg;
    cfg.population_size = pop;
    cfg.ul_eval_budget = ul_budget;
    cfg.ll_eval_budget = ll_budget;
    cfg.seed = seed;
    result = baselines::BigaSolver(inst, cfg).run();
  } else if (algo == "codba") {
    baselines::CodbaConfig cfg;
    cfg.ul_population_size = pop;
    cfg.ul_eval_budget = ul_budget;
    cfg.ll_eval_budget = ll_budget;
    cfg.seed = seed;
    result = baselines::CodbaSolver(inst, cfg).run();
  } else if (algo == "nested") {
    baselines::NestedGaConfig cfg;
    cfg.population_size = pop;
    cfg.ul_eval_budget = ul_budget;
    cfg.ll_eval_budget = ll_budget;
    cfg.seed = seed;
    result = baselines::NestedGaSolver(inst, cfg).run();
  } else {
    std::fprintf(stderr,
                 "solve: unknown --algo '%s' "
                 "(carbon|cobra|biga|codba|nested)\n",
                 algo.c_str());
    return 1;
  }

  std::printf("algorithm: %s\n", algo.c_str());
  if (!checkpoint.resume_from.empty()) {
    std::printf("resumed from: %s\n", checkpoint.resume_from.c_str());
  }
  if (checkpoint.every > 0) {
    std::printf("checkpointing to %s every %lld generations\n",
                checkpoint.path.c_str(), checkpoint.every);
  }
  std::printf("generations: %d  UL evals: %lld  LL evals: %lld\n",
              result.generations, result.ul_evaluations,
              result.ll_evaluations);
  std::printf("best leader revenue F: %.4f\n", result.best_ul_objective);
  std::printf("best %%-gap: %.4f\n", result.best_gap);
  if (!heuristic_repr.empty()) {
    std::printf("follower model: %s\n", heuristic_repr.c_str());
  }
  std::printf("best prices:");
  for (double p : result.best_pricing) std::printf(" %.2f", p);
  std::printf("\n");

  const std::string conv = args.get("convergence", "");
  if (!conv.empty()) {
    std::ofstream f(conv);
    if (!f) {
      std::fprintf(stderr, "solve: cannot write %s\n", conv.c_str());
      return 2;
    }
    common::CsvWriter csv(f);
    csv.header({"generation", "phase", "ul_evals", "ll_evals", "best_ul",
                "best_gap", "pop_best_ul", "pop_mean_gap"});
    for (const auto& pt : result.convergence) {
      csv.integer(pt.generation)
          .field(pt.phase)
          .integer(pt.ul_evaluations)
          .integer(pt.ll_evaluations)
          .number(pt.best_ul_so_far)
          .number(pt.best_gap_so_far)
          .number(pt.current_best_ul)
          .number(pt.current_mean_gap);
      csv.end_row();
    }
    std::printf("convergence written to %s (%zu rows)\n", conv.c_str(),
                result.convergence.size());
  }
  if (journal != nullptr) {
    std::printf("journal written to %s (%lld records)\n", journal_path.c_str(),
                journal->records_written());
  }
  if (want_metrics) {
    const obs::MetricsRegistry::Snapshot snap = metrics->snapshot();
    std::printf("metrics:\n");
    for (const auto& [name, value] : snap.counters) {
      std::printf("  %s: %lld\n", name.c_str(), value);
    }
    for (const auto& [name, value] : snap.gauges) {
      std::printf("  %s: %.6g\n", name.c_str(), value);
    }
    for (const auto& [name, t] : snap.timers) {
      std::printf("  %s: %.4fs over %lld intervals (max %.4fs)\n",
                  name.c_str(), t.total_seconds, t.count, t.max_seconds);
    }
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string command = argv[1];
  const common::CliArgs args(argc - 1, argv + 1);
  try {
    if (command == "generate") return cmd_generate(args);
    if (command == "relax") return cmd_relax(args);
    if (command == "exact") return cmd_exact(args);
    if (command == "greedy") return cmd_greedy(args);
    if (command == "solve") return cmd_solve(args);
    return usage();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "carbon %s: %s\n", command.c_str(), e.what());
    return 2;
  }
}
