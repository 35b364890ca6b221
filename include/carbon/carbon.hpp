// Umbrella header: everything the library exports.
//
//   #include "carbon/carbon.hpp"
//
// pulls in the full public API. Individual subsystem headers remain the
// preferred includes for library code; this exists for quick experiments,
// examples and downstream prototyping.
//
// Subsystem map (see README.md and docs/ALGORITHMS.md):
//   common/    RNG, statistics, task scheduler, CSV, CLI parsing
//   lp/        bounded-variable revised simplex
//   cover/     multicover instances, bounds, greedy/exact/local search
//   gp/        GP hyper-heuristic engine (trees over Table I primitives)
//   ea/        GA operators and archives
//   bilevel/   %-gap metric, linear bi-level examples
//   bcpop/     the Bi-level Cloud Pricing problem (+ multi-follower)
//   guard/     deterministic resource budgets + degradation ladder
//   obs/       run telemetry: metrics registry, JSONL run journal
//   core/      CARBON and the experiment harness
//   cobra/     the COBRA baseline
//   baselines/ nested GA, BIGA, CODBA
#pragma once

#include "carbon/baselines/biga.hpp"
#include "carbon/baselines/codba.hpp"
#include "carbon/baselines/nested_ga.hpp"
#include "carbon/bcpop/evaluator_interface.hpp"
#include "carbon/bcpop/instance.hpp"
#include "carbon/bcpop/multi_follower.hpp"
#include "carbon/bcpop/parallel_evaluator.hpp"
#include "carbon/bilevel/gap.hpp"
#include "carbon/bilevel/linear.hpp"
#include "carbon/cobra/cobra_solver.hpp"
#include "carbon/common/cli.hpp"
#include "carbon/common/csv.hpp"
#include "carbon/common/rng.hpp"
#include "carbon/common/statistics.hpp"
#include "carbon/common/stopwatch.hpp"
#include "carbon/common/task_scheduler.hpp"
#include "carbon/core/carbon_solver.hpp"
#include "carbon/core/checkpoint.hpp"
#include "carbon/core/config.hpp"
#include "carbon/core/experiment.hpp"
#include "carbon/core/result.hpp"
#include "carbon/cover/exact.hpp"
#include "carbon/cover/generator.hpp"
#include "carbon/cover/greedy.hpp"
#include "carbon/cover/instance.hpp"
#include "carbon/cover/lagrangian.hpp"
#include "carbon/cover/local_search.hpp"
#include "carbon/cover/orlib_io.hpp"
#include "carbon/cover/relaxation.hpp"
#include "carbon/ea/archive.hpp"
#include "carbon/ea/binary_ops.hpp"
#include "carbon/ea/real_ops.hpp"
#include "carbon/gp/generate.hpp"
#include "carbon/gp/operators.hpp"
#include "carbon/gp/population_stats.hpp"
#include "carbon/gp/scoring.hpp"
#include "carbon/gp/tree.hpp"
#include "carbon/guard/guard.hpp"
#include "carbon/lp/problem.hpp"
#include "carbon/lp/simplex.hpp"
#include "carbon/obs/json.hpp"
#include "carbon/obs/metrics.hpp"
#include "carbon/obs/run_journal.hpp"
