// Microbenchmark of the parallel batch-evaluation layer.
//
// Two sections, both written to BENCH_parallel_eval.json:
//
//   grid — batches of spin-calibrated jobs with three cost profiles
//   (uniform, skewed, heavy_tail — the skewed shapes mimic a CARBON
//   generation, where most jobs are relaxation-cache hits and a few pay the
//   full solve) run as a plain serial loop on the calling thread and
//   through common::TaskScheduler with 1/2/4/8 workers next to the caller.
//   Every cell asserts both produce bit-equal result checksums before
//   timing, so a speedup can never come from a semantic divergence. The
//   ratio is the scheduler's parallel speedup net of its coordination
//   overhead (pre-dealt blocks on lock-free deques, stealing once a block
//   drains).
//
//   evaluator — a CARBON-shaped workload (generations of pricing x
//   heuristic batches, the pricing pool reused across generations) replayed
//   through ParallelEvaluator, reporting evaluations/second, the
//   cross-generation memo hit rate, and the scheduler's task/steal
//   counters.
//
// Note the wall-clock numbers are bounded by the machine: with fewer
// hardware threads than participants the scheduler can only show its
// coordination overhead; hardware_threads is recorded next to the grid.
//
// Usage: micro_parallel_eval [--smoke] [output.json]
//   --smoke shrinks repetitions and the grid to a sub-second run for the
//   bench-smoke ctest label (default output: BENCH_parallel_eval.json).

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "carbon/bcpop/parallel_evaluator.hpp"
#include "carbon/common/rng.hpp"
#include "carbon/common/task_scheduler.hpp"
#include "carbon/cover/generator.hpp"
#include "carbon/ea/real_ops.hpp"
#include "carbon/gp/generate.hpp"

namespace {

using namespace carbon;
using Clock = std::chrono::steady_clock;

// ---------------------------------------------------------------------------
// Section 1: the engine grid on spin-calibrated synthetic jobs.

/// splitmix64 — the spin kernel's mixer; opaque enough that the optimizer
/// cannot collapse the loop.
std::uint64_t mix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// Spins for `rounds` mixer iterations and returns the running hash (the
/// job's "result" — checksummed to pin serial/scheduler bit-equality).
std::uint64_t spin(std::uint64_t seed, std::uint64_t rounds) {
  std::uint64_t h = seed;
  for (std::uint64_t r = 0; r < rounds; ++r) h = mix(h + r);
  return h;
}

/// Measures mixer rounds per microsecond (best of three, so a descheduled
/// calibration pass cannot inflate every job), so profiles can express job
/// costs in time units while the jobs themselves never read the clock.
double calibrate_rounds_per_us() {
  constexpr std::uint64_t kRounds = 4'000'000;
  double best_us = 1e300;
  for (int rep = 0; rep < 3; ++rep) {
    const auto t0 = Clock::now();
    const std::uint64_t sink = spin(1, kRounds);
    const auto t1 = Clock::now();
    if (sink == 0xdeadbeef) std::abort();  // keep `sink` observable
    const double us =
        std::chrono::duration<double, std::micro>(t1 - t0).count();
    if (us < best_us) best_us = us;
  }
  return static_cast<double>(kRounds) / best_us;
}

struct CostProfile {
  const char* name;
  /// Per-job cost in microseconds, index-deterministic.
  double (*cost_us)(std::size_t i);
};

/// uniform: every job 2us. skewed: 90% at 0.3us (a relaxation-cache hit is
/// a hash probe plus a copy — a few hundred ns), 8% at 3us (memo-path
/// scoring), 2% at 20us (fresh warm-started solves) — the CARBON
/// generation shape once the cache is warm. heavy_tail: one 500us
/// straggler amid 1us jobs — the worst case for chunk barriers, the best
/// for stealing.
double cost_uniform(std::size_t) { return 2.0; }
double cost_skewed(std::size_t i) {
  const std::uint64_t h = mix(i * 2654435761u);
  const unsigned bucket = static_cast<unsigned>(h % 100);
  if (bucket < 90) return 0.3;
  if (bucket < 98) return 3.0;
  return 20.0;
}
double cost_heavy_tail(std::size_t i) { return i == 7 ? 500.0 : 1.0; }

struct GridCell {
  const char* profile;
  std::size_t workers;  ///< TaskScheduler workers (plus the caller)
  std::size_t jobs;
  double serial_ms;  ///< plain loop on the calling thread, best-of-reps
  double sched_ms;   ///< TaskScheduler::parallel_for, best-of-reps
  double speedup;    ///< serial_ms / sched_ms
};

GridCell run_grid_cell(const CostProfile& profile, std::size_t workers,
                       std::size_t jobs, double rounds_per_us, int reps) {
  std::vector<std::uint64_t> rounds(jobs);
  for (std::size_t i = 0; i < jobs; ++i) {
    rounds[i] = static_cast<std::uint64_t>(profile.cost_us(i) * rounds_per_us);
  }
  std::vector<std::uint64_t> results(jobs);
  const auto job = [&](std::size_t i) { results[i] = spin(i, rounds[i]); };
  const auto checksum = [&] {
    std::uint64_t h = 0;
    for (const std::uint64_t r : results) h = mix(h ^ r);
    return h;
  };

  const auto serial = [&] {
    for (std::size_t i = 0; i < jobs; ++i) job(i);
  };
  common::TaskScheduler sched(workers);

  // Bit-equality guard (and warm-up) before any timing.
  serial();
  const std::uint64_t want = checksum();
  sched.parallel_for(jobs, [&](std::size_t, std::size_t i) { job(i); });
  if (checksum() != want) {
    std::fprintf(stderr, "scheduler checksum mismatch\n");
    std::abort();
  }

  GridCell cell{profile.name, workers, jobs, 1e300, 1e300, 0.0};
  for (int rep = 0; rep < reps; ++rep) {
    auto t0 = Clock::now();
    serial();
    auto t1 = Clock::now();
    const double serial_ms =
        std::chrono::duration<double, std::milli>(t1 - t0).count();
    if (serial_ms < cell.serial_ms) cell.serial_ms = serial_ms;

    t0 = Clock::now();
    sched.parallel_for(jobs, [&](std::size_t, std::size_t i) { job(i); });
    t1 = Clock::now();
    const double sched_ms =
        std::chrono::duration<double, std::milli>(t1 - t0).count();
    if (sched_ms < cell.sched_ms) cell.sched_ms = sched_ms;
  }
  cell.speedup = cell.serial_ms / cell.sched_ms;
  return cell;
}

// ---------------------------------------------------------------------------
// Section 2: the CARBON-shaped evaluator replay.

struct Workload {
  bcpop::Instance instance;
  std::vector<bcpop::Pricing> pricings;
  std::vector<gp::Tree> trees;
  std::vector<bcpop::HeuristicJob> batch;  ///< one generation's jobs
  int generations = 0;
};

Workload make_workload(bool smoke) {
  cover::GeneratorConfig cfg;
  cfg.num_bundles = smoke ? 40 : 120;
  cfg.num_services = smoke ? 5 : 12;
  cfg.seed = 29;
  Workload w{bcpop::Instance(cover::generate(cfg),
                             /*num_owned=*/smoke ? 4 : 12),
             {},
             {},
             {},
             /*generations=*/smoke ? 2 : 6};
  common::Rng rng(7);
  // 20 pricings x 10 heuristics per generation; the pricing pool is shared
  // by every heuristic (and every generation), so most relaxation lookups
  // after the first sweep are cache hits — like CARBON's predator phase.
  // Re-running the SAME batch every generation is the cross-generation
  // memo's best case and bounds what elitism/reinjection can recover.
  const int num_pricings = smoke ? 6 : 20;
  const int num_trees = smoke ? 4 : 10;
  for (int i = 0; i < num_pricings; ++i) {
    w.pricings.push_back(
        ea::random_real_vector(rng, w.instance.price_bounds()));
  }
  for (int t = 0; t < num_trees; ++t) {
    w.trees.push_back(gp::generate_ramped(rng));
  }
  for (const auto& tree : w.trees) {
    for (const auto& p : w.pricings) {
      w.batch.push_back({p, &tree, bcpop::EvalPurpose::kLowerOnly});
    }
  }
  return w;
}

struct EvalRow {
  std::size_t threads;
  double seconds = 0.0;
  long long evals = 0;
  double evals_per_s = 0.0;
  long long relax_solves = 0;
  long long relax_hits = 0;
  long long xgen_hits = 0;
  long long sched_tasks = 0;
  long long sched_steals = 0;
};

EvalRow run_eval_row(const Workload& w, std::size_t threads) {
  bcpop::ParallelEvaluator eval(w.instance, threads);

  const auto t0 = Clock::now();
  for (int g = 0; g < w.generations; ++g) {
    const auto results = eval.evaluate_heuristic_batch(w.batch);
    if (results.size() != w.batch.size()) std::abort();
  }
  const auto t1 = Clock::now();

  EvalRow row;
  row.threads = threads;
  row.seconds = std::chrono::duration<double>(t1 - t0).count();
  row.evals = static_cast<long long>(w.batch.size()) * w.generations;
  row.evals_per_s = static_cast<double>(row.evals) / row.seconds;
  row.relax_solves = eval.relaxations_solved();
  row.relax_hits = eval.relaxation_cache_hits();
  row.xgen_hits = eval.score_cache().hits();
  row.sched_tasks = eval.sched_stats().tasks;
  row.sched_steals = eval.sched_stats().steals;
  return row;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::string json_path = "BENCH_parallel_eval.json";
  for (int a = 1; a < argc; ++a) {
    const std::string arg = argv[a];
    if (arg == "--smoke") {
      smoke = true;
    } else {
      json_path = arg;
    }
  }

  const unsigned hw = std::thread::hardware_concurrency();
  const double rounds_per_us = calibrate_rounds_per_us();
  std::printf("parallel eval bench (%u hardware threads, %.0f rounds/us)\n",
              hw, rounds_per_us);

  // --- Section 1: engine grid ---
  const CostProfile profiles[] = {{"uniform", cost_uniform},
                                  {"skewed", cost_skewed},
                                  {"heavy_tail", cost_heavy_tail}};
  const std::vector<std::size_t> thread_counts =
      smoke ? std::vector<std::size_t>{2}
            : std::vector<std::size_t>{1, 2, 4, 8};
  const std::size_t jobs = smoke ? 64 : 512;
  const int reps = smoke ? 2 : 7;

  std::vector<GridCell> grid;
  for (const CostProfile& profile : profiles) {
    for (const std::size_t t : thread_counts) {
      grid.push_back(run_grid_cell(profile, t, jobs, rounds_per_us, reps));
    }
  }
  std::printf("%-11s %8s %6s %12s %12s %9s\n", "profile", "workers", "jobs",
              "serial ms", "sched ms", "speedup");
  for (const GridCell& c : grid) {
    std::printf("%-11s %8zu %6zu %12.3f %12.3f %8.2fx\n", c.profile,
                c.workers, c.jobs, c.serial_ms, c.sched_ms, c.speedup);
  }

  // --- Section 2: evaluator replay ---
  const Workload w = make_workload(smoke);
  std::printf("\nevaluator replay: %zu jobs/generation x %d generations\n",
              w.batch.size(), w.generations);
  std::vector<EvalRow> rows;
  for (const std::size_t t : thread_counts) {
    rows.push_back(run_eval_row(w, t));
  }
  std::printf("%8s %9s %12s %11s %10s %8s\n", "threads", "sec", "evals/s",
              "relax-hits", "xgen-hits", "steals");
  for (const EvalRow& r : rows) {
    std::printf("%8zu %9.3f %12.0f %11lld %10lld %8lld\n", r.threads,
                r.seconds, r.evals_per_s, r.relax_hits, r.xgen_hits,
                r.sched_steals);
  }

  std::FILE* f = std::fopen(json_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n", json_path.c_str());
    return 1;
  }
  std::fprintf(f, "{\n  \"bench\": \"parallel_eval\",\n");
  std::fprintf(f, "  \"hardware_threads\": %u,\n", hw);
  std::fprintf(f, "  \"grid\": [\n");
  for (std::size_t i = 0; i < grid.size(); ++i) {
    const GridCell& c = grid[i];
    std::fprintf(f,
                 "    {\"profile\": \"%s\", \"workers\": %zu, \"jobs\": %zu, "
                 "\"serial_ms\": %.3f, \"sched_ms\": %.3f, "
                 "\"speedup\": %.3f}%s\n",
                 c.profile, c.workers, c.jobs, c.serial_ms, c.sched_ms,
                 c.speedup, i + 1 < grid.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n  \"evaluator\": [\n");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const EvalRow& r = rows[i];
    std::fprintf(
        f,
        "    {\"threads\": %zu, \"seconds\": %.4f, \"evals_per_s\": %.0f, "
        "\"relax_solves\": %lld, \"relax_hits\": %lld, \"xgen_hits\": %lld, "
        "\"sched_tasks\": %lld, \"sched_steals\": %lld}%s\n",
        r.threads, r.seconds, r.evals_per_s, r.relax_solves, r.relax_hits,
        r.xgen_hits, r.sched_tasks, r.sched_steals,
        i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("wrote %s\n", json_path.c_str());
  return 0;
}
