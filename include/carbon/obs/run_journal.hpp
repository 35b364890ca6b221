// JSONL run journal: one machine-readable record per solver generation plus
// a final run summary, written as newline-delimited JSON.
//
// The journal is the uniform observability surface the solvers write to —
// per-generation population statistics, budget spend, backend cache
// behavior, and per-phase wall-clock — so a perf or trajectory regression
// can be bisected by diffing two journal files instead of re-instrumenting
// code. The full field-by-field schema is documented in
// docs/ALGORITHMS.md §9.
//
// Record types ("type" field):
//   "run_start"   — one per begin_run(): algorithm, seed, config echo.
//   "resume"      — one per write_resume(): emitted right after
//                   "run_start" when a run restarts from a checkpoint;
//                   carries the resume generation and the budget already
//                   consumed, so journal consumers can splice trajectories.
//   "generation"  — one per recorded generation (write_generation()).
//   "summary"     — one per finish_run(): totals and final bests.
//
// When constructed with a MetricsRegistry, each generation record carries
// the *delta* of every timer since the previous record under "timings_s"
// (seconds) — per-phase cost of that generation — and the summary carries
// cumulative totals. Without a registry those objects are empty.
//
// Writing is trajectory-neutral by construction: the journal only ever
// reads solver state, and all writes happen on the solver thread between
// generations (a mutex still serializes emit() so diagnostic use from
// several threads cannot interleave lines).
#pragma once

#include <cstdint>
#include <fstream>
#include <memory>
#include <mutex>
#include <ostream>
#include <string>
#include <string_view>

#include "carbon/common/stopwatch.hpp"
#include "carbon/obs/backend_stats.hpp"
#include "carbon/obs/metrics.hpp"

namespace carbon::obs {

/// One generation's worth of observable state. Population statistics are
/// over whatever population the recording solver evaluated that
/// generation (see docs/ALGORITHMS.md §9 for the per-solver meaning).
struct GenerationRecord {
  int generation = 0;
  std::string_view phase;  ///< "carbon" | "upper" | "lower" | "coevolution"

  // Upper-level objective F over the evaluated population.
  double best_ul = 0.0;
  double mean_ul = 0.0;
  double std_ul = 0.0;
  // %-gap over the evaluated population.
  double best_gap = 0.0;
  double mean_gap = 0.0;
  double std_gap = 0.0;
  // Monotone best-so-far values (match the convergence trace).
  double best_ul_so_far = 0.0;
  double best_gap_so_far = 0.0;

  std::size_t archive_size = 0;     ///< primary (upper/solution) archive
  std::size_t ll_archive_size = 0;  ///< secondary archive (heuristics/baskets)

  // Budget spent since run start (Table II accounting).
  long long ul_evals = 0;
  long long ll_evals = 0;

  /// Backend counters, cumulative since the run's first evaluation.
  BackendStats backend;
};

/// State restored from a checkpoint, for the "resume" record.
struct ResumeRecord {
  int generation = 0;            ///< generation the run resumes at
  long long ul_evals = 0;        ///< UL budget already consumed
  long long ll_evals = 0;        ///< LL budget already consumed
  std::string_view checkpoint_path;  ///< file the state came from
};

/// Final run totals for the "summary" record.
struct RunSummary {
  int generations = 0;
  long long ul_evals = 0;
  long long ll_evals = 0;
  double best_ul = 0.0;
  double best_gap = 0.0;
  BackendStats backend;
};

class RunJournal {
 public:
  /// Appends to `path` (created if absent). Throws std::runtime_error when
  /// the file cannot be opened. `metrics` (optional, borrowed) supplies the
  /// per-generation timing deltas.
  explicit RunJournal(const std::string& path,
                      const MetricsRegistry* metrics = nullptr);
  /// Writes to a caller-owned stream (tests, in-memory capture).
  explicit RunJournal(std::ostream& out,
                      const MetricsRegistry* metrics = nullptr);

  RunJournal(const RunJournal&) = delete;
  RunJournal& operator=(const RunJournal&) = delete;

  /// Emits the "run_start" record and resets the per-run state (timing
  /// baseline, wall clock). Solvers call this at run() entry. `simd` names
  /// the kernel path of the process (common::simd::path_name()), which the
  /// GP bytecode kernels and the simplex pricing panel kernel both follow.
  void begin_run(std::string_view algo, std::uint64_t seed,
                 std::size_t eval_threads, std::string_view lp_warm,
                 std::string_view simd);

  /// Emits one "resume" record (call after begin_run when restoring a
  /// checkpoint).
  void write_resume(const ResumeRecord& rec);

  /// Emits one "generation" record.
  void write_generation(const GenerationRecord& rec);

  /// Emits the "summary" record for the current run.
  void finish_run(const RunSummary& summary);

  /// Lines emitted so far (all record types).
  [[nodiscard]] long long records_written() const noexcept {
    return records_written_;
  }

 private:
  void emit(std::string line);
  /// Timer totals since begin_run, and the delta since the last call.
  void append_timings(class JsonObjectWriter& w, bool cumulative);

  std::unique_ptr<std::ofstream> owned_file_;
  std::ostream* out_;
  const MetricsRegistry* metrics_;
  std::mutex mutex_;
  std::string algo_;
  common::Stopwatch run_clock_;
  MetricsRegistry::Snapshot last_snapshot_;
  MetricsRegistry::Snapshot run_start_snapshot_;
  long long records_written_ = 0;
};

/// Borrowed telemetry sinks handed to a solver via its config. Both are
/// optional and independent; the caller owns their lifetime (they must
/// outlive run()). Telemetry never alters trajectories: runs are
/// bit-identical with any combination of sinks attached.
struct TelemetryConfig {
  MetricsRegistry* metrics = nullptr;
  RunJournal* journal = nullptr;

  [[nodiscard]] bool enabled() const noexcept {
    return metrics != nullptr || journal != nullptr;
  }
};

}  // namespace carbon::obs
