// Crash-safe, versioned checkpoint/resume for the long-running solvers.
//
// A checkpoint snapshots the *complete* deterministic state of a solver at a
// generation boundary — populations, archives, RNG stream, best-so-far
// result, convergence trace, and consumed evaluation budgets — such that
// resuming from the file reproduces the uninterrupted run bit for bit (the
// kill/resume harness enforces this; see docs/ALGORITHMS.md §11). Both
// sides of that equality go on from empty evaluator caches: a resume
// starts with them, and the run that wrote the checkpoint drops its own.
//
// Wire format: two JSONL lines written through the obs/json layer.
//   line 1  header  {"magic":"carbon-checkpoint","version":1,"algo":...,
//                    "body_bytes":N,"body_fnv1a":"<hex>"}
//   line 2  body    one JSON object with the full solver state
// The header is validated (magic, schema version, algorithm, body length,
// FNV-1a 64 content hash) *before* the body is parsed, so truncated or
// corrupted files are rejected without any state having been applied.
//
// Bit-exactness: every double is serialized as the 16-hex-digit bit pattern
// of its IEEE-754 representation (including ±inf/NaN, which plain JSON
// numbers cannot carry), and every 64-bit counter/seed likewise — the
// decimal JSON number path goes through `double` and cannot round-trip the
// full uint64 range.
//
// Files are written atomically: tmp file in the target directory, fsync,
// rename over the destination, best-effort directory fsync. A crash during a
// write leaves the previous checkpoint intact.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "carbon/common/rng.hpp"
#include "carbon/core/result.hpp"
#include "carbon/gp/tree.hpp"
#include "carbon/obs/backend_stats.hpp"
#include "carbon/obs/json.hpp"

namespace carbon::core {

/// Any checkpoint save/load/validation failure. Loading throws this before
/// any solver state has been touched ("no partial state applied").
class CheckpointError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Bumped whenever the body schema changes incompatibly; readers reject any
/// other version (policy: docs/ALGORITHMS.md §11).
inline constexpr int kCheckpointSchemaVersion = 1;

/// Checkpoint/resume knobs shared by CarbonConfig and CobraConfig.
struct CheckpointConfig {
  /// Write a checkpoint every N recorded generations (0 = disabled).
  /// COBRA checkpoints at outer-round boundaries, so the effective cadence
  /// is the first round boundary at or past each multiple of N.
  long long every = 0;
  /// Destination file; required when `every` > 0. Written atomically.
  std::string path;
  /// Checkpoint file to restore at run() entry ("" = fresh run). The file
  /// must match the algorithm, schema version, seed, and population shape
  /// of the configured run.
  std::string resume_from;
  /// Fault-injection hook for the kill/resume tests: called after each
  /// successful checkpoint write with the generation just captured;
  /// returning true terminates the run immediately (simulated preemption —
  /// everything a real crash would lose is discarded).
  std::function<bool(int)> stop_after_checkpoint;
};

// ---- Bit-exact scalar/sequence encoding (exposed for tests) ----------------

/// 16 lowercase hex digits, zero-padded.
[[nodiscard]] std::string encode_u64(std::uint64_t v);
/// Strict inverse of encode_u64: exactly 16 hex digits or CheckpointError.
[[nodiscard]] std::uint64_t decode_u64(std::string_view text);

[[nodiscard]] std::string encode_i64(long long v);
[[nodiscard]] long long decode_i64(std::string_view text);

/// IEEE-754 bit pattern as hex; round-trips every double including
/// ±0, ±inf, and NaN payloads.
[[nodiscard]] std::string encode_f64(double v);
[[nodiscard]] double decode_f64(std::string_view text);

/// Space-separated encode_f64 words.
[[nodiscard]] std::string encode_doubles(std::span<const double> values);
[[nodiscard]] std::vector<double> decode_doubles(std::string_view text);

/// Two hex digits per byte, no separator (binary genomes, selections).
[[nodiscard]] std::string encode_bytes(std::span<const std::uint8_t> bytes);
[[nodiscard]] std::vector<std::uint8_t> decode_bytes(std::string_view text);

/// GP tree as space-separated prefix tokens: "+ - * / %" for operators,
/// "t<index>" for terminals, "c<hex16>" for constants. Structural validity
/// is re-checked on decode.
[[nodiscard]] std::string encode_tree(const gp::Tree& tree);
[[nodiscard]] gp::Tree decode_tree(std::string_view text);

// ---- Snapshot payloads -----------------------------------------------------

/// State common to both solvers, captured at a generation boundary.
struct SolverProgress {
  common::RngState rng;
  int generation = 0;
  /// Budget consumed since run start (eval counters are per-evaluator, so
  /// the resumed run offsets its fresh evaluator by these).
  long long consumed_ul = 0;
  long long consumed_ll = 0;
  /// Backend telemetry counters consumed so far; restored as an offset so
  /// journal records stay cumulative across the resume.
  obs::BackendStats backend;
  /// Best-so-far result including the convergence trace prefix.
  RunResult result;

  bool operator==(const SolverProgress&) const = default;
};

/// One solution-archive entry (CARBON upper archive).
struct ArchivedPricingState {
  bcpop::Pricing pricing;
  bcpop::Evaluation evaluation;
  double fitness = 0.0;

  bool operator==(const ArchivedPricingState&) const = default;
};

/// One heuristic-archive entry (CARBON predator archive).
struct ArchivedHeuristicState {
  gp::Tree tree;
  double fitness = 0.0;

  bool operator==(const ArchivedHeuristicState&) const = default;
};

/// One COBRA archive entry (complete (pricing, basket) pair).
struct ArchivedPairState {
  bcpop::Pricing pricing;
  std::vector<std::uint8_t> basket;
  bcpop::Evaluation evaluation;
  double fitness = 0.0;

  bool operator==(const ArchivedPairState&) const = default;
};

struct CarbonCheckpoint {
  std::uint64_t seed = 0;  ///< config echo; resume rejects a mismatch
  SolverProgress progress;
  std::vector<bcpop::Pricing> ul_pop;
  std::vector<gp::Tree> gp_pop;
  /// Archives serialized best-first; re-adding in order reproduces the
  /// exact internal ordering (ties keep insertion order).
  std::vector<ArchivedPricingState> solution_archive;
  std::vector<ArchivedHeuristicState> heuristic_archive;

  [[nodiscard]] std::string to_json() const;
  [[nodiscard]] static CarbonCheckpoint from_json(const obs::JsonValue& body);

  /// Atomic two-line write / fully-validated load (see file comment).
  void save(const std::string& path) const;
  [[nodiscard]] static CarbonCheckpoint load(const std::string& path);

  bool operator==(const CarbonCheckpoint&) const = default;
};

struct CobraCheckpoint {
  std::uint64_t seed = 0;
  SolverProgress progress;
  std::vector<bcpop::Pricing> ul_pop;
  std::vector<std::vector<std::uint8_t>> ll_pop;
  std::vector<ArchivedPairState> upper_archive;
  std::vector<ArchivedPairState> lower_archive;
  /// Cross-level champions used for pairing in the next round.
  bcpop::Pricing paired_pricing;
  std::vector<std::uint8_t> paired_basket;

  [[nodiscard]] std::string to_json() const;
  [[nodiscard]] static CobraCheckpoint from_json(const obs::JsonValue& body);

  void save(const std::string& path) const;
  [[nodiscard]] static CobraCheckpoint load(const std::string& path);

  bool operator==(const CobraCheckpoint&) const = default;
};

// ---- File layer ------------------------------------------------------------

/// Writes `contents` to `path` via tmp + fsync + rename (+ best-effort
/// directory fsync). Throws CheckpointError on any I/O failure; the
/// destination is either the old file or the complete new one, never a
/// partial write.
void write_file_atomic(const std::string& path, std::string_view contents);

/// Wraps `body_json` in the validated header line and writes atomically.
void save_checkpoint_file(const std::string& path, std::string_view algo,
                          std::string_view body_json);

/// Reads `path`, validates the header (magic, version, algorithm, body
/// length, content hash), and returns the parsed body. Throws
/// CheckpointError on any mismatch, truncation, or parse failure.
[[nodiscard]] obs::JsonValue load_checkpoint_file(const std::string& path,
                                                  std::string_view expect_algo);

/// FNV-1a 64-bit content hash used by the header (exposed for tests).
[[nodiscard]] std::uint64_t fnv1a64(std::string_view data);

}  // namespace carbon::core
