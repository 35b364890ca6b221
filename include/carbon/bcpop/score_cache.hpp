// Cross-generation memo of completed heuristic evaluations.
//
// The per-batch score memo (eval_core's HeuristicBatchPlan) collapses
// duplicate (tree × pricing × purpose) jobs WITHIN one batch, but GP
// reproduction/elitism and archive re-evaluation repeat the same pairs
// ACROSS generations — and each repeat re-pays the full relaxation-miss +
// greedy cost. ScoreCache closes that gap: a bounded LRU from the
// evaluation's exact inputs to its finished Evaluation.
//
// Keying: (scoring-tree nodes × pricing × purpose), hashed FNV-1a over the
// raw bit patterns and always re-verified bitwise on lookup — a hash
// collision costs a comparison, never a wrong result. The caller keys by the
// CANONICAL program nodes, so syntactically different genomes that simplify
// to the same program share one entry (the same merge rule the per-batch
// plan applies). Everything else an Evaluation depends on (guard limits,
// the polish toggle) is held fixed by the owning evaluator, which
// clears the cache whenever one of them changes — see
// ParallelEvaluator::set_guard.
//
// Budget neutrality: the cache stores RESULTS, not budget charges. Callers
// charge the Table II UL/LL counters for every submitted job, hit or miss,
// so a cached run walks the exact generation/injection schedule of an
// uncached one (docs/ALGORITHMS.md §14).
//
// Single-threaded, like RelaxationCache: the evaluator probes and inserts
// on its submitting thread only, in submission order, outside the fan-out —
// so the LRU order, and every counter, is a pure function of the job
// sequence for any thread count.
#pragma once

#include <cstddef>
#include <cstdint>
#include <list>
#include <span>
#include <unordered_map>
#include <vector>

#include "carbon/bcpop/evaluator_interface.hpp"
#include "carbon/gp/tree.hpp"

namespace carbon::bcpop {

class ScoreCache {
 public:
  /// `capacity` bounds the cached evaluations (at least one).
  explicit ScoreCache(std::size_t capacity);

  ScoreCache(const ScoreCache&) = delete;
  ScoreCache& operator=(const ScoreCache&) = delete;

  /// Copies the cached Evaluation for this key into `*out` and refreshes
  /// its LRU position. Returns false (counting a miss) when absent.
  bool lookup(std::span<const gp::Node> nodes, std::span<const double> pricing,
              EvalPurpose purpose, Evaluation* out);

  /// Inserts (or refreshes) the evaluation for this key, evicting
  /// least-recently-used entries beyond the capacity. Callers must
  /// only insert results that are pure functions of the key — injected
  /// (ordinal-dependent) and watchdog-skipped (wall-clock-dependent)
  /// evaluations never belong here.
  void insert(std::span<const gp::Node> nodes, std::span<const double> pricing,
              EvalPurpose purpose, const Evaluation& result);

  /// Lookups answered from the cache.
  [[nodiscard]] long long hits() const noexcept { return hits_; }
  /// Lookups that found nothing.
  [[nodiscard]] long long misses() const noexcept { return misses_; }
  /// Entries dropped by the capacity bound (clear() not included).
  [[nodiscard]] long long evictions() const noexcept { return evictions_; }
  /// Currently cached entries.
  [[nodiscard]] std::size_t size() const noexcept { return lru_.size(); }

  /// Drops every entry (counters are kept: they are lifetime totals that
  /// checkpoint/resume offsets rely on).
  void clear() noexcept;

 private:
  struct Entry {
    std::vector<gp::Node> nodes;
    std::vector<double> pricing;
    EvalPurpose purpose;
    Evaluation value;
  };

  std::size_t capacity_;
  /// front = most recently used; iterators are stable across splices.
  std::list<Entry> lru_;
  /// FNV hash -> entries with that hash (collisions verified bitwise).
  std::unordered_map<std::uint64_t, std::vector<std::list<Entry>::iterator>>
      chains_;
  long long hits_ = 0;
  long long misses_ = 0;
  long long evictions_ = 0;
};

}  // namespace carbon::bcpop
