// Bounded LRU cache of LP relaxations, keyed by pricing.
//
// This replaces the evaluator's former single-map memo whose eviction policy
// was a wholesale clear(): that policy invalidated `const Relaxation&`
// handles still held by callers mid-evaluation.
//
// Design:
//   * entries are handed out as shared_ptr<const Relaxation>, so an entry a
//     caller holds stays valid no matter what the cache evicts afterwards
//     ("pinning");
//   * the cache is single-threaded. Its one client, the evaluator's staged
//     resolve (ParallelEvaluator::resolve_relaxations), probes and inserts
//     on the submitting thread in submission order and solves misses
//     outside the cache, so the LRU order is a pure function of the job
//     sequence for any thread count;
//   * every requested relaxation counts exactly one hit (lookup, or
//     count_pinned_hit) or one solve (insert), so  hits() + solves() ==
//     lookups;
//   * eviction drops least-recently-used entries beyond the capacity.
#pragma once

#include <cstddef>
#include <list>
#include <memory>
#include <span>
#include <unordered_map>
#include <vector>

#include "carbon/cover/relaxation.hpp"

namespace carbon::bcpop {

/// FNV-1a over the raw bit patterns; exact-match keying is what we want
/// because identical genomes produce bit-identical prices.
struct PricingHash {
  std::size_t operator()(const std::vector<double>& v) const noexcept;
};

class RelaxationCache {
 public:
  using RelaxationPtr = std::shared_ptr<const cover::Relaxation>;

  /// `capacity` bounds the number of cached relaxations (at least one).
  explicit RelaxationCache(std::size_t capacity);

  RelaxationCache(const RelaxationCache&) = delete;
  RelaxationCache& operator=(const RelaxationCache&) = delete;

  /// Returns the entry for `pricing` — counting a hit and touching its
  /// recency — or null on a miss, counting nothing; the caller solves
  /// outside the cache and insert()s the result, which books the solve.
  [[nodiscard]] RelaxationPtr lookup(std::span<const double> pricing);

  /// Caches an externally computed relaxation, counting one solve and
  /// applying the LRU bound. An existing entry for the key is replaced and
  /// touched without counting.
  void insert(std::span<const double> pricing, RelaxationPtr value);

  /// Counts a hit served from a pointer the caller already pins: an
  /// in-batch duplicate whose entry a later insert of the same batch
  /// evicted before the duplicate was read back.
  void count_pinned_hit() noexcept { ++hits_; }

  /// Completed solves (inserted misses).
  [[nodiscard]] long long solves() const noexcept { return solves_; }
  /// Requests answered without a solve.
  [[nodiscard]] long long hits() const noexcept { return hits_; }
  /// Entries dropped by the capacity bound. Pinned entries (shared_ptrs
  /// held by callers) stay valid past their eviction; this counts only the
  /// cache-side drops, so absent clear() size() == solves() - evictions().
  [[nodiscard]] long long evictions() const noexcept { return evictions_; }
  /// Currently cached entries.
  [[nodiscard]] std::size_t size() const noexcept { return lru_.size(); }

  /// Drops every entry (counters are kept).
  void clear() noexcept;

 private:
  using Key = std::vector<double>;

  struct Entry {
    RelaxationPtr value;
    std::list<Key>::iterator lru_pos;
  };

  std::size_t capacity_;
  std::unordered_map<Key, Entry, PricingHash> map_;
  std::list<Key> lru_;  ///< front = most recently used
  long long solves_ = 0;
  long long hits_ = 0;
  long long evictions_ = 0;
};

}  // namespace carbon::bcpop
