// Thread-safe sharded LRU cache of LP relaxations, keyed by pricing.
//
// This replaces the evaluator's former single-map memo whose eviction policy
// was a wholesale clear(): that policy invalidated `const Relaxation&`
// handles still held by callers mid-evaluation, and a single map cannot be
// shared across evaluation threads without serializing every lookup.
//
// Design:
//   * entries are handed out as shared_ptr<const Relaxation>, so an entry a
//     caller holds stays valid no matter what the cache evicts afterwards
//     ("pinning");
//   * the key space is split across S shards, each with its own mutex and a
//     bounded LRU list, so concurrent lookups of different pricings contend
//     only when they hash to the same shard;
//   * a miss inserts an in-flight placeholder before solving, so concurrent
//     requests for the SAME pricing block on the one solve instead of
//     duplicating it (once-semantics). This keeps relaxations_solved() equal
//     to the number of distinct pricings when no eviction occurs, and makes
//     the invariant  hits() + solves() == lookups  hold under any schedule;
//   * eviction removes least-recently-used entries beyond the per-shard
//     capacity but never the entry being handed out by the current call.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
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

class ShardedRelaxationCache {
 public:
  using RelaxationPtr = std::shared_ptr<const cover::Relaxation>;
  using SolveFn = std::function<cover::Relaxation(std::span<const double>)>;

  /// `capacity` bounds the total number of cached relaxations (split evenly
  /// across `num_shards`, each shard keeping at least one entry). One shard
  /// degenerates to a classic mutex-protected LRU with exact eviction order,
  /// which is what a single-participant or pool-mode evaluator uses.
  explicit ShardedRelaxationCache(std::size_t capacity,
                                  std::size_t num_shards = 16);

  ShardedRelaxationCache(const ShardedRelaxationCache&) = delete;
  ShardedRelaxationCache& operator=(const ShardedRelaxationCache&) = delete;

  /// Returns the cached relaxation for `pricing`, or invokes `solve` (outside
  /// any lock) to compute, cache, and return it. Concurrent callers with the
  /// same pricing wait for the in-flight solve instead of re-solving. The
  /// returned pointer stays valid for as long as the caller holds it.
  RelaxationPtr get_or_compute(std::span<const double> pricing,
                               const SolveFn& solve);

  /// Staged-batch probe (pool-mode evaluator): returns the ready entry for
  /// `pricing` — counting a hit and touching its recency — or null on a
  /// miss, counting nothing; the caller solves outside the cache and
  /// insert()s the result, which books the solve. In-flight placeholders
  /// read as misses (the staged discipline never runs concurrently with
  /// get_or_compute on the same cache).
  [[nodiscard]] RelaxationPtr lookup(std::span<const double> pricing);

  /// Staged-batch completion: caches an externally computed relaxation,
  /// counting one solve and applying the LRU bound. Overwrites any existing
  /// entry for the key.
  void insert(std::span<const double> pricing, RelaxationPtr value);

  /// Completed solves (cache misses that ran the solver).
  [[nodiscard]] long long solves() const noexcept {
    return solves_.load(std::memory_order_relaxed);
  }
  /// Lookups served from the cache, including waits on an in-flight solve.
  [[nodiscard]] long long hits() const noexcept {
    return hits_.load(std::memory_order_relaxed);
  }
  /// Ready entries dropped by the per-shard capacity bound. Pinned entries
  /// (shared_ptrs held by callers) stay valid past their eviction; this
  /// counts only the cache-side drops, so absent clear() the invariant
  /// size() == solves() - evictions() holds under any schedule.
  [[nodiscard]] long long evictions() const noexcept {
    return evictions_.load(std::memory_order_relaxed);
  }
  /// Currently cached (ready) entries, summed over shards.
  [[nodiscard]] std::size_t size() const;
  [[nodiscard]] std::size_t num_shards() const noexcept {
    return shards_.size();
  }
  [[nodiscard]] std::size_t shard_capacity() const noexcept {
    return shard_capacity_;
  }

  /// Drops every ready entry (in-flight solves complete and self-insert).
  void clear();

 private:
  using Key = std::vector<double>;

  struct Entry {
    RelaxationPtr value;              ///< null while the solve is in flight
    std::list<Key>::iterator lru_pos; ///< valid only when value != nullptr
  };

  struct Shard {
    std::mutex mutex;
    std::condition_variable ready_cv;
    std::unordered_map<Key, Entry, PricingHash> map;
    std::list<Key> lru;  ///< front = most recently used; ready entries only
  };

  Shard& shard_for(std::span<const double> pricing) noexcept;

  std::size_t shard_capacity_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::atomic<long long> solves_{0};
  std::atomic<long long> hits_{0};
  std::atomic<long long> evictions_{0};
};

}  // namespace carbon::bcpop
