// Direct RelaxationCache coverage: eviction accounting, LRU order, pinning
// under churn, and the hit/solve counters — the cases the evaluator-level
// tests only exercise incidentally.

#include "carbon/bcpop/relaxation_cache.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

namespace carbon::bcpop {
namespace {

/// A synthetic solve whose result encodes its key, so a stale or corrupted
/// cache entry is detectable by value.
cover::Relaxation fake_solve(std::span<const double> pricing) {
  cover::Relaxation r;
  r.feasible = true;
  r.lower_bound = pricing.empty() ? 0.0 : pricing[0];
  return r;
}

std::vector<double> key(double k) { return {k, 2.0 * k}; }

/// One request the way the evaluator makes it: probe, and on a miss solve
/// outside the cache and insert the result.
RelaxationCache::RelaxationPtr request(RelaxationCache& cache, double k) {
  const std::vector<double> pricing = key(k);
  if (RelaxationCache::RelaxationPtr hit = cache.lookup(pricing)) return hit;
  auto solved = std::make_shared<const cover::Relaxation>(fake_solve(pricing));
  cache.insert(pricing, solved);
  return solved;
}

TEST(RelaxationCache, CountsHitsSolvesAndEvictions) {
  RelaxationCache cache(/*capacity=*/4);
  for (int i = 0; i < 16; ++i) {
    const auto got = request(cache, i);
    EXPECT_DOUBLE_EQ(got->lower_bound, static_cast<double>(i));
  }
  EXPECT_EQ(cache.solves(), 16);
  EXPECT_EQ(cache.hits(), 0);
  EXPECT_EQ(cache.evictions(), 12);
  EXPECT_EQ(cache.size(), 4u);
  // size() == solves() - evictions() absent clear().
  EXPECT_EQ(static_cast<long long>(cache.size()),
            cache.solves() - cache.evictions());

  // The 4 most recent keys are still resident; re-requesting them is free.
  for (int i = 12; i < 16; ++i) (void)request(cache, i);
  EXPECT_EQ(cache.solves(), 16);
  EXPECT_EQ(cache.hits(), 4);
}

TEST(RelaxationCache, LruEvictsTheColdestEntry) {
  RelaxationCache cache(/*capacity=*/2);
  (void)request(cache, 1);
  (void)request(cache, 2);
  (void)request(cache, 1);  // refresh 1
  (void)request(cache, 3);  // evicts 2
  EXPECT_EQ(cache.evictions(), 1);
  (void)request(cache, 1);  // still a hit
  EXPECT_EQ(cache.solves(), 3);
  EXPECT_EQ(cache.hits(), 2);
  (void)request(cache, 2);  // re-solve after eviction
  EXPECT_EQ(cache.solves(), 4);
}

TEST(RelaxationCache, PinnedEntriesSurviveEviction) {
  RelaxationCache cache(/*capacity=*/1);
  const auto pinned = request(cache, 100);
  // Churn far past capacity; the pinned entry is evicted from the cache but
  // the handle must stay valid and unchanged.
  for (int i = 0; i < 32; ++i) (void)request(cache, i);
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.evictions(), 32);
  EXPECT_DOUBLE_EQ(pinned->lower_bound, 100.0);
  EXPECT_TRUE(pinned->feasible);
}

TEST(RelaxationCache, ClearDropsEntriesWithoutCountingEvictions) {
  RelaxationCache cache(/*capacity=*/8);
  for (int i = 0; i < 6; ++i) (void)request(cache, i);
  const long long evictions_before = cache.evictions();
  cache.clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.evictions(), evictions_before);
  // Counters persist; a re-request re-solves.
  (void)request(cache, 0);
  EXPECT_EQ(cache.solves(), 7);
}

TEST(RelaxationCache, MissCountsNothingUntilInsertBooksTheSolve) {
  RelaxationCache cache(/*capacity=*/4);
  EXPECT_EQ(cache.lookup(key(1)), nullptr);
  EXPECT_EQ(cache.hits(), 0);
  EXPECT_EQ(cache.solves(), 0);
  cache.insert(key(1), std::make_shared<const cover::Relaxation>(
                           fake_solve(key(1))));
  EXPECT_EQ(cache.solves(), 1);
  // Re-inserting a resident key replaces it without booking a solve.
  cache.insert(key(1), std::make_shared<const cover::Relaxation>(
                           fake_solve(key(7))));
  EXPECT_EQ(cache.solves(), 1);
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_DOUBLE_EQ(cache.lookup(key(1))->lower_bound, 7.0);
  EXPECT_EQ(cache.hits(), 1);
  cache.count_pinned_hit();
  EXPECT_EQ(cache.hits(), 2);
}

}  // namespace
}  // namespace carbon::bcpop
