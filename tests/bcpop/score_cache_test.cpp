#include "carbon/bcpop/score_cache.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "carbon/gp/tree.hpp"

namespace carbon::bcpop {
namespace {

/// A tiny deterministic "program": CONST nodes whose values encode `tag`.
std::vector<gp::Node> make_nodes(double tag, std::size_t len = 3) {
  std::vector<gp::Node> nodes;
  for (std::size_t i = 0; i < len; ++i) {
    gp::Node n;
    n.op = gp::OpCode::kConst;
    n.value = tag + static_cast<double>(i);
    nodes.push_back(n);
  }
  return nodes;
}

Evaluation make_eval(double tag) {
  Evaluation e;
  e.ll_feasible = true;
  e.ul_objective = tag;
  e.ll_objective = tag * 2;
  e.lower_bound = tag / 2;
  e.gap_percent = tag / 10;
  e.selection = {1, 0, 1};
  return e;
}

TEST(ScoreCache, MissThenHitRoundTripsTheEvaluation) {
  ScoreCache cache(16);
  const auto nodes = make_nodes(1.0);
  const std::vector<double> pricing = {3.0, 4.0};
  Evaluation out;
  EXPECT_FALSE(
      cache.lookup(nodes, pricing, EvalPurpose::kLowerOnly, &out));
  EXPECT_EQ(cache.misses(), 1);

  const Evaluation stored = make_eval(7.0);
  cache.insert(nodes, pricing, EvalPurpose::kLowerOnly, stored);
  EXPECT_EQ(cache.size(), 1u);
  ASSERT_TRUE(cache.lookup(nodes, pricing, EvalPurpose::kLowerOnly, &out));
  EXPECT_EQ(out, stored);
  EXPECT_EQ(cache.hits(), 1);
}

TEST(ScoreCache, KeyDiscriminatesNodesPricingAndPurpose) {
  ScoreCache cache(16);
  const auto nodes = make_nodes(1.0);
  const std::vector<double> pricing = {3.0, 4.0};
  cache.insert(nodes, pricing, EvalPurpose::kBoth, make_eval(1.0));

  Evaluation out;
  // Different tree, different pricing, different purpose: all miss.
  EXPECT_FALSE(
      cache.lookup(make_nodes(2.0), pricing, EvalPurpose::kBoth, &out));
  const std::vector<double> other = {3.0, 5.0};
  EXPECT_FALSE(cache.lookup(nodes, other, EvalPurpose::kBoth, &out));
  EXPECT_FALSE(
      cache.lookup(nodes, pricing, EvalPurpose::kLowerOnly, &out));
  // -0.0 != +0.0 bitwise: the key must distinguish them (scoring may not).
  const std::vector<double> zeros_pos = {0.0};
  const std::vector<double> zeros_neg = {-0.0};
  cache.insert(nodes, zeros_pos, EvalPurpose::kBoth, make_eval(2.0));
  EXPECT_FALSE(cache.lookup(nodes, zeros_neg, EvalPurpose::kBoth, &out));
  EXPECT_TRUE(cache.lookup(nodes, zeros_pos, EvalPurpose::kBoth, &out));
}

TEST(ScoreCache, EvictsLeastRecentlyUsedAtCapacity) {
  ScoreCache cache(2);
  const std::vector<double> pricing = {1.0};
  cache.insert(make_nodes(1.0), pricing, EvalPurpose::kBoth, make_eval(1.0));
  cache.insert(make_nodes(2.0), pricing, EvalPurpose::kBoth, make_eval(2.0));
  Evaluation out;
  // Touch 1.0 so 2.0 is the LRU victim.
  ASSERT_TRUE(cache.lookup(make_nodes(1.0), pricing, EvalPurpose::kBoth, &out));
  cache.insert(make_nodes(3.0), pricing, EvalPurpose::kBoth, make_eval(3.0));
  EXPECT_EQ(cache.evictions(), 1);
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_FALSE(
      cache.lookup(make_nodes(2.0), pricing, EvalPurpose::kBoth, &out));
  EXPECT_TRUE(
      cache.lookup(make_nodes(1.0), pricing, EvalPurpose::kBoth, &out));
  EXPECT_TRUE(
      cache.lookup(make_nodes(3.0), pricing, EvalPurpose::kBoth, &out));
}

TEST(ScoreCache, ClearDropsEntriesButKeepsCounters) {
  ScoreCache cache(8);
  const std::vector<double> pricing = {1.0};
  cache.insert(make_nodes(1.0), pricing, EvalPurpose::kBoth, make_eval(1.0));
  Evaluation out;
  ASSERT_TRUE(cache.lookup(make_nodes(1.0), pricing, EvalPurpose::kBoth, &out));
  cache.clear();
  EXPECT_EQ(cache.size(), 0u);
  // Counters are lifetime totals: checkpoint offsets depend on them
  // surviving clear() (docs/ALGORITHMS.md §14).
  EXPECT_EQ(cache.hits(), 1);
  EXPECT_FALSE(
      cache.lookup(make_nodes(1.0), pricing, EvalPurpose::kBoth, &out));
  EXPECT_EQ(cache.misses(), 1);
}

TEST(ScoreCache, DuplicateInsertRefreshesInsteadOfDuplicating) {
  ScoreCache cache(8);
  const std::vector<double> pricing = {1.0};
  cache.insert(make_nodes(1.0), pricing, EvalPurpose::kBoth, make_eval(1.0));
  cache.insert(make_nodes(1.0), pricing, EvalPurpose::kBoth, make_eval(1.0));
  EXPECT_EQ(cache.size(), 1u);
}

}  // namespace
}  // namespace carbon::bcpop
