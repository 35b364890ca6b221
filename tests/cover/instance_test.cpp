#include "carbon/cover/instance.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "carbon/cover/generator.hpp"

namespace carbon::cover {
namespace {

Instance tiny() {
  // 3 bundles x 2 services.
  return Instance({10.0, 20.0, 15.0},
                  {{2, 0}, {1, 3}, {0, 2}},
                  {2, 3});
}

TEST(Instance, Dimensions) {
  const Instance inst = tiny();
  EXPECT_EQ(inst.num_bundles(), 3u);
  EXPECT_EQ(inst.num_services(), 2u);
  EXPECT_DOUBLE_EQ(inst.cost(1), 20.0);
  EXPECT_EQ(inst.demand(1), 3);
  EXPECT_EQ(inst.quantity(1, 1), 3);
  EXPECT_EQ(inst.quantity(2, 0), 0);
}

TEST(Instance, BundleRowSpan) {
  const Instance inst = tiny();
  const auto row = inst.bundle(1);
  ASSERT_EQ(row.size(), 2u);
  EXPECT_EQ(row[0], 1);
  EXPECT_EQ(row[1], 3);
}

TEST(Instance, TotalSupplyAndCoverable) {
  const Instance inst = tiny();
  EXPECT_EQ(inst.total_supply(0), 3);
  EXPECT_EQ(inst.total_supply(1), 5);
  EXPECT_TRUE(inst.coverable());

  const Instance bad({1.0}, {{1, 0}}, {1, 1});
  EXPECT_FALSE(bad.coverable());
}

TEST(Instance, FeasibilityOfSelections) {
  const Instance inst = tiny();
  const std::vector<std::uint8_t> all = {1, 1, 1};
  const std::vector<std::uint8_t> first_two = {1, 1, 0};
  const std::vector<std::uint8_t> none = {0, 0, 0};
  EXPECT_TRUE(inst.feasible(all));
  EXPECT_TRUE(inst.feasible(first_two));  // supply (3,3) >= (2,3)
  EXPECT_FALSE(inst.feasible(none));
  EXPECT_FALSE(inst.feasible(std::vector<std::uint8_t>{0, 1, 0}));
}

TEST(Instance, FeasibleRejectsWrongSize) {
  const Instance inst = tiny();
  EXPECT_FALSE(inst.feasible(std::vector<std::uint8_t>{1, 1}));
}

TEST(Instance, SelectionCost) {
  const Instance inst = tiny();
  EXPECT_DOUBLE_EQ(inst.selection_cost(std::vector<std::uint8_t>{1, 0, 1}),
                   25.0);
  EXPECT_DOUBLE_EQ(inst.selection_cost(std::vector<std::uint8_t>{0, 0, 0}),
                   0.0);
}

TEST(Instance, ResidualDemandClampsAtZero) {
  const Instance inst = tiny();
  const auto r0 = inst.residual_demand(std::vector<std::uint8_t>{0, 0, 0});
  EXPECT_EQ(r0, (std::vector<int>{2, 3}));
  const auto r1 = inst.residual_demand(std::vector<std::uint8_t>{1, 0, 1});
  EXPECT_EQ(r1, (std::vector<int>{0, 1}));
  const auto r2 = inst.residual_demand(std::vector<std::uint8_t>{1, 1, 1});
  EXPECT_EQ(r2, (std::vector<int>{0, 0}));
}

TEST(Instance, SetCostOnlyAffectsCosts) {
  Instance inst = tiny();
  inst.set_cost(0, 99.0);
  EXPECT_DOUBLE_EQ(inst.cost(0), 99.0);
  EXPECT_EQ(inst.quantity(0, 0), 2);
}

TEST(Instance, SupplierIndexMatchesMatrix) {
  const Instance inst = tiny();
  // Service 0 is supplied by bundles 0 (q=2) and 1 (q=1).
  const auto idx0 = inst.suppliers(0);
  const auto q0 = inst.supplier_quantities(0);
  ASSERT_EQ(idx0.size(), 2u);
  EXPECT_EQ(idx0[0], 0u);
  EXPECT_EQ(q0[0], 2);
  EXPECT_EQ(idx0[1], 1u);
  EXPECT_EQ(q0[1], 1);
  // Service 1: bundles 1 (q=3) and 2 (q=2).
  const auto idx1 = inst.suppliers(1);
  ASSERT_EQ(idx1.size(), 2u);
  EXPECT_EQ(idx1[0], 1u);
  EXPECT_EQ(idx1[1], 2u);
}

TEST(Instance, SupplierIndexSortedByQuantity) {
  // Index order and quantity order differ, and every service has ties.
  const Instance inst({1.0, 1.0, 1.0, 1.0, 1.0, 1.0},
                      {{1, 5, 0},
                       {4, 5, 2},
                       {0, 7, 2},
                       {4, 0, 9},
                       {2, 5, 0},
                       {4, 1, 2}},
                      {3, 3, 3});
  const std::vector<std::vector<std::uint32_t>> want_idx = {
      {1, 3, 5, 4, 0}, {2, 0, 1, 4, 5}, {3, 1, 2, 5}};
  const std::vector<std::vector<int>> want_q = {
      {4, 4, 4, 2, 1}, {7, 5, 5, 5, 1}, {9, 2, 2, 2}};
  for (std::size_t k = 0; k < inst.num_services(); ++k) {
    const auto idx = inst.suppliers(k);
    const auto qty = inst.supplier_quantities(k);
    EXPECT_EQ(std::vector<std::uint32_t>(idx.begin(), idx.end()), want_idx[k])
        << "service " << k;
    EXPECT_EQ(std::vector<int>(qty.begin(), qty.end()), want_q[k])
        << "service " << k;
  }

  // The contract on generated instances: each segment is sorted by
  // descending quantity, ascending index on ties, and is a permutation of
  // the dense column's nonzeros.
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    GeneratorConfig cfg;
    cfg.num_bundles = 80;
    cfg.num_services = 6;
    cfg.density = 0.6;
    cfg.max_quantity = 9;  // forces ties
    cfg.seed = seed;
    const Instance gen = generate(cfg);
    for (std::size_t k = 0; k < gen.num_services(); ++k) {
      const auto idx = gen.suppliers(k);
      const auto qty = gen.supplier_quantities(k);
      ASSERT_EQ(idx.size(), qty.size());
      for (std::size_t t = 1; t < idx.size(); ++t) {
        ASSERT_TRUE(qty[t - 1] > qty[t] ||
                    (qty[t - 1] == qty[t] && idx[t - 1] < idx[t]))
            << "seed " << seed << " service " << k << " entry " << t;
      }
      std::vector<std::pair<std::uint32_t, int>> listed;
      for (std::size_t t = 0; t < idx.size(); ++t) {
        ASSERT_EQ(qty[t], gen.quantity(idx[t], k));
        listed.emplace_back(idx[t], qty[t]);
      }
      std::sort(listed.begin(), listed.end());
      std::vector<std::pair<std::uint32_t, int>> dense;
      for (std::size_t j = 0; j < gen.num_bundles(); ++j) {
        if (gen.quantity(j, k) != 0) {
          dense.emplace_back(static_cast<std::uint32_t>(j),
                             gen.quantity(j, k));
        }
      }
      EXPECT_EQ(listed, dense) << "seed " << seed << " service " << k;
    }
  }
}

TEST(Instance, ConstructorValidation) {
  EXPECT_THROW(Instance({1.0, 2.0}, {{1}}, {1}), std::invalid_argument);
  EXPECT_THROW(Instance({1.0}, {{1, 2}}, {1}), std::invalid_argument);
  EXPECT_THROW(Instance({1.0}, {{-1}}, {1}), std::invalid_argument);
  EXPECT_THROW(Instance({1.0}, {{1}}, {-1}), std::invalid_argument);
}

TEST(Instance, DescribeMentionsDimensions) {
  const Instance inst = tiny();
  const std::string d = inst.describe();
  EXPECT_NE(d.find("3 bundles"), std::string::npos);
  EXPECT_NE(d.find("2 services"), std::string::npos);
}

}  // namespace
}  // namespace carbon::cover
