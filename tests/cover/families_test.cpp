#include <gtest/gtest.h>

#include <set>
#include <string>

#include "carbon/cover/generator.hpp"
#include "carbon/cover/greedy.hpp"
#include "carbon/cover/relaxation.hpp"

namespace carbon::cover {
namespace {

TEST(Families, AllNamedAndDistinct) {
  const auto& fams = instance_families();
  ASSERT_GE(fams.size(), 6u);
  std::set<std::string> names;
  for (const auto& f : fams) names.insert(f.name);
  EXPECT_EQ(names.size(), fams.size());
}

class FamilySweepTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(FamilySweepTest, GeneratesValidSolvableInstances) {
  const auto& fam = instance_families()[GetParam()];
  const Instance inst = generate(fam.config);
  EXPECT_TRUE(inst.coverable()) << fam.name;
  const Relaxation rel = relax(inst);
  ASSERT_TRUE(rel.feasible) << fam.name;
  const auto greedy =
      greedy_solve(inst, CostEffectiveness{}, rel.duals, rel.relaxed_x);
  ASSERT_TRUE(greedy.feasible) << fam.name;
  EXPECT_GE(greedy.value, rel.lower_bound - 1e-6) << fam.name;
}

INSTANTIATE_TEST_SUITE_P(AllFamilies, FamilySweepTest,
                         ::testing::Range<std::size_t>(0, 6));

TEST(Families, TightnessActuallyDiffers) {
  const auto& fams = instance_families();
  const Instance loose = generate(fams[0].config);   // tightness 0.10
  const Instance tight = generate(fams[1].config);   // tightness 0.60
  long long d_loose = 0;
  long long d_tight = 0;
  for (std::size_t k = 0; k < loose.num_services(); ++k) {
    d_loose += loose.demand(k);
  }
  for (std::size_t k = 0; k < tight.num_services(); ++k) {
    d_tight += tight.demand(k);
  }
  EXPECT_GT(d_tight, 3 * d_loose);
}

TEST(Families, SparseFamilyIsSparse) {
  const auto& fams = instance_families();
  const Instance sparse = generate(fams[2].config);  // density 0.15
  const Instance dense = generate(fams[3].config);   // density 1.0
  const auto nnz = [](const Instance& inst) {
    std::size_t count = 0;
    for (std::size_t j = 0; j < inst.num_bundles(); ++j) {
      for (std::size_t k = 0; k < inst.num_services(); ++k) {
        count += inst.quantity(j, k) > 0;
      }
    }
    return count;
  };
  EXPECT_LT(nnz(sparse) * 3, nnz(dense));
}

}  // namespace
}  // namespace carbon::cover
