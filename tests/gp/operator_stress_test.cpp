// Long-horizon property test: thousands of chained variation operations must
// never produce an invalid tree, breach the depth cap, or corrupt evaluation.
#include <gtest/gtest.h>

#include "carbon/common/rng.hpp"
#include "carbon/gp/generate.hpp"
#include "carbon/gp/operators.hpp"
#include "gp/interpreter.hpp"

namespace carbon::gp {
namespace {

class OperatorChainTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(OperatorChainTest, ThousandOperationsPreserveInvariants) {
  common::Rng rng(GetParam() * 101 + 7);
  OperatorConfig cfg;
  cfg.max_depth = 8;
  cfg.generate.use_constants = (GetParam() % 2 == 0);

  std::vector<Tree> pool;
  for (int i = 0; i < 12; ++i) {
    pool.push_back(generate_ramped(rng, cfg.generate));
  }

  const std::array<double, kNumTerminals> probe = {3.0, 7.0,  2.0,
                                                   50.0, 1.5, 0.25};
  for (int step = 0; step < 1000; ++step) {
    const std::size_t ia = rng.below(pool.size());
    const std::size_t ib = rng.below(pool.size());
    Tree child;
    switch (rng.below(3)) {
      case 0: {
        auto [ca, cb] = subtree_crossover(rng, pool[ia], pool[ib], cfg);
        child = rng.chance(0.5) ? std::move(ca) : std::move(cb);
        break;
      }
      case 1:
        child = uniform_mutation(rng, pool[ia], cfg);
        break;
      default:
        child = point_mutation(rng, pool[ia], cfg);
        break;
    }
    ASSERT_TRUE(child.valid()) << "step " << step;
    ASSERT_LE(child.depth(), cfg.max_depth) << "step " << step;
    const double value = testing::interpret(child, probe);
    ASSERT_TRUE(std::isfinite(value)) << "step " << step;
    // Simplification must agree with the original everywhere we probe.
    const Tree simple = simplify(child);
    ASSERT_NEAR(testing::interpret(simple, probe), value, 1e-6)
        << child.to_string();
    pool[rng.below(pool.size())] = std::move(child);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, OperatorChainTest,
                         ::testing::Range<std::uint64_t>(0, 4));

TEST(OperatorChain, RoundtripSurvivesVariation) {
  common::Rng rng(9);
  OperatorConfig cfg;
  Tree t = generate_full(rng, 4, cfg.generate);
  for (int step = 0; step < 100; ++step) {
    t = uniform_mutation(rng, t, cfg);
    const Tree back = parse(t.to_string());
    ASSERT_EQ(back.size(), t.size());
  }
}

}  // namespace
}  // namespace carbon::gp
