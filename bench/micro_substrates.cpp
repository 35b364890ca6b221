// google-benchmark microbenchmarks for the substrates on the evaluation hot
// path: LP relaxation (cold and warm-started), the score-driven greedy with
// the cost-effectiveness and a compiled GP scorer, variation operators, and
// a full bi-level evaluation. Compiled GP evaluation on its own is timed by
// micro_gp_eval.

#include <benchmark/benchmark.h>

#include "carbon/bcpop/parallel_evaluator.hpp"
#include "carbon/common/rng.hpp"
#include "carbon/cover/exact.hpp"
#include "carbon/cover/generator.hpp"
#include "carbon/cover/greedy.hpp"
#include "carbon/cover/relaxation.hpp"
#include "carbon/ea/real_ops.hpp"
#include "carbon/gp/generate.hpp"
#include "carbon/gp/operators.hpp"
#include "carbon/gp/scoring.hpp"
#include "carbon/lp/simplex.hpp"

namespace {

using namespace carbon;

const cover::Instance& instance_for_class(std::size_t cls) {
  static std::vector<cover::Instance> cache = [] {
    std::vector<cover::Instance> v;
    for (std::size_t c = 0; c < cover::paper_classes().size(); ++c) {
      v.push_back(cover::make_paper_instance(c));
    }
    return v;
  }();
  return cache[cls];
}

void BM_SimplexCold(benchmark::State& state) {
  const auto& inst = instance_for_class(static_cast<std::size_t>(state.range(0)));
  const lp::Problem p = cover::build_relaxation_lp(inst);
  for (auto _ : state) {
    benchmark::DoNotOptimize(lp::solve(p));
  }
  state.SetLabel(inst.describe());
}
BENCHMARK(BM_SimplexCold)->Arg(0)->Arg(4)->Arg(8)->Unit(benchmark::kMillisecond);

void BM_SimplexWarm(benchmark::State& state) {
  const auto& inst = instance_for_class(static_cast<std::size_t>(state.range(0)));
  lp::Problem p = cover::build_relaxation_lp(inst);
  lp::Basis warm;
  benchmark::DoNotOptimize(lp::solve(p, {}, &warm));
  common::Rng rng(1);
  const std::size_t owned = inst.num_bundles() / 10;
  for (auto _ : state) {
    // Perturb the leader's prices, as the evaluator does per pricing.
    for (std::size_t j = 0; j < owned; ++j) {
      p.objective[j] = rng.uniform(0.0, 1500.0);
    }
    benchmark::DoNotOptimize(lp::solve(p, {}, &warm));
  }
}
BENCHMARK(BM_SimplexWarm)->Arg(0)->Arg(4)->Arg(8)->Unit(benchmark::kMillisecond);

void BM_GreedyCostEffectiveness(benchmark::State& state) {
  const auto& inst = instance_for_class(static_cast<std::size_t>(state.range(0)));
  const cover::Relaxation relax = cover::relax(inst);
  for (auto _ : state) {
    benchmark::DoNotOptimize(cover::greedy_solve(
        inst, cover::CostEffectiveness{}, relax.duals, relax.relaxed_x));
  }
}
BENCHMARK(BM_GreedyCostEffectiveness)
    ->Arg(0)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond);

void BM_GreedyGpTree(benchmark::State& state) {
  const auto& inst = instance_for_class(static_cast<std::size_t>(state.range(0)));
  const cover::Relaxation relax = cover::relax(inst);
  common::Rng rng(7);
  const gp::CompiledProgram program =
      gp::CompiledProgram::compile(gp::generate_full(rng, 4));
  std::vector<double> reg_scratch;
  cover::GreedyScratch scratch;
  for (auto _ : state) {
    benchmark::DoNotOptimize(cover::greedy_solve(
        inst, gp::CompiledBatchScorer(program, reg_scratch), relax.duals,
        relax.relaxed_x, {}, {}, &scratch));
  }
}
BENCHMARK(BM_GreedyGpTree)->Arg(0)->Arg(4)->Arg(8)->Unit(benchmark::kMillisecond);

void BM_GpCrossover(benchmark::State& state) {
  common::Rng rng(7);
  const gp::Tree a = gp::generate_full(rng, 5);
  const gp::Tree b = gp::generate_full(rng, 5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(gp::subtree_crossover(rng, a, b));
  }
}
BENCHMARK(BM_GpCrossover);

void BM_SbxCrossover(benchmark::State& state) {
  common::Rng rng(7);
  const std::vector<ea::Bounds> bounds(50, ea::Bounds{0.0, 1500.0});
  std::vector<double> a = ea::random_real_vector(rng, bounds);
  std::vector<double> b = ea::random_real_vector(rng, bounds);
  for (auto _ : state) {
    ea::sbx_crossover(rng, a, b, bounds);
    benchmark::DoNotOptimize(a.data());
  }
}
BENCHMARK(BM_SbxCrossover);

void BM_FullBilevelEvaluation(benchmark::State& state) {
  const bcpop::Instance market =
      bcpop::make_paper_bcpop(static_cast<std::size_t>(state.range(0)));
  bcpop::ParallelEvaluator eval(market, /*threads=*/1);
  common::Rng rng(7);
  const gp::Tree tree = gp::generate_full(rng, 4);
  for (auto _ : state) {
    const auto pricing = ea::random_real_vector(rng, market.price_bounds());
    benchmark::DoNotOptimize(eval.evaluate_with_heuristic(pricing, tree));
  }
}
BENCHMARK(BM_FullBilevelEvaluation)
    ->Arg(0)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond);

void BM_ExactSmallCover(benchmark::State& state) {
  cover::GeneratorConfig gen;
  gen.num_bundles = static_cast<std::size_t>(state.range(0));
  gen.num_services = 5;
  gen.seed = 11;
  const cover::Instance inst = cover::generate(gen);
  for (auto _ : state) {
    benchmark::DoNotOptimize(cover::exact_solve(inst));
  }
}
BENCHMARK(BM_ExactSmallCover)->Arg(20)->Arg(30)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
