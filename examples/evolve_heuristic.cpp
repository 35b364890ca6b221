// Standalone GP hyper-heuristic demo: evolve a greedy scoring function for
// covering instances, with no bi-level layer involved. This exercises the
// gp + cover substrates directly and shows what CARBON's predator population
// does internally.
//
// Usage: evolve_heuristic [--instances K] [--generations G] [--pop P]
//                         [--seed S]

#include <cstdio>
#include <exception>
#include <vector>

#include "carbon/bilevel/gap.hpp"
#include "carbon/common/cli.hpp"
#include "carbon/common/statistics.hpp"
#include "carbon/cover/generator.hpp"
#include "carbon/cover/greedy.hpp"
#include "carbon/cover/relaxation.hpp"
#include "carbon/ea/real_ops.hpp"
#include "carbon/gp/generate.hpp"
#include "carbon/gp/operators.hpp"
#include "carbon/gp/scoring.hpp"

namespace {

struct TrainingCase {
  carbon::cover::Instance instance;
  carbon::cover::Relaxation relaxation;
};

/// Mean %-gap of a heuristic across the training cases (lower = better).
double mean_gap(const carbon::gp::Tree& tree,
                const std::vector<TrainingCase>& cases) {
  const auto program = carbon::gp::CompiledProgram::compile(tree);
  std::vector<double> reg_scratch;
  carbon::common::RunningStats gaps;
  for (const TrainingCase& c : cases) {
    const auto result = carbon::cover::greedy_solve(
        c.instance, carbon::gp::CompiledBatchScorer(program, reg_scratch),
        c.relaxation.duals, c.relaxation.relaxed_x);
    gaps.add(result.feasible ? carbon::bilevel::percent_gap(
                                   result.value, c.relaxation.lower_bound)
                             : 1e9);
  }
  return gaps.mean();
}

}  // namespace

int main(int argc, char** argv) try {
  using namespace carbon;
  const common::CliArgs args(argc, argv);
  const auto num_instances =
      static_cast<std::size_t>(args.get_positive_int("instances", 5));
  const auto generations =
      static_cast<int>(args.get_positive_int("generations", 30));
  const auto pop_size =
      static_cast<std::size_t>(args.get_positive_int("pop", 50));
  common::Rng rng(static_cast<std::uint64_t>(args.get_int("seed", 123)));

  // Training set: several covering instances with their LP relaxations.
  std::vector<TrainingCase> cases;
  for (std::size_t i = 0; i < num_instances; ++i) {
    cover::GeneratorConfig gen;
    gen.num_bundles = 80;
    gen.num_services = 6;
    gen.seed = 100 + i;
    cover::Instance inst = cover::generate(gen);
    cover::Relaxation relax = cover::relax(inst);
    cases.push_back({std::move(inst), std::move(relax)});
  }

  // Reference points: two hand-written heuristics.
  const double ce_gap = [&] {
    common::RunningStats g;
    for (const TrainingCase& c : cases) {
      const auto r = cover::greedy_solve(
          c.instance, cover::CostEffectiveness{}, c.relaxation.duals,
          c.relaxation.relaxed_x);
      g.add(bilevel::percent_gap(r.value, c.relaxation.lower_bound));
    }
    return g.mean();
  }();
  std::printf("hand-written cost-effectiveness greedy: %.3f%% mean gap\n",
              ce_gap);

  // Evolve.
  gp::OperatorConfig ops;
  std::vector<gp::Tree> pop;
  for (std::size_t i = 0; i < pop_size; ++i) {
    pop.push_back(gp::generate_ramped(rng, ops.generate));
  }
  std::vector<double> fitness(pop.size());

  gp::Tree best;
  double best_gap = 1e18;
  for (int g = 0; g < generations; ++g) {
    for (std::size_t i = 0; i < pop.size(); ++i) {
      fitness[i] = mean_gap(pop[i], cases);
      if (fitness[i] < best_gap) {
        best_gap = fitness[i];
        best = pop[i];
      }
    }
    if (g % 5 == 0 || g == generations - 1) {
      std::printf("gen %3d: best-so-far %.3f%% mean gap\n", g, best_gap);
    }
    std::vector<gp::Tree> next;
    next.push_back(best);  // elitism
    while (next.size() < pop.size()) {
      const double op = rng.uniform();
      if (op < 0.85) {
        const std::size_t ia = ea::tournament_select(rng, fitness, 3, false);
        const std::size_t ib = ea::tournament_select(rng, fitness, 3, false);
        auto [ca, cb] = gp::subtree_crossover(rng, pop[ia], pop[ib], ops);
        next.push_back(std::move(ca));
        if (next.size() < pop.size()) next.push_back(std::move(cb));
      } else {
        const std::size_t i = ea::tournament_select(rng, fitness, 3, false);
        next.push_back(gp::uniform_mutation(rng, pop[i], ops));
      }
    }
    pop = std::move(next);
  }

  std::printf("\nevolved heuristic: %.3f%% mean gap (hand-written: %.3f%%)\n",
              best_gap, ce_gap);
  std::printf("scoring function: %s\n", gp::simplify(best).to_string().c_str());
  return 0;
} catch (const std::exception& e) {
  std::fprintf(stderr, "evolve_heuristic: %s\n", e.what());
  return 2;
}
