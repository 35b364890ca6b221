#include "carbon/bcpop/parallel_evaluator.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "carbon/bcpop/relaxation_cache.hpp"
#include "carbon/cobra/cobra_solver.hpp"
#include "carbon/core/carbon_solver.hpp"
#include "carbon/cover/generator.hpp"
#include "carbon/ea/binary_ops.hpp"
#include "carbon/ea/real_ops.hpp"
#include "carbon/gp/generate.hpp"
#include "carbon/gp/scoring.hpp"
#include "cover/greedy_reference.hpp"
#include "gp/interpreter.hpp"

namespace carbon::bcpop {
namespace {

Instance make_instance() {
  cover::GeneratorConfig cfg;
  cfg.num_bundles = 30;
  cfg.num_services = 4;
  cfg.seed = 17;
  return Instance(cover::generate(cfg), /*num_owned=*/3);
}

std::vector<Pricing> random_pricings(const Instance& inst, std::size_t n,
                                     std::uint64_t seed) {
  common::Rng rng(seed);
  std::vector<Pricing> out;
  for (std::size_t i = 0; i < n; ++i) {
    out.push_back(ea::random_real_vector(rng, inst.price_bounds()));
  }
  return out;
}

void expect_same(const Evaluation& a, const Evaluation& b) {
  EXPECT_EQ(a.ll_feasible, b.ll_feasible);
  EXPECT_EQ(a.ul_objective, b.ul_objective);  // bitwise
  EXPECT_EQ(a.ll_objective, b.ll_objective);
  EXPECT_EQ(a.lower_bound, b.lower_bound);
  EXPECT_EQ(a.gap_percent, b.gap_percent);
  EXPECT_EQ(a.selection, b.selection);
}

TEST(ParallelEvaluator, HeuristicBatchMatchesSerialBitwise) {
  const Instance inst = make_instance();
  common::Rng rng(23);
  const auto pricings = random_pricings(inst, 12, 5);
  std::vector<gp::Tree> trees;
  for (int t = 0; t < 4; ++t) trees.push_back(gp::generate_ramped(rng));

  std::vector<HeuristicJob> jobs;
  for (const auto& tree : trees) {
    for (const auto& p : pricings) {
      jobs.push_back({p, &tree, EvalPurpose::kLowerOnly});
    }
  }

  // Reference: the serial call sequence — one one-job call per job.
  ParallelEvaluator serial(inst, /*threads=*/1);
  std::vector<Evaluation> want;
  for (const HeuristicJob& job : jobs) {
    want.push_back(
        serial.evaluate_with_heuristic(job.pricing, *job.heuristic,
                                       job.purpose));
  }

  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    ParallelEvaluator par(inst, threads);
    const std::vector<Evaluation> got = par.evaluate_heuristic_batch(jobs);
    ASSERT_EQ(got.size(), jobs.size());
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      expect_same(want[i], got[i]);
    }
  }
}

TEST(ParallelEvaluator, SelectionBatchMatchesSerialBitwise) {
  const Instance inst = make_instance();
  const auto pricings = random_pricings(inst, 10, 9);
  common::Rng rng(31);
  std::vector<std::vector<std::uint8_t>> genomes;
  for (int g = 0; g < 10; ++g) {
    genomes.push_back(
        ea::random_binary_vector(rng, inst.num_bundles(), 0.2));
  }

  std::vector<SelectionJob> jobs;
  for (std::size_t i = 0; i < pricings.size(); ++i) {
    jobs.push_back({pricings[i], genomes[i], EvalPurpose::kBoth});
  }

  // Reference: the serial call sequence — one one-job call per job.
  ParallelEvaluator serial(inst, /*threads=*/1);
  std::vector<Evaluation> want;
  for (const SelectionJob& job : jobs) {
    want.push_back(
        serial.evaluate_with_selection(job.pricing, job.selection,
                                       job.purpose));
  }

  for (const std::size_t threads : {std::size_t{1}, std::size_t{3}}) {
    ParallelEvaluator par(inst, threads);
    const std::vector<Evaluation> got = par.evaluate_selection_batch(jobs);
    ASSERT_EQ(got.size(), jobs.size());
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      expect_same(want[i], got[i]);
    }
  }
}

TEST(ParallelEvaluator, ResultsAreInSubmissionOrder) {
  const Instance inst = make_instance();
  const auto pricings = random_pricings(inst, 16, 41);
  const std::vector<std::uint8_t> everything(inst.num_bundles(), 1);

  std::vector<SelectionJob> jobs;
  for (const auto& p : pricings) {
    jobs.push_back({p, everything, EvalPurpose::kBoth});
  }
  ParallelEvaluator par(inst, /*threads=*/4);
  const auto got = par.evaluate_selection_batch(jobs);

  // Full basket is already feasible, so results[i] must report exactly the
  // revenue of pricings[i] — any permutation of the results would mismatch.
  ASSERT_EQ(got.size(), pricings.size());
  for (std::size_t i = 0; i < pricings.size(); ++i) {
    EXPECT_EQ(got[i].selection, everything);
    EXPECT_DOUBLE_EQ(got[i].ul_objective,
                     inst.leader_revenue(pricings[i], everything));
  }
}

TEST(ParallelEvaluator, CountersMatchSerialAndPurposeRules) {
  const Instance inst = make_instance();
  common::Rng rng(7);
  const gp::Tree tree = gp::generate_ramped(rng);
  const auto pricings = random_pricings(inst, 8, 3);

  std::vector<HeuristicJob> lower_jobs;
  std::vector<HeuristicJob> both_jobs;
  for (const auto& p : pricings) {
    lower_jobs.push_back({p, &tree, EvalPurpose::kLowerOnly});
    both_jobs.push_back({p, &tree, EvalPurpose::kBoth});
  }

  ParallelEvaluator par(inst, /*threads=*/4);
  (void)par.evaluate_heuristic_batch(lower_jobs);
  EXPECT_EQ(par.ul_evaluations(), 0);
  EXPECT_EQ(par.ll_evaluations(), 8);

  (void)par.evaluate_heuristic_batch(both_jobs);
  EXPECT_EQ(par.ul_evaluations(), 8);
  EXPECT_EQ(par.ll_evaluations(), 16);
}

TEST(ParallelEvaluator, CacheOnceSemantics) {
  // 8 distinct pricings, each submitted 16 times across a 4-thread batch:
  // the staged resolve solves each distinct pricing once — exactly 8 solves
  // — and every lookup is accounted for as either a hit or a solve
  // regardless of scheduling.
  const Instance inst = make_instance();
  const auto pricings = random_pricings(inst, 8, 13);
  const std::vector<std::uint8_t> everything(inst.num_bundles(), 1);

  std::vector<SelectionJob> jobs;
  for (int rep = 0; rep < 16; ++rep) {
    for (const auto& p : pricings) {
      jobs.push_back({p, everything, EvalPurpose::kLowerOnly});
    }
  }
  ParallelEvaluator par(inst, /*threads=*/4);
  (void)par.evaluate_selection_batch(jobs);

  EXPECT_EQ(par.relaxations_solved(), 8);
  EXPECT_EQ(par.relaxations_solved() + par.relaxation_cache_hits(),
            static_cast<long long>(jobs.size()));
  EXPECT_EQ(par.cache().size(), 8u);
}

TEST(ParallelEvaluator, ScalarCallsWorkAndShareTheCache) {
  const Instance inst = make_instance();
  ParallelEvaluator par(inst, /*threads=*/2);
  ParallelEvaluator serial(inst, /*threads=*/1);
  const auto pricings = random_pricings(inst, 4, 77);
  common::Rng rng(19);
  const gp::Tree tree = gp::generate_ramped(rng);
  for (const auto& p : pricings) {
    expect_same(serial.evaluate_with_heuristic(p, tree),
                par.evaluate_with_heuristic(p, tree));
  }
  EXPECT_EQ(par.relaxations_solved(), 4);
  // A repeat pricing under a DIFFERENT tree misses the score memo (keyed by
  // the program) and is served from the relaxation cache.
  const gp::Tree other = gp::parse("(div (mul QCOV BRES) COST)");
  (void)par.evaluate_with_heuristic(pricings[0], other);
  EXPECT_EQ(par.score_cache().hits(), 0);
  EXPECT_EQ(par.relaxations_solved(), 4);
  EXPECT_GE(par.relaxation_cache_hits(), 1);
}

TEST(ParallelEvaluator, ScalarRepeatIsServedByTheScoreMemo) {
  const Instance inst = make_instance();
  ParallelEvaluator par(inst, /*threads=*/2);
  ParallelEvaluator serial(inst, /*threads=*/1);
  const auto pricings = random_pricings(inst, 4, 77);
  common::Rng rng(19);
  const gp::Tree tree = gp::generate_ramped(rng);
  for (const auto& p : pricings) {
    expect_same(serial.evaluate_with_heuristic(p, tree),
                par.evaluate_with_heuristic(p, tree));
  }
  EXPECT_EQ(par.relaxations_solved(), 4);
  const long long ll_before = par.ll_evaluations();
  // A repeat is answered by the cross-generation score cache without a new
  // relaxation solve OR lookup — but it still charges the LL budget.
  const Evaluation again = par.evaluate_with_heuristic(pricings[0], tree);
  expect_same(serial.evaluate_with_heuristic(pricings[0], tree), again);
  EXPECT_EQ(par.relaxations_solved(), 4);
  EXPECT_EQ(par.score_cache().hits(), 1);
  EXPECT_EQ(par.ll_evaluations(), ll_before + 1);
  EXPECT_EQ(par.backend_stats().score_cache_hits, 1);
}

TEST(ParallelEvaluator, OneThreadRunsOnTheCallerWithOneShardCaches) {
  const Instance inst = make_instance();
  ParallelEvaluator solo(inst, /*threads=*/1);
  EXPECT_EQ(solo.threads(), 1u);
  EXPECT_EQ(solo.workers(), 0u);

  // Batches still run — inline, so the scheduler never steals. The staged
  // resolve fans out one task per relaxation miss, then one per job.
  const auto pricings = random_pricings(inst, 6, 29);
  const std::vector<std::uint8_t> everything(inst.num_bundles(), 1);
  std::vector<SelectionJob> jobs;
  for (const auto& p : pricings) jobs.push_back({p, everything});
  EXPECT_EQ(solo.evaluate_selection_batch(jobs).size(), jobs.size());
  EXPECT_EQ(solo.relaxations_solved(), static_cast<long long>(jobs.size()));
  EXPECT_EQ(solo.sched_stats().tasks,
            solo.relaxations_solved() + static_cast<long long>(jobs.size()));
  EXPECT_EQ(solo.sched_stats().steals, 0);
  EXPECT_EQ(solo.ll_evaluations(), static_cast<long long>(jobs.size()));

  // More than one thread: N workers next to the caller, and the same
  // single LRU — cache traffic stays on the caller, in submission order.
  ParallelEvaluator wide(inst, {.threads = 2});
  EXPECT_EQ(wide.workers(), 2u);
  (void)wide.evaluate_selection_batch(jobs);
  EXPECT_EQ(wide.relaxations_solved(), solo.relaxations_solved());
  EXPECT_EQ(wide.relaxation_cache_hits(), solo.relaxation_cache_hits());
  EXPECT_EQ(wide.cache().size(), solo.cache().size());
}

TEST(RelaxationCache, CapacityOneChurnKeepsPinnedEntriesValid) {
  // Exercised under TSan by tools/run_sanitizers.sh: concurrent misses on a
  // capacity-1 cache force an eviction on almost every insert while other
  // threads still hold the evicted entries.
  const Instance inst = make_instance();
  ParallelEvaluator::Options opt;
  opt.threads = 4;
  opt.relaxation_cache_capacity = 1;
  ParallelEvaluator par(inst, opt);

  const auto pricings = random_pricings(inst, 32, 3);
  ParallelEvaluator reference(
      inst, {.threads = 1, .relaxation_cache_capacity = 64});
  std::vector<double> want;
  for (const auto& p : pricings) {
    want.push_back(reference.relaxation(p)->lower_bound);
  }

  const std::vector<std::uint8_t> everything(inst.num_bundles(), 1);
  std::vector<SelectionJob> jobs;
  for (int rep = 0; rep < 4; ++rep) {
    for (const auto& p : pricings) {
      jobs.push_back({p, everything, EvalPurpose::kLowerOnly});
    }
  }
  const auto got = par.evaluate_selection_batch(jobs);
  ASSERT_EQ(got.size(), jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    EXPECT_DOUBLE_EQ(got[i].lower_bound, want[i % pricings.size()]);
  }
  // hits + solves == lookups holds even with eviction churn.
  EXPECT_EQ(par.relaxations_solved() + par.relaxation_cache_hits(),
            static_cast<long long>(jobs.size()));
  EXPECT_LE(par.cache().size(), 1u);
}

// --- End-to-end determinism: N threads == one thread, bit for bit ---------

core::CarbonConfig small_carbon_config() {
  core::CarbonConfig cfg;
  cfg.ul_population_size = 8;
  cfg.ul_archive_size = 8;
  cfg.gp_population_size = 8;
  cfg.gp_archive_size = 8;
  cfg.heuristic_sample_size = 2;
  cfg.archive_reinjection = 2;
  cfg.ul_eval_budget = 40;
  cfg.ll_eval_budget = 400;
  cfg.seed = 99;
  return cfg;
}

void expect_same_run(const core::RunResult& a, const core::RunResult& b) {
  EXPECT_EQ(a.best_ul_objective, b.best_ul_objective);  // bitwise
  EXPECT_EQ(a.best_gap, b.best_gap);
  EXPECT_EQ(a.best_pricing, b.best_pricing);
  EXPECT_EQ(a.generations, b.generations);
  EXPECT_EQ(a.ul_evaluations, b.ul_evaluations);
  EXPECT_EQ(a.ll_evaluations, b.ll_evaluations);
  EXPECT_EQ(a.best_evaluation.selection, b.best_evaluation.selection);
  EXPECT_EQ(a.best_evaluation.gap_percent, b.best_evaluation.gap_percent);
}

TEST(ParallelEvaluator, CarbonRunIsThreadCountInvariant) {
  const Instance inst = make_instance();

  core::CarbonConfig serial_cfg = small_carbon_config();
  serial_cfg.eval_threads = 1;
  const core::CarbonResult serial =
      core::CarbonSolver(inst, serial_cfg).run();

  core::CarbonConfig par_cfg = small_carbon_config();
  par_cfg.eval_threads = 4;
  const core::CarbonResult parallel =
      core::CarbonSolver(inst, par_cfg).run();

  expect_same_run(serial, parallel);
  EXPECT_EQ(serial.best_heuristic, parallel.best_heuristic);
  EXPECT_EQ(serial.best_heuristic_gap, parallel.best_heuristic_gap);
}

TEST(ParallelEvaluator, PessimisticCarbonRunIsThreadCountInvariant) {
  const Instance inst = make_instance();

  core::CarbonConfig cfg = small_carbon_config();
  cfg.stance = core::Stance::kPessimistic;
  cfg.follower_ensemble = 2;

  cfg.eval_threads = 1;
  const core::CarbonResult serial = core::CarbonSolver(inst, cfg).run();
  cfg.eval_threads = 4;
  const core::CarbonResult parallel = core::CarbonSolver(inst, cfg).run();

  expect_same_run(serial, parallel);
}

TEST(ParallelEvaluator, CobraRunIsThreadCountInvariant) {
  const Instance inst = make_instance();

  cobra::CobraConfig cfg;
  cfg.ul_population_size = 8;
  cfg.ll_population_size = 8;
  cfg.ul_archive_size = 8;
  cfg.ll_archive_size = 8;
  cfg.upper_phase_generations = 2;
  cfg.lower_phase_generations = 2;
  cfg.coevolution_pairs = 4;
  cfg.archive_reinjection = 2;
  cfg.ul_eval_budget = 80;
  cfg.ll_eval_budget = 800;
  cfg.seed = 4;

  cfg.eval_threads = 1;
  const core::RunResult serial = cobra::CobraSolver(inst, cfg).run();
  cfg.eval_threads = 4;
  const core::RunResult parallel = cobra::CobraSolver(inst, cfg).run();

  expect_same_run(serial, parallel);
}

// --- Compiled scoring: same bits as the interpreter, fewer solves ---------

TEST(CompiledScoring, EvaluatorMatchesInterpreterBitwise) {
  // The oracle for the compiled scoring path (polish off): the plain
  // per-bundle greedy scored by the tree interpreter, on the same
  // relaxation, assembled into an Evaluation the way the evaluator does.
  const Instance inst = make_instance();
  common::Rng rng(61);
  gp::GenerateConfig gen;
  gen.min_depth = 2;
  gen.max_depth = 7;
  const auto pricings = random_pricings(inst, 6, 21);

  // Hand-written trees guarantee the residual-dependent terminals (QCOV,
  // BRES) are covered next to the generated ones.
  std::vector<gp::Tree> trees = {
      gp::parse("(div (mul QCOV BRES) COST)"),
      gp::parse("(sub (div QCOV COST) (mul BRES XBAR))"),
      gp::parse("(add (div DUAL COST) (mul QCOV 0.5))")};
  for (int t = 0; t < 10; ++t) {
    gen.use_constants = (t % 2 == 0);
    trees.push_back(gp::generate_ramped(rng, gen));
  }

  ParallelEvaluator compiled(inst, /*threads=*/1);
  for (const gp::Tree& tree : trees) {
    for (const auto& p : pricings) {
      const auto relax = compiled.relaxation(p);
      const cover::SolveResult solved = cover::testing::reference_greedy(
          inst.lower_level_instance(p), gp::testing::interpreter_scorer(tree),
          relax->duals, relax->relaxed_x);
      expect_same(finalize_evaluation(inst, p, solved, *relax,
                                      EvalPurpose::kBoth),
                  compiled.evaluate_with_heuristic(p, tree));
    }
  }
}

TEST(CompiledScoring, BatchMemoDeduplicatesButStillCharges) {
  const Instance inst = make_instance();
  common::Rng rng(83);
  const gp::Tree tree = gp::generate_ramped(rng);
  const gp::Tree copy = tree;  // same content, different object
  const auto pricings = random_pricings(inst, 3, 11);

  // 3 pricings x 2 aliases of one tree x 4 repeats = 24 jobs, 3 unique keys.
  std::vector<HeuristicJob> jobs;
  for (int rep = 0; rep < 4; ++rep) {
    for (const auto& p : pricings) {
      jobs.push_back({p, &tree, EvalPurpose::kLowerOnly});
      jobs.push_back({p, &copy, EvalPurpose::kLowerOnly});
    }
  }

  ParallelEvaluator par(inst, /*threads=*/4);
  const auto got = par.evaluate_heuristic_batch(jobs);
  ASSERT_EQ(got.size(), jobs.size());
  // Budget counters charge every submitted job; the memo only avoids
  // redundant solves.
  EXPECT_EQ(par.ll_evaluations(), static_cast<long long>(jobs.size()));
  EXPECT_EQ(par.heuristic_dedup_hits(),
            static_cast<long long>(jobs.size()) - 3);
  // All duplicates share the representative's bits.
  ParallelEvaluator serial(inst, /*threads=*/1);
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    expect_same(serial.evaluate_with_heuristic(jobs[i].pricing, tree,
                                               jobs[i].purpose),
                got[i]);
  }
}

TEST(CompiledScoring, MemoMergesCanonicallyEqualTrees) {
  const Instance inst = make_instance();
  const gp::Tree a = gp::parse("(add COST QSUM)");
  const gp::Tree b = gp::parse("(add QSUM COST)");  // commuted twin
  const auto pricings = random_pricings(inst, 2, 29);

  std::vector<HeuristicJob> jobs;
  for (const auto& p : pricings) {
    jobs.push_back({p, &a, EvalPurpose::kLowerOnly});
    jobs.push_back({p, &b, EvalPurpose::kLowerOnly});
  }

  // The canonical forms coincide, so each pricing costs one solve.
  ParallelEvaluator compiled(inst, /*threads=*/1);
  (void)compiled.evaluate_heuristic_batch(jobs);
  EXPECT_EQ(compiled.heuristic_dedup_hits(), 2);
}

TEST(CompiledScoring, MixedDuplicateAndUniqueJobsAccountExactly) {
  // A batch interleaving unique (tree, pricing) pairs with duplicates at
  // several multiplicities: dedup must charge every job to the budget but
  // count exactly jobs - unique memo hits, serial and parallel alike.
  const Instance inst = make_instance();
  common::Rng rng(53);
  std::vector<gp::Tree> trees;
  for (int t = 0; t < 3; ++t) trees.push_back(gp::generate_ramped(rng));
  const auto pricings = random_pricings(inst, 4, 19);

  std::vector<HeuristicJob> jobs;
  std::size_t unique = 0;
  for (std::size_t t = 0; t < trees.size(); ++t) {
    for (std::size_t p = 0; p < pricings.size(); ++p) {
      // Multiplicity 1, 2, or 3 depending on the pair.
      const int copies = 1 + static_cast<int>((t + p) % 3);
      for (int c = 0; c < copies; ++c) {
        jobs.push_back({pricings[p], &trees[t], EvalPurpose::kLowerOnly});
      }
      ++unique;
    }
  }
  ASSERT_GT(jobs.size(), unique);

  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    ParallelEvaluator par(inst, threads);
    const auto got = par.evaluate_heuristic_batch(jobs);
    ASSERT_EQ(got.size(), jobs.size());
    EXPECT_EQ(par.ll_evaluations(), static_cast<long long>(jobs.size()));
    EXPECT_EQ(par.heuristic_dedup_hits(),
              static_cast<long long>(jobs.size() - unique));
    // A second identical batch starts a fresh memo: same hit count again.
    (void)par.evaluate_heuristic_batch(jobs);
    EXPECT_EQ(par.heuristic_dedup_hits(),
              2 * static_cast<long long>(jobs.size() - unique));
  }
}

TEST(BackendStats, MirrorsTheIndividualCountersOnBothEvaluators) {
  const Instance inst = make_instance();
  common::Rng rng(59);
  const gp::Tree tree = gp::generate_ramped(rng);
  const auto pricings = random_pricings(inst, 6, 37);

  std::vector<HeuristicJob> jobs;
  for (int rep = 0; rep < 3; ++rep) {
    for (const auto& p : pricings) {
      jobs.push_back({p, &tree, EvalPurpose::kLowerOnly});
    }
  }

  ParallelEvaluator serial(inst, /*threads=*/1);
  (void)serial.evaluate_heuristic_batch(jobs);
  const BackendStats ss = serial.backend_stats();
  EXPECT_EQ(ss.relaxation_cache_hits, serial.relaxation_cache_hits());
  EXPECT_EQ(ss.relaxation_cache_misses, serial.relaxations_solved());
  EXPECT_EQ(ss.heuristic_dedup_hits, serial.heuristic_dedup_hits());
  EXPECT_EQ(ss.relaxation_cache_evictions, 0);
  EXPECT_GT(ss.heuristic_dedup_hits, 0);

  ParallelEvaluator par(inst, /*threads=*/4);
  (void)par.evaluate_heuristic_batch(jobs);
  const BackendStats ps = par.backend_stats();
  EXPECT_EQ(ps.relaxation_cache_hits, par.relaxation_cache_hits());
  EXPECT_EQ(ps.relaxation_cache_misses, par.relaxations_solved());
  EXPECT_EQ(ps.heuristic_dedup_hits, par.heuristic_dedup_hits());
  // Same workload => same backend accounting as the one-thread evaluator.
  EXPECT_EQ(ps.relaxation_cache_misses, ss.relaxation_cache_misses);
  EXPECT_EQ(ps.heuristic_dedup_hits, ss.heuristic_dedup_hits);
}

TEST(BackendStats, ReportsEvictionsUnderATinyCache) {
  const Instance inst = make_instance();
  ParallelEvaluator::Options opt;
  opt.threads = 4;
  opt.relaxation_cache_capacity = 1;
  ParallelEvaluator par(inst, opt);

  const auto pricings = random_pricings(inst, 16, 67);
  const std::vector<std::uint8_t> everything(inst.num_bundles(), 1);
  std::vector<SelectionJob> jobs;
  for (const auto& p : pricings) {
    jobs.push_back({p, everything, EvalPurpose::kLowerOnly});
  }
  (void)par.evaluate_selection_batch(jobs);

  const BackendStats s = par.backend_stats();
  EXPECT_GT(s.relaxation_cache_evictions, 0);
  EXPECT_EQ(s.relaxation_cache_evictions, par.cache().evictions());
  EXPECT_EQ(static_cast<long long>(par.cache().size()),
            s.relaxation_cache_misses - s.relaxation_cache_evictions);
}

TEST(CompiledScoring, ConcurrentBatchesAreRaceFree) {
  // Exercised under TSan by tools/run_sanitizers.sh: dedup planning happens
  // on the submitting thread while the pool runs the unique jobs, and the
  // per-context register scratch must never be shared between workers.
  const Instance inst = make_instance();
  common::Rng rng(97);
  std::vector<gp::Tree> trees;
  for (int t = 0; t < 3; ++t) trees.push_back(gp::generate_ramped(rng));
  const auto pricings = random_pricings(inst, 6, 43);

  std::vector<HeuristicJob> jobs;
  for (const auto& tree : trees) {
    for (const auto& p : pricings) {
      jobs.push_back({p, &tree, EvalPurpose::kLowerOnly});
      jobs.push_back({p, &tree, EvalPurpose::kLowerOnly});  // memo duplicate
    }
  }
  ParallelEvaluator par(inst, /*threads=*/4);
  std::vector<Evaluation> first;
  for (int round = 0; round < 4; ++round) {
    auto got = par.evaluate_heuristic_batch(jobs);
    if (round == 0) {
      first = std::move(got);
    } else {
      ASSERT_EQ(got.size(), first.size());
      for (std::size_t i = 0; i < got.size(); ++i) {
        expect_same(first[i], got[i]);
      }
    }
  }
  EXPECT_GT(par.heuristic_dedup_hits(), 0);
}

}  // namespace
}  // namespace carbon::bcpop
