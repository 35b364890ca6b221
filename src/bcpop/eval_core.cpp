#include "carbon/bcpop/eval_core.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <vector>

#include "carbon/bilevel/gap.hpp"
#include "carbon/cover/lagrangian.hpp"
#include "carbon/cover/local_search.hpp"
#include "carbon/gp/scoring.hpp"
#include "carbon/obs/metrics.hpp"

namespace carbon::bcpop {

namespace {

/// Points the context's working market at this pricing.
void load_pricing(EvalContext& ctx, std::span<const double> pricing) {
  assert(pricing.size() == ctx.inst->num_owned());
  for (std::size_t j = 0; j < pricing.size(); ++j) {
    ctx.ll.set_cost(j, pricing[j]);
  }
}

// --- Hashing for the per-batch score memo -----------------------------------
// FNV-1a over exact content; equality is always re-verified bitwise, so hash
// collisions cost a comparison, never a wrong merge.

constexpr std::uint64_t kFnvOffset = 1469598103934665603ull;
constexpr std::uint64_t kFnvPrime = 1099511628211ull;

void fnv_mix(std::uint64_t& h, std::uint64_t v) noexcept {
  h ^= v;
  h *= kFnvPrime;
}

[[nodiscard]] std::uint64_t hash_nodes(std::span<const gp::Node> nodes) {
  std::uint64_t h = kFnvOffset;
  for (const gp::Node& nd : nodes) {
    fnv_mix(h, static_cast<std::uint64_t>(nd.op));
    fnv_mix(h, nd.terminal);
    fnv_mix(h, std::bit_cast<std::uint64_t>(nd.value));
  }
  return h;
}

/// Bitwise node-sequence equality (distinguishes -0.0 from +0.0 and NaN
/// payloads — strictly finer than ==, so it can never merge trees whose
/// evaluations could differ).
[[nodiscard]] bool same_nodes(std::span<const gp::Node> a,
                              std::span<const gp::Node> b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].op != b[i].op || a[i].terminal != b[i].terminal ||
        std::bit_cast<std::uint64_t>(a[i].value) !=
            std::bit_cast<std::uint64_t>(b[i].value)) {
      return false;
    }
  }
  return true;
}

[[nodiscard]] std::uint64_t hash_doubles(std::span<const double> v) {
  std::uint64_t h = kFnvOffset;
  for (double x : v) fnv_mix(h, std::bit_cast<std::uint64_t>(x));
  return h;
}

[[nodiscard]] bool same_doubles(std::span<const double> a,
                                std::span<const double> b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

}  // namespace

EvalContext::EvalContext(const Instance& instance)
    : EvalContext(instance, cover::RelaxationFamily(instance.market())) {}

EvalContext::EvalContext(const Instance& instance,
                         const cover::RelaxationFamily& shared)
    : inst(&instance),
      ll(instance.market()),
      // Copying the family clones the validated problem without
      // re-validating; the baseline basis (optimal for the base costs,
      // primal-feasible under any leader pricing — costs only enter the
      // objective) was pinned once when `shared` was built. An empty
      // baseline means the base market is not coverable; later solves then
      // crash-start, which is equally deterministic.
      ll_family(shared.family),
      baseline_basis(shared.baseline_basis) {}

namespace {

/// Rung 2: no bound at all. The evaluation stays valid — LB = 0 is a
/// trivially correct lower bound for non-negative costs — it just reports a
/// pessimal gap. Empty duals/x̄ make the DUAL/XBAR terminals read 0, the
/// same convention the unguarded path uses for absent relaxation data.
cover::Relaxation greedy_only_relaxation(guard::Trip trip,
                                         long long nodes_spent) {
  cover::Relaxation out;
  out.feasible = true;
  out.lower_bound = 0.0;
  out.guard_rung = guard::Rung::kGreedyOnly;
  out.guard_trip = trip;
  out.guard_nodes = nodes_spent;
  return out;
}

/// Rung 1: Lagrangian subgradient bound. Requires load_pricing to have run
/// (the multipliers price the CURRENT market). Falls through to rung 2 when
/// the rung-1 iteration allowance is already zero.
cover::Relaxation lagrangian_relaxation(EvalContext& ctx, guard::Trip trip,
                                        long long nodes_spent) {
  const guard::Limits& lim = ctx.guard;
  long long cap = lim.lagrangian_iteration_cap;
  if (lim.ll_node_cap > 0) {
    const long long remaining = lim.ll_node_cap - nodes_spent;
    if (remaining <= 0) return greedy_only_relaxation(trip, nodes_spent);
    cap = guard::combine_caps(cap, remaining);
  }
  if (cap <= 0) return greedy_only_relaxation(trip, nodes_spent);

  // Any feasible cover's value calibrates the Polyak steps; the sum of all
  // bundle costs is one (select everything) and needs no extra solve.
  double ub = 0.0;
  for (std::size_t j = 0; j < ctx.ll.num_bundles(); ++j) {
    ub += ctx.ll.cost(j);
  }
  cover::LagrangianOptions opts;
  opts.max_iterations = static_cast<std::size_t>(cap);
  const cover::LagrangianResult res =
      cover::lagrangian_bound(ctx.ll, ub, opts);

  cover::Relaxation out;
  out.feasible = true;
  out.lower_bound = res.lower_bound;
  out.duals = res.multipliers;
  out.relaxed_x.assign(res.inner_selection.begin(),
                       res.inner_selection.end());
  out.guard_rung = guard::Rung::kLagrangian;
  out.guard_trip = trip;
  out.guard_nodes = nodes_spent + static_cast<long long>(res.iterations);
  return out;
}

}  // namespace

cover::Relaxation solve_relaxation_from(EvalContext& ctx,
                                        std::span<const double> pricing,
                                        const lp::Basis& start,
                                        lp::Basis* final_basis) {
  const guard::Limits& lim = ctx.guard;
  ctx.ll_family.rebind(pricing);
  // The start basis is COPIED into the context scratch (whose vectors keep
  // their capacity across calls), so `start` never drifts with evaluation
  // order; on an optimal clean exit the solver overwrites the scratch with
  // the FINAL basis (stats.basis_saved).
  ctx.basis_scratch = start;
  cover::Relaxation relax;
  if (lim.lp_iteration_cap == 0 && lim.ll_node_cap == 0) {
    // No rung-0 cap in play: the unguarded solve, bit for bit.
    relax = cover::solve_relaxation_lp(ctx.ll_family, {}, &ctx.basis_scratch,
                                       &ctx.lp_scratch);
  } else {
    const long long cap =
        guard::combine_caps(lim.lp_iteration_cap, lim.ll_node_cap);
    lp::SimplexOptions opts;
    opts.max_iterations = static_cast<int>(
        std::min<long long>(cap, std::numeric_limits<int>::max()));
    relax = cover::solve_relaxation_lp_capped(
        ctx.ll_family, opts, &ctx.basis_scratch, &ctx.lp_scratch);
    if (relax.guard_trip != guard::Trip::kNone) {
      // The cap that bound first names the trip: the LP cap if it is the
      // tighter (or only) one, the node budget otherwise. Degraded rungs
      // never export a basis.
      const guard::Trip trip =
          lim.lp_iteration_cap > 0 && cap == lim.lp_iteration_cap
              ? guard::Trip::kLpIterationCap
              : guard::Trip::kNodeBudget;
      const long long spent = relax.guard_nodes;
      load_pricing(ctx, pricing);
      return lagrangian_relaxation(ctx, trip, spent);
    }
  }
  if (final_basis != nullptr && relax.stats.basis_saved) {
    *final_basis = ctx.basis_scratch;
  }
  return relax;
}

cover::Relaxation solve_relaxation_guarded(EvalContext& ctx,
                                           std::span<const double> pricing,
                                           guard::Trip force_trip,
                                           guard::Rung force_rung) {
  if (force_trip == guard::Trip::kNone) {
    return solve_relaxation_from(ctx, pricing, ctx.baseline_basis);
  }
  // Forced (injected) trip: skip rung 0 entirely and land on the requested
  // rung. The Lagrangian prices the current market, so load it.
  load_pricing(ctx, pricing);
  return force_rung == guard::Rung::kGreedyOnly
             ? greedy_only_relaxation(force_trip, 0)
             : lagrangian_relaxation(ctx, force_trip, 0);
}

ConstructionBudget plan_construction(const guard::Limits& limits,
                                     const cover::Relaxation& relax) {
  ConstructionBudget plan;
  plan.options.max_rounds = limits.construction_round_cap;
  if (limits.ll_node_cap > 0) {
    const long long remaining = limits.ll_node_cap - relax.guard_nodes;
    if (remaining <= 0) {
      plan.skip = true;
      return plan;
    }
    plan.options.max_rounds =
        guard::combine_caps(plan.options.max_rounds, remaining);
  }
  return plan;
}

Evaluation skipped_evaluation(const Instance& inst,
                              std::span<const double> pricing,
                              const cover::Relaxation& relax,
                              EvalPurpose purpose) {
  Evaluation out;
  out.ll_feasible = false;
  out.ll_objective = 0.0;
  out.lower_bound = relax.lower_bound;
  out.gap_percent = 1e9;
  out.selection.assign(inst.market().num_bundles(), 0);
  out.guard.rung = relax.guard_rung;
  out.guard.trip =
      relax.guard_trip != guard::Trip::kNone ? relax.guard_trip
                                             : guard::Trip::kNodeBudget;
  out.guard.budget_exhausted = true;
  if (purpose == EvalPurpose::kBoth) {
    out.ul_objective = inst.leader_revenue(pricing, out.selection);
  }
  return out;
}

void record_lp_metrics(obs::MetricsRegistry* metrics,
                       const cover::Relaxation& relax) {
  if (metrics == nullptr) return;
  metrics->add_counter("lp/iterations", relax.stats.iterations);
  metrics->add_counter("lp/refactorizations", relax.stats.refactorizations);
  if (relax.stats.warm_start_used) {
    metrics->add_counter("lp/warm_start_hits");
  }
  if (relax.stats.warm_start_rejected) {
    metrics->add_counter("lp/warm_start_rejects");
  }
}

cover::SolveResult solve_with_program(EvalContext& ctx,
                                      const cover::Relaxation& relax,
                                      std::span<const double> pricing,
                                      const gp::CompiledProgram& program,
                                      bool polish, obs::MetricsRegistry* metrics,
                                      const cover::GreedyOptions& greedy) {
  load_pricing(ctx, pricing);

  cover::SolveResult solved;
  if (program.is_static()) {
    // The canonical program reads neither QCOV nor BRES (checked AFTER
    // simplification, so trees whose dynamic terminals fold away — e.g.
    // (sub QCOV QCOV) — land here too). One batched sweep computes every
    // bundle's round-invariant score; the sorted greedy is equivalent to
    // the per-round argmax (see greedy_solve_static). All columns live in
    // the per-context greedy scratch — zero allocations once warm.
    const std::size_t m = ctx.ll.num_bundles();
    cover::GreedyScratch& gs = ctx.greedy_scratch;
    gs.load_static_columns(ctx.ll, relax.duals, relax.relaxed_x);
    // qcov/bres are round-dependent; broadcast zeros (the program ignores
    // them anyway).
    const double zero = 0.0;
    gp::CompiledProgram::TerminalBatch batch;
    batch.columns[static_cast<std::size_t>(gp::Terminal::kCost)] =
        ctx.ll.costs();
    batch.columns[static_cast<std::size_t>(gp::Terminal::kQsum)] = gs.qsum;
    batch.columns[static_cast<std::size_t>(gp::Terminal::kQcov)] = {&zero, 1};
    batch.columns[static_cast<std::size_t>(gp::Terminal::kBres)] = {&zero, 1};
    batch.columns[static_cast<std::size_t>(gp::Terminal::kDual)] =
        gs.dual_mass;
    batch.columns[static_cast<std::size_t>(gp::Terminal::kXbar)] = gs.xbar;
    batch.count = m;
    ctx.static_scores.resize(m);
    program.evaluate_batch(batch, ctx.static_scores, ctx.reg_scratch);
    solved = cover::greedy_solve_static(ctx.ll, ctx.static_scores, greedy);
  } else {
    cover::GreedyBatchStats stats;
    solved = cover::greedy_solve(
        ctx.ll, gp::CompiledBatchScorer(program, ctx.reg_scratch),
        relax.duals, relax.relaxed_x, {}, greedy, &ctx.greedy_scratch,
        &stats);
    if (metrics != nullptr && stats.rounds > 0) {
      metrics->add_counter("greedy/rounds",
                           static_cast<long long>(stats.rounds));
      metrics->add_counter("greedy/bundles_rescored",
                           static_cast<long long>(stats.bundles_rescored));
      metrics->add_counter("greedy/rescore_slots",
                           static_cast<long long>(stats.rescore_slots));
      metrics->set_gauge("greedy/rescored_frac", stats.rescored_frac());
    }
  }
  if (polish && solved.feasible) {
    solved.value = cover::local_search(ctx.ll, solved.selection).value;
  }
  return solved;
}

HeuristicBatchPlan plan_heuristic_batch(std::span<const HeuristicJob> jobs) {
  HeuristicBatchPlan plan;
  plan.result_of.resize(jobs.size());
  if (jobs.empty()) return plan;

  // 1. Group jobs by exact tree content so each distinct genome is hashed
  //    (and later compiled) once. Chains keyed by content hash; equality is
  //    verified node-by-node.
  std::vector<std::size_t> content_group_of(jobs.size());
  std::vector<std::size_t> content_rep;  // group id -> representative job
  std::unordered_map<std::uint64_t, std::vector<std::size_t>> content_chains;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const auto& nodes = jobs[i].heuristic->nodes();
    auto& chain = content_chains[hash_nodes(nodes)];
    std::size_t gid = content_rep.size();
    for (std::size_t g : chain) {
      if (same_nodes(nodes, jobs[content_rep[g]].heuristic->nodes())) {
        gid = g;
        break;
      }
    }
    if (gid == content_rep.size()) {
      content_rep.push_back(i);
      chain.push_back(gid);
    }
    content_group_of[i] = gid;
  }

  // 2. Compile one program per content group, then merge groups whose
  //    CANONICAL forms coincide — syntactically different genomes that
  //    simplify to the same program share one evaluation.
  std::vector<std::size_t> merged_of(content_rep.size());
  std::vector<std::shared_ptr<const gp::CompiledProgram>> merged_program;
  std::unordered_map<std::uint64_t, std::vector<std::size_t>> canon_chains;
  for (std::size_t g = 0; g < content_rep.size(); ++g) {
    auto program = std::make_shared<const gp::CompiledProgram>(
        gp::CompiledProgram::compile(*jobs[content_rep[g]].heuristic));
    auto& chain = canon_chains[program->canonical_hash()];
    std::size_t mid = merged_program.size();
    for (std::size_t c : chain) {
      if (std::ranges::equal(program->canonical_nodes(),
                             merged_program[c]->canonical_nodes())) {
        mid = c;
        break;
      }
    }
    if (mid == merged_program.size()) {
      merged_program.push_back(std::move(program));
      chain.push_back(mid);
    }
    merged_of[g] = mid;
  }

  // 3. Key each job by (merged tree group, pricing content, purpose);
  //    first job with a fresh key becomes the unique's representative.
  struct JobKeyChain {
    std::vector<std::size_t> uniques;  // indices into plan.uniques
  };
  std::unordered_map<std::uint64_t, JobKeyChain> job_chains;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const std::size_t mid = merged_of[content_group_of[i]];
    std::uint64_t h = hash_doubles(jobs[i].pricing);
    fnv_mix(h, mid);
    fnv_mix(h, static_cast<std::uint64_t>(jobs[i].purpose));
    auto& chain = job_chains[h];
    std::size_t uid = plan.uniques.size();
    for (std::size_t u : chain.uniques) {
      const HeuristicJob& rep = jobs[plan.uniques[u].job_index];
      if (merged_of[content_group_of[plan.uniques[u].job_index]] == mid &&
          rep.purpose == jobs[i].purpose &&
          same_doubles(rep.pricing, jobs[i].pricing)) {
        uid = u;
        break;
      }
    }
    if (uid == plan.uniques.size()) {
      plan.uniques.push_back({i, merged_program[mid]});
      chain.uniques.push_back(uid);
    }
    plan.result_of[i] = uid;
  }
  return plan;
}

cover::SolveResult solve_with_selection(EvalContext& ctx,
                                        std::span<const double> pricing,
                                        std::span<const std::uint8_t> selection,
                                        const cover::GreedyOptions& greedy) {
  load_pricing(ctx, pricing);
  return cover::greedy_solve(ctx.ll, cover::CostEffectiveness{}, {}, {},
                             selection, greedy, &ctx.greedy_scratch);
}

Evaluation finalize_evaluation(const Instance& inst,
                               std::span<const double> pricing,
                               const cover::SolveResult& solved,
                               const cover::Relaxation& relax,
                               EvalPurpose purpose) {
  Evaluation out;
  out.ll_feasible = solved.feasible;
  out.selection = solved.selection;
  out.ll_objective = solved.value;
  out.lower_bound = relax.lower_bound;
  out.gap_percent = solved.feasible
                        ? bilevel::percent_gap(solved.value, relax.lower_bound)
                        : 1e9;
  out.guard.rung = relax.guard_rung;
  out.guard.construction_capped = solved.rounds_capped;
  out.guard.trip = relax.guard_trip != guard::Trip::kNone
                       ? relax.guard_trip
                       : (solved.rounds_capped ? guard::Trip::kConstructionCap
                                               : guard::Trip::kNone);
  if (purpose == EvalPurpose::kBoth) {
    out.ul_objective = inst.leader_revenue(pricing, out.selection);
  }
  return out;
}

}  // namespace carbon::bcpop
