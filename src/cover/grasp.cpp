#include "carbon/cover/grasp.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>

namespace carbon::cover {

namespace {

/// One semi-greedy construction, batch-scoring core: every round scores the
/// whole bundle axis in one call and picks uniformly from the RCL. The
/// partial cover lives in `scratch` (detail::CoverState), shared with the
/// deterministic greedy.
SolveResult construct(const Instance& instance,
                      const BatchScoreFunction& score, common::Rng& rng,
                      std::span<const double> duals,
                      std::span<const double> relaxed_x, double alpha,
                      const GreedyOptions& greedy_options,
                      GreedyScratch& scratch) {
  const std::size_t m = instance.num_bundles();
  BatchFeatureView view = scratch.begin(instance, duals, relaxed_x, {});
  detail::CoverState& c = scratch.cover;
  scratch.scores.assign(m, 0.0);
  std::vector<std::size_t> candidates;
  std::vector<double> cand_scores;

  long long rounds = 0;
  while (c.outstanding > 0) {
    if (greedy_options.max_rounds > 0 &&
        rounds >= greedy_options.max_rounds) {
      return c.finish(instance, false, true, false);
    }
    ++rounds;
    view.bres = static_cast<double>(c.outstanding);
    score(view, std::span<double>(scratch.scores));

    candidates.clear();
    cand_scores.clear();
    double best = -std::numeric_limits<double>::infinity();
    double worst = std::numeric_limits<double>::infinity();
    for (std::size_t j = 0; j < m; ++j) {
      if (c.selection[j] || c.useful[j] <= 0.0) continue;
      const double s = detail::sanitize_score(scratch.scores[j]);
      candidates.push_back(j);
      cand_scores.push_back(s);
      best = std::max(best, s);
      worst = std::min(worst, s);
    }
    if (candidates.empty()) {
      return c.finish(instance, false, false, false);
    }

    // Restricted candidate list.
    const double threshold = best - alpha * (best - worst);
    std::size_t rcl_size = 0;
    for (std::size_t i = 0; i < candidates.size(); ++i) {
      if (cand_scores[i] >= threshold) {
        candidates[rcl_size++] = candidates[i];
      }
    }
    // The callback is ignored, so the supplier order CoverState::add walks
    // in cannot reach the candidate list or the RNG draws.
    c.add(instance, candidates[rng.below(rcl_size)], [](std::size_t) {});
  }
  return c.finish(instance, true, false, greedy_options.eliminate_redundancy);
}

void validate(const GraspOptions& options) {
  if (!(options.alpha >= 0.0 && options.alpha <= 1.0)) {
    throw std::invalid_argument("grasp_solve: alpha in [0, 1]");
  }
  if (options.restarts == 0) {
    throw std::invalid_argument("grasp_solve: restarts >= 1");
  }
}

SolveResult multistart(const Instance& instance,
                       const BatchScoreFunction& score, common::Rng& rng,
                       std::span<const double> duals,
                       std::span<const double> relaxed_x,
                       const GraspOptions& options) {
  SolveResult best;
  best.feasible = false;
  best.value = std::numeric_limits<double>::infinity();
  GreedyScratch scratch;
  for (std::size_t r = 0; r < options.restarts; ++r) {
    SolveResult candidate =
        construct(instance, score, rng, duals, relaxed_x, options.alpha,
                  options.greedy, scratch);
    if (!candidate.feasible) {
      if (!candidate.rounds_capped) return candidate;  // not coverable
      // A round-capped restart only proves the budget ran out, not that the
      // instance is uncoverable — remember it (so a fully-capped multistart
      // still reports the trip) and let later restarts try.
      if (!best.feasible) best = std::move(candidate);
      continue;
    }
    if (!best.feasible || candidate.value < best.value) {
      best = std::move(candidate);
    }
  }
  return best;
}

}  // namespace

SolveResult grasp_solve(const Instance& instance, const ScoreFunction& score,
                        common::Rng& rng, std::span<const double> duals,
                        std::span<const double> relaxed_x,
                        const GraspOptions& options) {
  validate(options);
  const BatchScoreFunction batched = [&score](const BatchFeatureView& view,
                                              std::span<double> out) {
    detail::score_per_bundle(score, view, out);
  };
  return multistart(instance, batched, rng, duals, relaxed_x, options);
}

SolveResult grasp_solve(const Instance& instance,
                        const BatchScoreFunction& score, common::Rng& rng,
                        std::span<const double> duals,
                        std::span<const double> relaxed_x,
                        const GraspOptions& options) {
  validate(options);
  return multistart(instance, score, rng, duals, relaxed_x, options);
}

}  // namespace carbon::cover
