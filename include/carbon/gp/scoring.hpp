// Bridge from compiled GP programs to the greedy solver's batch scorer
// interface (cover::BatchFeatureView in, one score per bundle out).
#pragma once

#include <span>
#include <vector>

#include "carbon/cover/greedy.hpp"
#include "carbon/gp/compiled.hpp"

namespace carbon::gp {

/// Lays out a cover::BatchFeatureView as a compiled program's terminal
/// batch (Terminal order; BRES broadcasts its round-scalar). The returned
/// batch aliases `view` — keep the view alive while evaluating.
[[nodiscard]] inline CompiledProgram::TerminalBatch view_to_batch(
    const cover::BatchFeatureView& view) noexcept {
  CompiledProgram::TerminalBatch batch;
  batch.columns[static_cast<std::size_t>(Terminal::kCost)] = view.cost;
  batch.columns[static_cast<std::size_t>(Terminal::kQsum)] = view.qsum;
  batch.columns[static_cast<std::size_t>(Terminal::kQcov)] = view.qcov;
  batch.columns[static_cast<std::size_t>(Terminal::kBres)] = {&view.bres, 1};
  batch.columns[static_cast<std::size_t>(Terminal::kDual)] = view.dual;
  batch.columns[static_cast<std::size_t>(Terminal::kXbar)] = view.xbar;
  batch.count = view.count;
  return batch;
}

/// Dependency-aware batch scorer over a compiled program — the scorer type
/// the incremental cover::greedy_solve is designed for (it models
/// cover::TerminalAwareBatchScorer). The dependency answers come from the
/// CANONICAL program, so a tree whose BRES/QCOV reads simplify away — e.g.
/// (sub BRES BRES) — correctly reports them unread and unlocks the dirty-set
/// rescoring path. Holds references only: keep `program` and `reg_scratch`
/// alive for the scorer's lifetime (bcpop::EvalContext owns both).
class CompiledBatchScorer {
 public:
  CompiledBatchScorer(const CompiledProgram& program,
                      std::vector<double>& reg_scratch) noexcept
      : program_(&program), scratch_(&reg_scratch) {}

  void operator()(const cover::BatchFeatureView& view,
                  std::span<double> out) const {
    program_->evaluate_batch(view_to_batch(view), out, *scratch_);
  }

  [[nodiscard]] bool depends_on_bres() const noexcept {
    return program_->uses_terminal(Terminal::kBres);
  }
  [[nodiscard]] bool depends_on_qcov() const noexcept {
    return program_->uses_terminal(Terminal::kQcov);
  }

 private:
  const CompiledProgram* program_;
  std::vector<double>* scratch_;
};

}  // namespace carbon::gp
