#include "carbon/obs/run_journal.hpp"

#include <stdexcept>
#include <utility>

#include "carbon/obs/json.hpp"

namespace carbon::obs {

RunJournal::RunJournal(const std::string& path, const MetricsRegistry* metrics)
    : owned_file_(std::make_unique<std::ofstream>(path, std::ios::app)),
      out_(owned_file_.get()),
      metrics_(metrics) {
  if (!*owned_file_) {
    throw std::runtime_error("RunJournal: cannot open '" + path + "'");
  }
}

RunJournal::RunJournal(std::ostream& out, const MetricsRegistry* metrics)
    : out_(&out), metrics_(metrics) {}

void RunJournal::emit(std::string line) {
  line.push_back('\n');
  std::lock_guard lock(mutex_);
  *out_ << line;
  out_->flush();
  ++records_written_;
}

namespace {

void append_backend(JsonObjectWriter& w, const BackendStats& b) {
  JsonObjectWriter inner;
  for (const BackendCounter& c : kBackendCounters) {
    inner.field(c.journal_key, b.*c.member);
  }
  w.object_field("backend", std::move(inner));
}

}  // namespace

void RunJournal::append_timings(JsonObjectWriter& w, bool cumulative) {
  JsonObjectWriter inner;
  if (metrics_ != nullptr) {
    MetricsRegistry::Snapshot now = metrics_->snapshot();
    const MetricsRegistry::Snapshot& base =
        cumulative ? run_start_snapshot_ : last_snapshot_;
    for (const auto& [name, t] : now.timers) {
      double total = t.total_seconds;
      const auto it = base.timers.find(name);
      if (it != base.timers.end()) total -= it->second.total_seconds;
      inner.field(name, total);
    }
    if (!cumulative) last_snapshot_ = std::move(now);
  }
  w.object_field("timings_s", std::move(inner));
}

void RunJournal::begin_run(std::string_view algo, std::uint64_t seed,
                           std::size_t eval_threads,
                           std::string_view lp_warm, std::string_view simd) {
  algo_ = std::string(algo);
  run_clock_.reset();
  if (metrics_ != nullptr) {
    run_start_snapshot_ = metrics_->snapshot();
    last_snapshot_ = run_start_snapshot_;
  }
  JsonObjectWriter w;
  w.field("type", "run_start")
      .field("v", 1)
      .field("algo", algo)
      .field("seed", static_cast<unsigned long long>(seed))
      .field("eval_threads", eval_threads)
      .field("lp_warm", lp_warm)
      .field("simd", simd);
  emit(w.finish());
}

void RunJournal::write_resume(const ResumeRecord& rec) {
  JsonObjectWriter w;
  w.field("type", "resume")
      .field("algo", algo_)
      .field("generation", rec.generation)
      .field("ul_evals", rec.ul_evals)
      .field("ll_evals", rec.ll_evals)
      .field("from", rec.checkpoint_path);
  emit(w.finish());
}

void RunJournal::write_generation(const GenerationRecord& rec) {
  JsonObjectWriter w;
  w.field("type", "generation")
      .field("algo", algo_)
      .field("generation", rec.generation)
      .field("phase", rec.phase)
      .field("best_ul", rec.best_ul)
      .field("mean_ul", rec.mean_ul)
      .field("std_ul", rec.std_ul)
      .field("best_gap", rec.best_gap)
      .field("mean_gap", rec.mean_gap)
      .field("std_gap", rec.std_gap)
      .field("best_ul_so_far", rec.best_ul_so_far)
      .field("best_gap_so_far", rec.best_gap_so_far)
      .field("archive_size", rec.archive_size)
      .field("ll_archive_size", rec.ll_archive_size)
      .field("ul_evals", rec.ul_evals)
      .field("ll_evals", rec.ll_evals);
  append_backend(w, rec.backend);
  append_timings(w, /*cumulative=*/false);
  emit(w.finish());
}

void RunJournal::finish_run(const RunSummary& summary) {
  JsonObjectWriter w;
  w.field("type", "summary")
      .field("algo", algo_)
      .field("generations", summary.generations)
      .field("ul_evals", summary.ul_evals)
      .field("ll_evals", summary.ll_evals)
      .field("best_ul", summary.best_ul)
      .field("best_gap", summary.best_gap)
      .field("wall_s", run_clock_.seconds());
  append_backend(w, summary.backend);
  append_timings(w, /*cumulative=*/true);
  emit(w.finish());
}

}  // namespace carbon::obs
