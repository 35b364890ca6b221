// End-to-end layered benchmark program.
//
// Runs one workload as a closed loop of whole CARBON or COBRA runs, back to
// back, through the public solver entry points only (CarbonSolver /
// CobraSolver on bcpop::make_paper_bcpop instances), checks every result
// from outside the solver, and prints one JSON line:
//
//   carbon_e2e --workload NAME --seed S --seconds T --trace 0|1 [--smoke]
//
// Inputs. Each workload measures a fixed panel of inputs: input i solves
// make_paper_bcpop(class, i) with solver seed i. Every --seed measures the
// same panel and only rotates the order of its runs. The cost of one run
// varies up to 9x between inputs (it follows how the GP population evolves),
// far more than the runs that fit in --seconds could average out, so
// seed-chosen inputs would measure the inputs, not the code. The panel is
// measured kMinPasses times, then repeated round-robin while time is left
// before --seconds: a faster build measures more repeats of the same inputs,
// never other inputs.
//
// Passes. --trace 0 is the end-to-end pass: no MetricsRegistry is attached,
// so every in-program ScopedTimer is a no-op. --trace 1 attaches one and
// reports the per-layer breakdown. Both passes attach a RunJournal writing to
// a bench-owned streambuf that timestamps each record as it arrives. Records
// are written on the solver thread between generations, so arrival times
// mark run() entry -> run_start (set-up) -> each generation -> summary.
//
// Layers (traced pass) are accounted so they sum to the traced wall clock:
//   wall = setup + core.self + ea.(variation+selection) + bcpop.self
//        + lp wall share + ll wall share + residual
// where the lp/ll wall shares are their thread-summed timers divided by the
// batch participants, and residual is what follows the summary record
// (teardown), reported on its own and never folded into a layer.
#include <sys/resource.h>

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <fstream>
#include <iostream>
#include <map>
#include <span>
#include <streambuf>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "carbon/bcpop/instance.hpp"
#include "carbon/bilevel/gap.hpp"
#include "carbon/cobra/cobra_solver.hpp"
#include "carbon/common/cli.hpp"
#include "carbon/core/carbon_solver.hpp"
#include "carbon/cover/relaxation.hpp"
#include "carbon/gp/simd.hpp"
#include "carbon/obs/json.hpp"
#include "carbon/obs/metrics.hpp"
#include "carbon/obs/run_journal.hpp"

namespace {

using namespace carbon;
using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

struct Workload {
  std::string_view name;
  bool cobra = false;
  std::size_t paper_class = 0;
  long long ul_budget = 0;
  long long ll_budget = 0;
  std::size_t eval_threads = 1;
  /// The inputs measured; the first is the smoke run's.
  std::span<const std::uint64_t> panel;
};

// Panels are sized so kMinPasses passes fit in the benchmark's run_seconds
// on a 4-core host; the inputs are among the cheaper ones of their class at
// the workload's budget. The threaded panel starts with the serial one,
// whose results it must reproduce bit for bit.
constexpr std::uint64_t kSerialPanel[] = {20};
constexpr std::uint64_t kThreadedPanel[] = {20, 22, 9};
constexpr std::uint64_t kCobraPanel[] = {5};
constexpr std::uint64_t kSmallPanel[] = {1, 3, 7, 6, 4, 8, 2};

// Table II defaults throughout; workloads set no knob except eval_threads.
// Why each workload exists is recorded in README.md and BENCHMARK.json.
constexpr Workload kWorkloads[] = {
    {"carbon-n500m30", false, 8, 50'000, 6'000, 1, kSerialPanel},
    {"carbon-n500m30-t3", false, 8, 50'000, 6'000, 3, kThreadedPanel},
    {"cobra-n500m30", true, 8, 3'000, 3'000, 1, kCobraPanel},
    {"carbon-n100m5", false, 0, 50'000, 50'000, 1, kSmallPanel},
};

/// Passes over the panel that are always measured, so every input has a
/// median over at least this many repeats.
constexpr std::size_t kMinPasses = 3;

/// The threaded workload needs this many hardware threads to mean anything:
/// three workers plus the calling thread.
constexpr unsigned kThreadedHardwareThreads = 4;

/// The per-layer metrics of the traced pass, in BENCHMARK.json's order, with
/// their units.
constexpr std::pair<std::string_view, std::string_view> kLayers[] = {
    {"core.generations", "count"},
    {"core.gen_s_p50", "s"},
    {"core.gen_s_p80", "s"},
    {"core.self_s", "s"},
    {"ea.variation_s", "s"},
    {"ea.selection_s", "s"},
    {"bcpop.batch_s", "s"},
    {"bcpop.batches", "count"},
    {"bcpop.self_s", "s"},
    {"bcpop.relax_hit_ratio", "ratio"},
    {"bcpop.relax_evictions", "count"},
    {"bcpop.memo_hit_ratio", "ratio"},
    {"bcpop.memo_evictions", "count"},
    {"bcpop.dedup_ratio", "ratio"},
    {"sched.tasks", "count"},
    {"sched.steals", "count"},
    {"sched.idle_s", "s"},
    {"sched.busy_frac", "ratio"},
    {"lp.solves", "count"},
    {"lp.solve_thread_s", "s"},
    {"lp.us_per_solve", "us"},
    {"lp.pivots_per_solve", "count"},
    {"lp.refactorizations", "count"},
    {"lp.warm_rejects", "count"},
    {"lp.share", "ratio"},
    {"ll.solves", "count"},
    {"ll.solve_thread_s", "s"},
    {"ll.us_per_solve", "us"},
    {"greedy.rounds_per_solve", "count"},
    {"greedy.rescored_frac", "ratio"},
    {"gp.lanes_per_solve", "count"},
    {"gp.simd_lanes", "count"},
    {"ll.share", "ratio"},
    {"residual_s", "s"},
};

/// Journal sink that timestamps every record as its terminating newline
/// arrives, and keeps the records in memory for parsing after the run.
class StampingBuf : public std::streambuf {
 public:
  struct Record {
    Clock::time_point at;
    std::string line;
  };
  std::vector<Record> records;

 protected:
  std::streamsize xsputn(const char* s, std::streamsize n) override {
    for (std::streamsize i = 0; i < n; ++i) put(s[i]);
    return n;
  }
  int_type overflow(int_type ch) override {
    if (!traits_type::eq_int_type(ch, traits_type::eof())) {
      put(traits_type::to_char_type(ch));
    }
    return traits_type::not_eof(ch);
  }

 private:
  void put(char c) {
    if (c != '\n') {
      pending_.push_back(c);
      return;
    }
    records.push_back({Clock::now(), std::move(pending_)});
    pending_.clear();
  }
  std::string pending_;
};

struct Timed {
  Clock::time_point start;      ///< before make_paper_bcpop
  Clock::time_point run_entry;  ///< just before run()
  Clock::time_point run_exit;   ///< just after run()
  core::RunResult result;
  bcpop::Instance instance;
  std::vector<StampingBuf::Record> records;
};

/// Table II defaults except the budgets, the seed, eval_threads and the
/// telemetry sinks; CarbonConfig and CobraConfig share these fields.
template <typename Config>
Config configure(const Workload& w, long long ul_budget, long long ll_budget,
                 std::uint64_t seed, const obs::TelemetryConfig& telemetry) {
  Config cfg;
  cfg.ul_eval_budget = ul_budget;
  cfg.ll_eval_budget = ll_budget;
  cfg.eval_threads = w.eval_threads;
  cfg.seed = seed;
  cfg.telemetry = telemetry;
  return cfg;
}

/// One whole run, timed from outside: instance generation, solver
/// construction and run(), with the journal's record arrivals stamped.
Timed timed_run(const Workload& w, long long ul_budget, long long ll_budget,
                std::uint64_t seed, obs::MetricsRegistry* metrics) {
  StampingBuf buf;
  std::ostream journal_stream(&buf);
  obs::RunJournal journal(journal_stream, metrics);
  const obs::TelemetryConfig telemetry{.metrics = metrics,
                                       .journal = &journal};

  const Clock::time_point start = Clock::now();
  bcpop::Instance inst = bcpop::make_paper_bcpop(w.paper_class, seed);
  Clock::time_point entry;
  core::RunResult result;
  if (w.cobra) {
    cobra::CobraSolver solver(
        inst, configure<cobra::CobraConfig>(w, ul_budget, ll_budget, seed,
                                            telemetry));
    entry = Clock::now();
    result = solver.run();
  } else {
    core::CarbonSolver solver(
        inst, configure<core::CarbonConfig>(w, ul_budget, ll_budget, seed,
                                            telemetry));
    entry = Clock::now();
    result = solver.run();
  }
  const Clock::time_point exit = Clock::now();
  return Timed{start,          entry,           exit,
               std::move(result), std::move(inst), std::move(buf.records)};
}

bool approx_equal(double a, double b) {
  return std::abs(a - b) <= 1e-9 * std::max({1.0, std::abs(a), std::abs(b)});
}

/// Checks a run's result from outside the solver; returns what failed.
std::vector<std::string> check_result(const Workload& w, long long ul_budget,
                                      long long ll_budget,
                                      const bcpop::Instance& inst,
                                      const core::RunResult& r) {
  std::vector<std::string> failures;
  const auto fail = [&failures](std::string what) {
    failures.push_back(std::move(what));
  };
  const bcpop::Evaluation& best = r.best_evaluation;
  if (!best.ll_feasible) fail("best evaluation is not LL-feasible");
  if (r.best_pricing.size() != inst.num_owned()) {
    fail("best pricing has the wrong length");
    return failures;
  }
  for (std::size_t j = 0; j < r.best_pricing.size(); ++j) {
    const ea::Bounds b = inst.price_bounds()[j];
    if (!(r.best_pricing[j] >= b.lo && r.best_pricing[j] <= b.hi)) {
      fail("best pricing leaves the price box");
      break;
    }
  }
  // The follower's market under the leader's prices, rebuilt here.
  const cover::Instance market = inst.lower_level_instance(r.best_pricing);
  if (best.selection.size() != market.num_bundles() ||
      !market.feasible(best.selection)) {
    fail("best selection does not cover every service");
  } else {
    if (!approx_equal(market.selection_cost(best.selection),
                      best.ll_objective)) {
      fail("best selection's cost differs from ll_objective");
    }
    if (!approx_equal(inst.leader_revenue(r.best_pricing, best.selection),
                      best.ul_objective) ||
        !approx_equal(best.ul_objective, r.best_ul_objective)) {
      fail("best revenue differs from the selection's leader revenue");
    }
  }
  const cover::Relaxation lb = cover::relax(market);
  if (!lb.feasible || !approx_equal(lb.lower_bound, best.lower_bound)) {
    fail("recomputed LB(best pricing) differs from lower_bound");
  } else if (!approx_equal(
                 bilevel::percent_gap(best.ll_objective, lb.lower_bound),
                 best.gap_percent)) {
    fail("best evaluation's %-gap differs from its recomputation");
  }
  if (!(best.gap_percent >= 0.0) || !(r.best_gap >= 0.0) ||
      r.best_gap > best.gap_percent) {
    fail("%-gap is negative or best_gap exceeds the best evaluation's gap");
  }
  // Budgets are checked between generations: a run stops once either is
  // spent and overshoots by at most one generation's evaluations (COBRA: one
  // population batch; CARBON: every predator on the sample, then the prey).
  const core::CarbonConfig carbon;
  const cobra::CobraConfig cobra;
  const auto gen_ul = static_cast<long long>(
      w.cobra ? std::max(cobra.ul_population_size, cobra.ll_population_size)
              : carbon.ul_population_size);
  const auto gen_ll = static_cast<long long>(
      w.cobra ? std::max(cobra.ul_population_size, cobra.ll_population_size)
              : carbon.gp_population_size * carbon.heuristic_sample_size +
                    carbon.ul_population_size);
  if (r.ul_evaluations > ul_budget + gen_ul ||
      r.ll_evaluations > ll_budget + gen_ll) {
    fail("charged evaluations exceed the budget plus one generation");
  }
  if (r.ul_evaluations < ul_budget && r.ll_evaluations < ll_budget) {
    fail("run stopped before spending either budget");
  }
  return failures;
}

/// FNV-1a over the best pricing's bits, the best gap, the best revenue and
/// the charged evaluation counts: equal fingerprints mean equal results.
std::uint64_t fingerprint(const core::RunResult& r) {
  std::uint64_t h = 14695981039346656037ULL;
  const auto mix = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xffU;
      h *= 1099511628211ULL;
    }
  };
  for (const double p : r.best_pricing) mix(std::bit_cast<std::uint64_t>(p));
  mix(std::bit_cast<std::uint64_t>(r.best_gap));
  mix(std::bit_cast<std::uint64_t>(r.best_ul_objective));
  mix(static_cast<std::uint64_t>(r.ul_evaluations));
  mix(static_cast<std::uint64_t>(r.ll_evaluations));
  return h;
}

/// Linear-interpolation quantile of an unsorted sample (q in [0, 1]).
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// One measured run: its end-to-end numbers, and its layers when traced.
struct Sample {
  std::uint64_t seed = 0;
  bool ok = true;
  std::vector<std::string> failures;
  double setup_s = 0.0;  ///< make_paper_bcpop + run() entry -> run_start
  double run_s = 0.0;    ///< run() entry -> return
  double wall_s = 0.0;   ///< make_paper_bcpop -> run() return
  long long ul_evals = 0;
  long long ll_evals = 0;
  long long failed_evals = 0;
  int generations = 0;
  double best_gap = 0.0;
  double best_revenue = 0.0;
  std::uint64_t fingerprint = 0;
  std::map<std::string, double> layers;  ///< traced pass only
};

/// Arrival times of the run_start and summary records, the summary itself,
/// and the span between consecutive records up to each generation record.
struct JournalTimes {
  Clock::time_point run_start;
  Clock::time_point summary_at;
  obs::JsonValue summary;
  std::vector<double> generation_spans;
};

JournalTimes parse_journal(const std::vector<StampingBuf::Record>& records) {
  JournalTimes t;
  bool have_start = false;
  bool have_summary = false;
  Clock::time_point previous;
  for (const StampingBuf::Record& rec : records) {
    const obs::JsonValue v = obs::parse_json(rec.line);
    const std::string& type = v.at("type").as_string();
    if (type == "run_start") {
      t.run_start = rec.at;
      have_start = true;
    } else if (type == "generation") {
      t.generation_spans.push_back(seconds_between(previous, rec.at));
    } else if (type == "summary") {
      t.summary_at = rec.at;
      t.summary = v;
      have_summary = true;
    }
    previous = rec.at;
  }
  if (!have_start || !have_summary) {
    throw std::runtime_error("journal lacks a run_start or summary record");
  }
  return t;
}

/// Per-layer breakdown of one traced run: a value for each of kLayers.
std::map<std::string, double> layer_metrics(
    const Workload& w, const Sample& s, const JournalTimes& jt,
    const obs::MetricsRegistry::Snapshot& snap) {
  const auto timer = [&snap](const char* name) {
    const auto it = snap.timers.find(name);
    return it == snap.timers.end() ? obs::MetricsRegistry::TimerStat{}
                                   : it->second;
  };
  const auto counter = [&snap](const char* name) {
    const auto it = snap.counters.find(name);
    return it == snap.counters.end() ? 0.0
                                     : static_cast<double>(it->second);
  };
  const obs::JsonValue& backend = jt.summary.at("backend");
  const auto backend_count = [&backend](const char* name) {
    return backend.at(name).as_number();
  };

  // Batch participants: the calling thread alone, or the workers plus it.
  const double participants =
      w.eval_threads == 1 ? 1.0 : static_cast<double>(w.eval_threads + 1);
  const auto batch = timer("time/eval_batch");
  const auto selection = timer("time/selection");
  const auto variation = timer("time/variation");
  const auto lp = timer("time/lp_relaxation");
  const auto ll = timer("time/ll_solve");
  const double loop_s = seconds_between(jt.run_start, jt.summary_at);
  const double lp_wall = lp.total_seconds / participants;
  const double ll_wall = ll.total_seconds / participants;
  const double bcpop_self = batch.total_seconds - lp_wall - ll_wall;
  const double core_self = loop_s - batch.total_seconds -
                           selection.total_seconds - variation.total_seconds;

  const double relax_hits = backend_count("relax_cache_hits");
  const double relax_misses = backend_count("relax_cache_misses");
  const double dedup = backend_count("dedup_hits");
  const auto evals = static_cast<double>(s.ll_evals);

  std::map<std::string, double> m;
  m["core.generations"] = s.generations;
  m["core.gen_s_p50"] = quantile(jt.generation_spans, 0.5);
  m["core.gen_s_p80"] = quantile(jt.generation_spans, 0.8);
  m["core.self_s"] = core_self;
  m["ea.variation_s"] = variation.total_seconds;
  m["ea.selection_s"] = selection.total_seconds;
  m["bcpop.batch_s"] = batch.total_seconds;
  m["bcpop.batches"] = static_cast<double>(batch.count);
  m["bcpop.self_s"] = bcpop_self;
  m["bcpop.relax_hit_ratio"] = ratio(relax_hits, relax_hits + relax_misses);
  m["bcpop.relax_evictions"] = backend_count("relax_cache_evictions");
  // Every unique heuristic job of a batch probes the score memo once.
  m["bcpop.memo_hit_ratio"] =
      ratio(backend_count("xgen_hits"), evals - dedup);
  m["bcpop.memo_evictions"] = backend_count("xgen_evictions");
  m["bcpop.dedup_ratio"] = ratio(dedup, evals);
  m["sched.tasks"] = counter("sched/tasks");
  m["sched.steals"] = counter("sched/steals");
  m["sched.idle_s"] = counter("sched/idle_ns") * 1e-9;
  m["sched.busy_frac"] = ratio(lp.total_seconds + ll.total_seconds,
                               batch.total_seconds * participants);
  m["lp.solves"] = static_cast<double>(lp.count);
  m["lp.solve_thread_s"] = lp.total_seconds;
  m["lp.us_per_solve"] =
      ratio(lp.total_seconds * 1e6, static_cast<double>(lp.count));
  m["lp.pivots_per_solve"] =
      ratio(counter("lp/iterations"), static_cast<double>(lp.count));
  m["lp.refactorizations"] = counter("lp/refactorizations");
  m["lp.warm_rejects"] = counter("lp/warm_start_rejects");
  m["lp.share"] = ratio(lp_wall, s.wall_s);
  m["ll.solves"] = static_cast<double>(ll.count);
  m["ll.solve_thread_s"] = ll.total_seconds;
  m["ll.us_per_solve"] =
      ratio(ll.total_seconds * 1e6, static_cast<double>(ll.count));
  m["greedy.rounds_per_solve"] =
      ratio(counter("greedy/rounds"), static_cast<double>(ll.count));
  m["greedy.rescored_frac"] = ratio(counter("greedy/bundles_rescored"),
                                    counter("greedy/rescore_slots"));
  m["gp.lanes_per_solve"] =
      ratio(counter("greedy/bundles_rescored"), static_cast<double>(ll.count));
  m["gp.simd_lanes"] = static_cast<double>(gp::simd::lanes());
  m["ll.share"] = ratio(ll_wall, s.wall_s);
  m["residual_s"] = s.wall_s - s.setup_s -
                    (core_self + selection.total_seconds +
                     variation.total_seconds + bcpop_self + lp_wall + ll_wall);
  return m;
}

Sample measure_run(const Workload& w, long long ul_budget, long long ll_budget,
                   std::uint64_t seed, bool traced) {
  Sample s;
  s.seed = seed;
  obs::MetricsRegistry registry;
  try {
    Timed t = timed_run(w, ul_budget, ll_budget, seed,
                        traced ? &registry : nullptr);
    const JournalTimes jt = parse_journal(t.records);
    const core::RunResult& r = t.result;
    s.setup_s = seconds_between(t.start, jt.run_start);
    s.run_s = seconds_between(t.run_entry, t.run_exit);
    s.wall_s = seconds_between(t.start, t.run_exit);
    s.ul_evals = r.ul_evaluations;
    s.ll_evals = r.ll_evaluations;
    s.generations = r.generations;
    s.best_gap = r.best_gap;
    s.best_revenue = r.best_ul_objective;
    s.fingerprint = fingerprint(r);
    // A failed evaluation ran degraded on the guard ladder (which includes
    // every LL-infeasible outcome of a coverable instance).
    s.failed_evals = static_cast<long long>(
        jt.summary.at("backend").at("guard_degraded").as_number());
    s.failures = check_result(w, ul_budget, ll_budget, t.instance, r);
    if (traced) s.layers = layer_metrics(w, s, jt, registry.snapshot());
  } catch (const std::exception& e) {
    s.failures.push_back(std::string("run threw: ") + e.what());
  }
  s.ok = s.failures.empty();
  if (!s.ok) {
    // Every evaluation of a run that throws or fails a check counts failed.
    s.ul_evals = std::max(s.ul_evals, ul_budget);
    s.ll_evals = std::max(s.ll_evals, ll_budget);
    s.failed_evals = s.ul_evals + s.ll_evals;
  }
  return s;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos && colon + 2 <= line.size()) {
        return line.substr(colon + 2);
      }
    }
  }
  return "unknown";
}

/// This process image's peak resident set (VmHWM). Unlike ru_maxrss it
/// starts afresh at exec, so a large parent process does not leak into it.
double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB
    }
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::string hex(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

void add_metric(obs::JsonObjectWriter& metrics, std::string_view name,
                double value, std::string_view unit) {
  obs::JsonObjectWriter m;
  m.field("value", value).field("unit", unit);
  metrics.object_field(name, std::move(m));
}

int run(const common::CliArgs& args) {
  const std::string name = args.get("workload", "");
  const Workload* w = nullptr;
  for (const Workload& candidate : kWorkloads) {
    if (candidate.name == name) w = &candidate;
  }
  if (w == nullptr) {
    std::cerr << "carbon_e2e: unknown --workload '" << name << "' (one of";
    for (const Workload& candidate : kWorkloads) {
      std::cerr << ' ' << candidate.name;
    }
    std::cerr << ")\n";
    return 2;
  }
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
  const double seconds = args.get_double("seconds", 10.0);
  const long long trace = args.get_int("trace", 0);
  if (trace != 0 && trace != 1) {
    std::cerr << "carbon_e2e: --trace must be 0 or 1\n";
    return 2;
  }
  const bool traced = trace == 1;
  const bool smoke = args.get_bool("smoke");

  const unsigned hardware_threads = std::thread::hardware_concurrency();
  obs::JsonObjectWriter provenance;
  provenance.field("hardware_threads", static_cast<long long>(hardware_threads))
      .field("cpu_model", cpu_model())
      .field("simd", gp::simd::path_name())
      .field("build_type", CARBON_E2E_BUILD_TYPE)
      .field("compiler", __VERSION__);

  obs::JsonObjectWriter out;
  out.field("workload", w->name)
      .field("seed", static_cast<unsigned long long>(seed))
      .field("trace", traced)
      .field("smoke", smoke)
      .object_field("provenance", std::move(provenance));
  if (w->eval_threads > 1 && hardware_threads < kThreadedHardwareThreads) {
    out.field("skipped", "needs 4 hardware threads");
    std::cout << out.finish() << std::endl;
    return 3;
  }

  // Smoke mode: two generations of the panel's first input, all checks on.
  const long long smoke_ul = 200;
  const long long smoke_ll = w->cobra ? 200 : 1'200;
  const long long ul_budget = smoke ? smoke_ul : w->ul_budget;
  const long long ll_budget = smoke ? smoke_ll : w->ll_budget;
  const std::size_t n = smoke ? 1 : w->panel.size();

  const Clock::time_point deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(seconds));
  // An untimed smoke-sized run first: without it, a process's first
  // measured run ran up to 20% slower than the repeats of the same input.
  if (!smoke) measure_run(*w, smoke_ul, smoke_ll, w->panel.front(), false);
  std::vector<std::vector<Sample>> by_run(n);  ///< samples of slot k
  std::vector<double> cost(n);  ///< seconds slot k's last measurement took
  const auto measure = [&](std::size_t k) {
    const Clock::time_point begin = Clock::now();
    // Slot k holds panel input (seed + k) mod P: the seed rotates the order.
    const std::uint64_t id = w->panel[(seed + k) % n];
    by_run[k].push_back(measure_run(*w, ul_budget, ll_budget, id, traced));
    cost[k] = seconds_between(begin, Clock::now());
  };
  // kMinPasses passes, then repeats round-robin while the next repeat is
  // expected to end before the deadline.
  const std::size_t passes = smoke ? 1 : kMinPasses;
  for (std::size_t k = 0; k < passes * n; ++k) measure(k % n);
  for (std::size_t k = 0;
       !smoke && seconds_between(Clock::now(), deadline) >= cost[k];
       k = (k + 1) % n) {
    measure(k);
  }

  // Aggregate: median over an input's repeats, then mean over the inputs,
  // so every invocation weighs the same fixed set of inputs equally.
  const auto aggregate = [&by_run](auto&& value_of) {
    double sum = 0.0;
    for (const auto& samples : by_run) {
      std::vector<double> v;
      for (const Sample& s : samples) v.push_back(value_of(s));
      sum += quantile(v, 0.5);
    }
    return sum / static_cast<double>(by_run.size());
  };
  // The same over each input's fastest repeat. Other tenants of a shared
  // host only ever add time, in bursts shorter than a process: the fastest
  // repeat is the one they disturbed least.
  const auto fastest = [&by_run](auto&& value_of) {
    double sum = 0.0;
    for (const auto& samples : by_run) {
      sum += value_of(*std::min_element(
          samples.begin(), samples.end(),
          [](const Sample& a, const Sample& b) { return a.run_s < b.run_s; }));
    }
    return sum / static_cast<double>(by_run.size());
  };

  bool correct = true;
  long long attempted = 0;
  long long failed = 0;
  std::vector<double> setups;
  obs::JsonArrayWriter runs;
  for (const auto& samples : by_run) {
    for (const Sample& s : samples) {
      correct = correct && s.ok;
      attempted += s.ul_evals + s.ll_evals;
      failed += s.failed_evals;
      setups.push_back(s.setup_s);
      // Repeats of one input must reproduce its result bit for bit.
      if (s.fingerprint != samples.front().fingerprint) correct = false;
      obs::JsonArrayWriter failures;
      for (const std::string& f : s.failures) failures.item(f);
      obs::JsonObjectWriter entry;
      entry.field("seed", static_cast<unsigned long long>(s.seed))
          .field("ok", s.ok)
          .raw_field("failures", failures.finish())
          .field("setup_s", s.setup_s)
          .field("run_s", s.run_s)
          .field("wall_s", s.wall_s)
          .field("ul_evals", s.ul_evals)
          .field("ll_evals", s.ll_evals)
          .field("failed_evals", s.failed_evals)
          .field("generations", s.generations)
          .field("best_gap_pct", s.best_gap)
          .field("best_revenue", s.best_revenue)
          .field("fingerprint", hex(s.fingerprint));
      runs.raw_item(entry.finish());
    }
  }

  obs::JsonObjectWriter metrics;
  if (!traced) {
    add_metric(metrics, "run_s", fastest([](const Sample& s) {
                 return s.run_s;
               }),
               "s");
    add_metric(metrics, "evals_per_s", fastest([](const Sample& s) {
                 return ratio(static_cast<double>(s.ul_evals + s.ll_evals),
                              s.run_s);
               }),
               "1/s");
    add_metric(metrics, "setup_s", quantile(setups, 0.5), "s");
    add_metric(metrics, "peak_rss_mb", peak_rss_mb(), "MB");
    add_metric(metrics, "best_gap_pct", aggregate([](const Sample& s) {
                 return s.best_gap;
               }),
               "%");
    add_metric(metrics, "best_revenue", aggregate([](const Sample& s) {
                 return s.best_revenue;
               }),
               "price");
  } else if (correct) {
    for (const auto& [layer, unit] : kLayers) {
      const std::string key(layer);
      add_metric(metrics, layer, aggregate([&key](const Sample& s) {
                   return s.layers.at(key);
                 }),
                 unit);
    }
  }

  out.raw_field("runs", runs.finish())
      .field("correct", correct)
      .field("attempted", attempted)
      .field("failed", failed)
      .object_field("metrics", std::move(metrics));
  std::cout << out.finish() << std::endl;
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(common::CliArgs(argc, argv));
  } catch (const std::exception& e) {
    std::cerr << "carbon_e2e: " << e.what() << '\n';
    return 2;
  }
}
