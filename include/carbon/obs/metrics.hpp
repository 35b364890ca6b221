// Run-telemetry metrics: a thread-safe registry of named counters, gauges
// and wall-clock timers.
//
// Design goals, in order:
//   1. Trajectory neutrality. Telemetry observes; it never participates.
//      Nothing here consumes RNG, allocates on behalf of the solve path
//      while disabled, or feeds values back into any algorithm.
//   2. Zero cost when disabled. Every instrumentation site takes a
//      `MetricsRegistry*`; a null pointer short-circuits before any clock
//      read or string hash (see the free helpers and ScopedTimer below).
//   3. Cheap under concurrency. Writes land in one of S shards selected by
//      the calling thread's id, so two evaluation workers almost never
//      contend on the same mutex. Reads (snapshot()) merge all shards —
//      the slow path runs once per generation, not once per evaluation.
//
// Counters accumulate (sum-merged), gauges keep the most recent write
// (merged by a global write sequence), timers accumulate count / total /
// max seconds. Names are plain strings; the convention used by the
// evaluators and solvers is "<area>/<what>", e.g. "time/lp_relaxation".
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace carbon::obs {

class MetricsRegistry {
 public:
  /// Aggregate of one named timer: how many intervals were recorded, their
  /// total duration, and the longest single interval.
  struct TimerStat {
    long long count = 0;
    double total_seconds = 0.0;
    double max_seconds = 0.0;
  };

  /// Merged view of every shard at one point in time. Maps are ordered so
  /// snapshots print and compare deterministically.
  struct Snapshot {
    std::map<std::string, long long> counters;
    std::map<std::string, double> gauges;
    std::map<std::string, TimerStat> timers;
  };

  explicit MetricsRegistry(std::size_t shards = 16);

  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Adds `delta` to the named counter (creating it at zero).
  void add_counter(std::string_view name, long long delta = 1);
  /// Sets the named gauge; concurrent writers race benignly — the write
  /// with the highest global sequence number wins at merge time.
  void set_gauge(std::string_view name, double value);
  /// Records one timed interval under the named timer.
  void record_timer(std::string_view name, double seconds);

  /// Merge-on-read over all shards. Safe to call concurrently with writes;
  /// each shard is internally consistent, the snapshot as a whole is a
  /// point-in-time-per-shard view.
  [[nodiscard]] Snapshot snapshot() const;

  /// Drops every metric in every shard.
  void reset();

  [[nodiscard]] std::size_t shard_count() const noexcept {
    return shards_.size();
  }

 private:
  struct GaugeSlot {
    std::uint64_t sequence = 0;
    double value = 0.0;
  };
  struct Shard {
    mutable std::mutex mutex;
    std::map<std::string, long long, std::less<>> counters;
    std::map<std::string, GaugeSlot, std::less<>> gauges;
    std::map<std::string, TimerStat, std::less<>> timers;
  };

  [[nodiscard]] Shard& shard_for_this_thread() noexcept;

  std::vector<std::unique_ptr<Shard>> shards_;
  std::atomic<std::uint64_t> gauge_sequence_{0};
};

// ---- Null-safe instrumentation helpers ------------------------------------
// Instrumented code holds a MetricsRegistry* that is null when telemetry is
// off; these helpers make the disabled path a single pointer test.

inline void count(MetricsRegistry* m, std::string_view name,
                  long long delta = 1) {
  if (m != nullptr) m->add_counter(name, delta);
}

inline void gauge(MetricsRegistry* m, std::string_view name, double value) {
  if (m != nullptr) m->set_gauge(name, value);
}

/// RAII wall-clock interval recorded into a timer on destruction (or on an
/// explicit stop()). With a null registry neither constructor nor destructor
/// reads the clock.
class ScopedTimer {
 public:
  ScopedTimer(MetricsRegistry* registry, std::string_view name)
      : registry_(registry), name_(name) {
    if (registry_ != nullptr) start_ = Clock::now();
  }
  ~ScopedTimer() { stop(); }

  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

  /// Records the interval now; subsequent stop() calls are no-ops.
  void stop() {
    if (registry_ == nullptr) return;
    const double s =
        std::chrono::duration<double>(Clock::now() - start_).count();
    registry_->record_timer(name_, s);
    registry_ = nullptr;
  }

 private:
  using Clock = std::chrono::steady_clock;
  MetricsRegistry* registry_;
  std::string_view name_;
  Clock::time_point start_{};
};

}  // namespace carbon::obs
