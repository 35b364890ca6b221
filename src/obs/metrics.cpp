#include "carbon/obs/metrics.hpp"

#include <algorithm>
#include <functional>
#include <thread>

namespace carbon::obs {

MetricsRegistry::MetricsRegistry(std::size_t shards) {
  shards = std::max<std::size_t>(shards, 1);
  shards_.reserve(shards);
  for (std::size_t s = 0; s < shards; ++s) {
    shards_.push_back(std::make_unique<Shard>());
  }
}

MetricsRegistry::Shard& MetricsRegistry::shard_for_this_thread() noexcept {
  if (shards_.size() == 1) return *shards_.front();
  const std::size_t h =
      std::hash<std::thread::id>{}(std::this_thread::get_id());
  // Multiply-shift finalizer: std::hash on thread ids is often the identity
  // over a pointer-like value, whose low bits carry the allocator's
  // alignment, not the thread.
  return *shards_[(h * 0x9E3779B97F4A7C15ULL >> 32) % shards_.size()];
}

void MetricsRegistry::add_counter(std::string_view name, long long delta) {
  Shard& s = shard_for_this_thread();
  std::lock_guard lock(s.mutex);
  const auto it = s.counters.find(name);
  if (it == s.counters.end()) {
    s.counters.emplace(std::string(name), delta);
  } else {
    it->second += delta;
  }
}

void MetricsRegistry::set_gauge(std::string_view name, double value) {
  const std::uint64_t seq =
      gauge_sequence_.fetch_add(1, std::memory_order_relaxed) + 1;
  Shard& s = shard_for_this_thread();
  std::lock_guard lock(s.mutex);
  const auto it = s.gauges.find(name);
  if (it == s.gauges.end()) {
    s.gauges.emplace(std::string(name), GaugeSlot{seq, value});
  } else if (seq > it->second.sequence) {
    it->second = GaugeSlot{seq, value};
  }
}

void MetricsRegistry::record_timer(std::string_view name, double seconds) {
  Shard& s = shard_for_this_thread();
  std::lock_guard lock(s.mutex);
  auto it = s.timers.find(name);
  if (it == s.timers.end()) {
    it = s.timers.emplace(std::string(name), TimerStat{}).first;
  }
  TimerStat& t = it->second;
  ++t.count;
  t.total_seconds += seconds;
  t.max_seconds = std::max(t.max_seconds, seconds);
}

MetricsRegistry::Snapshot MetricsRegistry::snapshot() const {
  Snapshot out;
  // Gauge merge needs the write sequence, which the snapshot drops; track
  // the winning sequence per name locally while merging.
  std::map<std::string, std::uint64_t> gauge_seq;
  for (const auto& shard : shards_) {
    std::lock_guard lock(shard->mutex);
    for (const auto& [name, v] : shard->counters) out.counters[name] += v;
    for (const auto& [name, slot] : shard->gauges) {
      auto& seq = gauge_seq[name];
      if (slot.sequence >= seq) {
        seq = slot.sequence;
        out.gauges[name] = slot.value;
      }
    }
    for (const auto& [name, t] : shard->timers) {
      TimerStat& dst = out.timers[name];
      dst.count += t.count;
      dst.total_seconds += t.total_seconds;
      dst.max_seconds = std::max(dst.max_seconds, t.max_seconds);
    }
  }
  return out;
}

void MetricsRegistry::reset() {
  for (const auto& shard : shards_) {
    std::lock_guard lock(shard->mutex);
    shard->counters.clear();
    shard->gauges.clear();
    shard->timers.clear();
  }
}

}  // namespace carbon::obs
