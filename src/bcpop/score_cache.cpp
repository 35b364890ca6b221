#include "carbon/bcpop/score_cache.hpp"

#include <algorithm>
#include <bit>
#include <cstring>
#include <iterator>

namespace carbon::bcpop {

namespace {

constexpr std::uint64_t kFnvOffset = 1469598103934665603ull;
constexpr std::uint64_t kFnvPrime = 1099511628211ull;

void fnv_mix(std::uint64_t& h, std::uint64_t v) noexcept {
  h ^= v;
  h *= kFnvPrime;
}

/// FNV-1a over the exact key content (node bit patterns included, so -0.0
/// and NaN payloads key distinctly — strictly finer than ==, never coarser).
std::uint64_t hash_key(std::span<const gp::Node> nodes,
                       std::span<const double> pricing,
                       EvalPurpose purpose) noexcept {
  std::uint64_t h = kFnvOffset;
  for (const gp::Node& nd : nodes) {
    fnv_mix(h, static_cast<std::uint64_t>(nd.op));
    fnv_mix(h, nd.terminal);
    fnv_mix(h, std::bit_cast<std::uint64_t>(nd.value));
  }
  fnv_mix(h, 0x9e3779b97f4a7c15ull);  // separate the node and pricing runs
  for (double x : pricing) {
    fnv_mix(h, std::bit_cast<std::uint64_t>(x));
  }
  fnv_mix(h, static_cast<std::uint64_t>(purpose));
  return h;
}

bool same_nodes(std::span<const gp::Node> a,
                std::span<const gp::Node> b) noexcept {
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

bool same_doubles(std::span<const double> a,
                  std::span<const double> b) noexcept {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

}  // namespace

ScoreCache::ScoreCache(std::size_t capacity)
    : capacity_(std::max<std::size_t>(capacity, 1)) {}

bool ScoreCache::lookup(std::span<const gp::Node> nodes,
                        std::span<const double> pricing, EvalPurpose purpose,
                        Evaluation* out) {
  const auto chain = chains_.find(hash_key(nodes, pricing, purpose));
  if (chain != chains_.end()) {
    for (const auto it : chain->second) {
      if (it->purpose == purpose && same_nodes(it->nodes, nodes) &&
          same_doubles(it->pricing, pricing)) {
        lru_.splice(lru_.begin(), lru_, it);
        *out = it->value;
        ++hits_;
        return true;
      }
    }
  }
  ++misses_;
  return false;
}

void ScoreCache::insert(std::span<const gp::Node> nodes,
                        std::span<const double> pricing, EvalPurpose purpose,
                        const Evaluation& result) {
  auto& chain = chains_[hash_key(nodes, pricing, purpose)];
  for (const auto it : chain) {
    if (it->purpose == purpose && same_nodes(it->nodes, nodes) &&
        same_doubles(it->pricing, pricing)) {
      // The key is already cached (the value is a pure function of it), so
      // refreshing recency is all that is left.
      lru_.splice(lru_.begin(), lru_, it);
      return;
    }
  }
  lru_.push_front(Entry{{nodes.begin(), nodes.end()},
                        {pricing.begin(), pricing.end()},
                        purpose,
                        result});
  chain.push_back(lru_.begin());
  while (lru_.size() > capacity_) {
    const auto victim = std::prev(lru_.end());
    const auto vchain =
        chains_.find(hash_key(victim->nodes, victim->pricing, victim->purpose));
    auto& vec = vchain->second;
    vec.erase(std::find(vec.begin(), vec.end(), victim));
    if (vec.empty()) chains_.erase(vchain);
    lru_.erase(victim);
    ++evictions_;
  }
}

void ScoreCache::clear() noexcept {
  chains_.clear();
  lru_.clear();
}

}  // namespace carbon::bcpop
