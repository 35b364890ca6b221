#include "carbon/bcpop/relaxation_cache.hpp"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <utility>

namespace carbon::bcpop {

std::size_t PricingHash::operator()(
    const std::vector<double>& v) const noexcept {
  std::size_t h = 14695981039346656037ULL;
  for (double d : v) {
    const auto bits = std::bit_cast<std::uint64_t>(d);
    h ^= bits;
    h *= 1099511628211ULL;
  }
  return h;
}

RelaxationCache::RelaxationCache(std::size_t capacity)
    : capacity_(std::max<std::size_t>(capacity, 1)) {}

RelaxationCache::RelaxationPtr RelaxationCache::lookup(
    std::span<const double> pricing) {
  const auto it = map_.find(Key(pricing.begin(), pricing.end()));
  if (it == map_.end()) return nullptr;
  lru_.splice(lru_.begin(), lru_, it->second.lru_pos);  // touch
  ++hits_;
  return it->second.value;
}

void RelaxationCache::insert(std::span<const double> pricing,
                             RelaxationPtr value) {
  const auto [it, inserted] =
      map_.try_emplace(Key(pricing.begin(), pricing.end()));
  Entry& e = it->second;
  e.value = std::move(value);
  if (!inserted) {
    lru_.splice(lru_.begin(), lru_, e.lru_pos);
    return;
  }
  lru_.push_front(it->first);
  e.lru_pos = lru_.begin();
  ++solves_;
  // Oldest first. Previously handed-out entries survive eviction via their
  // shared_ptr; eviction only drops the cache's own reference.
  while (lru_.size() > capacity_) {
    map_.erase(lru_.back());
    lru_.pop_back();
    ++evictions_;
  }
}

void RelaxationCache::clear() noexcept {
  map_.clear();
  lru_.clear();
}

}  // namespace carbon::bcpop
