// Deterministic warm-start basis pool for the LL relaxation hot path.
//
// Within a run every relaxation LP shares one constraint matrix — only the
// cost vector moves with the UL pricing — so ANY basis that was optimal for
// one pricing stays primal-feasible for every other pricing. The pool keeps
// a small bounded set of (pricing -> optimal Basis) entries and hands each
// new solve the basis of the NEAREST previously seen pricing, which for an
// evolutionary population (offspring are perturbations of parents) is
// usually a handful of pivots away from optimal, versus hundreds from the
// fixed baseline basis.
//
// Determinism contract: selection uses a quantized distance — the squared
// Euclidean distance accumulated in doubles over ascending indices, then
// cast to float — with ties broken by the LOWEST insertion ordinal, and
// eviction removes the least-recently-used entry (ties again by lowest
// ordinal). Given the same sequence of select()/insert() calls the pool is
// therefore a pure function of its history, with no dependence on memory
// addresses or hash-map iteration order. The pool is NOT thread-safe: the
// evaluator's staged relaxation resolve performs every select/insert on the
// submitting thread in submission order (see docs/ALGORITHMS.md §15).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "carbon/lp/simplex.hpp"

namespace carbon::bcpop {

/// Warm-start policy for the LL relaxation solves (config/CLI axis).
enum class LpWarm : unsigned char {
  /// Every solve warm-starts from the fixed base-cost basis: a relaxation
  /// is a pure function of the pricing. CARBON's default.
  kBaseline,
  /// Solves warm-start from the nearest pooled basis (falling back to the
  /// baseline on miss/rejection). A new golden axis: a different start
  /// basis reaches the same optimal basis through a different B^-1 update
  /// history, whose rounding moves the last bits of the duals/x̄, so
  /// trajectories differ from baseline while remaining deterministic
  /// across thread counts and SIMD paths.
  /// COBRA's default.
  kPool
};

[[nodiscard]] const char* to_string(LpWarm w) noexcept;

class BasisPool {
 public:
  explicit BasisPool(std::size_t capacity = kDefaultCapacity);

  /// Returns the entry whose pricing key minimizes the quantized distance
  /// to `pricing` (ties: lowest insertion ordinal), touching its recency;
  /// nullptr when the pool is empty. The pointer is invalidated by the next
  /// insert()/clear() — callers copy the basis before fanning out.
  [[nodiscard]] const lp::Basis* select(std::span<const double> pricing);

  /// Commits `basis` under `pricing`: an entry with the exact same key is
  /// replaced in place (keeping its insertion ordinal); otherwise a new
  /// entry is appended, evicting the least-recently-used entry when full.
  void insert(std::span<const double> pricing, const lp::Basis& basis);

  /// Drops every entry AND resets the ordinal/recency clocks, so a cleared
  /// pool is indistinguishable from a fresh one (the resume discipline:
  /// a resumed segment must never consume another segment's pooled bases).
  void clear();

  [[nodiscard]] std::size_t size() const noexcept { return entries_.size(); }
  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }
  [[nodiscard]] long long evictions() const noexcept { return evictions_; }

  static constexpr std::size_t kDefaultCapacity = 32;

 private:
  struct Entry {
    std::vector<double> key;
    lp::Basis basis;
    std::uint64_t ordinal = 0;   ///< insertion order, never reused
    std::uint64_t last_use = 0;  ///< recency clock at last select/insert
  };

  std::vector<Entry> entries_;
  std::size_t capacity_;
  std::uint64_t next_ordinal_ = 0;
  std::uint64_t clock_ = 0;
  long long evictions_ = 0;
};

}  // namespace carbon::bcpop
