// Deterministic work-stealing task scheduler for index-space batches — the
// one thread engine of the library: the evaluator's batch fan-out and the
// experiment runner's replications both run on it.
//
// A CARBON generation fans out hundreds of sub-millisecond evaluation jobs,
// and a single slow job (an LP-relaxation cache miss) must not park every
// other thread on the final barrier. A per-index task queue would pay a
// heap allocation, a future and a global-mutex round trip per job;
// TaskScheduler instead uses the classic work-stealing design:
//
//   * each PARTICIPANT (the calling thread plus `workers()` persistent
//     threads) owns a Chase-Lev-style deque of job indices. A batch
//     pre-splits [0, n) into contiguous blocks, one per participant, before
//     any worker wakes — so during execution the owner only pops from the
//     bottom and thieves only steal from the top (no concurrent push);
//   * a participant that drains its own block steals from victims chosen by
//     a per-participant xorshift sequence (seeded by participant id, so the
//     victim order is reproducible even though the interleaving is not);
//   * the caller participates instead of blocking, so a batch never idles
//     the submitting core and `threads + 1` contexts are all doing work.
//
// Determinism: the scheduler itself makes NO ordering promises — steals
// interleave however the hardware likes. Bit-identical trajectories come
// from the commit discipline instead: every job i is executed exactly once,
// by some participant, and commits its result into slot i of a
// caller-provided array. Jobs that are pure functions of their inputs (the
// eval_core contract) therefore produce an identical result array for any
// thread count and any steal schedule. The scheduler-level counters
// (tasks, steals, idle time) are timing-dependent and surface only through
// observability, never through results.
//
// Exceptions: every job runs even if an earlier one threw (jobs capture the
// caller's locals by reference, so returning early would let them dangle);
// afterwards the lowest-index exception is rethrown on the calling thread,
// which makes the failure choice deterministic too.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace carbon::common {

class TaskScheduler {
 public:
  /// Cumulative scheduler-side counters (timing-dependent; observability
  /// only). `tasks` counts executed jobs, `steals` successful steals (a job
  /// executed by a participant other than the one whose deque it was dealt
  /// to), `idle_ns` time participants spent failing to find work before the
  /// batch drained.
  struct Stats {
    long long tasks = 0;
    long long steals = 0;
    long long idle_ns = 0;
  };

  /// Spawns exactly `workers` persistent worker threads. A batch is
  /// executed by `workers + 1` participants: the calling thread helps
  /// instead of blocking. With 0 workers the caller is the only
  /// participant and every batch runs inline, in index order.
  explicit TaskScheduler(std::size_t workers);
  ~TaskScheduler();

  TaskScheduler(const TaskScheduler&) = delete;
  TaskScheduler& operator=(const TaskScheduler&) = delete;

  /// Worker threads owned by the scheduler (excludes the caller).
  [[nodiscard]] std::size_t workers() const noexcept {
    return workers_.size();
  }
  /// Executors of a batch: workers plus the calling thread.
  [[nodiscard]] std::size_t participants() const noexcept {
    return workers_.size() + 1;
  }

  /// Runs fn(participant, i) for every i in [0, n), blocking until all
  /// complete. `participant` is in [0, participants()) and is stable for
  /// the duration of one job — participant 0 is always the calling thread —
  /// so callers can index per-participant scratch without locks (two jobs
  /// never observe the same participant id concurrently). Jobs may run in
  /// any order on any participant; the lowest-index exception is rethrown
  /// after every job has run. Not reentrant: one batch at a time.
  void parallel_for(std::size_t n,
                    const std::function<void(std::size_t, std::size_t)>& fn);

  /// Cumulative counters since construction (merged at each batch barrier,
  /// so reads between batches need no synchronization).
  [[nodiscard]] Stats stats() const noexcept { return stats_; }

 private:
  /// One participant's deque of job indices plus its scratch counters,
  /// padded so owners and thieves on different deques never share a line.
  struct alignas(64) Deque {
    // Chase-Lev top/bottom over this participant's block: bottom is
    // owner-private except for the last-element race, top is CAS-advanced
    // by thieves. The block holds the contiguous indices
    // [base, base + bottom0), so slot p simply IS index base + p — no ring
    // storage needed because nothing is pushed mid-batch.
    std::atomic<std::int64_t> top{0};
    std::atomic<std::int64_t> bottom{0};
    std::size_t base = 0;
    // Per-participant batch-local counters, merged under the barrier.
    long long tasks = 0;
    long long steals = 0;
    long long idle_ns = 0;
    std::int64_t first_error_index = -1;
    std::exception_ptr first_error;
    std::uint64_t rng;  ///< xorshift state for victim selection
  };

  void worker_loop(std::size_t participant);
  /// Executes jobs until the batch drains: own deque first, then steal
  /// sweeps over the other participants.
  void run_participant(std::size_t participant);
  void execute(Deque& self, std::size_t index, std::size_t participant);
  /// Pops from the bottom of the participant's own deque.
  [[nodiscard]] bool pop_own(Deque& d, std::size_t* out) noexcept;
  /// Steals from the top of a victim's deque.
  [[nodiscard]] bool steal_from(Deque& victim, std::size_t* out) noexcept;

  std::vector<std::thread> workers_;
  std::vector<Deque> deques_;  ///< one per participant; [0] = caller

  // Batch state, published under mutex_ before workers wake.
  const std::function<void(std::size_t, std::size_t)>* job_ = nullptr;
  std::atomic<std::size_t> remaining_{0};
  std::atomic<std::size_t> active_{0};  ///< workers still inside the batch
  std::uint64_t epoch_ = 0;
  bool stopping_ = false;
  std::mutex mutex_;
  std::condition_variable cv_;

  Stats stats_{};  ///< cumulative, merged at batch barriers (caller only)
};

}  // namespace carbon::common
