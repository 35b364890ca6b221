// Deterministic task scheduler for index-space batches — the one thread
// engine of the library: the evaluator's batch fan-out and the experiment
// runner's replications both run on it.
//
// A CARBON generation fans out hundreds of sub-millisecond evaluation jobs,
// and a single slow job (an LP-relaxation cache miss) must not park every
// other thread on the final barrier. A per-index task queue would pay a
// heap allocation, a future and a global-mutex round trip per job;
// TaskScheduler instead deals the indices from ONE shared atomic counter:
//
//   * each PARTICIPANT (the calling thread plus `workers()` persistent
//     threads) claims its next job with next_.fetch_add(1) until the
//     counter passes n. Jobs are dealt one index at a time, so a participant
//     stuck on a slow job simply claims nothing more while the others drain
//     the rest — load balance needs nothing beyond the counter;
//   * the counter is reset per batch and published, with the job, under the
//     mutex/epoch handshake that wakes the workers;
//   * the caller participates instead of blocking, so a batch never idles
//     the submitting core and `threads + 1` contexts are all doing work.
//
// Determinism: the scheduler itself makes NO ordering promises — which
// participant claims which index depends on timing. Bit-identical
// trajectories come from the commit discipline instead: every job i is
// executed exactly once, by some participant, and commits its result into
// slot i of a caller-provided array. Jobs that are pure functions of their
// inputs (the eval_core contract) therefore produce an identical result
// array for any thread count and any interleaving. The scheduler-level
// counters (tasks, idle time) are timing-dependent and surface only through
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
  /// only). `tasks` counts executed jobs, `idle_ns` the time the calling
  /// thread waited at the barrier after the counter ran dry (the workers
  /// still finishing their last jobs).
  struct Stats {
    long long tasks = 0;
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

  /// Cumulative counters since construction (updated by the caller after
  /// each batch barrier, so reads between batches need no synchronization).
  [[nodiscard]] Stats stats() const noexcept { return stats_; }

 private:
  void worker_loop(std::size_t participant);
  /// Claims and runs jobs until the shared counter passes the batch size.
  void run_jobs(std::size_t participant);

  std::vector<std::thread> workers_;

  // Batch state, published under mutex_ before workers wake.
  const std::function<void(std::size_t, std::size_t)>* job_ = nullptr;
  std::size_t size_ = 0;
  /// Next unclaimed job index, written by every claim. Cache-line aligned;
  /// the fields after it change only at batch start and end.
  alignas(64) std::atomic<std::size_t> next_{0};
  // Everything below is guarded by mutex_.
  std::size_t active_ = 0;  ///< workers still inside the batch
  std::size_t error_index_ = 0;
  std::exception_ptr error_;  ///< lowest-index exception of the batch
  std::uint64_t epoch_ = 0;
  bool stopping_ = false;
  std::mutex mutex_;
  std::condition_variable cv_;

  Stats stats_{};  ///< cumulative, updated at batch barriers (caller only)
};

}  // namespace carbon::common
