#include "carbon/common/task_scheduler.hpp"

#include <chrono>
#include <utility>

namespace carbon::common {

TaskScheduler::TaskScheduler(std::size_t workers) {
  workers_.reserve(workers);
  for (std::size_t k = 0; k < workers; ++k) {
    workers_.emplace_back([this, k] { worker_loop(k + 1); });
  }
}

TaskScheduler::~TaskScheduler() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  cv_.notify_all();
  for (std::thread& w : workers_) {
    w.join();
  }
}

void TaskScheduler::parallel_for(
    std::size_t n, const std::function<void(std::size_t, std::size_t)>& fn) {
  if (n == 0) {
    return;
  }
  // With one job or no workers there is nothing to distribute: the caller
  // claims every index itself, in order, and nobody is woken.
  const bool fan_out = n > 1 && !workers_.empty();
  {
    std::lock_guard<std::mutex> lock(mutex_);
    job_ = &fn;
    size_ = n;
    next_.store(0);
    error_index_ = n;
    error_ = nullptr;
    if (fan_out) {
      active_ = workers_.size();
      ++epoch_;
    }
  }
  if (fan_out) {
    cv_.notify_all();
  }

  run_jobs(0);

  // Barrier: the counter ran dry, but workers may still be inside their
  // last jobs. The last worker out notifies under the mutex.
  const auto dry = std::chrono::steady_clock::now();
  std::unique_lock<std::mutex> lock(mutex_);
  cv_.wait(lock, [this] { return active_ == 0; });
  if (fan_out) {
    stats_.idle_ns += std::chrono::duration_cast<std::chrono::nanoseconds>(
                          std::chrono::steady_clock::now() - dry)
                          .count();
  }
  stats_.tasks += static_cast<long long>(n);
  job_ = nullptr;
  const std::exception_ptr error = std::exchange(error_, nullptr);
  lock.unlock();
  if (error) {
    std::rethrow_exception(error);
  }
}

void TaskScheduler::worker_loop(std::size_t participant) {
  std::uint64_t seen_epoch = 0;
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    cv_.wait(lock, [&] { return stopping_ || epoch_ != seen_epoch; });
    if (stopping_) {
      return;
    }
    seen_epoch = epoch_;
    lock.unlock();
    run_jobs(participant);
    lock.lock();
    if (--active_ == 0) {
      cv_.notify_all();  // the caller may be parked on the barrier
    }
  }
}

void TaskScheduler::run_jobs(std::size_t participant) {
  const auto& job = *job_;
  const std::size_t n = size_;
  for (std::size_t i = next_.fetch_add(1); i < n; i = next_.fetch_add(1)) {
    try {
      job(participant, i);
    } catch (...) {
      // Rare path; the mutex is never held while a job runs.
      std::lock_guard<std::mutex> lock(mutex_);
      if (i < error_index_) {
        error_index_ = i;
        error_ = std::current_exception();
      }
    }
  }
}

}  // namespace carbon::common
