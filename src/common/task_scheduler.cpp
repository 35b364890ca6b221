#include "carbon/common/task_scheduler.hpp"

#include <chrono>

namespace carbon::common {

namespace {

std::uint64_t xorshift64(std::uint64_t x) noexcept {
  x ^= x << 13;
  x ^= x >> 7;
  x ^= x << 17;
  return x;
}

long long ns_between(std::chrono::steady_clock::time_point a,
                     std::chrono::steady_clock::time_point b) noexcept {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count();
}

}  // namespace

TaskScheduler::TaskScheduler(std::size_t workers) : deques_(workers + 1) {
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
  const std::size_t participants = deques_.size();
  if (n == 1 || participants == 1) {
    // Nothing to distribute: run on the calling thread without touching the
    // mutex or waking anyone. Every job still runs before the first
    // exception (serial, so "lowest index" is simply the first one).
    std::exception_ptr first_error;
    for (std::size_t i = 0; i < n; ++i) {
      try {
        fn(0, i);
      } catch (...) {
        if (!first_error) {
          first_error = std::current_exception();
        }
      }
    }
    stats_.tasks += static_cast<long long>(n);
    if (first_error) {
      std::rethrow_exception(first_error);
    }
    return;
  }

  // Deal contiguous blocks before anyone wakes: participant k owns
  // [n*k/p, n*(k+1)/p), so no deque is ever pushed to concurrently.
  for (std::size_t k = 0; k < participants; ++k) {
    Deque& d = deques_[k];
    const std::size_t lo = n * k / participants;
    const std::size_t hi = n * (k + 1) / participants;
    d.base = lo;
    d.top.store(0);
    d.bottom.store(static_cast<std::int64_t>(hi - lo));
    d.tasks = 0;
    d.steals = 0;
    d.idle_ns = 0;
    d.first_error_index = -1;
    d.first_error = nullptr;
    d.rng = (0x9e3779b97f4a7c15ULL * (k + 1)) ^ (epoch_ + 1);
  }
  remaining_.store(n);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    job_ = &fn;
    active_.store(participants - 1);
    ++epoch_;
  }
  cv_.notify_all();

  run_participant(0);

  // Barrier: wait for every worker to leave the batch so their counters
  // and error slots are quiescent before the merge below reads them. The
  // last worker out notifies under the mutex.
  {
    std::unique_lock<std::mutex> lock(mutex_);
    cv_.wait(lock, [this] { return active_.load() == 0; });
    job_ = nullptr;
  }

  std::int64_t error_index = -1;
  std::exception_ptr error;
  for (Deque& d : deques_) {
    stats_.tasks += d.tasks;
    stats_.steals += d.steals;
    stats_.idle_ns += d.idle_ns;
    if (d.first_error_index >= 0 &&
        (error_index < 0 || d.first_error_index < error_index)) {
      error_index = d.first_error_index;
      error = d.first_error;
    }
    d.first_error = nullptr;
  }
  if (error) {
    std::rethrow_exception(error);
  }
}

void TaskScheduler::worker_loop(std::size_t participant) {
  std::uint64_t seen_epoch = 0;
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_.wait(lock,
               [&] { return stopping_ || epoch_ != seen_epoch; });
      if (stopping_) {
        return;
      }
      seen_epoch = epoch_;
    }
    run_participant(participant);
    if (active_.fetch_sub(1) == 1) {
      // Last worker out: the caller may be parked on the barrier. Taking
      // the mutex before notifying closes the check-then-wait window.
      std::lock_guard<std::mutex> lock(mutex_);
      cv_.notify_all();
    }
  }
}

void TaskScheduler::run_participant(std::size_t participant) {
  Deque& self = deques_[participant];
  const std::size_t participants = deques_.size();
  std::size_t index = 0;
  for (;;) {
    while (pop_own(self, &index)) {
      execute(self, index, participant);
    }
    if (remaining_.load() == 0) {
      return;
    }
    // One sweep over the other participants, starting at a random victim.
    // Success executes the stolen job and re-enters the loop; a fully
    // failed sweep counts as idle time and yields the core — on
    // oversubscribed machines the owner of the remaining work needs the
    // timeslice more than this thread needs another sweep.
    const auto sweep_start = std::chrono::steady_clock::now();
    self.rng = xorshift64(self.rng);
    bool stole = false;
    for (std::size_t a = 0; a < participants && !stole; ++a) {
      const std::size_t victim = (self.rng + a) % participants;
      if (victim == participant) {
        continue;
      }
      if (steal_from(deques_[victim], &index)) {
        ++self.steals;
        execute(self, index, participant);
        stole = true;
      }
    }
    if (!stole) {
      self.idle_ns +=
          ns_between(sweep_start, std::chrono::steady_clock::now());
      if (remaining_.load() == 0) {
        return;
      }
      std::this_thread::yield();
    }
  }
}

void TaskScheduler::execute(Deque& self, std::size_t index,
                            std::size_t participant) {
  try {
    (*job_)(participant, index);
  } catch (...) {
    const auto i = static_cast<std::int64_t>(index);
    if (self.first_error_index < 0 || i < self.first_error_index) {
      self.first_error_index = i;
      self.first_error = std::current_exception();
    }
  }
  ++self.tasks;
  remaining_.fetch_sub(1);
}

bool TaskScheduler::pop_own(Deque& d, std::size_t* out) noexcept {
  const std::int64_t b = d.bottom.load() - 1;
  d.bottom.store(b);
  std::int64_t t = d.top.load();
  if (t <= b) {
    *out = d.base + static_cast<std::size_t>(b);
    if (t == b) {
      // Last element: race one thief for it via the top CAS.
      const bool won = d.top.compare_exchange_strong(t, t + 1);
      d.bottom.store(b + 1);
      return won;
    }
    return true;
  }
  d.bottom.store(b + 1);  // deque was empty; undo the reservation
  return false;
}

bool TaskScheduler::steal_from(Deque& victim, std::size_t* out) noexcept {
  std::int64_t t = victim.top.load();
  const std::int64_t b = victim.bottom.load();
  if (t >= b) {
    return false;
  }
  // Slot t's index is derivable from base (nothing is pushed mid-batch, so
  // it cannot be overwritten); the CAS decides whether we actually own it.
  const std::size_t index = victim.base + static_cast<std::size_t>(t);
  if (!victim.top.compare_exchange_strong(t, t + 1)) {
    return false;
  }
  *out = index;
  return true;
}

}  // namespace carbon::common
