#include "carbon/common/task_scheduler.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <vector>

namespace carbon::common {
namespace {

/// splitmix64 — a cheap, stateless per-index mixer so every job does a
/// deterministic amount of "work" that depends only on its inputs.
std::uint64_t mix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// The fuzz job: spin for a seed-dependent number of mix rounds (a skewed
/// duration distribution: most jobs are short, a few are ~100x longer) and
/// return a value that depends on every round. Pure function of (seed, i).
std::uint64_t job_value(std::uint64_t seed, std::size_t i) {
  std::uint64_t h = mix(seed ^ i);
  // Top 4 bits pick the duration class; class 15 spins two orders of
  // magnitude longer than class 0, so steal interleavings vary per seed.
  const std::uint64_t rounds = 1 + (h >> 60) * ((h >> 58) & 0x3 ? 1 : 40);
  for (std::uint64_t r = 0; r < rounds; ++r) h = mix(h + r);
  return h;
}

TEST(TaskScheduler, ZeroTasksIsANoOp) {
  TaskScheduler sched(2);
  sched.parallel_for(0, [](std::size_t, std::size_t) { FAIL(); });
}

TEST(TaskScheduler, SingleTaskRunsInline) {
  TaskScheduler sched(4);
  std::atomic<int> runs{0};
  sched.parallel_for(1, [&](std::size_t participant, std::size_t i) {
    EXPECT_EQ(participant, 0u);  // inline path: the caller executes it
    EXPECT_EQ(i, 0u);
    runs.fetch_add(1);
  });
  EXPECT_EQ(runs.load(), 1);
}

TEST(TaskScheduler, CoversEveryIndexExactlyOnce) {
  TaskScheduler sched(4);
  std::vector<std::atomic<int>> hits(1000);
  sched.parallel_for(
      hits.size(), [&](std::size_t, std::size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(TaskScheduler, ParticipantIdsStayInRange) {
  TaskScheduler sched(3);
  ASSERT_EQ(sched.participants(), sched.workers() + 1);
  std::atomic<bool> ok{true};
  sched.parallel_for(500, [&](std::size_t participant, std::size_t) {
    if (participant >= sched.participants()) ok.store(false);
  });
  EXPECT_TRUE(ok.load());
}

TEST(TaskScheduler, RethrowsLowestIndexException) {
  TaskScheduler sched(4);
  // Both 3 and 7 throw; the batch must deterministically surface index 3
  // regardless of which participant ran it first.
  for (int rep = 0; rep < 20; ++rep) {
    try {
      sched.parallel_for(64, [](std::size_t, std::size_t i) {
        if (i == 3) throw std::logic_error("three");
        if (i == 7) throw std::runtime_error("seven");
      });
      FAIL() << "expected an exception";
    } catch (const std::logic_error& e) {
      EXPECT_STREQ(e.what(), "three");
    } catch (const std::runtime_error&) {
      FAIL() << "index 7's error surfaced instead of index 3's";
    }
  }
}

TEST(TaskScheduler, AllJobsRunEvenWhenOneThrows) {
  TaskScheduler sched(2);
  std::vector<std::atomic<int>> hits(100);
  EXPECT_THROW(sched.parallel_for(hits.size(),
                                  [&](std::size_t, std::size_t i) {
                                    hits[i].fetch_add(1);
                                    if (i == 10) throw std::logic_error("x");
                                  }),
               std::logic_error);
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(TaskScheduler, ZeroWorkersRunEverythingOnTheCaller) {
  TaskScheduler sched(0);
  EXPECT_EQ(sched.workers(), 0u);
  EXPECT_EQ(sched.participants(), 1u);
  // Every job runs on participant 0, inline and in index order.
  std::vector<std::size_t> order;
  sched.parallel_for(50, [&](std::size_t participant, std::size_t i) {
    EXPECT_EQ(participant, 0u);
    order.push_back(i);
  });
  ASSERT_EQ(order.size(), 50u);
  for (std::size_t i = 0; i < order.size(); ++i) EXPECT_EQ(order[i], i);
  EXPECT_EQ(sched.stats().tasks, 50);
  EXPECT_EQ(sched.stats().steals, 0);

  // Every job still runs when some throw, and the lowest index wins.
  std::vector<int> hits(64, 0);
  try {
    sched.parallel_for(hits.size(), [&](std::size_t, std::size_t i) {
      ++hits[i];
      if (i == 7) throw std::runtime_error("seven");
      if (i == 3) throw std::logic_error("three");
    });
    FAIL() << "expected an exception";
  } catch (const std::logic_error& e) {
    EXPECT_STREQ(e.what(), "three");
  } catch (const std::runtime_error&) {
    FAIL() << "index 7's error surfaced instead of index 3's";
  }
  for (const int h : hits) EXPECT_EQ(h, 1);
}

TEST(TaskScheduler, StatsCountEveryTask) {
  TaskScheduler sched(4);
  const auto before = sched.stats();
  sched.parallel_for(256, [](std::size_t, std::size_t) {});
  sched.parallel_for(1, [](std::size_t, std::size_t) {});  // inline path
  const auto after = sched.stats();
  EXPECT_EQ(after.tasks - before.tasks, 257);
  EXPECT_GE(after.steals, before.steals);
  EXPECT_GE(after.idle_ns, before.idle_ns);
}

// The determinism contract (docs/ALGORITHMS.md §14): for PURE jobs committed
// into index-ordered result slots, the result vector is bitwise identical to
// the serial loop for any worker count and any steal interleaving. 500
// seeds × skewed job durations × workers {0,1,2,4,8}; each seed also varies
// the batch size (including n < participants and n == 0 edge shapes).
TEST(TaskScheduler, DeterminismFuzzMatchesSerialBitwise) {
  constexpr int kSeeds = 500;
  const std::size_t worker_counts[] = {0, 1, 2, 4, 8};
  std::vector<std::unique_ptr<TaskScheduler>> scheds;  // reused across seeds
  for (const std::size_t t : worker_counts) {
    scheds.push_back(std::make_unique<TaskScheduler>(t));
  }

  for (int seed = 0; seed < kSeeds; ++seed) {
    const std::size_t n = mix(static_cast<std::uint64_t>(seed)) % 97;
    std::vector<std::uint64_t> want(n);
    for (std::size_t i = 0; i < n; ++i) {
      want[i] = job_value(static_cast<std::uint64_t>(seed), i);
    }
    for (const auto& sched : scheds) {
      std::vector<std::uint64_t> got(n, 0);
      sched->parallel_for(n, [&](std::size_t, std::size_t i) {
        got[i] = job_value(static_cast<std::uint64_t>(seed), i);
      });
      ASSERT_EQ(got, want) << "seed " << seed << ", workers "
                           << sched->workers();
    }
  }
}

}  // namespace
}  // namespace carbon::common
