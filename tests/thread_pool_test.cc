#include "common/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <vector>

namespace distserve {
namespace {

TEST(ThreadPoolTest, ZeroWorkersRunsInline) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.num_workers(), 0);
  bool ran = false;
  pool.Submit([&] { ran = true; });
  EXPECT_TRUE(ran);  // inline: completed before Submit returned
}

TEST(ThreadPoolTest, SubmitRunsOnWorkers) {
  ThreadPool pool(3);
  EXPECT_EQ(pool.num_workers(), 3);
  std::atomic<int> count{0};
  std::mutex mu;
  std::condition_variable cv;
  for (int i = 0; i < 100; ++i) {
    pool.Submit([&] {
      if (count.fetch_add(1) + 1 == 100) {
        std::lock_guard<std::mutex> lock(mu);
        cv.notify_all();
      }
    });
  }
  std::unique_lock<std::mutex> lock(mu);
  cv.wait(lock, [&] { return count.load() == 100; });
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPoolTest, ParallelForCoversEveryIndexOnce) {
  for (int workers : {0, 1, 4}) {
    ThreadPool pool(workers);
    std::vector<std::atomic<int>> hits(257);
    pool.ParallelFor(257, [&](int64_t i) { ++hits[static_cast<size_t>(i)]; });
    for (const auto& h : hits) {
      EXPECT_EQ(h.load(), 1) << "workers=" << workers;
    }
  }
}

TEST(ThreadPoolTest, ParallelForEmptyRange) {
  ThreadPool pool(2);
  pool.ParallelFor(0, [](int64_t) { FAIL() << "must not be called"; });
}

TEST(ThreadPoolTest, HardwareConcurrencyPositive) {
  EXPECT_GE(ThreadPool::HardwareConcurrency(), 1);
}

TEST(SpeculativeTaskSetTest, NullPoolForcesInline) {
  std::atomic<int> runs{0};
  std::vector<std::function<int()>> tasks;
  for (int i = 0; i < 8; ++i) {
    tasks.push_back([i, &runs] {
      ++runs;
      return i * i;
    });
  }
  SpeculativeTaskSet<int> set(nullptr, std::move(tasks));
  EXPECT_EQ(set.size(), 8u);
  EXPECT_EQ(set.Force(3), 9);
  EXPECT_EQ(set.Force(0), 0);
  EXPECT_EQ(runs.load(), 2);  // no pool: only forced tasks ever run
}

TEST(SpeculativeTaskSetTest, CancelPreventsExecutionWithoutPool) {
  std::atomic<int> runs{0};
  std::vector<std::function<int()>> tasks;
  for (int i = 0; i < 4; ++i) {
    tasks.push_back([&runs] {
      ++runs;
      return 1;
    });
  }
  {
    SpeculativeTaskSet<int> set(nullptr, std::move(tasks));
    EXPECT_TRUE(set.Cancel(1));
    set.Force(0);
  }  // destructor cancels the rest
  EXPECT_EQ(runs.load(), 1);
}

TEST(SpeculativeTaskSetTest, ForceAfterCancelRunsInline) {
  ThreadPool pool(2);
  std::atomic<int> runs{0};
  std::vector<std::function<int()>> tasks;
  for (int i = 0; i < 8; ++i) {
    tasks.push_back([i, &runs] {
      ++runs;
      return i + 1;
    });
  }
  SpeculativeTaskSet<int> set(&pool, std::move(tasks));
  set.Cancel(5);
  // A cancelled task is still available to its owner: the value is the task's own.
  EXPECT_EQ(set.Force(5), 6);
  EXPECT_EQ(set.Force(5), 6);
  EXPECT_LE(runs.load(), 8);  // each task ran at most once
}

TEST(SpeculativeTaskSetTest, PooledValuesMatchSerial) {
  ThreadPool pool(4);
  constexpr int kN = 64;
  auto make_tasks = [] {
    std::vector<std::function<int()>> tasks;
    for (int i = 0; i < kN; ++i) {
      tasks.push_back([i] { return 3 * i + 1; });
    }
    return tasks;
  };
  SpeculativeTaskSet<int> serial(nullptr, make_tasks());
  SpeculativeTaskSet<int> pooled(&pool, make_tasks());
  for (int i = 0; i < kN; ++i) {
    EXPECT_EQ(pooled.Force(static_cast<size_t>(i)), serial.Force(static_cast<size_t>(i)));
  }
}

TEST(SpeculativeTaskSetTest, DestructorWaitsForInFlightTasks) {
  ThreadPool pool(2);
  // The shared flag outlives the set only because the destructor waits; TSan (see
  // DISTSERVE_SANITIZE) would flag a use-after-scope otherwise.
  for (int round = 0; round < 20; ++round) {
    std::atomic<int> sum{0};
    {
      std::vector<std::function<int()>> tasks;
      for (int i = 0; i < 16; ++i) {
        tasks.push_back([&sum, i] {
          sum.fetch_add(i);
          return i;
        });
      }
      SpeculativeTaskSet<int> set(&pool, std::move(tasks));
      set.Force(0);
    }
    // After destruction no task is still running; sum is stable.
    const int observed = sum.load();
    EXPECT_EQ(observed, sum.load());
  }
}

TEST(SpeculativeTaskSetTest, ForceAfterSpeculationReturnsSameValue) {
  ThreadPool pool(4);
  std::vector<std::function<int()>> tasks;
  for (int i = 0; i < 32; ++i) {
    tasks.push_back([i] { return i + 100; });
  }
  SpeculativeTaskSet<int> set(&pool, std::move(tasks));
  // Give workers a chance to speculate ahead, then force everything in order anyway.
  for (int i = 31; i >= 0; --i) {
    EXPECT_EQ(set.Force(static_cast<size_t>(i)), i + 100);
  }
}

}  // namespace
}  // namespace distserve
