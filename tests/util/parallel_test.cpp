#include "nocmap/util/parallel.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

namespace nocmap::util {
namespace {

TEST(ParallelTest, EveryIndexRunsExactlyOnce) {
  for (const std::size_t threads : {1u, 3u, 8u}) {
    std::vector<std::atomic<int>> runs(100);
    parallel_for_index(threads, runs.size(), [&](std::size_t, std::size_t i) {
      runs[i].fetch_add(1);
    });
    for (std::size_t i = 0; i < runs.size(); ++i) {
      EXPECT_EQ(runs[i].load(), 1) << "index " << i << ", threads " << threads;
    }
  }
}

TEST(ParallelTest, ZeroJobsRunNothing) {
  parallel_for_index(4, 0, [](std::size_t, std::size_t) {
    FAIL() << "no index to run";
  });
}

TEST(ParallelTest, OneWorkerRunsInlineInIndexOrder) {
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<std::size_t> order;
  parallel_for_index(1, 5, [&](std::size_t worker, std::size_t i) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
    EXPECT_EQ(worker, 0u);
    order.push_back(i);
  });
  EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2, 3, 4}));

  // A single job never spawns a worker either, whatever the thread budget.
  parallel_for_index(8, 1, [&](std::size_t worker, std::size_t) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
    EXPECT_EQ(worker, 0u);
  });
}

TEST(ParallelTest, LowestFailingIndexWinsAtAnyThreadCount) {
  for (const std::size_t threads : {1u, 2u, 4u, 16u}) {
    try {
      parallel_for_index(threads, 64, [](std::size_t, std::size_t i) {
        if (i == 41 || i == 7 || i == 63) {
          throw std::runtime_error("job " + std::to_string(i));
        }
      });
      ADD_FAILURE() << "no exception at threads " << threads;
    } catch (const std::runtime_error& e) {
      EXPECT_EQ(std::string(e.what()), "job 7") << "threads " << threads;
    }
  }
}

TEST(ParallelTest, ExceptionTypeIsPreserved) {
  const auto job = [](std::size_t, std::size_t i) {
    if (i == 5) throw std::invalid_argument("x");
  };
  EXPECT_THROW(parallel_for_index(4, 8, job), std::invalid_argument);
}

TEST(ParallelTest, WorkerSlotIsBelowTheWorkerCount) {
  EXPECT_EQ(worker_count(0, 5), 1u);
  EXPECT_EQ(worker_count(4, 3), 3u);
  EXPECT_EQ(worker_count(4, 0), 0u);
  for (const std::size_t threads : {1u, 2u, 3u, 8u}) {
    for (const std::size_t count : {1u, 2u, 5u, 40u}) {
      const std::size_t workers = worker_count(threads, count);
      EXPECT_EQ(workers, std::min(threads, count));
      std::vector<std::atomic<int>> busy(workers);
      std::vector<std::atomic<int>> runs(count);
      std::atomic<bool> overlapped{false};
      parallel_for_index(threads, count, [&](std::size_t worker,
                                             std::size_t i) {
        ASSERT_LT(worker, workers);
        if (busy[worker].fetch_add(1) != 0) overlapped = true;
        std::this_thread::yield();
        busy[worker].fetch_sub(1);
        runs[i].fetch_add(1);
      });
      EXPECT_FALSE(overlapped) << "a slot ran two jobs at once";
      for (std::size_t i = 0; i < count; ++i) {
        EXPECT_EQ(runs[i].load(), 1) << "index " << i;
      }
    }
  }
}

TEST(ParallelTest, PerWorkerStateIsBuiltOnceAndReused) {
  for (const std::size_t threads : {1u, 3u, 8u}) {
    const std::size_t count = 50;
    const std::size_t workers = worker_count(threads, count);
    std::vector<int> builds(workers, 0);
    std::vector<std::unique_ptr<std::vector<std::size_t>>> state(workers);
    parallel_for_index(threads, count, [&](std::size_t worker,
                                           std::size_t i) {
      if (!state[worker]) {
        state[worker] = std::make_unique<std::vector<std::size_t>>();
        ++builds[worker];
      }
      state[worker]->push_back(i);
    });
    std::vector<std::size_t> seen;
    for (std::size_t w = 0; w < workers; ++w) {
      EXPECT_LE(builds[w], 1) << "slot " << w << ", threads " << threads;
      if (!state[w]) continue;
      // A slot claims its indices in increasing order.
      EXPECT_TRUE(std::is_sorted(state[w]->begin(), state[w]->end()));
      seen.insert(seen.end(), state[w]->begin(), state[w]->end());
    }
    // Every index ran on a slot's one state, so the states were reused.
    std::sort(seen.begin(), seen.end());
    ASSERT_EQ(seen.size(), count) << "threads " << threads;
    for (std::size_t i = 0; i < count; ++i) EXPECT_EQ(seen[i], i);
  }
}

TEST(ParallelTest, ThrowingStateBuilderFailsAsItsWorkersFirstIndex) {
  // Every slot's builder throws, naming the index that called it. Index 0
  // is always some slot's first index, so it is the lowest failing index at
  // any thread count, as in the inline loop.
  for (const std::size_t threads : {1u, 2u, 4u, 7u}) {
    std::vector<std::unique_ptr<int>> state(worker_count(threads, 30));
    try {
      parallel_for_index(threads, 30, [&](std::size_t worker, std::size_t i) {
        if (!state[worker]) {
          throw std::runtime_error("build at " + std::to_string(i));
        }
      });
      ADD_FAILURE() << "no exception at threads " << threads;
    } catch (const std::runtime_error& e) {
      EXPECT_EQ(std::string(e.what()), "build at 0") << "threads " << threads;
    }
  }
}

}  // namespace
}  // namespace nocmap::util
