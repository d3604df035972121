#include "nocmap/util/parallel.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

namespace nocmap::util {
namespace {

TEST(ParallelTest, EveryIndexRunsExactlyOnce) {
  for (const std::size_t threads : {1u, 3u, 8u}) {
    std::vector<std::atomic<int>> runs(100);
    parallel_for_index(threads, runs.size(),
                       [&](std::size_t i) { runs[i].fetch_add(1); });
    for (std::size_t i = 0; i < runs.size(); ++i) {
      EXPECT_EQ(runs[i].load(), 1) << "index " << i << ", threads " << threads;
    }
  }
}

TEST(ParallelTest, ZeroJobsRunNothing) {
  parallel_for_index(4, 0, [](std::size_t) { FAIL() << "no index to run"; });
}

TEST(ParallelTest, OneWorkerRunsInlineInIndexOrder) {
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<std::size_t> order;
  parallel_for_index(1, 5, [&](std::size_t i) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
    order.push_back(i);
  });
  EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2, 3, 4}));

  // A single job never spawns a worker either, whatever the thread budget.
  parallel_for_index(8, 1, [&](std::size_t) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
  });
}

TEST(ParallelTest, LowestFailingIndexWinsAtAnyThreadCount) {
  for (const std::size_t threads : {1u, 2u, 4u, 16u}) {
    try {
      parallel_for_index(threads, 64, [](std::size_t i) {
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
  EXPECT_THROW(parallel_for_index(4, 8,
                                  [](std::size_t i) {
                                    if (i == 5) throw std::invalid_argument("x");
                                  }),
               std::invalid_argument);
}

}  // namespace
}  // namespace nocmap::util
