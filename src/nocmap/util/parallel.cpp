#include "nocmap/util/parallel.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

namespace nocmap::util {

std::size_t worker_count(std::size_t threads, std::size_t count) {
  return std::min(std::max<std::size_t>(threads, 1), count);
}

void parallel_for_index(
    std::size_t threads, std::size_t count,
    const std::function<void(std::size_t worker, std::size_t i)>& job) {
  const std::size_t workers = worker_count(threads, count);
  if (workers <= 1) {
    for (std::size_t i = 0; i < count; ++i) job(0, i);
    return;
  }
  std::atomic<std::size_t> next{0};
  std::atomic<bool> failed{false};
  std::mutex error_mutex;
  std::size_t error_index = count;
  std::exception_ptr error;
  const auto work = [&](std::size_t worker) {
    while (!failed) {
      const std::size_t i = next.fetch_add(1);
      if (i >= count) return;
      try {
        job(worker, i);
      } catch (...) {
        const std::lock_guard<std::mutex> lock(error_mutex);
        if (i < error_index) {
          error_index = i;
          error = std::current_exception();
        }
        failed = true;
      }
    }
  };
  std::vector<std::thread> pool;
  pool.reserve(workers);
  try {
    for (std::size_t w = 0; w < workers; ++w) pool.emplace_back(work, w);
  } catch (...) {
    // Thread creation failed: stop and join the workers already running.
    failed = true;
    for (std::thread& t : pool) t.join();
    throw;
  }
  for (std::thread& t : pool) t.join();
  if (error) std::rethrow_exception(error);
}

}  // namespace nocmap::util
