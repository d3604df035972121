#pragma once
/// \file parallel.hpp
/// The one worker pool: an index-parallel loop for jobs that write their
/// results by index.

#include <cstddef>
#include <functional>

namespace nocmap::util {

/// The number of workers parallel_for_index(threads, count, ...) runs:
/// min(max(threads, 1), count). Sizes a vector of per-worker state.
std::size_t worker_count(std::size_t threads, std::size_t count);

/// Run `job(worker, i)` for every i in [0, count) on worker_count(threads,
/// count) workers, each index exactly once. `worker` is the slot running the
/// job, below worker_count(threads, count); one slot never runs two jobs at
/// once, so a caller may keep per-worker state (a cost function, a search
/// runner) in a vector indexed by it and build each entry on its slot's
/// first index. With one worker (threads <= 1 or count <= 1) the jobs run
/// inline on the calling thread, in index order, as worker 0.
///
/// Errors surface the same at any thread count: a job's exception stops new
/// indices from starting and, once every worker has joined, the exception of
/// the lowest failing index is rethrown. (Every index below a claimed one
/// has been claimed too, so that index is the one the inline loop would
/// have stopped at.) A per-worker state builder that throws fails as the
/// index that called it.
void parallel_for_index(
    std::size_t threads, std::size_t count,
    const std::function<void(std::size_t worker, std::size_t i)>& job);

}  // namespace nocmap::util
