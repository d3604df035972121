#pragma once
/// \file parallel.hpp
/// An index-parallel loop for jobs that write their results by index.

#include <cstddef>
#include <functional>

namespace nocmap::util {

/// Run `job(i)` for every i in [0, count) on up to `threads` workers, each
/// index exactly once. With one worker (threads <= 1 or count <= 1) the jobs
/// run inline on the calling thread, in index order.
///
/// Errors surface the same at any thread count: a job's exception stops new
/// indices from starting and, once every worker has joined, the exception of
/// the lowest failing index is rethrown. (Every index below a claimed one
/// has been claimed too, so that index is the one the inline loop would
/// have stopped at.)
void parallel_for_index(std::size_t threads, std::size_t count,
                        const std::function<void(std::size_t)>& job);

}  // namespace nocmap::util
