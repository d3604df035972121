#include "nocmap/search/exhaustive.hpp"

#include <algorithm>
#include <limits>
#include <memory>
#include <stdexcept>

#include "nocmap/util/parallel.hpp"

namespace nocmap::search {

std::uint64_t placement_count(std::uint32_t num_tiles,
                              std::uint32_t num_cores) {
  std::uint64_t count = 1;
  for (std::uint32_t i = 0; i < num_cores; ++i) {
    const std::uint64_t factor = num_tiles - i;
    if (count > std::numeric_limits<std::uint64_t>::max() / factor) {
      return std::numeric_limits<std::uint64_t>::max();
    }
    count *= factor;
  }
  return count;
}

namespace {

using TileMaps = std::vector<std::vector<noc::TileId>>;

/// Depth-first enumeration, in lexicographic order, of the injective
/// placements of `num_cores` cores on `num_tiles` tiles that are the
/// lexicographic minimum of their orbit under `group`. A tile is skipped
/// for core k when some map that fixes the tiles of cores 0..k-1 sends it
/// to a smaller tile. A placement passes every such test exactly when no
/// map sends it to a smaller placement (the first core a map moves decides
/// the comparison), so each orbit yields exactly one placement. Depth 0 is
/// the first-tile collapse. `leaf` receives each assignment (core -> tile)
/// and returns false to stop the enumeration.
template <typename Leaf>
void for_each_orbit_minimum(std::size_t num_cores, std::uint32_t num_tiles,
                            const TileMaps& group, Leaf&& leaf) {
  // fixing[k]: the maps other than the identity that fix the tiles of
  // cores 0..k-1, the only ones that can still skip a tile at depth k. On a
  // mesh the list is empty below the first few depths, so the leaves pay
  // nothing for the pruning.
  std::vector<std::vector<const noc::TileId*>> fixing(num_cores + 1);
  for (const std::vector<noc::TileId>& g : group) {
    if (g.size() != num_tiles) {
      throw std::invalid_argument(
          "exhaustive_search: a symmetry map does not fit the topology");
    }
    for (noc::TileId t = 0; t < num_tiles; ++t) {
      if (g[t] != t) {
        fixing[0].push_back(g.data());
        break;
      }
    }
  }
  for (auto& maps : fixing) maps.reserve(fixing[0].size());

  std::vector<noc::TileId> assignment(num_cores);
  std::vector<char> used(num_tiles, 0);
  const auto recurse = [&](auto&& self, std::size_t core) -> bool {
    if (core == num_cores) return leaf(assignment);
    const std::vector<const noc::TileId*>& maps = fixing[core];
    std::vector<const noc::TileId*>& next = fixing[core + 1];
    const auto not_minimal = [&maps](noc::TileId t) {
      return std::any_of(maps.begin(), maps.end(),
                         [t](const noc::TileId* g) { return g[t] < t; });
    };
    for (noc::TileId t = 0; t < num_tiles; ++t) {
      if (used[t] || not_minimal(t)) continue;
      next.clear();
      for (const noc::TileId* g : maps) {
        if (g[t] == t) next.push_back(g);
      }
      assignment[core] = t;
      used[t] = 1;
      const bool keep_going = self(self, core + 1);
      used[t] = 0;
      if (!keep_going) return false;
    }
    return true;
  };
  recurse(recurse, 0);
}

/// Candidates a shard holds per worker, and candidates per pool index. A
/// worker prices several chunks of each shard, which evens out unequal
/// simulation times, and the shard is large enough to pay for starting
/// the workers.
constexpr std::size_t kShardPerWorker = 1024;
constexpr std::size_t kChunk = 128;

/// Folds the next candidate, in enumeration order, into the running best:
/// the first candidate of the lowest cost wins.
void record(SearchResult& result, const mapping::Mapping& candidate,
            double c) {
  if (result.evaluations++ == 0) result.initial_cost = c;
  if (c < result.best_cost) {
    result.best_cost = c;
    result.best = candidate;
  }
}

/// The one engine. One worker prices each candidate on `cost` as the
/// enumeration reaches it. More collect a shard of candidates, price it on
/// the pool (worker 0 on `cost`, the others on make_cost() instances built
/// on their first chunk) and fold it in in enumeration order.
///
/// Each candidate is priced with cost_within() against the best cost so
/// far: the running best on one worker, the best at the shard's start on
/// more. A candidate above it cannot win record()'s strict '<', whatever
/// value it reports, and every other candidate is priced exactly, so the
/// result is the one full pricing gives.
SearchResult run_search(const mapping::CostFunction& cost,
                        const CostFactory* factory, const noc::Topology& topo,
                        const EsOptions& options) {
  const std::size_t num_cores = cost.num_cores();
  const std::uint32_t num_tiles = topo.num_tiles();
  if (num_cores > num_tiles) {
    throw std::invalid_argument("exhaustive_search: more cores than tiles");
  }
  cost.begin_search();
  const TileMaps group =
      options.use_symmetry ? cost.symmetry_group(topo) : TileMaps{};
  const std::size_t workers =
      factory ? std::max<std::uint32_t>(1, options.threads) : 1;

  SearchResult result{mapping::Mapping(topo, num_cores),
                      std::numeric_limits<double>::infinity(), 0.0, 0, true};
  std::vector<mapping::Mapping> shard(
      workers == 1 ? 1 : workers * kShardPerWorker,
      mapping::Mapping(topo, num_cores));
  std::vector<double> costs(shard.size());
  std::vector<std::unique_ptr<mapping::CostFunction>> worker_costs(workers);
  std::size_t filled = 0;
  const auto flush = [&] {
    const double bound = result.best_cost;
    util::parallel_for_index(
        workers, (filled + kChunk - 1) / kChunk,
        [&](std::size_t worker, std::size_t chunk) {
          const mapping::CostFunction* priced = &cost;
          if (worker != 0) {
            if (!worker_costs[worker]) {
              worker_costs[worker] = (*factory)();
              worker_costs[worker]->begin_search();
            }
            priced = worker_costs[worker].get();
          }
          const std::size_t end = std::min(filled, (chunk + 1) * kChunk);
          for (std::size_t i = chunk * kChunk; i < end; ++i) {
            costs[i] = priced->cost_within(shard[i], bound);
          }
        });
    for (std::size_t i = 0; i < filled; ++i) record(result, shard[i], costs[i]);
    filled = 0;
  };

  std::uint64_t enumerated = 0;
  for_each_orbit_minimum(
      num_cores, num_tiles, group,
      [&](const std::vector<noc::TileId>& assignment) {
        if (options.max_evaluations != 0 &&
            enumerated >= options.max_evaluations) {
          result.exhausted = false;
          return false;  // Budget exceeded: stop everywhere.
        }
        ++enumerated;
        mapping::Mapping& candidate = shard[filled];
        candidate.set_assignment(assignment);
        if (workers == 1) {
          record(result, candidate,
                 cost.cost_within(candidate, result.best_cost));
        } else if (++filled == shard.size()) {
          flush();
        }
        return true;
      });
  flush();
  return result;
}

}  // namespace

SearchResult exhaustive_search(const mapping::CostFunction& cost,
                               const noc::Topology& topo,
                               const EsOptions& options) {
  return run_search(cost, nullptr, topo, options);
}

SearchResult exhaustive_search(const CostFactory& make_cost,
                               const noc::Topology& topo,
                               const EsOptions& options) {
  if (!make_cost) {
    throw std::invalid_argument("exhaustive_search: null cost factory");
  }
  const std::unique_ptr<mapping::CostFunction> cost = make_cost();
  if (!cost) {
    throw std::invalid_argument("exhaustive_search: factory returned null");
  }
  return run_search(*cost, &make_cost, topo, options);
}

}  // namespace nocmap::search
