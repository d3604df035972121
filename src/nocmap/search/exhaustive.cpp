#include "nocmap/search/exhaustive.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>

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

}  // namespace

SearchResult exhaustive_search(const mapping::CostFunction& cost,
                               const noc::Topology& topo,
                               const EsOptions& options) {
  const std::size_t num_cores = cost.num_cores();
  const std::uint32_t num_tiles = topo.num_tiles();
  if (num_cores > num_tiles) {
    throw std::invalid_argument("exhaustive_search: more cores than tiles");
  }
  cost.begin_search();
  const TileMaps group =
      options.use_symmetry ? cost.symmetry_group(topo) : TileMaps{};

  SearchResult result{mapping::Mapping(topo, num_cores),
                      std::numeric_limits<double>::infinity(), 0.0, 0, true};
  mapping::Mapping candidate(topo, num_cores);
  for_each_orbit_minimum(
      num_cores, num_tiles, group,
      [&](const std::vector<noc::TileId>& assignment) {
        if (options.max_evaluations != 0 &&
            result.evaluations >= options.max_evaluations) {
          result.exhausted = false;
          return false;  // Budget exceeded: stop everywhere.
        }
        candidate.set_assignment(assignment);
        const double c = cost.cost(candidate);
        if (result.evaluations++ == 0) result.initial_cost = c;
        if (c < result.best_cost) {
          result.best_cost = c;
          result.best = candidate;
        }
        return true;
      });
  return result;
}

SearchResult exhaustive_search_batched(std::size_t num_cores,
                                       const noc::Topology& topo,
                                       const BatchCostFn& evaluate,
                                       const TileMaps& group,
                                       const EsOptions& options,
                                       std::size_t batch_size) {
  const std::uint32_t num_tiles = topo.num_tiles();
  if (num_cores > num_tiles) {
    throw std::invalid_argument("exhaustive_search: more cores than tiles");
  }
  if (num_cores == 0) {
    throw std::invalid_argument("exhaustive_search: application has no cores");
  }
  if (batch_size == 0) batch_size = 1;

  SearchResult result{mapping::Mapping(topo, num_cores),
                      std::numeric_limits<double>::infinity(), 0.0, 0, true};

  // The shard: candidate mappings are materialized into preallocated
  // Mapping slots (set_assignment reuses their storage), priced in one
  // evaluate() call, then reduced in enumeration order — which makes the
  // outcome independent of both the shard size and however evaluate()
  // parallelizes internally.
  std::vector<mapping::Mapping> batch(batch_size,
                                      mapping::Mapping(topo, num_cores));
  std::vector<double> costs(batch_size, 0.0);
  std::size_t filled = 0;

  const auto flush = [&] {
    if (filled == 0) return;
    evaluate(batch.data(), filled, costs.data());
    for (std::size_t i = 0; i < filled; ++i) {
      if (result.evaluations++ == 0) result.initial_cost = costs[i];
      if (costs[i] < result.best_cost) {
        result.best_cost = costs[i];
        result.best = batch[i];
      }
    }
    filled = 0;
  };

  const TileMaps none;
  std::uint64_t enumerated = 0;
  for_each_orbit_minimum(
      num_cores, num_tiles, options.use_symmetry ? group : none,
      [&](const std::vector<noc::TileId>& assignment) {
        if (options.max_evaluations != 0 &&
            enumerated >= options.max_evaluations) {
          result.exhausted = false;
          return false;  // Budget exceeded: stop everywhere.
        }
        batch[filled].set_assignment(assignment);
        ++enumerated;
        if (++filled == batch.size()) flush();
        return true;
      });
  flush();
  return result;
}

}  // namespace nocmap::search
