#pragma once
/// \file exhaustive.hpp
/// Exhaustive mapping search with exact symmetry pruning.
///
/// The paper uses exhaustive search (ES) on small NoCs "to compare the
/// quality of solutions against an absolute optimum", reporting that ES and
/// SA reach the same results up to 3x4 / 2x5 meshes. The search space for n
/// cores on m tiles is m!/(m-n)! placements. An objective is exactly
/// invariant under its own symmetry group (CostFunction::symmetry_group):
/// every Topology::symmetry_maps() map for CWM, only the maps that carry
/// routes onto routes for CDCM (the 4 flips, not the 8 dihedral maps, for
/// XY on a square mesh). By default ES enumerates exactly one placement per
/// orbit of that group, the orbit's lexicographic minimum, which shrinks
/// the space by almost the group size and returns the same optimum as the
/// full enumeration, bit for bit.

#include <cstdint>
#include <functional>
#include <vector>

#include "nocmap/mapping/cost.hpp"
#include "nocmap/search/search_result.hpp"

namespace nocmap::search {

struct EsOptions {
  /// Enumerate one placement per orbit of the objective's symmetry group
  /// (exact); false enumerates every placement.
  bool use_symmetry = true;
  /// Abort after this many evaluations; the result then carries
  /// exhausted == false. 0 means unlimited.
  std::uint64_t max_evaluations = 0;
};

/// Enumerate placements of cost.num_cores() cores on topo's tiles, in
/// lexicographic order of the core -> tile assignment, and return the first
/// optimum (or the best found before the budget ran out). With
/// options.use_symmetry only the lexicographic minimum of each orbit of
/// cost.symmetry_group(topo) is priced. The lexicographically smallest
/// optimal assignment is always such a minimum, so the result is the one
/// the full enumeration returns.
SearchResult exhaustive_search(const mapping::CostFunction& cost,
                               const noc::Topology& topo,
                               const EsOptions& options = {});

/// Prices one contiguous shard of the enumeration: costs[i] must receive
/// the objective of mappings[i]. Called from one thread; the implementation
/// may parallelize internally (sim::BatchEvaluator does).
using BatchCostFn = std::function<void(
    const mapping::Mapping* mappings, std::size_t count, double* costs)>;

/// Batched exhaustive search: the same enumeration (and therefore the same
/// symmetry pruning, evaluation count and budget semantics) as
/// exhaustive_search, but candidates are materialized into fixed-size
/// shards and priced through `evaluate` — which is how the CDCM objective
/// runs on a sim::BatchEvaluator's thread pool. `group` is the priced
/// objective's CostFunction::symmetry_group(topo); it is ignored when
/// options.use_symmetry is false. The reduction walks costs in enumeration
/// order with a strict '<', so the winner, its cost and `initial_cost` are
/// byte-identical to the serial engine for every shard size and thread
/// count.
SearchResult exhaustive_search_batched(
    std::size_t num_cores, const noc::Topology& topo,
    const BatchCostFn& evaluate,
    const std::vector<std::vector<noc::TileId>>& group,
    const EsOptions& options = {}, std::size_t batch_size = 1024);

/// The number of placements ES would enumerate without symmetry pruning:
/// m! / (m - n)!; saturates at UINT64_MAX on overflow.
std::uint64_t placement_count(std::uint32_t num_tiles, std::uint32_t num_cores);

}  // namespace nocmap::search
