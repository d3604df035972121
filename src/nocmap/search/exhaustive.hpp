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
  /// Workers pricing the enumeration (factory form only). With more than
  /// one, candidates are collected in shards and each worker prices its
  /// share on its own cost function; the result is identical for any value.
  /// 0 is treated as 1.
  std::uint32_t threads = 1;
};

/// Enumerate placements of cost.num_cores() cores on topo's tiles, in
/// lexicographic order of the core -> tile assignment, and return the first
/// optimum (or the best found before the budget ran out). With
/// options.use_symmetry only the lexicographic minimum of each orbit of
/// cost.symmetry_group(topo) is priced. The lexicographically smallest
/// optimal assignment is always such a minimum, so the result is the one
/// the full enumeration returns. Runs on the caller's thread
/// (options.threads is ignored).
SearchResult exhaustive_search(const mapping::CostFunction& cost,
                               const noc::Topology& topo,
                               const EsOptions& options = {});

/// The same search on options.threads workers, each pricing on its own
/// make_cost() instance. Shards are reduced in enumeration order with the
/// same strict '<', so the winner, its cost, `initial_cost` and the
/// evaluation count are those of the one-worker search for any thread
/// count, and an exception is the one the one-worker search would throw
/// first.
SearchResult exhaustive_search(const CostFactory& make_cost,
                               const noc::Topology& topo,
                               const EsOptions& options = {});

/// The number of placements ES would enumerate without symmetry pruning:
/// m! / (m - n)!; saturates at UINT64_MAX on overflow.
std::uint64_t placement_count(std::uint32_t num_tiles, std::uint32_t num_cores);

}  // namespace nocmap::search
