#pragma once
/// \file search_result.hpp
/// Common result type for all mapping search engines.

#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <optional>

#include "nocmap/mapping/cost.hpp"
#include "nocmap/mapping/mapping.hpp"

namespace nocmap::search {

/// Builds one cost-function instance per search worker (cost functions own
/// mutable evaluation state and are not shared across threads).
using CostFactory = std::function<std::unique_ptr<mapping::CostFunction>()>;

/// The value SearchResult::nodes_pruned saturates at. A saturated count
/// only says the eliminated volume is at least this large, so neither the
/// count nor a fraction derived from it may be reported as a number.
inline constexpr std::uint64_t kNodesPrunedSaturated =
    std::numeric_limits<std::uint64_t>::max();

/// The fraction of the enumeration tree the bound cut away,
/// pruned / (visited + pruned); empty when `pruned` saturated.
inline std::optional<double> pruned_fraction(std::uint64_t visited,
                                             std::uint64_t pruned) {
  if (pruned == kNodesPrunedSaturated) return std::nullopt;
  const double denom =
      static_cast<double>(visited) + static_cast<double>(pruned);
  return denom > 0 ? static_cast<double>(pruned) / denom : 0.0;
}

struct SearchResult {
  mapping::Mapping best;          ///< Best mapping found.
  double best_cost = 0.0;         ///< Its objective value.
  double initial_cost = 0.0;      ///< Cost of the starting mapping.
  std::uint64_t evaluations = 0;  ///< Objective queries: full cost() calls
                                  ///< plus incremental swap_delta() pricings
                                  ///< (engines using the delta protocol do
                                  ///< much less work per query).
  bool exhausted = false;         ///< Exhaustive search: searched everything
                                  ///< (false when the evaluation budget was
                                  ///< hit first).

  // --- Branch-and-bound counters (zero for every other engine) -------------
  // A "node" is one partial placement of the enumeration tree.
  // nodes_visited counts nodes actually expanded (their lower-bound test
  // passed; at full depth the mapping was priced). nodes_pruned counts the
  // nodes *eliminated* by failing bound tests: the failing node plus every
  // descendant placement that was consequently never generated (saturating
  // at kNodesPrunedSaturated), i.e. the work a bound-less enumeration of
  // the same space would have expanded; pruned_fraction() turns the two
  // into the fraction of the tree the bound cut away.
  std::uint64_t nodes_visited = 0;
  std::uint64_t nodes_pruned = 0;
  /// Lower-bound tests performed: nodes_visited plus the number of *failing*
  /// tests (each failing test eliminates a whole subtree, which is why this
  /// is far smaller than nodes_pruned). This is the engine's actual work,
  /// and the quantity node_budget caps.
  std::uint64_t nodes_tested = 0;
  std::uint64_t node_budget = 0;  ///< Budget on nodes_tested; 0 = unlimited.
};

}  // namespace nocmap::search
