#pragma once
/// \file branch_and_bound.hpp
/// Exact mapping search by branch and bound.
///
/// The exhaustive engine prices every complete placement; this engine
/// prices *partial* placements with an admissible lower bound
/// (mapping::CostFunction::LowerBound) and discards a prefix — and with it
/// the whole factorial subtree underneath — as soon as no completion can
/// beat the incumbent. With a greedy+SA-seeded incumbent the bound test
/// typically cuts well over 90 % of the touched nodes, which moves the
/// exact-optimum frontier from 3x3 toys to 4x4/torus-sized instances. See
/// docs/search.md for the admissibility arguments and the engine decision
/// table.
///
/// Mechanics:
///  * Depth-first enumeration over partial mappings in a fixed core order,
///    heaviest communicators first (LowerBound::core_traffic), so bounds
///    tighten as early as possible.
///  * The exact prefix cost is maintained incrementally as cores are
///    placed/unplaced (O(deg) push/pop over the incident-edge lists), plus
///    an admissible remainder bound per LowerBound::bound().
///  * First-tile symmetry collapse: core 0 is restricted to the smallest
///    tile of each orbit of the objective's own symmetry group
///    (CostFunction::symmetry_group: every topology symmetry for CWM, the
///    route-preserving ones for CDCM). The group leaves the cost unchanged
///    bit for bit, so the collapse is exact, and the lexicographically
///    smallest optimum, which the tie-break returns, always survives it.
///  * The incumbent is seeded by simulated annealing (optionally started
///    from a caller-provided mapping such as a greedy construction), so
///    pruning bites from the first node.
///  * Parallel shard scheduler: the tree is split at `shard_depth` into
///    independent subtree tasks claimed by the worker pool
///    (util::parallel_for_index). Whenever the search completes within its
///    node budget, the result — best mapping, cost, and all counters — is
///    byte-identical for every thread count: each task prunes against the
///    seeded incumbent plus its own discoveries (ties among equal-cost
///    optima broken by lexicographic assignment), and an exception is the
///    one of the first task to throw in task order. A budget-truncated run
///    is the exception: the global budget is consumed in thread order, so
///    its counters and best-so-far are timing-dependent.
///
/// When the node budget runs out the engine stops and returns the best
/// mapping seen — at worst the SA-seeded incumbent — with
/// `exhausted == false`: graceful degradation to annealing quality rather
/// than an error, which is what the Explorer's `--search bnb` fallback
/// reports.

#include <cstdint>

#include "nocmap/mapping/cost.hpp"
#include "nocmap/search/search_result.hpp"
#include "nocmap/search/simulated_annealing.hpp"

namespace nocmap::search {

struct BnbOptions {
  /// Restrict core 0 to one tile per orbit of the cost function's
  /// symmetry_group() (exact pruning); false searches every tile.
  bool use_symmetry = true;

  /// Stop after this many lower-bound tests (SearchResult::nodes_tested —
  /// NOT the eliminated-volume nodes_pruned); the result then carries
  /// exhausted == false and the best mapping seen so far (at worst the
  /// seeded incumbent). 0 means unlimited.
  std::uint64_t max_nodes = 20'000'000;

  /// Tree depth at which the enumeration is split into independent subtree
  /// tasks (one per feasible prefix). 0 runs the whole tree as one task.
  std::uint32_t shard_depth = 2;

  /// Worker threads claiming subtree tasks. When the search completes
  /// within the node budget, results and counters are identical for any
  /// value; a budget-truncated run's counters and best-so-far depend on
  /// which nodes the threads reached first. 0 is treated as 1.
  std::uint32_t threads = 1;

  /// Optional starting incumbent (e.g. search::greedy_mapping); also used
  /// as the SA seed chain's initial state when seed_with_sa is set.
  const mapping::Mapping* incumbent = nullptr;

  /// Run one simulated-annealing chain (options `sa`, RNG `seed`) before
  /// the tree walk and adopt its winner as the incumbent.
  bool seed_with_sa = true;
  SaOptions sa;
  std::uint64_t seed = 1;

  /// Cooperative cancellation, polled once per node test (the same boundary
  /// as max_nodes) and by the seeding SA chain at its step boundaries. A
  /// cancelled run truncates exactly like an exhausted node budget: it
  /// returns the best mapping seen so far — at worst the seeded incumbent —
  /// with exhausted == false. Single-threaded, a cancellation at the K-th
  /// poll is byte-identical to running with max_nodes == K - 1. Not owned;
  /// may be nullptr. The token must outlive the search.
  const CancelToken* cancel = nullptr;
};

/// The cost factory under its branch-and-bound name.
using BnbCostFactory = CostFactory;

/// Branch-and-bound search over placements of make_cost()->num_cores()
/// cores on topo's tiles. Requires the cost function to implement the
/// LowerBound protocol (throws std::invalid_argument otherwise).
SearchResult branch_and_bound(const BnbCostFactory& make_cost,
                              const noc::Topology& topo,
                              const BnbOptions& options = {});

/// Single-threaded convenience overload (options.threads is ignored): runs
/// everything on the caller's thread against `cost`.
SearchResult branch_and_bound(const mapping::CostFunction& cost,
                              const noc::Topology& topo,
                              const BnbOptions& options = {});

}  // namespace nocmap::search
