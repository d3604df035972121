#pragma once
/// \file portfolio.hpp
/// Racing engine portfolio: SA chains x cooling schedules x move sets, plus
/// a budgeted branch-and-bound member, all from one starting incumbent.
///
/// 120-tile instances are too large for exact search and too rugged for a
/// single annealing schedule, and which (cooling, neighbourhood) pair wins
/// varies per instance. The portfolio races a deterministic roster of
/// members instead of betting on one:
///
///  * SA members: member i draws its RNG from the (seed, i) stream (the
///    same derivation as Explorer's best-of-N chains), its cooling factor
///    from a ladder, and alternates between the canonical pairwise-swap
///    neighbourhood and the large-neighbourhood catalogue (moves.hpp).
///  * One branch-and-bound member (optional): single-threaded, budgeted
///    (BnbOptions::max_nodes); on small instances it often proves the
///    optimum outright, on large ones its DFS-truncated best still
///    competes.
///
/// Determinism extends the B&B shard scheduler's contract: members are
/// independent tasks claimed by the worker pool (util::parallel_for_index),
/// every member is a pure function of (seed, member index, budgets), and
/// the reduction takes the lowest cost with ties broken by member index —
/// so the result is byte-identical for any thread count.
///
/// Every member records anytime samples (best cost vs priced moves vs wall
/// clock) at deterministic move-count checkpoints AND on every improvement
/// of its own incumbent; the merged portfolio curve is the running minimum
/// over the union of member samples ordered by move count — the measurement
/// bench --scale persists to BENCH_scale.json (docs/bench-format.md).

#include <cstdint>
#include <string>
#include <vector>

#include "nocmap/graph/cwg.hpp"
#include "nocmap/mapping/cost.hpp"
#include "nocmap/search/branch_and_bound.hpp"
#include "nocmap/search/moves.hpp"
#include "nocmap/search/search_result.hpp"
#include "nocmap/search/simulated_annealing.hpp"

namespace nocmap::search {

/// One anytime observation. `moves` and `best_j` are deterministic
/// (move-count checkpoints, exact costs); `wall_ms` is measured wall clock
/// and excluded from determinism contracts (reports must not diff it).
struct AnytimeSample {
  std::uint64_t moves = 0;
  double best_j = 0.0;
  double wall_ms = 0.0;
};

struct PortfolioMemberOutcome {
  std::string label;  ///< e.g. "sa0 c=0.950 swap", "sa1 c=0.990 lns", "bnb".
  SearchResult result;
  std::vector<AnytimeSample> samples;
  bool budget_cut = false;  ///< Stopped by a move/time budget, not stale.
};

struct PortfolioResult {
  SearchResult best;        ///< Winner's result; evaluations summed over all
                            ///< members (and the polish pass).
  std::size_t winner = 0;   ///< Index into members.
  std::vector<PortfolioMemberOutcome> members;
  /// Running minimum over the union of the SA members' samples, ordered by
  /// priced-move count (one point per distinct count), with the final
  /// (post-B&B, post-polish) best appended — monotone nonincreasing in
  /// best_j and nondecreasing in moves by construction, and deterministic
  /// (a pure function of the members' deterministic sample lists).
  std::vector<AnytimeSample> curve;
  bool budget_cut = false;          ///< Any member was budget-cut.
  std::uint64_t polish_applied = 0;  ///< Swaps applied by the final descent.
};

struct PortfolioOptions {
  /// SA members. Member i's cooling comes from `coolings` (cycled; the
  /// default ladder starts at sa.cooling), and odd members use the
  /// large-neighbourhood catalogue when `lns` is set.
  std::uint32_t sa_members = 4;
  std::vector<double> coolings;  ///< Empty: {sa.cooling, .99, .90, .97, .85}.
  bool lns = true;
  LnsOptions lns_options;
  SaOptions sa;  ///< Base options for every SA member.

  /// Include the budgeted branch-and-bound member (requires the cost
  /// function to implement the LowerBound protocol; silently skipped
  /// otherwise).
  bool include_bnb = true;
  std::uint64_t bnb_nodes = 200'000;  ///< Its nodes_tested budget.
  BnbOptions bnb;  ///< Base B&B options (threads forced to 1, budget and
                   ///< seeding overridden per the fields above).

  std::uint32_t threads = 1;  ///< Workers racing the members.
  std::uint64_t seed = 1;
  /// Starting incumbent: SA members start here (random when null) and the
  /// B&B member adopts it.
  const mapping::Mapping* initial = nullptr;

  /// Anytime-sample granularity in priced moves; 0 samples every
  /// temperature step. Samples land on step boundaries, so two checkpoints
  /// never split a step. Members additionally sample whenever their own
  /// incumbent improves, independent of the quantum — the curve records the
  /// exact step of every improvement.
  std::uint64_t checkpoint_moves = 0;
  /// Per-SA-member priced-move budget (SaOptions::max_moves semantics);
  /// 0 = each member stops by its own convergence criteria.
  std::uint64_t max_moves = 0;
  /// Per-member wall-clock budget, cut at step boundaries
  /// (SaOptions::time_budget_ms semantics). The cut checkpoint is recorded
  /// in the member's samples, so any time-budget result can be reproduced
  /// exactly by rerunning with max_moves = that checkpoint. 0 = none.
  double time_budget_ms = 0.0;

  /// Finish with a batched steepest-descent polish of the overall winner
  /// (only when the cost advertises has_batched_deltas — the O(deg) CWM
  /// pricing). Deterministic.
  bool polish = true;

  /// Cooperative cancellation, shared by every member: SA members poll at
  /// their temperature-step boundaries, the B&B member per node test. A
  /// cancelled portfolio reports budget_cut and returns the best incumbent
  /// over the members' last completed steps (never worse than `initial`).
  /// Not owned; may be nullptr. The token must outlive the search.
  const CancelToken* cancel = nullptr;
};

/// Race the portfolio for the cost functions built by `make_cost` (one
/// instance per member, exactly like branch_and_bound's factory). `cwg` and
/// `routing` feed the large-neighbourhood generator (worst-edge selection
/// prices edges at hop counts); for timing-aware objectives pass the CWG
/// projection — move *guidance* may be timing-blind even when pricing is
/// exact.
PortfolioResult portfolio(const CostFactory& make_cost,
                          const graph::Cwg& cwg, const noc::Topology& topo,
                          noc::RoutingAlgorithm routing,
                          const PortfolioOptions& options = {});

struct PolishOptions {
  std::uint32_t max_passes = 8;  ///< Steepest-descent passes (safety cap).
};

struct PolishOutcome {
  std::uint64_t applied = 0;      ///< Improving swaps committed.
  std::uint64_t evaluations = 0;  ///< Candidate pricings performed.
};

/// Batched steepest descent: price the full pairwise-swap neighbourhood of
/// `m` in one CostFunction::swap_deltas call per pass, commit the best
/// strictly-improving swap (ties to the lowest candidate index), repeat
/// until a pass finds no improvement or max_passes. `cost_j` is updated by
/// the exact deltas; callers pin the final value with a fresh cost() if they
/// need drift-free reporting.
PolishOutcome steepest_polish(const mapping::CostFunction& cost,
                              mapping::Mapping& m, double& cost_j,
                              const PolishOptions& options = {});

}  // namespace nocmap::search
