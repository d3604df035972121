#pragma once
/// \file simulated_annealing.hpp
/// Simulated-annealing mapping search — the search method of the paper's FRW
/// framework.
///
/// The state space is the set of injective core->tile mappings; the default
/// neighbourhood move swaps the contents of two tiles (which relocates a
/// core when one tile is empty), and a search::MoveGenerator can replace it
/// with the large-neighbourhood catalogue of moves.hpp. The temperature
/// ladder is geometric; the initial temperature is calibrated from the cost
/// spread of a random-walk sample so acceptance starts high regardless of
/// the objective's scale (Joule here). The engine is objective-agnostic:
/// pass a CwmCost to obtain the paper's CWM algorithm and a CdcmCost for
/// the CDCM algorithm.
///
/// Two entry points share one implementation:
///  * anneal() — run a whole chain to completion (the historical API).
///  * SaChain — the same chain as a resumable object advancing one
///    temperature step per step() call; the racing portfolio
///    (search/portfolio.hpp) interleaves member chains at step granularity
///    to record anytime samples and enforce budgets at deterministic
///    move-count checkpoints.

#include <chrono>
#include <cstdint>

#include "nocmap/mapping/cost.hpp"
#include "nocmap/search/cancel.hpp"
#include "nocmap/search/moves.hpp"
#include "nocmap/search/search_result.hpp"
#include "nocmap/util/rng.hpp"

namespace nocmap::search {

struct SaOptions {
  /// Moves attempted at each temperature step; scaled by the number of
  /// tiles: moves = moves_per_tile * num_tiles.
  std::uint32_t moves_per_tile = 20;
  double cooling = 0.95;            ///< Geometric cooling factor per step.
  double initial_acceptance = 0.9;  ///< Target acceptance ratio used to
                                    ///< calibrate the initial temperature.
  std::uint32_t calibration_samples = 50;  ///< Random moves sampled for
                                           ///< temperature calibration.
  /// Stop when this many consecutive temperature steps brought no
  /// improvement of the best cost.
  std::uint32_t max_stale_steps = 12;
  /// Hard cap on temperature steps (safety net).
  std::uint32_t max_steps = 400;
  /// Use the cost function's incremental swap_delta() protocol when it
  /// advertises one (CostFunction::has_swap_delta). The running cost is
  /// resynchronized with a full evaluation at every temperature step to
  /// bound floating-point drift. Disable to force full re-evaluation of
  /// every move (the reference behaviour the delta tests compare against).
  bool use_swap_delta = true;
  /// Stop at the first temperature-step boundary where at least this many
  /// ladder moves have been priced (calibration samples excluded); 0 means
  /// no move budget. The cut is exact: a chain with the same seed and
  /// budget returns the same result on any machine and thread count.
  std::uint64_t max_moves = 0;
  /// Wall-clock budget in milliseconds, checked only at temperature-step
  /// boundaries, so the returned state always equals some exact move-count
  /// checkpoint (SaChain::moves_priced() reports which — rerun with that
  /// value as max_moves to reproduce the cut bit-for-bit); 0 means no time
  /// budget.
  double time_budget_ms = 0.0;
  /// Cooperative cancellation, polled once per temperature step at the same
  /// boundary as the budgets above: a cancelled chain finishes the step in
  /// flight, reports budget_cut(), and its result equals a max_moves cut at
  /// the moves_priced() checkpoint — so any cancellation is reproducible
  /// bit-for-bit by replaying with that move budget. Not owned; may be
  /// nullptr (never cancelled). The token must outlive the search.
  const CancelToken* cancel = nullptr;
};

/// One resumable annealing chain. Construction performs the initial
/// evaluation and temperature calibration; each step() call runs one
/// temperature step (moves_per_tile * num_tiles priced moves). result() is
/// consistent at every step boundary: the best mapping is materialized and
/// its cost pinned by a fresh evaluation, and it is never worse than the
/// initial mapping under cost(), whatever the deltas reported.
///
/// The referenced cost function, topology, RNG and move generator must
/// outlive the chain; the chain owns nothing but its mapping state.
class SaChain {
 public:
  /// `moves` selects the neighbourhood: nullptr keeps the built-in pairwise
  /// tile swap (byte-identical to the historical engine), a generator
  /// replaces every proposal (and its tabu state is reset()).
  SaChain(const mapping::CostFunction& cost, const noc::Topology& topo,
          util::Rng& rng, const SaOptions& options = {},
          const mapping::Mapping* initial = nullptr,
          MoveGenerator* moves = nullptr);

  /// Run one temperature step. Returns false — and runs nothing — once the
  /// chain is done (stale, step cap, or a budget cut at this boundary).
  bool step();

  bool done() const { return done_; }
  /// True when the chain stopped because of max_moves / time_budget_ms
  /// rather than its own convergence criteria.
  bool budget_cut() const { return budget_cut_; }
  const SearchResult& result() const { return result_; }
  SearchResult&& take_result() { return std::move(result_); }
  /// Priced ladder moves so far (the move-count checkpoint clock).
  std::uint64_t moves_priced() const { return moves_priced_; }
  std::uint32_t steps_done() const { return steps_done_; }
  double temperature() const { return temperature_; }

 private:
  void propose(Move& out);
  double price(Move& mv);  ///< Counts one evaluation; see use_delta_ paths.
  void undo_uncommitted(const Move& mv);
  void maybe_finish_by_budget();

  const mapping::CostFunction& cost_;
  util::Rng& rng_;
  SaOptions options_;
  MoveGenerator* moves_;
  std::uint32_t num_tiles_;
  std::uint64_t moves_per_step_;

  mapping::Mapping current_;
  double current_cost_ = 0.0;
  double candidate_cost_ = 0.0;  ///< Full-recompute path scratch.
  /// The walk's best cost: a step improves when the running cost drops
  /// below it, and it is pinned to the exact cost of the step's best. The
  /// stale count follows it; result_ keeps the best exact cost, which only
  /// differs when a delta under-reported.
  double walk_best_ = 0.0;
  SearchResult result_;
  double temperature_ = 1.0;
  std::uint32_t stale_steps_ = 0;
  std::uint32_t steps_done_ = 0;
  std::uint64_t moves_priced_ = 0;
  bool use_delta_ = false;
  bool done_ = false;
  bool budget_cut_ = false;

  // Per-step accepted-move log (flat swap list + per-move end offsets),
  // used to rebuild the step's best state by undoing the suffix.
  Move move_;
  std::vector<std::pair<noc::TileId, noc::TileId>> accepted_swaps_;
  std::vector<std::size_t> accepted_ends_;

  std::chrono::steady_clock::time_point start_;
};

/// Run simulated annealing for `cost` on `topo`. The initial mapping is
/// random ("initially, all cores are randomly mapped onto the set of
/// tiles") unless `initial` is given (e.g. a greedy construction); all
/// randomness comes from `rng`. `moves` as in SaChain.
SearchResult anneal(const mapping::CostFunction& cost,
                    const noc::Topology& topo, util::Rng& rng,
                    const SaOptions& options = {},
                    const mapping::Mapping* initial = nullptr,
                    MoveGenerator* moves = nullptr);

/// RNG stream of chain `chain` under `seed`, shared by the Explorer's SA
/// chains and the portfolio's members. Chain 0 is Rng(seed) itself so
/// single-chain runs reproduce the historical sequences; other chains hash
/// the seed through SplitMix64 *before* mixing in the chain index, so the
/// streams are decorrelated both across chains and across nearby seeds
/// (hashing seed + chain directly would make (s, c+1) and (s+1, c)
/// collide — adjacent rows of a seed sweep would share whole chains).
util::Rng chain_rng(std::uint64_t seed, std::uint32_t chain);

}  // namespace nocmap::search
