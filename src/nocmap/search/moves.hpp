#pragma once
/// \file moves.hpp
/// Large-neighbourhood move catalogue for the annealing engines.
///
/// The classic neighbourhood — swap the contents of two random tiles —
/// explores 120-tile instances too slowly: a single swap changes at most
/// two placements, so escaping a locally-good but globally-misplaced
/// cluster needs a long, individually-uphill swap chain that Metropolis
/// acceptance rarely survives. The catalogue below adds coordinated
/// multi-tile moves, each decomposed into an ordered sequence of elementary
/// tile swaps so the existing incremental pricing machinery applies
/// unchanged (mapping::CostFunction::move_delta / apply_move):
///
///  * kSwap             — the canonical two-tile swap.
///  * kSegmentReversal  — reverse the contents of a run of tiles in
///    row-major order: mirrors a linear sub-arrangement in place.
///  * kSegmentRotation  — rotate the contents of a run left by one: shifts
///    a whole neighbourhood without tearing its internal adjacencies.
///  * kRegionRelocation — exchange the contents of two disjoint equal-shape
///    rectangular windows: teleports a communicating cluster across the
///    chip in one priced move.
///  * kWorstEdgeEjection — pick a high-cost CWG edge (bits x hops under the
///    current mapping), move one endpoint core next to its partner, and
///    tabu the vacated tile for a few proposals so the ejection is not
///    immediately undone.
///
/// Every elementary swap is an involution, so applying a move's sequence in
/// reverse undoes it; engines rely on this for snapshot-free backtracking.
/// Generators are deterministic: proposals are pure functions of the
/// mapping, the RNG stream and the generator's own (deterministically
/// updated) tabu state, so a chain replay with the same seed reproduces the
/// same move sequence regardless of what other threads are doing.

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "nocmap/graph/cwg.hpp"
#include "nocmap/mapping/mapping.hpp"
#include "nocmap/noc/route_table.hpp"
#include "nocmap/noc/topology.hpp"
#include "nocmap/util/rng.hpp"

namespace nocmap::search {

enum class MoveKind : std::uint8_t {
  kSwap,
  kSegmentReversal,
  kSegmentRotation,
  kRegionRelocation,
  kWorstEdgeEjection,
};

const char* to_string(MoveKind kind);

/// One proposed neighbourhood move: an ordered sequence of elementary tile
/// swaps. Applying `swaps` front-to-back performs the move; applying them
/// back-to-front undoes it.
struct Move {
  MoveKind kind = MoveKind::kSwap;
  std::vector<std::pair<noc::TileId, noc::TileId>> swaps;

  void clear() {
    kind = MoveKind::kSwap;
    swaps.clear();
  }
};

/// Neighbourhood supplier for annealing chains. Implementations are
/// single-chain objects (no internal synchronization); parallel searches
/// construct one generator per chain, exactly like cost functions.
class MoveGenerator {
 public:
  virtual ~MoveGenerator() = default;

  /// Forget any adaptive state (tabu lists, proposal counters) — called by
  /// the engine at the start of a search so pooled generators behave like
  /// fresh ones.
  virtual void reset() {}

  /// Draw the next move for mapping `m`. Must emit at least one swap of two
  /// distinct tiles; all randomness comes from `rng`.
  virtual void propose(const mapping::Mapping& m, util::Rng& rng,
                       Move& out) = 0;

  /// Engine callback after `move` was accepted on `m` (already applied);
  /// default is a no-op, the ejection generator arms its tabu entry here.
  virtual void on_accept(const mapping::Mapping& m, const Move& move) {
    (void)m;
    (void)move;
  }

  virtual std::string name() const = 0;
};

struct LnsOptions {
  // Relative proposal weights of the five kinds. Zero disables a kind. The
  // default mix keeps the cheap pairwise swap dominant (it remains the best
  // fine-tuning move) and sprinkles in the coordinated moves.
  std::uint32_t swap_weight = 6;
  std::uint32_t reversal_weight = 1;
  std::uint32_t rotation_weight = 1;
  std::uint32_t relocation_weight = 1;
  std::uint32_t ejection_weight = 2;

  std::uint32_t max_segment = 8;  ///< Longest reversed/rotated run (tiles).
  std::uint32_t max_region = 3;   ///< Max relocated-window side (tiles).
  /// CWG edges sampled per ejection proposal; the worst one (bits x hops)
  /// is ejected.
  std::uint32_t ejection_candidates = 4;
  /// Accepted ejections tabu the vacated (core, tile) pair for this many
  /// subsequent proposals, so the move is not immediately reverted.
  std::uint32_t tabu_tenure = 32;
};

/// The full catalogue behind one MoveGenerator. Needs the CWG (worst-edge
/// selection), the topology geometry (segments, windows, adjacency) and the
/// routing algorithm (hop counts at the current mapping). The CWG is read
/// at construction; the referenced topology must outlive the generator.
class LargeNeighborhoodMoves final : public MoveGenerator {
 public:
  LargeNeighborhoodMoves(const graph::Cwg& cwg, const noc::Topology& topo,
                         noc::RoutingAlgorithm routing =
                             noc::RoutingAlgorithm::kXY,
                         LnsOptions options = {});

  void reset() override;
  void propose(const mapping::Mapping& m, util::Rng& rng, Move& out) override;
  void on_accept(const mapping::Mapping& m, const Move& move) override;
  std::string name() const override { return "lns"; }

 private:
  void propose_swap(util::Rng& rng, Move& out) const;
  void propose_reversal(util::Rng& rng, Move& out) const;
  void propose_rotation(util::Rng& rng, Move& out) const;
  void propose_relocation(util::Rng& rng, Move& out) const;
  /// False when no non-tabu ejection was found (caller falls back to swap).
  bool propose_ejection(const mapping::Mapping& m, util::Rng& rng, Move& out);

  bool is_tabu(graph::CoreId core, noc::TileId tile) const;

  const noc::Topology* topo_;
  noc::RouteTable table_;
  /// The CWG's edges in (src, dst) order and each core's total traffic
  /// (bits on its incident edges), built once: the ejection proposal
  /// samples the one and compares the other.
  std::vector<graph::CwgEdge> edges_;
  std::vector<std::uint64_t> traffic_;
  LnsOptions options_;
  std::uint32_t num_tiles_;
  std::vector<std::vector<noc::TileId>> adjacency_;  ///< Per tile.

  // Tabu ring: (core << 32 | vacated tile) -> proposal counter at which the
  // entry expires. Proposal counting, arming and expiry are driven purely
  // by the chain's own propose()/on_accept() sequence, so the state is
  // deterministic per chain.
  struct TabuEntry {
    std::uint64_t key = 0;
    std::uint64_t expires = 0;
  };
  std::vector<TabuEntry> tabu_;
  std::uint64_t proposals_ = 0;
  /// The (core, vacated tile) of the last ejection proposal; armed into
  /// tabu_ when that proposal is accepted.
  graph::CoreId pending_core_ = 0;
  noc::TileId pending_from_ = 0;
  bool pending_valid_ = false;
};

}  // namespace nocmap::search
