#include "nocmap/search/moves.hpp"

#include <algorithm>

namespace nocmap::search {

const char* to_string(MoveKind kind) {
  switch (kind) {
    case MoveKind::kSwap:
      return "swap";
    case MoveKind::kSegmentReversal:
      return "segment-reversal";
    case MoveKind::kSegmentRotation:
      return "segment-rotation";
    case MoveKind::kRegionRelocation:
      return "region-relocation";
    case MoveKind::kWorstEdgeEjection:
      return "worst-edge-ejection";
  }
  return "?";
}

LargeNeighborhoodMoves::LargeNeighborhoodMoves(const graph::Cwg& cwg,
                                               const noc::Topology& topo,
                                               noc::RoutingAlgorithm routing,
                                               LnsOptions options)
    : topo_(&topo),
      table_(topo, routing),
      edges_(cwg.edges()),
      traffic_(cwg.num_cores(), 0),
      options_(options),
      num_tiles_(topo.num_tiles()) {
  // Clamp degenerate knobs so every rng draw below has a nonempty range.
  options_.max_segment = std::max<std::uint32_t>(2, options_.max_segment);
  options_.max_region = std::max<std::uint32_t>(1, options_.max_region);
  options_.ejection_candidates =
      std::max<std::uint32_t>(1, options_.ejection_candidates);
  adjacency_.resize(num_tiles_);
  for (noc::TileId t = 0; t < num_tiles_; ++t) {
    adjacency_[t] = topo.neighbours(t);
  }
  for (const graph::CwgEdge& e : edges_) {  // The CWG has no self-loops.
    traffic_[e.src] += e.bits;
    traffic_[e.dst] += e.bits;
  }
}

void LargeNeighborhoodMoves::reset() {
  tabu_.clear();
  proposals_ = 0;
  pending_valid_ = false;
}

void LargeNeighborhoodMoves::propose_swap(util::Rng& rng, Move& out) const {
  out.kind = MoveKind::kSwap;
  const auto a = static_cast<noc::TileId>(rng.index(num_tiles_));
  noc::TileId b;
  do {
    b = static_cast<noc::TileId>(rng.index(num_tiles_));
  } while (b == a);
  out.swaps.emplace_back(a, b);
}

void LargeNeighborhoodMoves::propose_reversal(util::Rng& rng,
                                              Move& out) const {
  out.kind = MoveKind::kSegmentReversal;
  const std::uint32_t max_len = std::min(options_.max_segment, num_tiles_);
  const std::uint32_t len =
      2 + static_cast<std::uint32_t>(rng.index(max_len - 1));
  const std::uint32_t start =
      static_cast<std::uint32_t>(rng.index(num_tiles_ - len + 1));
  for (std::uint32_t i = 0; i < len / 2; ++i) {
    out.swaps.emplace_back(start + i, start + len - 1 - i);
  }
}

void LargeNeighborhoodMoves::propose_rotation(util::Rng& rng,
                                              Move& out) const {
  out.kind = MoveKind::kSegmentRotation;
  const std::uint32_t max_len = std::min(options_.max_segment, num_tiles_);
  const std::uint32_t len =
      2 + static_cast<std::uint32_t>(rng.index(max_len - 1));
  const std::uint32_t start =
      static_cast<std::uint32_t>(rng.index(num_tiles_ - len + 1));
  // Adjacent-swap chain == rotate the run's contents left by one (the
  // first tile's core ends up on the last tile).
  for (std::uint32_t i = 0; i + 1 < len; ++i) {
    out.swaps.emplace_back(start + i, start + i + 1);
  }
}

void LargeNeighborhoodMoves::propose_relocation(util::Rng& rng,
                                                Move& out) const {
  const std::uint32_t width = topo_->width();
  const std::uint32_t height = topo_->height();
  const std::uint32_t rw =
      1 + static_cast<std::uint32_t>(
              rng.index(std::min(options_.max_region, width)));
  const std::uint32_t rh =
      1 + static_cast<std::uint32_t>(
              rng.index(std::min(options_.max_region, height)));
  // Two window origins; retry a few times until the windows are disjoint.
  // When the board cannot fit two disjoint windows of this shape (rw ==
  // width and rh == height) every retry fails and we degrade to a swap.
  for (int attempt = 0; attempt < 8; ++attempt) {
    const auto x1 = static_cast<std::int32_t>(rng.index(width - rw + 1));
    const auto y1 = static_cast<std::int32_t>(rng.index(height - rh + 1));
    const auto x2 = static_cast<std::int32_t>(rng.index(width - rw + 1));
    const auto y2 = static_cast<std::int32_t>(rng.index(height - rh + 1));
    const bool overlap = std::abs(x1 - x2) < static_cast<std::int32_t>(rw) &&
                         std::abs(y1 - y2) < static_cast<std::int32_t>(rh);
    if (overlap) continue;
    out.kind = MoveKind::kRegionRelocation;
    for (std::uint32_t j = 0; j < rh; ++j) {
      for (std::uint32_t i = 0; i < rw; ++i) {
        const auto di = static_cast<std::int32_t>(i);
        const auto dj = static_cast<std::int32_t>(j);
        out.swaps.emplace_back(
            topo_->tile_at(noc::Coord{x1 + di, y1 + dj}),
            topo_->tile_at(noc::Coord{x2 + di, y2 + dj}));
      }
    }
    return;
  }
  propose_swap(rng, out);
}

bool LargeNeighborhoodMoves::is_tabu(graph::CoreId core,
                                     noc::TileId tile) const {
  const std::uint64_t key =
      (static_cast<std::uint64_t>(core) << 32) | tile;
  for (const TabuEntry& e : tabu_) {
    if (e.key == key && e.expires > proposals_) return true;
  }
  return false;
}

bool LargeNeighborhoodMoves::propose_ejection(const mapping::Mapping& m,
                                              util::Rng& rng, Move& out) {
  // Sample a few edges and eject the worst: cost contribution under the
  // current mapping is bits x hops (energy per bit is monotone in hops, so
  // the ranking matches the energy ranking up to the per-hop affinity).
  const graph::CwgEdge* worst = nullptr;
  double worst_score = -1.0;
  for (std::uint32_t i = 0; i < options_.ejection_candidates; ++i) {
    const graph::CwgEdge& e = edges_[rng.index(edges_.size())];
    const double score =
        static_cast<double>(e.bits) *
        table_.hops(m.tile_of(e.src), m.tile_of(e.dst));
    if (score > worst_score) {
      worst_score = score;
      worst = &e;
    }
  }
  // Move the endpoint with less total traffic next to its partner (the
  // lighter core is the cheaper one to uproot).
  const graph::CoreId mover =
      traffic_[worst->src] <= traffic_[worst->dst] ? worst->src : worst->dst;
  const graph::CoreId partner = mover == worst->src ? worst->dst : worst->src;
  const noc::TileId mover_tile = m.tile_of(mover);
  const std::vector<noc::TileId>& adj = adjacency_[m.tile_of(partner)];
  if (adj.empty()) return false;
  const std::size_t begin = rng.index(adj.size());
  for (std::size_t d = 0; d < adj.size(); ++d) {
    const noc::TileId dest = adj[(begin + d) % adj.size()];
    if (dest == mover_tile) continue;  // Already adjacent on this side.
    if (is_tabu(mover, dest)) continue;
    out.kind = MoveKind::kWorstEdgeEjection;
    out.swaps.emplace_back(mover_tile, dest);
    pending_core_ = mover;
    pending_from_ = mover_tile;
    pending_valid_ = true;
    return true;
  }
  return false;
}

void LargeNeighborhoodMoves::propose(const mapping::Mapping& m, util::Rng& rng,
                                     Move& out) {
  out.clear();
  ++proposals_;

  const std::uint32_t w_swap = options_.swap_weight;
  const std::uint32_t w_rev = num_tiles_ >= 2 ? options_.reversal_weight : 0;
  const std::uint32_t w_rot = num_tiles_ >= 2 ? options_.rotation_weight : 0;
  const std::uint32_t w_rel = options_.relocation_weight;
  const std::uint32_t w_ej = edges_.empty() ? 0 : options_.ejection_weight;
  const std::uint32_t total = w_swap + w_rev + w_rot + w_rel + w_ej;
  std::uint64_t r = total ? rng.index(total) : 0;

  if (total == 0 || r < w_swap) {
    propose_swap(rng, out);
    return;
  }
  r -= w_swap;
  if (r < w_rev) {
    propose_reversal(rng, out);
    return;
  }
  r -= w_rev;
  if (r < w_rot) {
    propose_rotation(rng, out);
    return;
  }
  r -= w_rot;
  if (r < w_rel) {
    propose_relocation(rng, out);
    return;
  }
  if (!propose_ejection(m, rng, out)) {
    propose_swap(rng, out);  // Everything tabu or degenerate: plain swap.
  }
}

void LargeNeighborhoodMoves::on_accept(const mapping::Mapping& m,
                                       const Move& move) {
  (void)m;
  if (move.kind != MoveKind::kWorstEdgeEjection || !pending_valid_) return;
  // Drop expired entries, then arm the vacated (core, tile) pair.
  tabu_.erase(std::remove_if(tabu_.begin(), tabu_.end(),
                             [this](const TabuEntry& e) {
                               return e.expires <= proposals_;
                             }),
              tabu_.end());
  tabu_.push_back(TabuEntry{
      (static_cast<std::uint64_t>(pending_core_) << 32) | pending_from_,
      proposals_ + options_.tabu_tenure});
  pending_valid_ = false;
}

}  // namespace nocmap::search
