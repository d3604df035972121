#pragma once
/// \file grid.hpp
/// The regular 2-D grid behind noc::Mesh and noc::Torus — the paper's
/// Communication Resource Graph (Definition 3 in Marcon et al., DATE 2005),
/// optionally closed into rings.
///
/// Vertices are tiles (one router per tile, one IP core slot per tile);
/// edges are the physical resources a packet traverses. We distinguish three
/// kinds of resources, mirroring the paper's energy decomposition
/// (ERbit / ELbit / ECbit):
///   * routers               (one per tile),
///   * inter-router links    (directed, between 4-neighbour tiles),
///   * local links           (core->router injection, router->core ejection).
///
/// Each axis either stops at the grid edge or wraps: a pair of directed wrap
/// links joins its last position to its first (east from the last column to
/// the first, west from the first to the last; analogously for rows). The
/// flags are fixed at construction. A Mesh wraps neither axis; a Torus wraps
/// each axis of size >= 3, since a 1-wide ring has no second tile to wrap to
/// and a 2-wide ring's wrap link would merely duplicate the direct one.
///
/// Routing is dimension-ordered with wrap shortcuts: per axis the travel
/// direction minimizing the hop count is chosen (ties break to the
/// non-wrapping direction), so every algorithm is minimal w.r.t.
/// min(|dx|, W - |dx|) + min(|dy|, H - |dy|) over the wrapping axes and
/// plain |d| over the others.
///
/// Deadlock note: wrap links close cyclic channel dependences even under
/// XY routing; real tori break them with dateline virtual channels, which
/// this evaluation model (energy/latency, no VC allocation) does not
/// represent. See docs/topologies.md.

#include <cstdint>
#include <vector>

#include "nocmap/noc/topology.hpp"

namespace nocmap::noc {

/// A W x H grid with per-axis wrap-around. Immutable after construction.
///
/// Resource id layout: [routers | links | local-in | local-out], 7 *
/// num_tiles ids in total. Links are indexed by (src tile, direction), with
/// 4 direction slots per tile; a slot whose step leaves a non-wrapping axis
/// is still allocated (keeps the arithmetic trivial) but never referenced by
/// any route, and describe() rejects it.
class Grid : public Topology {
 public:
  /// Whether the X (resp. Y) axis is closed into a ring.
  bool wraps_x() const { return wraps_x_; }
  bool wraps_y() const { return wraps_y_; }

  // --- Topology contract ---------------------------------------------------

  /// min(|dx|, W-|dx|) + min(|dy|, H-|dy|) over the wrapping axes, plain
  /// |d| over the others: the minimal hop distance between the two routers.
  std::uint32_t distance(TileId a, TileId b) const override;
  /// N, S, E, W order, wrap neighbours included and off-grid steps of a
  /// non-wrapping axis omitted.
  std::vector<TileId> neighbours(TileId tile) const override;

  /// routers + 4 link slots per tile + local-in + local-out = 7 * num_tiles.
  std::uint32_t num_resources() const override;
  ResourceId link_resource(TileId src, TileId dst) const override;
  ResourceId local_in_resource(TileId tile) const override;
  ResourceId local_out_resource(TileId tile) const override;
  ResourceInfo describe(ResourceId id) const override;

  Route route(TileId src, TileId dst, RoutingAlgorithm algo) const override;

 protected:
  /// Throws std::invalid_argument unless width >= 1, height >= 1 and
  /// width * height >= 2 (a 1-tile NoC has no communication resources).
  Grid(std::uint32_t width, std::uint32_t height, bool wraps_x, bool wraps_y);

  /// The dihedral symmetries plus, per wrapping axis, all rotations of the
  /// ring (a torus is vertex-transitive along its rings, which collapses the
  /// first-core orbit of exhaustive search dramatically).
  std::vector<std::vector<TileId>> compute_symmetry_maps() const override;

 private:
  /// Signed unit direction (+1, -1 or 0) of the minimal travel from `from`
  /// to `to` along one axis of `size` positions. Ties (even rings) break to
  /// the non-wrap direction, so wrapping is taken only when it pays.
  static int plan_axis(std::int32_t from, std::int32_t to, std::uint32_t size,
                       bool wraps);
  /// One wrap-aware step along an axis of `size` positions.
  static std::int32_t step_axis(std::int32_t pos, int dir, std::uint32_t size,
                                bool wraps);

  bool wraps_x_;
  bool wraps_y_;
};

}  // namespace nocmap::noc
