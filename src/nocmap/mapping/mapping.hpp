#pragma once
/// \file mapping.hpp
/// Core-to-tile mapping: the decision variable of the whole problem.
///
/// A Mapping is an injective association of every application core to a
/// topology tile (some tiles may stay empty when the application has fewer cores than
/// the NoC has tiles). Search engines mutate mappings via swap moves; cost
/// functions read them.

#include <cstdint>
#include <stdexcept>
#include <optional>
#include <string>
#include <vector>

#include "nocmap/graph/cwg.hpp"
#include "nocmap/noc/topology.hpp"
#include "nocmap/util/rng.hpp"

namespace nocmap::mapping {

/// Injective core -> tile assignment over a fixed topology (the mapping
/// only remembers the tile count and grid width; it works for any
/// noc::Topology instance of that shape).
class Mapping {
 public:
  /// An identity-ish initial mapping: core i on tile i.
  /// Throws std::invalid_argument if num_cores > topo.num_tiles().
  Mapping(const noc::Topology& topo, std::size_t num_cores);

  /// A uniformly random injective mapping (the paper's initial state:
  /// "Initially, all cores of C are randomly mapped onto the set of tiles").
  static Mapping random(const noc::Topology& topo, std::size_t num_cores,
                        util::Rng& rng);

  /// Build from an explicit assignment: core i -> core_to_tile[i].
  /// Throws std::invalid_argument if the assignment is not injective or
  /// refers to tiles outside the topology.
  static Mapping from_assignment(const noc::Topology& topo,
                                 const std::vector<noc::TileId>& core_to_tile);

  std::size_t num_cores() const { return core_to_tile_.size(); }
  std::uint32_t num_tiles() const { return num_tiles_; }

  /// Inline: these sit on the hot path of every cost evaluation (the CWM
  /// hop loop and the simulator's bind diff call them per edge / per core).
  noc::TileId tile_of(graph::CoreId core) const {
    if (core >= core_to_tile_.size()) {
      throw std::invalid_argument("Mapping: unknown core id");
    }
    return core_to_tile_[core];
  }
  /// The core mapped on `tile`, or nullopt if the tile is empty.
  std::optional<graph::CoreId> core_on(noc::TileId tile) const {
    if (tile >= num_tiles_) {
      throw std::invalid_argument("Mapping: tile out of range");
    }
    return tile_to_core_[tile];
  }

  /// Swap the contents of two tiles (either may be empty; swapping an empty
  /// tile with an occupied one relocates the core). This is the canonical
  /// simulated-annealing neighbourhood move.
  void swap_tiles(noc::TileId a, noc::TileId b) {
    if (a >= num_tiles_ || b >= num_tiles_) {
      throw std::invalid_argument("Mapping: tile out of range");
    }
    if (a == b) return;
    const std::optional<graph::CoreId> ca = tile_to_core_[a];
    const std::optional<graph::CoreId> cb = tile_to_core_[b];
    tile_to_core_[a] = cb;
    tile_to_core_[b] = ca;
    if (ca) core_to_tile_[*ca] = b;
    if (cb) core_to_tile_[*cb] = a;
  }

  /// Re-point this mapping at an explicit assignment (same validation as
  /// from_assignment), reusing the existing storage — the allocation-free
  /// path exhaustive search uses to materialize candidates.
  void set_assignment(const std::vector<noc::TileId>& core_to_tile);

  /// Internal consistency check (bijectivity between cores and their tiles).
  /// Cheap; used in tests and debug assertions.
  bool is_valid() const;

  /// Compact rendering like "[A@t2 B@t1 ...]" given core names, or tile grid
  /// rendering via to_grid_string().
  std::string to_string() const;

  /// Multi-line grid: one row per topology row, each cell the core index
  /// or '.'.
  std::string to_grid_string() const;

  friend bool operator==(const Mapping& a, const Mapping& b) {
    return a.mesh_width_ == b.mesh_width_ && a.num_tiles_ == b.num_tiles_ &&
           a.core_to_tile_ == b.core_to_tile_;
  }
  friend bool operator!=(const Mapping& a, const Mapping& b) {
    return !(a == b);
  }

 private:
  std::uint32_t mesh_width_;
  std::uint32_t num_tiles_;
  std::vector<noc::TileId> core_to_tile_;
  std::vector<std::optional<graph::CoreId>> tile_to_core_;
};

}  // namespace nocmap::mapping
