#pragma once
/// \file mesh.hpp
/// Regular 2-D mesh NoC topology — the paper's own Communication Resource
/// Graph instance (Definition 3 in Marcon et al., DATE 2005): the grid of
/// grid.hpp with no wrapping axis.
///
/// The mesh keeps the exact id layout and route hop order it had before the
/// Topology abstraction existed, so all mesh results are bit-identical to
/// the pre-refactor era.

#include <cstdint>
#include <string>

#include "nocmap/noc/grid.hpp"

namespace nocmap::noc {

/// A W x H mesh. Immutable after construction.
class Mesh : public Grid {
 public:
  /// Throws std::invalid_argument unless width >= 1, height >= 1 and
  /// width * height >= 2 (a 1-tile NoC has no communication resources).
  Mesh(std::uint32_t width, std::uint32_t height)
      : Grid(width, height, /*wraps_x=*/false, /*wraps_y=*/false) {}

  const char* kind() const override { return "mesh"; }
  /// Bare "WxH" — the historical label, so mesh output never changed when
  /// the Topology abstraction was introduced.
  std::string label() const override {
    return std::to_string(width()) + "x" + std::to_string(height());
  }
};

}  // namespace nocmap::noc
