#pragma once
/// \file torus.hpp
/// 2-D torus NoC topology: the grid of grid.hpp with every axis of size
/// >= 3 closed into a ring by a pair of directed wrap links.
///
/// Axes of size 1 or 2 deliberately stay mesh-like: a 1-wide ring has no
/// second tile to wrap to, and a 2-wide ring's wrap link would merely
/// duplicate the existing direct link — so a Torus whose dimensions are all
/// <= 2 is resource-for-resource and route-for-route identical to the Mesh
/// of the same size (tested).

#include <cstdint>

#include "nocmap/noc/grid.hpp"

namespace nocmap::noc {

/// A W x H torus. Immutable after construction.
class Torus : public Grid {
 public:
  /// Throws std::invalid_argument unless width >= 1, height >= 1 and
  /// width * height >= 2.
  Torus(std::uint32_t width, std::uint32_t height)
      : Grid(width, height, width >= 3, height >= 3) {}

  const char* kind() const override { return "torus"; }
};

}  // namespace nocmap::noc
