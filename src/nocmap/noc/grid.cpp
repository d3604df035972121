#include "nocmap/noc/grid.hpp"

#include <cmath>
#include <stdexcept>

#include "nocmap/noc/routing.hpp"

namespace nocmap::noc {

namespace {

// Direction slot encoding for link resources.
enum Dir : std::uint32_t { kEast = 0, kWest = 1, kSouth = 2, kNorth = 3 };

std::uint32_t ring_distance(std::int32_t a, std::int32_t b, std::uint32_t size,
                            bool wraps) {
  const std::uint32_t direct = static_cast<std::uint32_t>(std::abs(a - b));
  if (!wraps) return direct;
  return std::min(direct, size - direct);
}

}  // namespace

Grid::Grid(std::uint32_t width, std::uint32_t height, bool wraps_x,
           bool wraps_y)
    : Topology(width, height), wraps_x_(wraps_x), wraps_y_(wraps_y) {}

std::uint32_t Grid::distance(TileId a, TileId b) const {
  const Coord ca = coord(a);
  const Coord cb = coord(b);
  return ring_distance(ca.x, cb.x, width(), wraps_x()) +
         ring_distance(ca.y, cb.y, height(), wraps_y());
}

std::vector<TileId> Grid::neighbours(TileId tile) const {
  const Coord c = coord(tile);
  std::vector<TileId> out;
  // N, S, E, W; wrap a candidate instead of dropping it when its axis is a
  // ring.
  const std::pair<Coord, bool> candidates[] = {
      {{c.x, c.y - 1}, false}, {{c.x, c.y + 1}, false},
      {{c.x + 1, c.y}, true},  {{c.x - 1, c.y}, true}};
  for (const auto& [cand, x_axis] : candidates) {
    if (contains(cand)) {
      out.push_back(tile_at(cand));
    } else if (x_axis ? wraps_x() : wraps_y()) {
      Coord wrapped = cand;
      const std::int32_t w = static_cast<std::int32_t>(width());
      const std::int32_t h = static_cast<std::int32_t>(height());
      wrapped.x = (wrapped.x + w) % w;
      wrapped.y = (wrapped.y + h) % h;
      out.push_back(tile_at(wrapped));
    }
  }
  return out;
}

std::uint32_t Grid::num_resources() const {
  return num_tiles() * 7;
}

ResourceId Grid::link_resource(TileId src, TileId dst) const {
  const Coord cs = coord(src);
  const Coord cd = coord(dst);
  const std::int32_t w = static_cast<std::int32_t>(width());
  const std::int32_t h = static_cast<std::int32_t>(height());
  std::uint32_t dir;
  if (cd.y == cs.y &&
      (cd.x == cs.x + 1 || (wraps_x() && cs.x == w - 1 && cd.x == 0))) {
    dir = kEast;
  } else if (cd.y == cs.y &&
             (cd.x == cs.x - 1 || (wraps_x() && cs.x == 0 && cd.x == w - 1))) {
    dir = kWest;
  } else if (cd.x == cs.x &&
             (cd.y == cs.y + 1 || (wraps_y() && cs.y == h - 1 && cd.y == 0))) {
    dir = kSouth;
  } else if (cd.x == cs.x &&
             (cd.y == cs.y - 1 || (wraps_y() && cs.y == 0 && cd.y == h - 1))) {
    dir = kNorth;
  } else {
    throw std::invalid_argument("Grid: tiles are not adjacent");
  }
  return num_tiles() + src * 4 + dir;
}

ResourceId Grid::local_in_resource(TileId tile) const {
  if (tile >= num_tiles()) {
    throw std::invalid_argument("Grid: tile out of range");
  }
  return num_tiles() * 5 + tile;
}

ResourceId Grid::local_out_resource(TileId tile) const {
  if (tile >= num_tiles()) {
    throw std::invalid_argument("Grid: tile out of range");
  }
  return num_tiles() * 6 + tile;
}

ResourceInfo Grid::describe(ResourceId id) const {
  const std::uint32_t n = num_tiles();
  if (id < n) {
    return ResourceInfo{ResourceKind::kRouter, id, std::nullopt};
  }
  if (id < n * 5) {
    const std::uint32_t slot = id - n;
    const TileId src = slot / 4;
    const std::uint32_t dir = slot % 4;
    Coord cd = coord(src);
    bool x_axis = true;
    switch (dir) {
      case kEast: cd.x += 1; break;
      case kWest: cd.x -= 1; break;
      case kSouth: cd.y += 1; x_axis = false; break;
      case kNorth: cd.y -= 1; x_axis = false; break;
      default: break;
    }
    if (!contains(cd)) {
      if (!(x_axis ? wraps_x() : wraps_y())) {
        throw std::invalid_argument(
            "Grid: link slot points outside a non-wrapping dimension");
      }
      const std::int32_t w = static_cast<std::int32_t>(width());
      const std::int32_t h = static_cast<std::int32_t>(height());
      cd.x = (cd.x + w) % w;
      cd.y = (cd.y + h) % h;
    }
    return ResourceInfo{ResourceKind::kLink, src, tile_at(cd)};
  }
  if (id < n * 6) {
    return ResourceInfo{ResourceKind::kLocalIn, id - n * 5, std::nullopt};
  }
  if (id < n * 7) {
    return ResourceInfo{ResourceKind::kLocalOut, id - n * 6, std::nullopt};
  }
  throw std::invalid_argument("Grid: resource id out of range");
}

int Grid::plan_axis(std::int32_t from, std::int32_t to, std::uint32_t size,
                    bool wraps) {
  if (from == to) return 0;
  const int direct_dir = to > from ? 1 : -1;
  if (!wraps) return direct_dir;
  const std::uint32_t fwd = static_cast<std::uint32_t>(
      (to - from + static_cast<std::int32_t>(size)) %
      static_cast<std::int32_t>(size));
  const std::uint32_t bwd = size - fwd;
  if (fwd < bwd) return 1;
  if (bwd < fwd) return -1;
  // Tie (even ring): take the non-wrapping direction, for determinism and so
  // wrapping is taken only when it pays.
  return direct_dir;
}

std::int32_t Grid::step_axis(std::int32_t pos, int dir, std::uint32_t size,
                             bool wraps) {
  pos += dir;
  if (wraps) {
    pos = (pos + static_cast<std::int32_t>(size)) %
          static_cast<std::int32_t>(size);
  }
  return pos;
}

Route Grid::route(TileId src, TileId dst, RoutingAlgorithm algo) const {
  if (src >= num_tiles() || dst >= num_tiles()) {
    throw std::invalid_argument("compute_route: tile out of range");
  }
  const Coord s = coord(src);
  const Coord target = coord(dst);
  const int x_dir = plan_axis(s.x, target.x, width(), wraps_x());
  const int y_dir = plan_axis(s.y, target.y, height(), wraps_y());
  return dimension_ordered_route(
      src, dst, algo, x_dir,
      [&](std::int32_t x) { return step_axis(x, x_dir, width(), wraps_x()); },
      [&](std::int32_t y) {
        return step_axis(y, y_dir, height(), wraps_y());
      });
}

std::vector<std::vector<TileId>> Grid::compute_symmetry_maps() const {
  // Dihedral candidates composed with every ring rotation of each wrapping
  // axis; keep_automorphisms() then discards anything that is not a genuine
  // symmetry (rotations of a non-wrapping axis are never generated, and
  // reflections always survive).
  const std::int32_t w = static_cast<std::int32_t>(width());
  const std::int32_t h = static_cast<std::int32_t>(height());
  const std::int32_t max_tx = wraps_x() ? w : 1;
  const std::int32_t max_ty = wraps_y() ? h : 1;
  std::vector<std::vector<TileId>> candidates;
  for (const std::vector<TileId>& base : dihedral_candidates()) {
    for (std::int32_t ty = 0; ty < max_ty; ++ty) {
      for (std::int32_t tx = 0; tx < max_tx; ++tx) {
        std::vector<TileId> map(num_tiles());
        for (TileId t = 0; t < num_tiles(); ++t) {
          Coord c = coord(base[t]);
          c.x = (c.x + tx) % w;
          c.y = (c.y + ty) % h;
          map[t] = tile_at(c);
        }
        candidates.push_back(std::move(map));
      }
    }
  }
  return keep_automorphisms(std::move(candidates));
}

}  // namespace nocmap::noc
