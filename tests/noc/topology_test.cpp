// Topology-contract tests for the two new instances (Torus, ExpressMesh)
// plus the generic machinery (factory, symmetry maps, resource decoding).
// Routing-specific properties live in topology_routing_test.cpp.

#include "nocmap/noc/topology.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "nocmap/noc/express_mesh.hpp"
#include "nocmap/noc/mesh.hpp"
#include "nocmap/noc/torus.hpp"

namespace nocmap::noc {
namespace {

// --- Factory -----------------------------------------------------------------

TEST(TopologyFactoryTest, MakesAllRegisteredKinds) {
  for (const std::string& kind : topology_kinds()) {
    const auto topo = make_topology(kind, 4, 3);
    ASSERT_NE(topo, nullptr);
    EXPECT_EQ(topo->kind(), kind);
    EXPECT_EQ(topo->width(), 4u);
    EXPECT_EQ(topo->height(), 3u);
  }
}

TEST(TopologyFactoryTest, UnknownKindThrows) {
  EXPECT_THROW(make_topology("ring", 4, 4), std::invalid_argument);
}

TEST(TopologyFactoryTest, ExpressIntervalIsForwarded) {
  TopologyOptions options;
  options.express_interval = 3;
  const auto topo = make_topology("xmesh", 7, 7, options);
  EXPECT_EQ(static_cast<const ExpressMesh&>(*topo).interval(), 3u);
}

TEST(TopologyFactoryTest, LabelsIdentifyInstances) {
  EXPECT_EQ(Mesh(4, 3).label(), "4x3");  // Bare, for historical output.
  EXPECT_EQ(Torus(4, 3).label(), "4x3 torus");
  EXPECT_EQ(ExpressMesh(4, 3, 2).label(), "4x3 xmesh(2)");
}

// --- Torus -------------------------------------------------------------------

TEST(TorusTest, WrapNeighboursOnlyOnDimensionsOfAtLeastThree) {
  const Torus torus(4, 2);
  EXPECT_TRUE(torus.wraps_x());
  EXPECT_FALSE(torus.wraps_y());
  // Tile 0 = (0,0): E -> 1, W -> wrap to 3, S -> 4; N would wrap in a
  // non-wrapping dimension and must be absent.
  const std::vector<TileId> n0 = torus.neighbours(0);
  EXPECT_EQ(n0, (std::vector<TileId>{4, 1, 3}));
  // Tile 3 = (3,0): E wraps to 0.
  const std::vector<TileId> n3 = torus.neighbours(3);
  EXPECT_EQ(n3, (std::vector<TileId>{7, 0, 2}));
}

TEST(TorusTest, DistanceUsesWrapShortcut) {
  const Torus torus(5, 4);
  // (0,0) -> (4,0): 1 wrap hop instead of 4 direct.
  EXPECT_EQ(torus.distance(0, 4), 1u);
  // (0,0) -> (0,3): 1 wrap hop in Y.
  EXPECT_EQ(torus.distance(0, 15), 1u);
  // (0,0) -> (2,2): no shortcut pays (2 + 2).
  EXPECT_EQ(torus.distance(0, 12), 4u);
}

TEST(TorusTest, WrapLinkResourcesAreAllocatedAndDecode) {
  const Torus torus(4, 3);
  // Same id-space size as the mesh layout.
  EXPECT_EQ(torus.num_resources(), 4u * 3u * 7u);
  const ResourceId wrap_east = torus.link_resource(3, 0);
  const ResourceInfo info = torus.describe(wrap_east);
  EXPECT_EQ(info.kind, ResourceKind::kLink);
  EXPECT_EQ(info.tile, 3u);
  EXPECT_EQ(*info.link_dst, 0u);
  EXPECT_EQ(torus.resource_name(wrap_east), "link(t4->t1)");
  // The wrap link is distinct from the direct west link 3 -> 2.
  EXPECT_NE(wrap_east, torus.link_resource(3, 2));
}

TEST(TorusTest, NonWrappingSlotThrowsLikeTheMesh) {
  const Torus torus(4, 2);  // Y does not wrap.
  EXPECT_THROW(torus.link_resource(0, 4 + 4), std::invalid_argument);
  // North slot of tile 0 is unallocated: describe must reject it.
  const ResourceId north_slot = torus.num_tiles() + 0 * 4 + 3;
  EXPECT_THROW(torus.describe(north_slot), std::invalid_argument);
}

TEST(TorusTest, DegenerateTorusHasExactlyTheMeshResources) {
  // Dimensions <= 2 never wrap, so a torus whose dimensions are all <= 2 is
  // mesh-identical resource-for-resource. (A 1-wide torus with a *long*
  // other dimension still wraps that dimension — asserted below.)
  for (const auto [w, h] : {std::pair<std::uint32_t, std::uint32_t>{1, 2},
                            {2, 2}, {2, 1}}) {
    const Mesh mesh(w, h);
    const Torus torus(w, h);
    ASSERT_EQ(torus.num_resources(), mesh.num_resources());
    for (TileId t = 0; t < mesh.num_tiles(); ++t) {
      EXPECT_EQ(torus.neighbours(t), mesh.neighbours(t));
      EXPECT_EQ(torus.local_in_resource(t), mesh.local_in_resource(t));
      EXPECT_EQ(torus.local_out_resource(t), mesh.local_out_resource(t));
      for (TileId u = 0; u < mesh.num_tiles(); ++u) {
        EXPECT_EQ(torus.distance(t, u), mesh.distance(t, u));
      }
    }
    for (ResourceId r = 0; r < mesh.num_resources(); ++r) {  // NOLINT
      ResourceInfo mi{}, ti{};
      bool mesh_throws = false, torus_throws = false;
      try { mi = mesh.describe(r); } catch (const std::invalid_argument&) {
        mesh_throws = true;
      }
      try { ti = torus.describe(r); } catch (const std::invalid_argument&) {
        torus_throws = true;
      }
      ASSERT_EQ(mesh_throws, torus_throws) << "resource " << r;
      if (!mesh_throws) {
        EXPECT_EQ(mi.kind, ti.kind);
        EXPECT_EQ(mi.tile, ti.tile);
        EXPECT_EQ(mi.link_dst, ti.link_dst);
      }
    }
  }
  // A 1-wide torus is NOT mesh-degenerate when its long dimension wraps.
  const Torus ring(1, 6);
  EXPECT_FALSE(ring.wraps_x());
  EXPECT_TRUE(ring.wraps_y());
  EXPECT_EQ(ring.distance(0, 5), 1u);
}

// --- ExpressMesh -------------------------------------------------------------

TEST(ExpressMeshTest, RejectsIntervalBelowTwo) {
  EXPECT_THROW(ExpressMesh(4, 4, 1), std::invalid_argument);
  EXPECT_THROW(ExpressMesh(4, 4, 0), std::invalid_argument);
}

TEST(ExpressMeshTest, EnumeratesAlignedLinksOnly) {
  // 5x5, k=2: horizontal pairs at x in {0, 2} per row (2 * 5 rows), and the
  // same vertically -> 20 bidirectional pairs, 40 directed links.
  const ExpressMesh xm(5, 5, 2);
  EXPECT_EQ(xm.num_express_links(), 40u);
  EXPECT_EQ(xm.num_resources(), 5u * 5u * 7u + 40u);
  // (0,0) -> (2,0) exists in both directions; (1,0) -> (3,0) is unaligned.
  EXPECT_NO_THROW(xm.link_resource(0, 2));
  EXPECT_NO_THROW(xm.link_resource(2, 0));
  EXPECT_THROW(xm.link_resource(1, 3), std::invalid_argument);
  // Express resources decode as links and print like links.
  const ResourceId id = xm.link_resource(0, 2);
  EXPECT_GE(id, 5u * 5u * 7u);
  const ResourceInfo info = xm.describe(id);
  EXPECT_EQ(info.kind, ResourceKind::kLink);
  EXPECT_EQ(info.tile, 0u);
  EXPECT_EQ(*info.link_dst, 2u);
  EXPECT_EQ(xm.resource_name(id), "link(t1->t3)");
}

TEST(ExpressMeshTest, MeshResourceIdsAreUnchanged) {
  const ExpressMesh xm(4, 4, 2);
  const Mesh mesh(4, 4);
  for (TileId t = 0; t < mesh.num_tiles(); ++t) {
    EXPECT_EQ(xm.router_resource(t), mesh.router_resource(t));
    EXPECT_EQ(xm.local_in_resource(t), mesh.local_in_resource(t));
    EXPECT_EQ(xm.local_out_resource(t), mesh.local_out_resource(t));
    for (TileId u : mesh.neighbours(t)) {
      EXPECT_EQ(xm.link_resource(t, u), mesh.link_resource(t, u));
    }
  }
}

TEST(ExpressMeshTest, DistanceTakesExpressHops) {
  const ExpressMesh xm(9, 1, 4);
  // 0 -> 8: two express hops.
  EXPECT_EQ(xm.distance(0, 8), 2u);
  // 1 -> 8: walk 1..4 (3 unit hops), express 4 -> 8 (monotone optimum 4;
  // the non-monotone 1 -> 0 -> 4 -> 8 three-hop path is deliberately not
  // taken).
  EXPECT_EQ(xm.distance(1, 8), 4u);
  // Backward direction is symmetric.
  EXPECT_EQ(xm.distance(8, 1), 4u);
}

TEST(ExpressMeshTest, WithoutFittingLinksEqualsMesh) {
  const ExpressMesh xm(3, 3, 4);  // k > max dimension - 1: no links fit.
  const Mesh mesh(3, 3);
  EXPECT_EQ(xm.num_express_links(), 0u);
  EXPECT_EQ(xm.num_resources(), mesh.num_resources());
  for (TileId t = 0; t < mesh.num_tiles(); ++t) {
    EXPECT_EQ(xm.neighbours(t), mesh.neighbours(t));
    for (TileId u = 0; u < mesh.num_tiles(); ++u) {
      EXPECT_EQ(xm.distance(t, u), mesh.distance(t, u));
    }
  }
}

// --- Symmetry maps -----------------------------------------------------------

// Every reported map must be a permutation that preserves the distance
// metric — that is what exhaustive search relies on for exact CWM pruning.
void check_symmetries(const Topology& topo, std::size_t expected_count) {
  const auto maps = topo.symmetry_maps();
  EXPECT_EQ(maps.size(), expected_count) << topo.label();
  ASSERT_FALSE(maps.empty());
  // Identity is always present.
  bool has_identity = false;
  for (const auto& map : maps) {
    std::set<TileId> image(map.begin(), map.end());
    ASSERT_EQ(image.size(), topo.num_tiles()) << topo.label();
    bool identity = true;
    for (TileId t = 0; t < topo.num_tiles(); ++t) identity &= (map[t] == t);
    has_identity |= identity;
    for (TileId a = 0; a < topo.num_tiles(); ++a) {
      for (TileId b = 0; b < topo.num_tiles(); ++b) {
        ASSERT_EQ(topo.distance(map[a], map[b]), topo.distance(a, b))
            << topo.label() << " pair " << a << "->" << b;
      }
    }
  }
  EXPECT_TRUE(has_identity);
}

TEST(TopologySymmetryTest, MeshKeepsItsHistoricalGroup) {
  check_symmetries(Mesh(4, 3), 4);  // Rectangular: identity + flips.
  check_symmetries(Mesh(3, 3), 8);  // Square: full dihedral group.
}

TEST(TopologySymmetryTest, TorusAddsRingRotations) {
  // 4x3: 4 dihedral maps x 4 X-rotations x 3 Y-rotations.
  check_symmetries(Torus(4, 3), 4u * 4u * 3u);
  // 3x3 square: 8 dihedral maps x 9 translations.
  check_symmetries(Torus(3, 3), 8u * 9u);
  // Degenerate 2x2 torus is a mesh and keeps the mesh group.
  check_symmetries(Torus(2, 2), 8);
}

TEST(TopologySymmetryTest, ExpressMeshKeepsOnlyLinkPreservingMaps) {
  // 5x5, k=2: (W-1) % k == 0, so the express pattern is reflection- and
  // transpose-symmetric: the full dihedral group survives.
  check_symmetries(ExpressMesh(5, 5, 2), 8);
  // 4x4, k=2: reflections move the aligned columns (0, 2) onto (1, 3),
  // which carry no links — only maps fixing the pattern survive. The
  // automorphism filter must reject the rest and keep at least identity
  // and the transpose.
  const auto maps = ExpressMesh(4, 4, 2).symmetry_maps();
  EXPECT_EQ(maps.size(), 2u);
  check_symmetries(ExpressMesh(4, 4, 2), 2);
}

// --- Symmetry-map cache ------------------------------------------------------
//
// symmetry_maps() is queried repeatedly by the Explorer's ES-auto estimate
// and by every search engine's first-tile collapse; the maps are computed
// once per instance and cached.

TEST(TopologySymmetryTest, SymmetryMapsAreCachedPerInstance) {
  for (const std::string& kind : topology_kinds()) {
    const auto topo = make_topology(kind, 4, 3);
    const auto& first = topo->symmetry_maps();
    const auto& second = topo->symmetry_maps();
    // Same object, not merely equal contents: the cache hands out the one
    // computed vector.
    EXPECT_EQ(&first, &second) << kind;
    EXPECT_EQ(first, second) << kind;
  }
}

TEST(TopologySymmetryTest, CacheSurvivesCopyWithIdenticalMaps) {
  const Torus original(4, 3);
  const auto& computed = original.symmetry_maps();
  const Torus copy(original);       // Copies a warm cache.
  const Torus fresh = [] { return Torus(4, 3); }();  // Cold cache.
  EXPECT_EQ(copy.symmetry_maps(), computed);
  EXPECT_EQ(fresh.symmetry_maps(), computed);
  // The copy owns its storage; it must not alias the source's cache.
  EXPECT_NE(&copy.symmetry_maps(), &original.symmetry_maps());
}

// --- Pinned grids ------------------------------------------------------------
//
// Everything the models read from a topology, folded into one 64-bit value
// per board: the resource id space, every tile's neighbours with their link
// ids and local links, all-pairs distances, all-pairs routes under every
// algorithm, the decoding of every id (plus two past the end) and the
// symmetry maps. The values were computed before Mesh and Torus shared one
// implementation, so any change to an id, a route or a map shows here.

class Fold {
 public:
  void add(std::uint64_t v) {
    // SplitMix64's finaliser over the running state: order-sensitive and
    // well mixed, so a moved or swapped value changes the digest.
    std::uint64_t z = (h_ ^ v) + 0x9E3779B97F4A7C15ULL;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    h_ = z ^ (z >> 31);
  }
  void add_all(const std::vector<TileId>& values) {
    add(values.size());
    for (const TileId v : values) add(v);
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0;
};

std::uint64_t grid_digest(const Topology& topo) {
  constexpr std::uint64_t kThrew = ~std::uint64_t{0};
  constexpr std::uint64_t kNoLinkDst = kThrew - 1;
  Fold fold;
  const std::uint32_t n = topo.num_tiles();
  fold.add(topo.num_resources());
  for (TileId t = 0; t < n; ++t) {
    const std::vector<TileId> neighbours = topo.neighbours(t);
    fold.add_all(neighbours);
    for (const TileId u : neighbours) fold.add(topo.link_resource(t, u));
    fold.add(topo.local_in_resource(t));
    fold.add(topo.local_out_resource(t));
  }
  for (TileId a = 0; a < n; ++a) {
    for (TileId b = 0; b < n; ++b) fold.add(topo.distance(a, b));
  }
  for (const RoutingAlgorithm algo :
       {RoutingAlgorithm::kXY, RoutingAlgorithm::kYX,
        RoutingAlgorithm::kWestFirst, RoutingAlgorithm::kOddEven}) {
    for (TileId a = 0; a < n; ++a) {
      for (TileId b = 0; b < n; ++b) {
        const Route r = topo.route(a, b, algo);
        fold.add_all(r.routers);
        fold.add_all(r.links);
      }
    }
  }
  for (ResourceId id = 0; id < topo.num_resources() + 2; ++id) {
    try {
      const ResourceInfo info = topo.describe(id);
      fold.add(static_cast<std::uint64_t>(info.kind));
      fold.add(info.tile);
      fold.add(info.link_dst ? *info.link_dst : kNoLinkDst);
    } catch (const std::invalid_argument&) {
      fold.add(kThrew);
    }
  }
  const auto& maps = topo.symmetry_maps();
  fold.add(maps.size());
  for (const std::vector<TileId>& map : maps) fold.add_all(map);
  return fold.value();
}

struct PinnedGrid {
  const char* kind;
  std::uint32_t width;
  std::uint32_t height;
  std::uint64_t digest;
};

// xmesh uses make_topology's default express interval (2) and is pinned only
// on boards of at least four tiles.
constexpr PinnedGrid kPinnedGrids[] = {
    {"mesh", 1, 2, 0xe1e5937aed13ffd9ULL},
    {"mesh", 2, 1, 0xe6766fb2c1afe20bULL},
    {"mesh", 2, 2, 0xa41b46910d3f0217ULL},
    {"mesh", 3, 2, 0xc1e0a12d8f1ecfc8ULL},
    {"mesh", 2, 3, 0xfb4d1ae735626df2ULL},
    {"mesh", 1, 6, 0x93a4956aeaa9e483ULL},
    {"mesh", 6, 1, 0x1354ba85eb73d7d1ULL},
    {"mesh", 3, 3, 0xf211b7e0484f6f59ULL},
    {"mesh", 2, 5, 0xbef27f8645bf48ccULL},
    {"mesh", 3, 4, 0x9cd05dfa6bed790fULL},
    {"mesh", 4, 3, 0x5f0805bd28d97747ULL},
    {"mesh", 4, 4, 0xe46f4521f087318cULL},
    {"mesh", 5, 3, 0xad9d15d8f2b7b477ULL},
    {"mesh", 8, 8, 0x6f7b96a69c9af653ULL},
    {"mesh", 10, 10, 0xebe840b1724d62f7ULL},
    {"mesh", 12, 10, 0x50221ca88e99bdc4ULL},
    {"torus", 1, 2, 0xe1e5937aed13ffd9ULL},
    {"torus", 2, 1, 0xe6766fb2c1afe20bULL},
    {"torus", 2, 2, 0xa41b46910d3f0217ULL},
    {"torus", 3, 2, 0xab224c1a380ba9bULL},
    {"torus", 2, 3, 0xdb3cfd1695f1fbf3ULL},
    {"torus", 1, 6, 0xe49e5ae31f94505ULL},
    {"torus", 6, 1, 0xa92a5898b689f863ULL},
    {"torus", 3, 3, 0x2933f46ef5872473ULL},
    {"torus", 2, 5, 0xfa121c4409e1477bULL},
    {"torus", 3, 4, 0x5cbfde6d7c05ef0cULL},
    {"torus", 4, 3, 0x24e0a92069f985a6ULL},
    {"torus", 4, 4, 0x93a05593e64e9fd7ULL},
    {"torus", 5, 3, 0xe08f42cc50a2615aULL},
    {"torus", 8, 8, 0x5009afd45065b2e0ULL},
    {"torus", 10, 10, 0x9777dbf633b204c7ULL},
    {"torus", 12, 10, 0xcf936ec6d5b68e6cULL},
    {"xmesh", 2, 2, 0xa41b46910d3f0217ULL},
    {"xmesh", 3, 2, 0xc01ab76e2b07ebd2ULL},
    {"xmesh", 2, 3, 0x196841b07d520e8dULL},
    {"xmesh", 1, 6, 0xc6bb7c174646e432ULL},
    {"xmesh", 6, 1, 0xac2c0487f3b09728ULL},
    {"xmesh", 3, 3, 0x2205ad4ae133a42aULL},
    {"xmesh", 2, 5, 0x1982f4a53e609b5fULL},
    {"xmesh", 3, 4, 0xa9015d2dce29169eULL},
    {"xmesh", 4, 3, 0xfd370ead939c204ULL},
    {"xmesh", 4, 4, 0x4906fa7755240937ULL},
    {"xmesh", 5, 3, 0x46f639c13bbf3159ULL},
    {"xmesh", 8, 8, 0x21d63379f84d7163ULL},
    {"xmesh", 10, 10, 0xdff312b069211a22ULL},
    {"xmesh", 12, 10, 0xa93000319831bb6fULL},
};

TEST(TopologyPinTest, GridsMatchTheirPinnedDigests) {
  for (const PinnedGrid& pin : kPinnedGrids) {
    const auto topo = make_topology(pin.kind, pin.width, pin.height);
    EXPECT_EQ(grid_digest(*topo), pin.digest)
        << "{\"" << pin.kind << "\", " << pin.width << ", " << pin.height
        << ", 0x" << std::hex << grid_digest(*topo) << "ULL},";
  }
}

}  // namespace
}  // namespace nocmap::noc
