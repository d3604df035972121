// Routing properties across every (topology, algorithm) combination:
//
//  * minimality — route length == Topology::distance() + 1 routers, the
//    per-algorithm guarantee documented in routing.hpp;
//  * contiguity, endpoints and determinism;
//  * RouteTable equivalence against compute_route() for all new pairs;
//  * odd-even turn-model legality on the mesh;
//  * torus wrap shortcuts and degenerate-torus route equality.

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <ostream>
#include <string>
#include <tuple>
#include <vector>

#include "nocmap/noc/express_mesh.hpp"
#include "nocmap/noc/mesh.hpp"
#include "nocmap/noc/route_table.hpp"
#include "nocmap/noc/routing.hpp"
#include "nocmap/noc/topology.hpp"
#include "nocmap/noc/torus.hpp"

namespace nocmap::noc {
namespace {

constexpr RoutingAlgorithm kAllAlgorithms[] = {
    RoutingAlgorithm::kXY, RoutingAlgorithm::kYX, RoutingAlgorithm::kWestFirst,
    RoutingAlgorithm::kOddEven};

struct TopoCase {
  std::string name;
  std::function<std::unique_ptr<Topology>()> make;
};

// gtest would otherwise print the case as raw bytes, heap pointers included,
// and the test names listed from them would change from build to build.
void PrintTo(const TopoCase& c, std::ostream* os) { *os << c.name; }

std::vector<TopoCase> all_topologies() {
  return {
      {"mesh_4x4", [] { return std::make_unique<Mesh>(4, 4); }},
      {"mesh_5x3", [] { return std::make_unique<Mesh>(5, 3); }},
      {"torus_4x4", [] { return std::make_unique<Torus>(4, 4); }},
      {"torus_5x3", [] { return std::make_unique<Torus>(5, 3); }},
      {"torus_1x6", [] { return std::make_unique<Torus>(1, 6); }},
      {"xmesh_5x5_k2", [] { return std::make_unique<ExpressMesh>(5, 5, 2); }},
      {"xmesh_7x4_k3", [] { return std::make_unique<ExpressMesh>(7, 4, 3); }},
      {"xmesh_9x2_k4", [] { return std::make_unique<ExpressMesh>(9, 2, 4); }},
  };
}

class TopologyRoutingTest : public ::testing::TestWithParam<TopoCase> {};

// The per-algorithm minimality guarantee of routing.hpp, asserted for every
// (topology, algorithm) pair: route length equals the topology distance.
TEST_P(TopologyRoutingTest, RoutesAreMinimalContiguousAndDeterministic) {
  const auto topo = GetParam().make();
  for (const RoutingAlgorithm algo : kAllAlgorithms) {
    for (TileId src = 0; src < topo->num_tiles(); ++src) {
      for (TileId dst = 0; dst < topo->num_tiles(); ++dst) {
        const Route r = compute_route(*topo, src, dst, algo);
        ASSERT_EQ(r.num_routers(), topo->distance(src, dst) + 1)
            << GetParam().name << " " << routing_algorithm_name(algo) << " "
            << src << "->" << dst;
        ASSERT_EQ(r.links.size(), r.routers.size() - 1);
        ASSERT_EQ(r.routers.front(), src);
        ASSERT_EQ(r.routers.back(), dst);
        // Contiguity: link_resource throws unless the tiles are adjacent.
        for (std::size_t i = 0; i + 1 < r.routers.size(); ++i) {
          ASSERT_EQ(r.links[i],
                    topo->link_resource(r.routers[i], r.routers[i + 1]));
        }
        const Route again = compute_route(*topo, src, dst, algo);
        ASSERT_EQ(r.routers, again.routers);
        ASSERT_EQ(r.links, again.links);
      }
    }
  }
}

// RouteTable must match the reference implementation byte for byte on every
// new (topology, routing) combination, exactly as it does on the mesh.
TEST_P(TopologyRoutingTest, RouteTableMatchesComputeRoute) {
  const auto topo = GetParam().make();
  for (const RoutingAlgorithm algo : kAllAlgorithms) {
    const RouteTable table(*topo, algo);
    ASSERT_EQ(table.num_tiles(), topo->num_tiles());
    for (TileId src = 0; src < topo->num_tiles(); ++src) {
      for (TileId dst = 0; dst < topo->num_tiles(); ++dst) {
        const Route expected = compute_route(*topo, src, dst, algo);
        ASSERT_EQ(table.hops(src, dst), expected.num_routers())
            << GetParam().name << " " << routing_algorithm_name(algo);
        ASSERT_EQ(table.route(src, dst).routers, expected.routers);
        ASSERT_EQ(table.route(src, dst).links, expected.links);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllTopologies, TopologyRoutingTest, ::testing::ValuesIn(all_topologies()),
    [](const ::testing::TestParamInfo<TopoCase>& info) {
      return info.param.name;
    });

// --- Odd-even turn-model legality -------------------------------------------

TEST(OddEvenRoutingTest, ForbiddenTurnsNeverHappenOnTheMesh) {
  // Chiu's rules: no EN/ES turn at a tile in an even column, no NW/SW turn
  // at a tile in an odd column (E = +x, N = -y in our coordinates).
  for (const auto [w, h] : {std::pair<std::uint32_t, std::uint32_t>{5, 4},
                            {4, 5}, {6, 6}}) {
    const Mesh mesh(w, h);
    for (TileId src = 0; src < mesh.num_tiles(); ++src) {
      for (TileId dst = 0; dst < mesh.num_tiles(); ++dst) {
        const Route r =
            compute_route(mesh, src, dst, RoutingAlgorithm::kOddEven);
        for (std::size_t i = 2; i < r.routers.size(); ++i) {
          const Coord a = mesh.coord(r.routers[i - 2]);
          const Coord b = mesh.coord(r.routers[i - 1]);
          const Coord c = mesh.coord(r.routers[i]);
          const bool in_east = (b.x == a.x + 1);
          const bool in_west = (b.x == a.x - 1);
          const bool out_vertical = (c.x == b.x);
          const bool even_column = (b.x % 2 == 0);
          if (in_east && out_vertical) {
            ASSERT_FALSE(even_column)
                << "EN/ES turn in even column at tile " << r.routers[i - 1];
          }
          const bool in_vertical = (b.x == a.x);
          const bool out_west = (c.x == b.x - 1);
          if (in_vertical && out_west && a != b) {
            ASSERT_TRUE(even_column)
                << "NW/SW turn in odd column at tile " << r.routers[i - 1];
          }
          (void)in_west;
        }
      }
    }
  }
}

// --- Torus specifics ---------------------------------------------------------

TEST(TorusRoutingTest, WrapShortcutIsTaken) {
  const Torus torus(5, 1);
  // (0,0) -> (4,0) is one wrap hop west.
  const Route r = compute_route(torus, 0, 4, RoutingAlgorithm::kXY);
  EXPECT_EQ(r.routers, (std::vector<TileId>{0, 4}));
  EXPECT_EQ(r.links[0], torus.link_resource(0, 4));
  // (0,0) -> (2,0): direct east, no wrap (tie-free case).
  const Route direct = compute_route(torus, 0, 2, RoutingAlgorithm::kXY);
  EXPECT_EQ(direct.routers, (std::vector<TileId>{0, 1, 2}));
}

TEST(TorusRoutingTest, TieBreaksToTheMeshDirection) {
  // On an even ring both directions cost the same; the non-wrapping (mesh)
  // direction must win so results degrade gracefully to the mesh.
  const Torus torus(4, 1);
  const Route r = compute_route(torus, 0, 2, RoutingAlgorithm::kXY);
  EXPECT_EQ(r.routers, (std::vector<TileId>{0, 1, 2}));
  const Route back = compute_route(torus, 2, 0, RoutingAlgorithm::kXY);
  EXPECT_EQ(back.routers, (std::vector<TileId>{2, 1, 0}));
}

TEST(TorusRoutingTest, DegenerateTorusRoutesEqualMeshRoutes) {
  // Wrap disabled by size (every dimension <= 2): every route (routers
  // *and* resource ids) must be byte-identical to the mesh's, for every
  // algorithm.
  for (const auto [w, h] : {std::pair<std::uint32_t, std::uint32_t>{1, 2},
                            {2, 1}, {2, 2}}) {
    const Mesh mesh(w, h);
    const Torus torus(w, h);
    for (const RoutingAlgorithm algo : kAllAlgorithms) {
      for (TileId src = 0; src < mesh.num_tiles(); ++src) {
        for (TileId dst = 0; dst < mesh.num_tiles(); ++dst) {
          const Route m = compute_route(mesh, src, dst, algo);
          const Route t = compute_route(torus, src, dst, algo);
          ASSERT_EQ(m.routers, t.routers)
              << w << "x" << h << " " << routing_algorithm_name(algo);
          ASSERT_EQ(m.links, t.links)
              << w << "x" << h << " " << routing_algorithm_name(algo);
        }
      }
    }
  }
}

// --- ExpressMesh specifics ---------------------------------------------------

TEST(ExpressRoutingTest, ExpressHopsAreTakenGreedily) {
  const ExpressMesh xm(9, 1, 4);
  // 0 -> 8: express 0->4->8.
  const Route r = compute_route(xm, 0, 8, RoutingAlgorithm::kXY);
  EXPECT_EQ(r.routers, (std::vector<TileId>{0, 4, 8}));
  // 1 -> 8: unit walk to 4, express to 8 (monotone).
  const Route r2 = compute_route(xm, 1, 8, RoutingAlgorithm::kXY);
  EXPECT_EQ(r2.routers, (std::vector<TileId>{1, 2, 3, 4, 8}));
  // 8 -> 1: express back to 4, then units.
  const Route r3 = compute_route(xm, 8, 1, RoutingAlgorithm::kXY);
  EXPECT_EQ(r3.routers, (std::vector<TileId>{8, 4, 3, 2, 1}));
  // 0 -> 3: a jump to 4 would overshoot; units only.
  const Route r4 = compute_route(xm, 0, 3, RoutingAlgorithm::kXY);
  EXPECT_EQ(r4.routers, (std::vector<TileId>{0, 1, 2, 3}));
}

TEST(ExpressRoutingTest, NoFittingLinksMeansMeshRoutes) {
  const Mesh mesh(3, 3);
  const ExpressMesh xm(3, 3, 4);
  for (const RoutingAlgorithm algo : kAllAlgorithms) {
    for (TileId src = 0; src < mesh.num_tiles(); ++src) {
      for (TileId dst = 0; dst < mesh.num_tiles(); ++dst) {
        const Route m = compute_route(mesh, src, dst, algo);
        const Route x = compute_route(xm, src, dst, algo);
        ASSERT_EQ(m.routers, x.routers);
        ASSERT_EQ(m.links, x.links);
      }
    }
  }
}

}  // namespace
}  // namespace nocmap::noc
