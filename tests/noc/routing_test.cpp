#include "nocmap/noc/mesh.hpp"
#include "nocmap/noc/routing.hpp"

#include <gtest/gtest.h>

#include <tuple>

namespace nocmap::noc {
namespace {

TEST(RoutingTest, TrivialRoute) {
  const Mesh mesh(3, 3);
  const Route r = compute_route(mesh, 4, 4);
  EXPECT_EQ(r.num_routers(), 1u);
  EXPECT_TRUE(r.links.empty());
}

TEST(RoutingTest, XYGoesXThenY) {
  const Mesh mesh(3, 3);
  // From (0,0) to (2,2): expect 0 -> 1 -> 2 -> 5 -> 8.
  const Route r = compute_route(mesh, 0, 8, RoutingAlgorithm::kXY);
  EXPECT_EQ(r.routers, (std::vector<TileId>{0, 1, 2, 5, 8}));
}

TEST(RoutingTest, YXGoesYThenX) {
  const Mesh mesh(3, 3);
  // From (0,0) to (2,2): expect 0 -> 3 -> 6 -> 7 -> 8.
  const Route r = compute_route(mesh, 0, 8, RoutingAlgorithm::kYX);
  EXPECT_EQ(r.routers, (std::vector<TileId>{0, 3, 6, 7, 8}));
}

TEST(RoutingTest, WestFirstRoutesWestBeforeY) {
  const Mesh mesh(3, 3);
  // From (2,0) to (0,2): west first: 2 -> 1 -> 0, then south: 3 -> 6.
  const Route r = compute_route(mesh, 2, 6, RoutingAlgorithm::kWestFirst);
  EXPECT_EQ(r.routers, (std::vector<TileId>{2, 1, 0, 3, 6}));
  // Eastbound destination: degenerates to Y-then-X.
  const Route east = compute_route(mesh, 0, 8, RoutingAlgorithm::kWestFirst);
  EXPECT_EQ(east.routers, (std::vector<TileId>{0, 3, 6, 7, 8}));
}

TEST(RoutingTest, PaperExampleRouteThroughT1) {
  // Figure 3(a): A on t2 (tile 1) to F on t3 (tile 2) routes X-first through
  // t1 (tile 0): K = 3 routers.
  const Mesh mesh(2, 2);
  const Route r = compute_route(mesh, 1, 2, RoutingAlgorithm::kXY);
  EXPECT_EQ(r.routers, (std::vector<TileId>{1, 0, 2}));
}

TEST(RoutingTest, OutOfRangeThrows) {
  const Mesh mesh(2, 2);
  EXPECT_THROW(compute_route(mesh, 0, 4), std::invalid_argument);
  EXPECT_THROW(compute_route(mesh, 4, 0), std::invalid_argument);
}

TEST(RoutingTest, AlgorithmNames) {
  EXPECT_STREQ(routing_algorithm_name(RoutingAlgorithm::kXY), "XY");
  EXPECT_STREQ(routing_algorithm_name(RoutingAlgorithm::kYX), "YX");
  EXPECT_STREQ(routing_algorithm_name(RoutingAlgorithm::kWestFirst),
               "west-first");
}

// --- Property sweep over all pairs on several meshes and all algorithms ----

using RouteCase = std::tuple<std::uint32_t, std::uint32_t, RoutingAlgorithm>;

class RoutePropertyTest : public ::testing::TestWithParam<RouteCase> {};

TEST_P(RoutePropertyTest, RoutesAreMinimalContiguousAndDeterministic) {
  const auto [w, h, algo] = GetParam();
  const Mesh mesh(w, h);
  for (TileId src = 0; src < mesh.num_tiles(); ++src) {
    for (TileId dst = 0; dst < mesh.num_tiles(); ++dst) {
      const Route r = compute_route(mesh, src, dst, algo);
      // Minimal length: manhattan distance + 1 routers.
      ASSERT_EQ(r.num_routers(), mesh.distance(src, dst) + 1);
      ASSERT_EQ(r.links.size(), r.routers.size() - 1);
      ASSERT_EQ(r.routers.front(), src);
      ASSERT_EQ(r.routers.back(), dst);
      // Contiguity: each link connects consecutive routers (link_resource
      // throws if not adjacent).
      for (std::size_t i = 0; i + 1 < r.routers.size(); ++i) {
        ASSERT_EQ(r.links[i],
                  mesh.link_resource(r.routers[i], r.routers[i + 1]));
      }
      // Determinism.
      const Route again = compute_route(mesh, src, dst, algo);
      ASSERT_EQ(r.routers, again.routers);
    }
  }
}

TEST_P(RoutePropertyTest, XYRoutesHaveAtMostOneTurn) {
  const auto [w, h, algo] = GetParam();
  if (algo == RoutingAlgorithm::kWestFirst) {
    GTEST_SKIP() << "West-first may use two turns by design";
  }
  const Mesh mesh(w, h);
  for (TileId src = 0; src < mesh.num_tiles(); ++src) {
    for (TileId dst = 0; dst < mesh.num_tiles(); ++dst) {
      const Route r = compute_route(mesh, src, dst, algo);
      int turns = 0;
      for (std::size_t i = 2; i < r.routers.size(); ++i) {
        const Coord a = mesh.coord(r.routers[i - 2]);
        const Coord b = mesh.coord(r.routers[i - 1]);
        const Coord c = mesh.coord(r.routers[i]);
        const bool was_x = (a.y == b.y);
        const bool is_x = (b.y == c.y);
        if (was_x != is_x) ++turns;
      }
      ASSERT_LE(turns, 1) << "src=" << src << " dst=" << dst;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    MeshesAndAlgorithms, RoutePropertyTest,
    ::testing::Combine(::testing::Values(2u, 3u, 5u),
                       ::testing::Values(2u, 4u),
                       ::testing::Values(RoutingAlgorithm::kXY,
                                         RoutingAlgorithm::kYX,
                                         RoutingAlgorithm::kWestFirst)));

}  // namespace
}  // namespace nocmap::noc
