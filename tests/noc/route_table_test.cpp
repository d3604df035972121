#include "nocmap/noc/mesh.hpp"
#include "nocmap/noc/route_table.hpp"

#include <gtest/gtest.h>

#include <tuple>

namespace nocmap::noc {
namespace {

using MeshCase = std::tuple<std::uint32_t, std::uint32_t, RoutingAlgorithm>;

class RouteTableEquivalenceTest
    : public ::testing::TestWithParam<MeshCase> {};

// The tentpole contract: the table must match the reference implementation
// byte for byte — same routers, same links, same order — for every ordered
// pair of tiles.
TEST_P(RouteTableEquivalenceTest, MatchesComputeRouteOnAllPairs) {
  const auto [width, height, algo] = GetParam();
  const Mesh mesh(width, height);
  const RouteTable table(mesh, algo);
  ASSERT_EQ(table.num_tiles(), mesh.num_tiles());
  EXPECT_EQ(table.algorithm(), algo);

  for (TileId src = 0; src < mesh.num_tiles(); ++src) {
    for (TileId dst = 0; dst < mesh.num_tiles(); ++dst) {
      const Route expected = compute_route(mesh, src, dst, algo);
      const RouteSpan<TileId> routers = table.routers(src, dst);
      const RouteSpan<ResourceId> links = table.links(src, dst);

      ASSERT_EQ(routers.size, expected.routers.size())
          << "pair " << src << "->" << dst;
      ASSERT_EQ(links.size, expected.links.size())
          << "pair " << src << "->" << dst;
      for (std::uint32_t i = 0; i < routers.size; ++i) {
        EXPECT_EQ(routers[i], expected.routers[i])
            << "pair " << src << "->" << dst << " router " << i;
      }
      for (std::uint32_t i = 0; i < links.size; ++i) {
        EXPECT_EQ(links[i], expected.links[i])
            << "pair " << src << "->" << dst << " link " << i;
      }

      EXPECT_EQ(table.hops(src, dst), expected.num_routers());
      EXPECT_EQ(table.route(src, dst).routers, expected.routers);
      EXPECT_EQ(table.route(src, dst).links, expected.links);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    MeshesAndAlgorithms, RouteTableEquivalenceTest,
    ::testing::Values(
        MeshCase{2, 2, RoutingAlgorithm::kXY},
        MeshCase{3, 3, RoutingAlgorithm::kXY},
        MeshCase{4, 2, RoutingAlgorithm::kXY},
        MeshCase{5, 5, RoutingAlgorithm::kXY},
        MeshCase{1, 6, RoutingAlgorithm::kXY},
        MeshCase{8, 8, RoutingAlgorithm::kXY},
        MeshCase{3, 3, RoutingAlgorithm::kYX},
        MeshCase{4, 3, RoutingAlgorithm::kYX},
        MeshCase{3, 3, RoutingAlgorithm::kWestFirst},
        MeshCase{5, 3, RoutingAlgorithm::kWestFirst}));

TEST(RouteTableTest, HopsAreManhattanPlusOneForMinimalRouting) {
  const Mesh mesh(4, 4);
  for (const RoutingAlgorithm algo :
       {RoutingAlgorithm::kXY, RoutingAlgorithm::kYX,
        RoutingAlgorithm::kWestFirst}) {
    const RouteTable table(mesh, algo);
    for (TileId src = 0; src < mesh.num_tiles(); ++src) {
      for (TileId dst = 0; dst < mesh.num_tiles(); ++dst) {
        EXPECT_EQ(table.hops(src, dst), mesh.distance(src, dst) + 1);
      }
    }
  }
}

TEST(RouteTableTest, SelfPairIsSingleRouterNoLinks) {
  const Mesh mesh(3, 2);
  const RouteTable table(mesh);
  for (TileId t = 0; t < mesh.num_tiles(); ++t) {
    EXPECT_EQ(table.hops(t, t), 1u);
    ASSERT_EQ(table.routers(t, t).size, 1u);
    EXPECT_EQ(table.routers(t, t)[0], t);
    EXPECT_EQ(table.links(t, t).size, 0u);
  }
}

}  // namespace
}  // namespace nocmap::noc
