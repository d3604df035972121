#include "nocmap/noc/mesh.hpp"

#include <gtest/gtest.h>

#include <set>
#include <stdexcept>

namespace nocmap::noc {
namespace {

TEST(MeshTest, RejectsDegenerateDimensions) {
  EXPECT_THROW(Mesh(0, 3), std::invalid_argument);
  EXPECT_THROW(Mesh(3, 0), std::invalid_argument);
  EXPECT_THROW(Mesh(1, 1), std::invalid_argument);
  EXPECT_NO_THROW(Mesh(1, 2));
  EXPECT_NO_THROW(Mesh(12, 10));
}

TEST(MeshTest, CoordinateRoundTrip) {
  const Mesh mesh(3, 2);
  for (TileId t = 0; t < mesh.num_tiles(); ++t) {
    EXPECT_EQ(mesh.tile_at(mesh.coord(t)), t);
  }
  EXPECT_EQ(mesh.coord(0), (Coord{0, 0}));
  EXPECT_EQ(mesh.coord(2), (Coord{2, 0}));
  EXPECT_EQ(mesh.coord(3), (Coord{0, 1}));
  EXPECT_EQ(mesh.coord(5), (Coord{2, 1}));
}

TEST(MeshTest, ContainsChecksBounds) {
  const Mesh mesh(3, 2);
  EXPECT_TRUE(mesh.contains({0, 0}));
  EXPECT_TRUE(mesh.contains({2, 1}));
  EXPECT_FALSE(mesh.contains({3, 0}));
  EXPECT_FALSE(mesh.contains({0, 2}));
  EXPECT_FALSE(mesh.contains({-1, 0}));
}

TEST(MeshTest, OutOfRangeThrows) {
  const Mesh mesh(2, 2);
  EXPECT_THROW(mesh.coord(4), std::invalid_argument);
  EXPECT_THROW(mesh.tile_at({2, 0}), std::invalid_argument);
  EXPECT_THROW(mesh.router_resource(4), std::invalid_argument);
  EXPECT_THROW(mesh.local_in_resource(4), std::invalid_argument);
}

TEST(MeshTest, ManhattanDistance) {
  const Mesh mesh(4, 4);
  EXPECT_EQ(mesh.distance(0, 0), 0u);
  EXPECT_EQ(mesh.distance(0, 3), 3u);
  EXPECT_EQ(mesh.distance(0, 15), 6u);
  EXPECT_EQ(mesh.distance(5, 10), 2u);
  EXPECT_EQ(mesh.distance(5, 10), mesh.distance(10, 5));
}

TEST(MeshTest, NeighboursOfCornerEdgeCenter) {
  const Mesh mesh(3, 3);
  EXPECT_EQ(mesh.neighbours(0).size(), 2u);  // Corner.
  EXPECT_EQ(mesh.neighbours(1).size(), 3u);  // Edge.
  EXPECT_EQ(mesh.neighbours(4).size(), 4u);  // Center.
  const auto n4 = mesh.neighbours(4);
  const std::set<TileId> expected{1, 7, 5, 3};
  EXPECT_EQ(std::set<TileId>(n4.begin(), n4.end()), expected);
}

TEST(MeshTest, LinkResourceRequiresAdjacency) {
  const Mesh mesh(3, 3);
  EXPECT_NO_THROW(mesh.link_resource(0, 1));
  EXPECT_NO_THROW(mesh.link_resource(1, 0));
  EXPECT_NO_THROW(mesh.link_resource(0, 3));
  EXPECT_THROW(mesh.link_resource(0, 2), std::invalid_argument);  // Distance 2.
  EXPECT_THROW(mesh.link_resource(0, 4), std::invalid_argument);  // Diagonal.
  EXPECT_THROW(mesh.link_resource(0, 0), std::invalid_argument);
}

TEST(MeshTest, ResourceIdsAreUniqueAndDecodable) {
  const Mesh mesh(3, 2);
  std::set<ResourceId> seen;
  for (TileId t = 0; t < mesh.num_tiles(); ++t) {
    EXPECT_TRUE(seen.insert(mesh.router_resource(t)).second);
    EXPECT_TRUE(seen.insert(mesh.local_in_resource(t)).second);
    EXPECT_TRUE(seen.insert(mesh.local_out_resource(t)).second);
    for (TileId n : mesh.neighbours(t)) {
      EXPECT_TRUE(seen.insert(mesh.link_resource(t, n)).second);
    }
  }
  for (ResourceId r : seen) {
    EXPECT_LT(r, mesh.num_resources());
    EXPECT_NO_THROW(mesh.describe(r));
  }
}

TEST(MeshTest, DescribeRoundTrips) {
  const Mesh mesh(3, 2);
  const ResourceInfo router = mesh.describe(mesh.router_resource(4));
  EXPECT_EQ(router.kind, ResourceKind::kRouter);
  EXPECT_EQ(router.tile, 4u);

  const ResourceInfo link = mesh.describe(mesh.link_resource(1, 4));
  EXPECT_EQ(link.kind, ResourceKind::kLink);
  EXPECT_EQ(link.tile, 1u);
  ASSERT_TRUE(link.link_dst.has_value());
  EXPECT_EQ(*link.link_dst, 4u);

  const ResourceInfo in = mesh.describe(mesh.local_in_resource(2));
  EXPECT_EQ(in.kind, ResourceKind::kLocalIn);
  EXPECT_EQ(in.tile, 2u);

  const ResourceInfo out = mesh.describe(mesh.local_out_resource(5));
  EXPECT_EQ(out.kind, ResourceKind::kLocalOut);
  EXPECT_EQ(out.tile, 5u);
}

TEST(MeshTest, DescribeRejectsUnallocatedLinkSlots) {
  const Mesh mesh(2, 2);
  // Tile 0 has no west neighbour: slot num_tiles + 0*4 + 1 (west) is invalid.
  EXPECT_THROW(mesh.describe(mesh.num_tiles() + 1), std::invalid_argument);
  EXPECT_THROW(mesh.describe(mesh.num_resources()), std::invalid_argument);
}

TEST(MeshTest, ResourceNamesAreOneBasedLikeThePaper) {
  const Mesh mesh(2, 2);
  EXPECT_EQ(mesh.resource_name(mesh.router_resource(0)), "router(t1)");
  EXPECT_EQ(mesh.resource_name(mesh.link_resource(0, 2)), "link(t1->t3)");
  EXPECT_EQ(mesh.resource_name(mesh.local_in_resource(3)), "local-in(t4)");
  EXPECT_EQ(mesh.resource_name(mesh.local_out_resource(1)), "local-out(t2)");
}

}  // namespace
}  // namespace nocmap::noc
