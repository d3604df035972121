/// \file symmetry_group_test.cpp
/// CostFunction::symmetry_group() is the promise exhaustive search and
/// branch and bound prune by: every map g it lists leaves the cost
/// unchanged bit for bit, cost(g∘m) == cost(m). Checked on random
/// applications and mappings across topologies, routings and both simulator
/// backends, for CDCM and CWM. The maps the CDCM group leaves out change
/// some cost, so a return to the full topology group fails here.

#include <algorithm>
#include <cstdint>
#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "nocmap/mapping/cost.hpp"
#include "nocmap/noc/topology.hpp"
#include "nocmap/util/rng.hpp"
#include "nocmap/workload/random_cdcg.hpp"

namespace nocmap::mapping {
namespace {

using TileMaps = std::vector<std::vector<noc::TileId>>;

struct Board {
  const char* kind;
  std::uint32_t width;
  std::uint32_t height;
  std::uint32_t cores;
};

// A square and a non-square mesh, two tori (3x3 wraps both rings; 4x4 has
// 128 symmetry maps) and an express mesh whose express links are symmetric
// under the flips.
const Board kBoards[] = {
    {"mesh", 3, 3, 6},  {"mesh", 4, 3, 8},   {"torus", 3, 3, 6},
    {"torus", 4, 4, 9}, {"xmesh", 5, 5, 10},
};

const noc::RoutingAlgorithm kRoutings[] = {
    noc::RoutingAlgorithm::kXY, noc::RoutingAlgorithm::kYX,
    noc::RoutingAlgorithm::kWestFirst, noc::RoutingAlgorithm::kOddEven};

std::vector<sim::SimOptions> backends() {
  sim::SimOptions link_claim;
  sim::SimOptions flit;
  flit.backend = sim::SimBackend::kFlit;
  flit.buffer_depth = 1;
  return {link_claim, flit};
}

graph::Cdcg random_app(std::uint32_t cores, std::uint64_t seed) {
  workload::RandomCdcgParams params;
  params.num_cores = cores;
  params.num_packets = cores * 4;
  params.total_bits = params.num_packets * 128;
  util::Rng rng(seed);
  return workload::generate_random_cdcg(params, rng);
}

/// g∘m: core c moves from tile m(c) to tile g(m(c)).
Mapping image(const noc::Topology& topo, const std::vector<noc::TileId>& g,
              const Mapping& m) {
  std::vector<noc::TileId> assignment(m.num_cores());
  for (graph::CoreId c = 0; c < m.num_cores(); ++c) {
    assignment[c] = g[m.tile_of(c)];
  }
  return Mapping::from_assignment(topo, assignment);
}

bool contains(const TileMaps& maps, const std::vector<noc::TileId>& g) {
  return std::find(maps.begin(), maps.end(), g) != maps.end();
}

TEST(SymmetryGroupTest, CostsAreBitwiseInvariantUnderTheGroup) {
  const energy::Technology tech = energy::technology_0_07u();
  std::uint64_t seed = 1;
  std::uint64_t out_of_group_checks = 0;
  std::uint64_t out_of_group_moved = 0;
  for (const Board& board : kBoards) {
    const std::unique_ptr<noc::Topology> topo =
        noc::make_topology(board.kind, board.width, board.height);
    for (const noc::RoutingAlgorithm routing : kRoutings) {
      for (const sim::SimOptions& so : backends()) {
        SCOPED_TRACE(topo->label() + " routing " +
                     std::to_string(static_cast<int>(routing)) +
                     (so.backend == sim::SimBackend::kFlit ? " flit"
                                                           : " link-claim"));
        const graph::Cdcg cdcg = random_app(board.cores, seed);
        const graph::Cwg cwg = cdcg.to_cwg();
        const CdcmCost cdcm(cdcg, *topo, tech, routing, so);
        const CwmCost cwm(cwg, *topo, tech, routing);
        const TileMaps cdcm_group = cdcm.symmetry_group(*topo);
        const TileMaps cwm_group = cwm.symmetry_group(*topo);
        EXPECT_EQ(cwm_group, topo->symmetry_maps());
        util::Rng rng(seed++);
        for (int sample = 0; sample < 3; ++sample) {
          const Mapping m = Mapping::random(*topo, cdcg.num_cores(), rng);
          const double cdcm_cost = cdcm.cost(m);
          const double cwm_cost = cwm.cost(m);
          for (const std::vector<noc::TileId>& g : cdcm_group) {
            EXPECT_EQ(cdcm.cost(image(*topo, g, m)), cdcm_cost);
          }
          for (const std::vector<noc::TileId>& g : cwm_group) {
            EXPECT_EQ(cwm.cost(image(*topo, g, m)), cwm_cost);
          }
          for (const std::vector<noc::TileId>& g : topo->symmetry_maps()) {
            if (contains(cdcm_group, g)) continue;
            ++out_of_group_checks;
            if (cdcm.cost(image(*topo, g, m)) != cdcm_cost) {
              ++out_of_group_moved;
            }
          }
        }
      }
    }
  }
  // Most maps the CDCM group leaves out change the cost of most mappings.
  EXPECT_GT(out_of_group_checks, 0u);
  EXPECT_GT(out_of_group_moved * 2, out_of_group_checks);
}

TEST(SymmetryGroupTest, XyOnASquareMeshKeepsTheFourFlips) {
  const energy::Technology tech = energy::technology_0_07u();
  for (const std::uint32_t side : {2u, 3u, 4u}) {
    SCOPED_TRACE(side);
    const std::unique_ptr<noc::Topology> mesh =
        noc::make_topology("mesh", side, side);
    const graph::Cdcg cdcg = random_app(side * side - 1, side);
    const CdcmCost cdcm(cdcg, *mesh, tech);
    const HybridCost hybrid(cdcg, *mesh, tech);
    const TileMaps group = cdcm.symmetry_group(*mesh);
    ASSERT_EQ(mesh->symmetry_maps().size(), 8u);
    ASSERT_EQ(group.size(), 4u);
    EXPECT_EQ(hybrid.symmetry_group(*mesh), group);
    // The four flips fix or mirror each axis on its own; a transpose would
    // send a tile on the first row to the first column.
    for (const std::vector<noc::TileId>& g : group) {
      const noc::Coord a = mesh->coord(g[0]);
      const noc::Coord b = mesh->coord(g[1]);
      EXPECT_EQ(a.y, b.y);
    }

    // Each transpose changes the cost of some mapping.
    util::Rng rng(side);
    std::vector<Mapping> samples;
    for (int i = 0; i < 8; ++i) {
      samples.push_back(Mapping::random(*mesh, cdcg.num_cores(), rng));
    }
    for (const std::vector<noc::TileId>& g : mesh->symmetry_maps()) {
      if (contains(group, g)) continue;
      bool moved = false;
      for (const Mapping& m : samples) {
        moved = moved || cdcm.cost(image(*mesh, g, m)) != cdcm.cost(m);
      }
      EXPECT_TRUE(moved);
    }
  }
}

TEST(SymmetryGroupTest, DefaultGroupFollowsSymmetryInvariant) {
  // A cost function that only answers symmetry_invariant(), like a wrapper
  // forwarding it, gets every topology symmetry or the identity alone.
  class Stub final : public CostFunction {
   public:
    explicit Stub(bool invariant) : invariant_(invariant) {}
    double cost(const Mapping&) const override { return 0.0; }
    std::string name() const override { return "stub"; }
    std::size_t num_cores() const override { return 2; }
    bool symmetry_invariant() const override { return invariant_; }

   private:
    bool invariant_;
  };
  const std::unique_ptr<noc::Topology> torus =
      noc::make_topology("torus", 4, 4);
  EXPECT_EQ(Stub(true).symmetry_group(*torus), torus->symmetry_maps());
  std::vector<noc::TileId> identity(torus->num_tiles());
  std::iota(identity.begin(), identity.end(), noc::TileId{0});
  EXPECT_EQ(Stub(false).symmetry_group(*torus), TileMaps{identity});
}

}  // namespace
}  // namespace nocmap::mapping
