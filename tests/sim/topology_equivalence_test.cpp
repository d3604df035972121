// End-to-end topology equivalence: on a torus whose wrap links are disabled
// by size (every dimension <= 2, e.g. 1-wide), the whole pipeline — wormhole
// simulation, CWM/CDCM costs, full Explorer runs — must reproduce the mesh
// results byte for byte (exact double equality, identical mappings), because
// the resource graph is identical. Same for an ExpressMesh whose interval is
// too large for any link to fit.

#include <gtest/gtest.h>

#include <memory>

#include "nocmap/core/explorer.hpp"
#include "nocmap/mapping/cost.hpp"
#include "nocmap/noc/express_mesh.hpp"
#include "nocmap/noc/mesh.hpp"
#include "nocmap/noc/torus.hpp"
#include "nocmap/sim/schedule.hpp"
#include "nocmap/util/rng.hpp"
#include "nocmap/workload/paper_example.hpp"
#include "nocmap/workload/random_cdcg.hpp"

namespace nocmap {
namespace {

graph::Cdcg small_random_cdcg(std::uint32_t cores, std::uint64_t seed) {
  workload::RandomCdcgParams params;
  params.num_cores = cores;
  params.num_packets = cores * 4;
  params.total_bits = 16384;
  util::Rng rng(seed);
  return workload::generate_random_cdcg(params, rng);
}

void expect_identical_simulation(const graph::Cdcg& cdcg,
                                 const noc::Topology& a,
                                 const noc::Topology& b) {
  util::Rng rng(7);
  const mapping::Mapping m =
      mapping::Mapping::random(a, cdcg.num_cores(), rng);
  const energy::Technology tech = energy::technology_0_07u();
  for (const noc::RoutingAlgorithm algo :
       {noc::RoutingAlgorithm::kXY, noc::RoutingAlgorithm::kOddEven}) {
    sim::SimOptions options;
    options.routing = algo;
    const sim::SimulationResult ra = sim::simulate(cdcg, a, m, tech, options);
    const sim::SimulationResult rb = sim::simulate(cdcg, b, m, tech, options);
    ASSERT_EQ(ra.texec_ns, rb.texec_ns);
    ASSERT_EQ(ra.energy.dynamic_j, rb.energy.dynamic_j);
    ASSERT_EQ(ra.energy.static_j, rb.energy.static_j);
    ASSERT_EQ(ra.total_contention_ns, rb.total_contention_ns);
    ASSERT_EQ(ra.num_contended_packets, rb.num_contended_packets);
    // Traces too: same resources, same intervals.
    ASSERT_EQ(ra.occupancy.size(), rb.occupancy.size());
    for (std::size_t r = 0; r < ra.occupancy.size(); ++r) {
      ASSERT_EQ(ra.occupancy[r].size(), rb.occupancy[r].size());
      for (std::size_t i = 0; i < ra.occupancy[r].size(); ++i) {
        ASSERT_EQ(ra.occupancy[r][i].packet, rb.occupancy[r][i].packet);
        ASSERT_EQ(ra.occupancy[r][i].start_ns, rb.occupancy[r][i].start_ns);
        ASSERT_EQ(ra.occupancy[r][i].end_ns, rb.occupancy[r][i].end_ns);
      }
    }
  }
}

TEST(TopologyEquivalenceTest, DegenerateTorusSimulatesLikeTheMesh) {
  // Wrap disabled by size: dimensions of 1 or 2 never wrap, so these tori
  // are resource-graph-identical to their meshes. (A 1xN torus with N >= 3
  // wraps its long dimension and is intentionally NOT mesh-equal; see
  // docs/topologies.md.)
  const graph::Cdcg cdcg = small_random_cdcg(2, 11);
  expect_identical_simulation(cdcg, noc::Mesh(1, 2), noc::Torus(1, 2));
  expect_identical_simulation(cdcg, noc::Mesh(2, 1), noc::Torus(2, 1));
  expect_identical_simulation(cdcg, noc::Mesh(2, 2), noc::Torus(2, 2));
}

TEST(TopologyEquivalenceTest, TwoByTwoTorusSimulatesLikeTheMesh) {
  expect_identical_simulation(workload::paper_example_cdcg(), noc::Mesh(2, 2),
                              noc::Torus(2, 2));
}

TEST(TopologyEquivalenceTest, OversizedExpressIntervalSimulatesLikeTheMesh) {
  const graph::Cdcg cdcg = small_random_cdcg(6, 13);
  expect_identical_simulation(cdcg, noc::Mesh(3, 3),
                              noc::ExpressMesh(3, 3, 5));
}

TEST(TopologyEquivalenceTest, CostFunctionsAgreeOnDegenerateTopologies) {
  const graph::Cdcg cdcg = small_random_cdcg(4, 17);
  const graph::Cwg cwg = cdcg.to_cwg();
  const energy::Technology tech = energy::technology_0_07u();
  const noc::Torus flat(2, 2);
  const noc::Mesh flat_mesh(2, 2);
  util::Rng rng(3);
  for (int i = 0; i < 8; ++i) {
    const mapping::Mapping m =
        mapping::Mapping::random(flat_mesh, cdcg.num_cores(), rng);
    ASSERT_EQ(mapping::CwmCost(cwg, flat_mesh, tech).cost(m),
              mapping::CwmCost(cwg, flat, tech).cost(m));
    ASSERT_EQ(mapping::CdcmCost(cdcg, flat_mesh, tech).cost(m),
              mapping::CdcmCost(cdcg, flat, tech).cost(m));
  }
  // A wrapping 2x3 torus must NOT silently equal the mesh: tile 0 and tile
  // 4 = (0,2) are 1 wrap hop apart instead of 2.
  ASSERT_EQ(noc::Torus(2, 3).distance(0, 4), 1u);
  ASSERT_EQ(noc::Mesh(2, 3).distance(0, 4), 2u);
}

TEST(TopologyEquivalenceTest, ExplorerMatchesByteForByteOnDegenerateTorus) {
  const graph::Cdcg cdcg = small_random_cdcg(4, 23);
  const noc::Mesh mesh(2, 2);
  const noc::Torus torus(2, 2);
  core::ExplorerOptions options;
  options.tech = energy::technology_0_07u();
  options.seed = 5;
  options.sa.max_steps = 40;
  const core::Comparison a = core::Explorer(cdcg, mesh, options).compare();
  const core::Comparison b = core::Explorer(cdcg, torus, options).compare();
  EXPECT_EQ(a.cwm.mapping, b.cwm.mapping);
  EXPECT_EQ(a.cdcm.mapping, b.cdcm.mapping);
  EXPECT_EQ(a.cwm.objective_j, b.cwm.objective_j);
  EXPECT_EQ(a.cdcm.objective_j, b.cdcm.objective_j);
  EXPECT_EQ(a.cwm.sim.texec_ns, b.cwm.sim.texec_ns);
  EXPECT_EQ(a.cdcm.sim.texec_ns, b.cdcm.sim.texec_ns);
  EXPECT_EQ(a.cwm.evaluations, b.cwm.evaluations);
  EXPECT_EQ(a.cdcm.evaluations, b.cdcm.evaluations);
  EXPECT_EQ(a.execution_time_reduction(), b.execution_time_reduction());
  EXPECT_EQ(a.energy_saving(), b.energy_saving());
}

}  // namespace
}  // namespace nocmap
