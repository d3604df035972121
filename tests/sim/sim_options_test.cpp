/// \file sim_options_test.cpp
/// The traced path's occupancy lists with freely overlapping local
/// injection links (the paper's model), asserted against hand-computed 2x2
/// schedules — for all three topology kinds. On a 2x2 grid torus and
/// express mesh degrade to exactly the mesh (no wrap links on dimensions
/// < 3, no room for express links), so one hand schedule pins all three.
///
/// Technology: example_technology — lambda = 1 ns, tr = 2, tl = 1,
/// 1-bit flits.
///
/// Workload (cores 0..3 on tiles 0..3, identity mapping, XY routing):
///   p0: 0 -> 1, comp 0, 2 bits (2 flits)
///   p1: 0 -> 1, comp 0, 2 bits (2 flits)   (same-time race; p0 wins FIFO)
///   p2: 1 -> 0, comp 1, 1 bit  (1 flit)    (opposite link: no contention)
///
/// Hand schedule (all times ns):
///   p0: inject local-in(0) [0, 2]; header at router 0 at t=1; claims link
///       0->1 [1+2=3 .. 3+2=5]; router 0 occupied [1, 3+1=4]; header at
///       router 1 at t=4; ejects local-out(1) [4+2=6 .. 8]; router 1
///       occupied [4, 7]. Delivered 8.
///   p1: inject local-in(0) [0, 2] (overlaps p0 freely: injection never
///       contends); header at router 0 at t=1; link 0->1 busy until 5:
///       waits 4, claims [5+2=7 .. 9]; router 0 occupied [1, 8]; header at
///       router 1 at t=8; ejects local-out(1) [10, 12]. Delivered 12,
///       contention 4.
///   p2: ready 0, comp 1; inject local-in(1) [1, 2]; header at router 1 at
///       t=2; claims link 1->0 [4, 5]; router 1 occupied [2, 4]; header at
///       router 0 at t=5; ejects local-out(0) [7, 8]; router 0 occupied
///       [5, 7]. Delivered 8, contention 0.

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "nocmap/noc/topology.hpp"
#include "nocmap/sim/schedule.hpp"

namespace nocmap::sim {
namespace {

graph::Cdcg workload() {
  graph::Cdcg cdcg;
  for (int c = 0; c < 4; ++c) cdcg.add_core("c" + std::to_string(c));
  cdcg.add_packet(0, 1, 0, 2);
  cdcg.add_packet(0, 1, 0, 2);
  cdcg.add_packet(1, 0, 1, 1);
  return cdcg;
}

struct ExpectedOccupancy {
  graph::PacketId packet;
  double start_ns, end_ns;
  bool contended;
};

void expect_list(const std::vector<Occupancy>& got,
                 const std::vector<ExpectedOccupancy>& want,
                 const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i].packet, want[i].packet) << what << "[" << i << "]";
    EXPECT_EQ(got[i].start_ns, want[i].start_ns) << what << "[" << i << "]";
    EXPECT_EQ(got[i].end_ns, want[i].end_ns) << what << "[" << i << "]";
    EXPECT_EQ(got[i].contended, want[i].contended) << what << "[" << i << "]";
  }
}

class SimOptionsOffPathTest : public ::testing::TestWithParam<const char*> {};

TEST_P(SimOptionsOffPathTest, HandComputed2x2OccupancyWithFreeLocalLinks) {
  const graph::Cdcg cdcg = workload();
  const std::unique_ptr<noc::Topology> topo =
      noc::make_topology(GetParam(), 2, 2, {});
  const energy::Technology tech = energy::example_technology();
  const mapping::Mapping m(*topo, 4);

  const SimulationResult r = simulate(cdcg, *topo, m, tech);

  EXPECT_EQ(r.texec_ns, 12.0);
  EXPECT_EQ(r.total_contention_ns, 4.0);
  EXPECT_EQ(r.num_contended_packets, 1u);
  EXPECT_EQ(r.packets[0].delivered_ns, 8.0);
  EXPECT_EQ(r.packets[1].delivered_ns, 12.0);
  EXPECT_EQ(r.packets[1].contention_ns, 4.0);
  EXPECT_EQ(r.packets[2].delivered_ns, 8.0);

  // Both worms sit on local-in(0) at [0, 2] simultaneously — the freely
  // overlapping injection the paper's model prescribes.
  expect_list(r.occupancy[topo->local_in_resource(0)],
              {{0, 0.0, 2.0, false}, {1, 0.0, 2.0, false}}, "local_in(0)");
  expect_list(r.occupancy[topo->local_in_resource(1)], {{2, 1.0, 2.0, false}},
              "local_in(1)");

  // The contended east link: p0 [3, 5], then p1 [7, 9] starred contended.
  // The link of the 0 -> 1 route (exactly one link on 2x2).
  const noc::ResourceId east = noc::compute_route(*topo, 0, 1).links.front();
  expect_list(r.occupancy[east], {{0, 3.0, 5.0, false}, {1, 7.0, 9.0, true}},
              "link 0->1");
  const noc::ResourceId west = noc::compute_route(*topo, 1, 0).links.front();
  expect_list(r.occupancy[west], {{2, 4.0, 5.0, false}}, "link 1->0");

  // Routers: arrival until the tail flit moves on.
  expect_list(r.occupancy[topo->router_resource(0)],
              {{0, 1.0, 4.0, false}, {1, 1.0, 8.0, true}, {2, 5.0, 7.0, false}},
              "router 0");
  expect_list(r.occupancy[topo->router_resource(1)],
              {{2, 2.0, 4.0, false}, {0, 4.0, 7.0, false},
               {1, 8.0, 11.0, true}},
              "router 1");

  // Ejection local links.
  expect_list(r.occupancy[topo->local_out_resource(1)],
              {{0, 6.0, 8.0, false}, {1, 10.0, 12.0, true}}, "local_out(1)");
  expect_list(r.occupancy[topo->local_out_resource(0)],
              {{2, 7.0, 8.0, false}}, "local_out(0)");
  EXPECT_EQ(r.packets[1].inject_ns, 0.0);
}

INSTANTIATE_TEST_SUITE_P(AllTopologies, SimOptionsOffPathTest,
                         ::testing::Values("mesh", "torus", "xmesh"));

}  // namespace
}  // namespace nocmap::sim
