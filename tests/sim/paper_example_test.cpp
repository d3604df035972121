// Gold acceptance test: the simulator must reproduce the paper's worked
// example (Section 4.1, Figures 2-5) EXACTLY — every router/link occupancy
// interval, the contention on A->F, both execution times and all energies.

#include <gtest/gtest.h>

#include "nocmap/mapping/cost.hpp"
#include "nocmap/noc/mesh.hpp"
#include "nocmap/sim/schedule.hpp"
#include "nocmap/workload/paper_example.hpp"

namespace nocmap {
namespace {

using workload::kCoreA;
using workload::kCoreB;
using workload::kCoreE;
using workload::kCoreF;
using workload::kPacketAB1;
using workload::kPacketAF1;
using workload::kPacketBF1;
using workload::kPacketEA1;
using workload::kPacketEA2;
using workload::kPacketFB1;

class PaperExampleTest : public ::testing::Test {
 protected:
  PaperExampleTest()
      : cdcg_(workload::paper_example_cdcg()),
        mesh_(workload::paper_example_mesh()),
        tech_(energy::example_technology()) {}

  sim::SimulationResult run(const mapping::Mapping& m) const {
    return sim::simulate(cdcg_, mesh_, m, tech_);
  }

  // The paper numbers tiles t1..t4; resources below use 0-based tiles.
  noc::ResourceId router(std::uint32_t paper_tile) const {
    return mesh_.router_resource(paper_tile - 1);
  }
  noc::ResourceId link(std::uint32_t from, std::uint32_t to) const {
    return mesh_.link_resource(from - 1, to - 1);
  }

  // Assert that resource `r` has an occupancy entry for `packet` equal to
  // [start, end], with the given contention flag.
  void expect_interval(const sim::SimulationResult& result, noc::ResourceId r,
                       graph::PacketId packet, double start, double end,
                       bool contended = false) {
    for (const sim::Occupancy& occ : result.occupancy.at(r)) {
      if (occ.packet == packet && occ.start_ns == start) {
        EXPECT_DOUBLE_EQ(occ.end_ns, end)
            << mesh_.resource_name(r) << " packet " << packet;
        EXPECT_EQ(occ.contended, contended)
            << mesh_.resource_name(r) << " packet " << packet;
        return;
      }
    }
    ADD_FAILURE() << "no occupancy [" << start << "," << end << "] for packet "
                  << packet << " on " << mesh_.resource_name(r);
  }

  graph::Cdcg cdcg_;
  noc::Mesh mesh_;
  energy::Technology tech_;
};

// --- Figure 2: CWM cannot tell the two mappings apart ----------------------

TEST_F(PaperExampleTest, Figure2CwmEnergyIs390pJForBothMappings) {
  const graph::Cwg cwg = cdcg_.to_cwg();
  const double ea = mapping::cwm_dynamic_energy(cwg, mesh_,
                                                workload::paper_mapping_a(),
                                                tech_);
  const double eb = mapping::cwm_dynamic_energy(cwg, mesh_,
                                                workload::paper_mapping_b(),
                                                tech_);
  EXPECT_DOUBLE_EQ(ea, 390e-12);
  EXPECT_DOUBLE_EQ(eb, 390e-12);
}

TEST_F(PaperExampleTest, Figure1CwgVolumesMatch) {
  const graph::Cwg cwg = cdcg_.to_cwg();
  EXPECT_EQ(cwg.volume(kCoreA, kCoreB), 15u);
  EXPECT_EQ(cwg.volume(kCoreA, kCoreF), 15u);
  EXPECT_EQ(cwg.volume(kCoreB, kCoreF), 40u);
  EXPECT_EQ(cwg.volume(kCoreE, kCoreA), 35u);  // Two packets: 20 + 15.
  EXPECT_EQ(cwg.volume(kCoreF, kCoreB), 15u);
  EXPECT_EQ(cwg.total_volume(), 120u);
}

// --- Figure 3(a) / Figure 4: mapping (a), contention, 100 ns, 400 pJ -------

TEST_F(PaperExampleTest, MappingAExecutionTimeAndEnergy) {
  const auto result = run(workload::paper_mapping_a());
  EXPECT_DOUBLE_EQ(result.texec_ns, 100.0);
  EXPECT_DOUBLE_EQ(result.energy.dynamic_j, 390e-12);
  EXPECT_DOUBLE_EQ(result.energy.static_j, 10e-12);   // 0.1 pJ/ns * 100 ns.
  EXPECT_DOUBLE_EQ(result.energy.total_j(), 400e-12);  // Figure 3(a).
}

TEST_F(PaperExampleTest, MappingAHasExactlyOneContendedPacket) {
  const auto result = run(workload::paper_mapping_a());
  EXPECT_EQ(result.num_contended_packets, 1u);
  // A->F arrives at router t1 at 46 ns but B->F holds link t1->t3 until
  // 53 ns; it proceeds at 55 ns, so it is blocked for 7 ns.
  EXPECT_DOUBLE_EQ(result.packets[kPacketAF1].contention_ns, 7.0);
  EXPECT_DOUBLE_EQ(result.total_contention_ns, 7.0);
}

TEST_F(PaperExampleTest, MappingARouterT4Intervals) {
  // Figure 3(a), tile t4 (core E): 20(E->A):[11,32] and 15(E->A):[57,73].
  const auto result = run(workload::paper_mapping_a());
  expect_interval(result, router(4), kPacketEA1, 11, 32);
  expect_interval(result, router(4), kPacketEA2, 57, 73);
}

TEST_F(PaperExampleTest, MappingARouterT2Intervals) {
  // Tile t2 (core A): A->B, E->A x2, A->F.
  const auto result = run(workload::paper_mapping_a());
  expect_interval(result, router(2), kPacketAB1, 7, 23);
  expect_interval(result, router(2), kPacketEA1, 14, 35);
  expect_interval(result, router(2), kPacketEA2, 60, 76);
  expect_interval(result, router(2), kPacketAF1, 43, 59);
}

TEST_F(PaperExampleTest, MappingARouterT1Intervals) {
  // Tile t1 (core B): A->B arrives, B->F departs, A->F transits (contended,
  // the '*' entry), F->B arrives.
  const auto result = run(workload::paper_mapping_a());
  expect_interval(result, router(1), kPacketAB1, 10, 26);
  expect_interval(result, router(1), kPacketBF1, 11, 52);
  expect_interval(result, router(1), kPacketAF1, 46, 69, /*contended=*/true);
  expect_interval(result, router(1), kPacketFB1, 83, 99);
}

TEST_F(PaperExampleTest, MappingARouterT3Intervals) {
  // Tile t3 (core F): B->F and A->F arrive, F->B departs.
  const auto result = run(workload::paper_mapping_a());
  expect_interval(result, router(3), kPacketBF1, 14, 55);
  // A->F was blocked upstream, so its entry stays starred downstream.
  expect_interval(result, router(3), kPacketAF1, 56, 72, /*contended=*/true);
  expect_interval(result, router(3), kPacketFB1, 80, 96);
}

TEST_F(PaperExampleTest, MappingALinkIntervals) {
  const auto result = run(workload::paper_mapping_a());
  // t2 -> t1: A->B then A->F (XY route of A->F passes through t1).
  expect_interval(result, link(2, 1), kPacketAB1, 9, 24);
  expect_interval(result, link(2, 1), kPacketAF1, 45, 60);
  // t1 -> t3: B->F, then the blocked A->F (the '*' entry: [55,70]).
  expect_interval(result, link(1, 3), kPacketBF1, 13, 53);
  expect_interval(result, link(1, 3), kPacketAF1, 55, 70, /*contended=*/true);
  // t4 -> t2: both E->A packets.
  expect_interval(result, link(4, 2), kPacketEA1, 13, 33);
  expect_interval(result, link(4, 2), kPacketEA2, 59, 74);
  // t3 -> t1: F->B.
  expect_interval(result, link(3, 1), kPacketFB1, 82, 97);
}

TEST_F(PaperExampleTest, MappingALocalLinkIntervals) {
  const auto result = run(workload::paper_mapping_a());
  const auto local_in = [&](std::uint32_t t) {
    return mesh_.local_in_resource(t - 1);
  };
  const auto local_out = [&](std::uint32_t t) {
    return mesh_.local_out_resource(t - 1);
  };
  // Injections: core E on t4, A on t2, B on t1, F on t3.
  expect_interval(result, local_in(4), kPacketEA1, 10, 30);
  expect_interval(result, local_in(4), kPacketEA2, 56, 71);
  expect_interval(result, local_in(2), kPacketAB1, 6, 21);
  expect_interval(result, local_in(2), kPacketAF1, 42, 57);
  expect_interval(result, local_in(1), kPacketBF1, 10, 50);
  expect_interval(result, local_in(3), kPacketFB1, 79, 94);
  // Ejections.
  expect_interval(result, local_out(2), kPacketEA1, 16, 36);
  expect_interval(result, local_out(2), kPacketEA2, 62, 77);
  expect_interval(result, local_out(1), kPacketAB1, 12, 27);
  expect_interval(result, local_out(3), kPacketBF1, 16, 56);
  expect_interval(result, local_out(3), kPacketAF1, 58, 73,
                  /*contended=*/true);
  expect_interval(result, local_out(1), kPacketFB1, 85, 100);
}

TEST_F(PaperExampleTest, MappingADeliveryTimes) {
  const auto result = run(workload::paper_mapping_a());
  EXPECT_DOUBLE_EQ(result.packets[kPacketAB1].delivered_ns, 27.0);
  EXPECT_DOUBLE_EQ(result.packets[kPacketEA1].delivered_ns, 36.0);
  EXPECT_DOUBLE_EQ(result.packets[kPacketBF1].delivered_ns, 56.0);
  EXPECT_DOUBLE_EQ(result.packets[kPacketAF1].delivered_ns, 73.0);
  EXPECT_DOUBLE_EQ(result.packets[kPacketEA2].delivered_ns, 77.0);
  EXPECT_DOUBLE_EQ(result.packets[kPacketFB1].delivered_ns, 100.0);
}

// --- Figure 3(b) / Figure 5: mapping (b), no contention, 90 ns, 399 pJ -----

TEST_F(PaperExampleTest, MappingBExecutionTimeAndEnergy) {
  const auto result = run(workload::paper_mapping_b());
  EXPECT_DOUBLE_EQ(result.texec_ns, 90.0);
  EXPECT_DOUBLE_EQ(result.energy.dynamic_j, 390e-12);
  EXPECT_DOUBLE_EQ(result.energy.static_j, 9e-12);
  EXPECT_DOUBLE_EQ(result.energy.total_j(), 399e-12);
  EXPECT_EQ(result.num_contended_packets, 0u);
  EXPECT_DOUBLE_EQ(result.total_contention_ns, 0.0);
}

TEST_F(PaperExampleTest, MappingBRouterIntervals) {
  const auto result = run(workload::paper_mapping_b());
  // Tile t4 hosts A: A->B departs, E->A x2 arrive, A->F departs.
  expect_interval(result, router(4), kPacketAB1, 7, 23);
  expect_interval(result, router(4), kPacketEA1, 14, 35);
  expect_interval(result, router(4), kPacketEA2, 60, 76);
  expect_interval(result, router(4), kPacketAF1, 43, 59);
  // Tile t2 hosts E.
  expect_interval(result, router(2), kPacketEA1, 11, 32);
  expect_interval(result, router(2), kPacketEA2, 57, 73);
  // Tile t3 hosts F; A->B transits through t3 (XY: t4 -> t3 -> t1).
  expect_interval(result, router(3), kPacketAB1, 10, 26);
  expect_interval(result, router(3), kPacketBF1, 14, 55);
  expect_interval(result, router(3), kPacketAF1, 46, 62);
  expect_interval(result, router(3), kPacketFB1, 70, 86);
  // Tile t1 hosts B.
  expect_interval(result, router(1), kPacketAB1, 13, 29);
  expect_interval(result, router(1), kPacketBF1, 11, 52);
  expect_interval(result, router(1), kPacketFB1, 73, 89);
}

TEST_F(PaperExampleTest, MappingBDeliveryTimes) {
  const auto result = run(workload::paper_mapping_b());
  EXPECT_DOUBLE_EQ(result.packets[kPacketAB1].delivered_ns, 30.0);
  EXPECT_DOUBLE_EQ(result.packets[kPacketEA1].delivered_ns, 36.0);
  EXPECT_DOUBLE_EQ(result.packets[kPacketBF1].delivered_ns, 56.0);
  EXPECT_DOUBLE_EQ(result.packets[kPacketAF1].delivered_ns, 63.0);
  EXPECT_DOUBLE_EQ(result.packets[kPacketEA2].delivered_ns, 77.0);
  EXPECT_DOUBLE_EQ(result.packets[kPacketFB1].delivered_ns, 90.0);
}

// Section 4.1: the execution-time reduction is 11.1% (100 ns -> 90 ns) —
// note the paper's convention divides by the *better* (CDCM) value — and
// mapping (a) consumes more energy than (b) (400 vs 399 pJ). Both times are
// exact, so 10/90 rounds to the same double as 1/9.
TEST_F(PaperExampleTest, RelativeDifferencesBetweenMappings) {
  const auto a = run(workload::paper_mapping_a());
  const auto b = run(workload::paper_mapping_b());
  EXPECT_EQ((a.texec_ns - b.texec_ns) / b.texec_ns, 1.0 / 9.0);
  EXPECT_NEAR(a.energy.total_j() / b.energy.total_j(), 1.0025, 0.0001);
}

// The CDCM cost function (Equation 10 objective) agrees with the simulator.
TEST_F(PaperExampleTest, CdcmCostMatchesSimulation) {
  const mapping::CdcmCost cost(cdcg_, mesh_, tech_);
  EXPECT_DOUBLE_EQ(cost.cost(workload::paper_mapping_a()), 400e-12);
  EXPECT_DOUBLE_EQ(cost.cost(workload::paper_mapping_b()), 399e-12);
}

}  // namespace
}  // namespace nocmap
