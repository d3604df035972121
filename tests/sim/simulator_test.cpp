#include "nocmap/noc/mesh.hpp"
#include "nocmap/sim/simulator.hpp"

#include <gtest/gtest.h>

#include <utility>

#include "nocmap/noc/express_mesh.hpp"
#include "nocmap/noc/torus.hpp"
#include "nocmap/sim/schedule.hpp"
#include "nocmap/workload/paper_example.hpp"
#include "nocmap/workload/random_cdcg.hpp"

namespace nocmap::sim {
namespace {

graph::Cdcg random_cdcg(std::uint32_t cores, std::uint64_t seed) {
  workload::RandomCdcgParams params;
  params.num_cores = cores;
  params.num_packets = cores * 5;
  params.total_bits = params.num_packets * 200;
  util::Rng rng(seed);
  return workload::generate_random_cdcg(params, rng);
}

// Every path runs the same event loop, so agreement is exact, not within
// a few ULPs.
void expect_same_scalars(const SimulationResult& a, const SimulationResult& b) {
  EXPECT_EQ(a.texec_ns, b.texec_ns);
  EXPECT_EQ(a.energy.dynamic_j, b.energy.dynamic_j);
  EXPECT_EQ(a.energy.static_j, b.energy.static_j);
  EXPECT_EQ(a.total_contention_ns, b.total_contention_ns);
  EXPECT_EQ(a.num_contended_packets, b.num_contended_packets);
}

TEST(SimulatorTest, RunMatchesSimulateOnThePaperExample) {
  const graph::Cdcg cdcg = workload::paper_example_cdcg();
  const noc::Mesh mesh = workload::paper_example_mesh();
  const energy::Technology tech = energy::example_technology();
  Simulator simulator(cdcg, mesh, tech);
  util::Rng rng(1);
  for (int trial = 0; trial < 12; ++trial) {
    const mapping::Mapping m =
        mapping::Mapping::random(mesh, cdcg.num_cores(), rng);
    expect_same_scalars(simulator.run(m), simulate(cdcg, mesh, m, tech));
  }
}

TEST(SimulatorTest, ArenaReuseMatchesSimulateOnRandomWorkloads) {
  for (const std::uint64_t seed : {3u, 4u, 5u}) {
    const graph::Cdcg cdcg = random_cdcg(10, seed);
    const noc::Mesh mesh(4, 3);
    const energy::Technology tech = energy::technology_0_07u();

    Simulator simulator(cdcg, mesh, tech);
    util::Rng rng(seed * 13 + 1);
    for (int trial = 0; trial < 25; ++trial) {
      const mapping::Mapping m =
          mapping::Mapping::random(mesh, cdcg.num_cores(), rng);
      expect_same_scalars(simulator.run(m), simulate(cdcg, mesh, m, tech));
    }
  }
}

TEST(SimulatorTest, RepeatedRunsOfTheSameMappingAreIdentical) {
  const graph::Cdcg cdcg = random_cdcg(8, 21);
  const noc::Mesh mesh(3, 3);
  const energy::Technology tech = energy::technology_0_07u();

  Simulator simulator(cdcg, mesh, tech);
  util::Rng rng(9);
  const mapping::Mapping m =
      mapping::Mapping::random(mesh, cdcg.num_cores(), rng);
  const SimulationResult first = simulator.run(m);  // Copy the scalars.
  for (int i = 0; i < 10; ++i) {
    // Interleave other mappings to dirty the arena between the checks.
    const mapping::Mapping other =
        mapping::Mapping::random(mesh, cdcg.num_cores(), rng);
    simulator.run(other);
    expect_same_scalars(simulator.run(m), first);
  }
}

TEST(SimulatorTest, ScalarRunLeavesTraceVectorsEmpty) {
  const graph::Cdcg cdcg = workload::paper_example_cdcg();
  const noc::Mesh mesh = workload::paper_example_mesh();
  Simulator simulator(cdcg, mesh, energy::example_technology());
  const mapping::Mapping m(mesh, cdcg.num_cores());
  const SimulationResult& r = simulator.run(m);
  EXPECT_TRUE(r.packets.empty());
  EXPECT_TRUE(r.occupancy.empty());
  EXPECT_GT(r.texec_ns, 0.0);
}

TEST(SimulatorTest, RunTracedMatchesSimulateIncludingTraces) {
  const graph::Cdcg cdcg = random_cdcg(9, 33);
  const noc::Mesh mesh(3, 3);
  const energy::Technology tech = energy::technology_0_07u();

  Simulator simulator(cdcg, mesh, tech);
  util::Rng rng(77);
  const mapping::Mapping m =
      mapping::Mapping::random(mesh, cdcg.num_cores(), rng);
  const SimulationResult a = simulator.run_traced(m);
  const SimulationResult b = simulate(cdcg, mesh, m, tech);

  expect_same_scalars(a, b);
  ASSERT_EQ(a.packets.size(), b.packets.size());
  for (std::size_t p = 0; p < a.packets.size(); ++p) {
    EXPECT_EQ(a.packets[p].ready_ns, b.packets[p].ready_ns);
    EXPECT_EQ(a.packets[p].inject_ns, b.packets[p].inject_ns);
    EXPECT_EQ(a.packets[p].delivered_ns, b.packets[p].delivered_ns);
    EXPECT_EQ(a.packets[p].contention_ns, b.packets[p].contention_ns);
    EXPECT_EQ(a.packets[p].num_routers, b.packets[p].num_routers);
    ASSERT_EQ(a.packets[p].hops.size(), b.packets[p].hops.size());
    for (std::size_t h = 0; h < a.packets[p].hops.size(); ++h) {
      EXPECT_EQ(a.packets[p].hops[h].resource, b.packets[p].hops[h].resource);
      EXPECT_EQ(a.packets[p].hops[h].start_ns, b.packets[p].hops[h].start_ns);
      EXPECT_EQ(a.packets[p].hops[h].end_ns, b.packets[p].hops[h].end_ns);
    }
  }
  ASSERT_EQ(a.occupancy.size(), b.occupancy.size());
  for (std::size_t r = 0; r < a.occupancy.size(); ++r) {
    ASSERT_EQ(a.occupancy[r].size(), b.occupancy[r].size());
    for (std::size_t i = 0; i < a.occupancy[r].size(); ++i) {
      EXPECT_EQ(a.occupancy[r][i].packet, b.occupancy[r][i].packet);
      EXPECT_EQ(a.occupancy[r][i].start_ns, b.occupancy[r][i].start_ns);
      EXPECT_EQ(a.occupancy[r][i].end_ns, b.occupancy[r][i].end_ns);
      EXPECT_EQ(a.occupancy[r][i].contended, b.occupancy[r][i].contended);
    }
  }
}

// On integer timing run() takes the bucket calendar; with a 20 us clock
// (integer times, a horizon bound past the calendar's 2^24 ns) it takes
// the one-word heap; with a 1.5 ns clock (non-integer flit times) it takes
// the two-word heap, and with a 0.3 ns clock, whose times round, so does
// every association the loop makes. run_traced() always takes the two-word
// heap.
TEST(SimulatorTest, RunMatchesRunTracedOnEveryTopologyAndQueue) {
  const graph::Cdcg cdcg = random_cdcg(10, 41);
  const noc::Mesh mesh(4, 3);
  const noc::Torus torus(4, 3);
  const noc::ExpressMesh xmesh(4, 3, 2);
  energy::Technology slow_clock = energy::technology_0_07u();
  slow_clock.clock_period_ns = 1.5;
  energy::Technology long_clock = energy::technology_0_07u();
  long_clock.clock_period_ns = 20'000.0;
  energy::Technology rounding_clock = energy::technology_0_07u();
  rounding_clock.clock_period_ns = 0.3;
  const std::pair<energy::Technology, ScalarQueue> clocks[] = {
      {energy::technology_0_07u(), ScalarQueue::kCalendar},
      {long_clock, ScalarQueue::kWordHeap},
      {slow_clock, ScalarQueue::kHeap},
      {rounding_clock, ScalarQueue::kHeap}};
  for (const noc::Topology* topo :
       {static_cast<const noc::Topology*>(&mesh),
        static_cast<const noc::Topology*>(&torus),
        static_cast<const noc::Topology*>(&xmesh)}) {
    for (const auto& [tech, queue] : clocks) {
      SCOPED_TRACE(topo->label() + " at " +
                   std::to_string(tech.clock_period_ns) + " ns");
      Simulator simulator(cdcg, *topo, tech);
      ASSERT_EQ(simulator.scalar_queue(), queue);
      util::Rng rng(5);
      for (int trial = 0; trial < 15; ++trial) {
        const mapping::Mapping m =
            mapping::Mapping::random(*topo, cdcg.num_cores(), rng);
        const SimulationResult traced = simulator.run_traced(m);
        expect_same_scalars(simulator.run(m), traced);
      }
    }
  }
}

// Thirty-five CDCGs of 6-12 cores and 3-7 packets per core on integer
// timing: run() on the bucket calendar, with its fused ejections, agrees
// with run_traced() on the heap. Injection links overlap freely (the
// paper's model has no local-in contention), so successors inject at their
// predecessors' deliveries whatever the queue.
TEST(SimulatorTest, RunMatchesRunTracedWithAndWithoutLocalInContention) {
  const energy::Technology tech = energy::technology_0_07u();
  for (std::uint32_t cores = 6; cores <= 12; ++cores) {
    const noc::Mesh mesh(4, cores <= 8 ? 2 : 3);
    for (std::uint32_t per_core = 3; per_core <= 7; ++per_core) {
      workload::RandomCdcgParams params;
      params.num_cores = cores;
      params.num_packets = cores * per_core;
      params.total_bits = params.num_packets * 200;
      util::Rng graph_rng(cores * 100 + per_core);
      const graph::Cdcg cdcg = workload::generate_random_cdcg(params, graph_rng);
      SCOPED_TRACE(std::to_string(cores) + " cores, " +
                   std::to_string(params.num_packets) + " packets");
      Simulator simulator(cdcg, mesh, tech);
      util::Rng rng(cores * 7 + per_core);
      for (int trial = 0; trial < 20; ++trial) {
        const mapping::Mapping m = mapping::Mapping::random(mesh, cores, rng);
        const SimulationResult traced = simulator.run_traced(m);
        expect_same_scalars(simulator.run(m), traced);
      }
    }
  }
}

TEST(SimulatorTest, RejectsForeignMappings) {
  const graph::Cdcg cdcg = workload::paper_example_cdcg();
  const noc::Mesh mesh = workload::paper_example_mesh();
  Simulator simulator(cdcg, mesh, energy::example_technology());

  const noc::Mesh other(3, 3);
  const mapping::Mapping wrong_mesh(other, cdcg.num_cores());
  EXPECT_THROW(simulator.run(wrong_mesh), std::invalid_argument);
  const mapping::Mapping wrong_cores(mesh, 2);
  EXPECT_THROW(simulator.run(wrong_cores), std::invalid_argument);
}

}  // namespace
}  // namespace nocmap::sim
