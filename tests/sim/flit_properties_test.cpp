/// \file flit_properties_test.cpp
/// Property-based invariants of the flit-accurate backend: buffer bounds,
/// conservation, construction-order invariance and option validation —
/// checked on randomly generated applications under shallow buffers, where
/// the flow-control constraints actually bind.

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <vector>

#include "nocmap/energy/energy_model.hpp"
#include "nocmap/noc/mesh.hpp"
#include "nocmap/sim/schedule.hpp"
#include "nocmap/sim/simulator.hpp"
#include "nocmap/util/rng.hpp"
#include "nocmap/workload/random_cdcg.hpp"

namespace nocmap::sim {
namespace {

struct Instance {
  graph::Cdcg cdcg;
  noc::Mesh mesh;
  mapping::Mapping mapping;
  energy::Technology tech;
};

/// Random congested instance: narrow links => multi-flit worms.
Instance make_instance(std::uint64_t seed) {
  util::Rng rng(seed ^ 0xF117F117ULL);
  workload::RandomCdcgParams params;
  params.num_cores = 4 + static_cast<std::uint32_t>(rng.index(6));
  params.num_packets =
      params.num_cores + static_cast<std::uint32_t>(rng.index(40));
  params.total_bits = params.num_packets * (8 + rng.index(400));
  params.parallelism = 2.0 + rng.uniform01() * 4.0;
  graph::Cdcg cdcg = workload::generate_random_cdcg(params, rng);
  noc::Mesh mesh(3, 3);
  auto m = mapping::Mapping::random(mesh, params.num_cores, rng);
  energy::Technology tech = energy::example_technology();
  tech.flit_width_bits = 4 + static_cast<std::uint32_t>(rng.index(12));
  return Instance{std::move(cdcg), mesh, std::move(m), tech};
}

SimOptions shallow(std::uint32_t depth, FlowControl fc = FlowControl::kCredit) {
  SimOptions o;
  o.backend = SimBackend::kFlit;
  o.buffer_depth = depth;
  o.flow_control = fc;
  return o;
}

class FlitPropertyTest : public ::testing::TestWithParam<std::uint64_t> {};

// Buffer-bound invariant (the credits-never-negative property, observed
// through the analytic model): the peak modeled occupancy of any input port
// never exceeds its capacity, and the stall/backpressure accounting never
// goes negative.
TEST_P(FlitPropertyTest, OccupancyNeverExceedsDepth) {
  const Instance inst = make_instance(GetParam());
  for (const std::uint32_t depth : {1u, 2u, 3u, 8u}) {
    for (const FlowControl fc : {FlowControl::kCredit, FlowControl::kOnOff}) {
      const auto r = simulate(inst.cdcg, inst.mesh, inst.mapping, inst.tech,
                              shallow(depth, fc));
      EXPECT_GE(r.flit_stall_ns, 0.0);
      EXPECT_GE(r.flit_backpressure_ns, 0.0);
      EXPECT_GE(r.flit_max_occupancy, 0.0);
      EXPECT_LE(r.flit_max_occupancy, static_cast<double>(depth))
          << "depth " << depth;
    }
  }
}

// Conservation: every injected packet is ejected exactly once — the trace
// list covers all packets, each delivered after (or at) its injection, and
// texec is the last delivery. (The simulator independently cross-checks the
// delivered count against the packet count and throws on a leak.)
TEST_P(FlitPropertyTest, EveryPacketDeliveredExactlyOnce) {
  const Instance inst = make_instance(GetParam());
  const auto r = simulate(inst.cdcg, inst.mesh, inst.mapping, inst.tech,
                          shallow(1));
  ASSERT_EQ(r.packets.size(), inst.cdcg.num_packets());
  double latest = 0.0;
  for (const PacketTrace& tr : r.packets) {
    EXPECT_GE(tr.delivered_ns, tr.inject_ns);
    EXPECT_GE(tr.inject_ns, tr.ready_ns);
    latest = std::max(latest, tr.delivered_ns);
  }
  EXPECT_DOUBLE_EQ(r.texec_ns, latest);
}

// Dependences survive backpressure: a packet never becomes ready before all
// its predecessors are delivered, no matter how the buffers distort timing.
TEST_P(FlitPropertyTest, DependencesAreRespected) {
  const Instance inst = make_instance(GetParam());
  const auto r = simulate(inst.cdcg, inst.mesh, inst.mapping, inst.tech,
                          shallow(1, FlowControl::kOnOff));
  for (graph::PacketId p = 0; p < inst.cdcg.num_packets(); ++p) {
    for (graph::PacketId pred : inst.cdcg.predecessors(p)) {
      ASSERT_GE(r.packets[p].ready_ns, r.packets[pred].delivered_ns);
    }
  }
}

// Links stay exclusive under the flit backend: stalled or not, each worm's
// tail leaves a link before the next header claims it.
TEST_P(FlitPropertyTest, InterRouterLinksStayExclusive) {
  const Instance inst = make_instance(GetParam());
  const auto r = simulate(inst.cdcg, inst.mesh, inst.mapping, inst.tech,
                          shallow(2));
  for (noc::ResourceId res = 0; res < r.occupancy.size(); ++res) {
    noc::ResourceInfo info{};
    try {
      info = inst.mesh.describe(res);
    } catch (const std::invalid_argument&) {
      continue;  // Unallocated link slot.
    }
    if (info.kind != noc::ResourceKind::kLink) continue;
    const auto& occ = r.occupancy[res];
    for (std::size_t i = 1; i < occ.size(); ++i) {
      ASSERT_LE(occ[i - 1].end_ns, occ[i].start_ns + 1e-9)
          << inst.mesh.resource_name(res);
    }
  }
}

// The stall counter feeds the same books as link contention: per-packet
// contention sums to the total, and the flit stall share never exceeds it.
TEST_P(FlitPropertyTest, ContentionAccountingStaysConsistent) {
  const Instance inst = make_instance(GetParam());
  const auto r = simulate(inst.cdcg, inst.mesh, inst.mapping, inst.tech,
                          shallow(1));
  double total = 0.0;
  std::size_t contended = 0;
  for (const PacketTrace& tr : r.packets) {
    ASSERT_GE(tr.contention_ns, 0.0);
    total += tr.contention_ns;
    contended += (tr.contention_ns > 0.0);
  }
  EXPECT_NEAR(r.total_contention_ns, total, 1e-9);
  EXPECT_EQ(r.num_contended_packets, contended);
  EXPECT_LE(r.flit_stall_ns, r.total_contention_ns + 1e-9);
}

// Deep buffers switch every correction off — the counters are exactly zero,
// not approximately (the +0.0 design of docs/simulation.md).
TEST_P(FlitPropertyTest, DeepBuffersReportZeroCorrections) {
  const Instance inst = make_instance(GetParam());
  std::uint64_t max_flits = 1;
  for (graph::PacketId p = 0; p < inst.cdcg.num_packets(); ++p) {
    max_flits = std::max(max_flits, inst.tech.flits(inst.cdcg.packet(p).bits));
  }
  const auto depth = static_cast<std::uint32_t>(max_flits + 2);
  for (const FlowControl fc : {FlowControl::kCredit, FlowControl::kOnOff}) {
    const auto r = simulate(inst.cdcg, inst.mesh, inst.mapping, inst.tech,
                            shallow(depth, fc));
    EXPECT_EQ(r.flit_stall_ns, 0.0);
    EXPECT_EQ(r.flit_backpressure_ns, 0.0);
  }
}

// And the counters are dead under the link-claim backend, so downstream
// consumers can branch on them without checking which backend ran.
TEST_P(FlitPropertyTest, LinkClaimReportsZeroFlitCounters) {
  const Instance inst = make_instance(GetParam());
  const auto r = simulate(inst.cdcg, inst.mesh, inst.mapping, inst.tech, {});
  EXPECT_EQ(r.flit_stall_ns, 0.0);
  EXPECT_EQ(r.flit_backpressure_ns, 0.0);
  EXPECT_EQ(r.flit_max_occupancy, 0.0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FlitPropertyTest,
                         ::testing::Range<std::uint64_t>(0, 20));

// --- Construction-order invariance ------------------------------------------

struct PacketSpec {
  graph::CoreId src, dst;
  std::uint64_t comp, bits;
  std::vector<std::size_t> deps;  ///< Indices into the spec list.
};

graph::Cdcg build_permuted(const std::vector<PacketSpec>& specs,
                           const std::vector<std::size_t>& order,
                           std::size_t num_cores,
                           std::vector<graph::PacketId>& id_of_spec) {
  graph::Cdcg cdcg;
  for (std::size_t c = 0; c < num_cores; ++c) {
    cdcg.add_core("c" + std::to_string(c));
  }
  id_of_spec.assign(specs.size(), 0);
  for (const std::size_t spec : order) {
    const PacketSpec& s = specs[spec];
    id_of_spec[spec] = cdcg.add_packet(s.src, s.dst, s.comp, s.bits);
  }
  for (std::size_t spec = 0; spec < specs.size(); ++spec) {
    for (const std::size_t dep : specs[spec].deps) {
      cdcg.add_dependence(id_of_spec[dep], id_of_spec[spec]);
    }
  }
  return cdcg;
}

// The event_order_test invariance, replayed against the flit backend at
// never-binding depth: the flit bookkeeping (per-packet arenas, per-port
// state) must not leak construction order into the result. This holds
// only where the *schedule* is permutation-invariant — this spec set's
// contention arises between strictly ordered arrivals only. (Under shallow
// buffers stalls shift arrivals and can create new equal-time ties, which
// by design resolve by packet id — there construction order is genuinely
// part of the input, covered by the race test below.)
TEST(FlitEventOrderTest, PermutedConstructionYieldsPermutedTraces) {
  const std::vector<PacketSpec> specs = {
      {0, 1, 0, 128, {}},        {2, 3, 0, 128, {}},
      {3, 2, 0, 64, {}},         {1, 0, 0, 96, {}},
      {0, 1, 3, 64, {}},         {0, 3, 7, 160, {}},
      {2, 1, 1, 32, {1}},        {3, 1, 0, 128, {0, 2}},
      {1, 2, 5, 256, {3}},       {0, 2, 2, 64, {4}},
  };
  const std::size_t num_cores = 4;
  const noc::Mesh mesh(2, 2);
  const energy::Technology tech = energy::technology_0_07u();
  SimOptions options = shallow(16, FlowControl::kOnOff);  // Never binds.

  std::vector<std::size_t> identity(specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) identity[i] = i;
  std::vector<graph::PacketId> base_ids;
  const graph::Cdcg base = build_permuted(specs, identity, num_cores, base_ids);
  mapping::Mapping m(mesh, num_cores);
  const SimulationResult base_result = simulate(base, mesh, m, tech, options);

  util::Rng rng(4321);
  for (int trial = 0; trial < 10; ++trial) {
    std::vector<std::size_t> order = identity;
    rng.shuffle(order);
    std::vector<graph::PacketId> ids;
    const graph::Cdcg permuted = build_permuted(specs, order, num_cores, ids);
    const SimulationResult result = simulate(permuted, mesh, m, tech, options);

    EXPECT_EQ(result.texec_ns, base_result.texec_ns);
    EXPECT_DOUBLE_EQ(result.total_contention_ns,
                     base_result.total_contention_ns);
    EXPECT_EQ(result.flit_stall_ns, base_result.flit_stall_ns);
    EXPECT_EQ(result.flit_backpressure_ns, base_result.flit_backpressure_ns);
    EXPECT_EQ(result.flit_max_occupancy, base_result.flit_max_occupancy);
    for (std::size_t spec = 0; spec < specs.size(); ++spec) {
      const PacketTrace& a = base_result.packets[base_ids[spec]];
      const PacketTrace& b = result.packets[ids[spec]];
      EXPECT_EQ(a.inject_ns, b.inject_ns);
      EXPECT_EQ(a.delivered_ns, b.delivered_ns);
      EXPECT_EQ(a.contention_ns, b.contention_ns);
    }
  }
}

// Shallow-buffer runs are bitwise repeatable: same input, same doubles,
// whether the arena is reused (Simulator::run twice) or rebuilt. This is
// the determinism contract that makes golden files and the threads-1-vs-4
// CI diff meaningful under the flit backend.
TEST(FlitEventOrderTest, ShallowRunsAreBitwiseRepeatable) {
  const Instance inst = make_instance(11);
  const SimOptions options = shallow(1, FlowControl::kOnOff);
  Simulator reused(inst.cdcg, inst.mesh, inst.tech, options);
  const SimulationResult first = reused.run(inst.mapping);
  const SimulationResult second = reused.run(inst.mapping);
  Simulator fresh(inst.cdcg, inst.mesh, inst.tech, options);
  const SimulationResult rebuilt = fresh.run(inst.mapping);
  for (const SimulationResult* r : {&second, &rebuilt}) {
    EXPECT_EQ(first.texec_ns, r->texec_ns);
    EXPECT_EQ(first.energy.dynamic_j, r->energy.dynamic_j);
    EXPECT_EQ(first.total_contention_ns, r->total_contention_ns);
    EXPECT_EQ(first.flit_stall_ns, r->flit_stall_ns);
    EXPECT_EQ(first.flit_backpressure_ns, r->flit_backpressure_ns);
    ASSERT_EQ(first.packets.size(), r->packets.size());
    for (std::size_t p = 0; p < first.packets.size(); ++p) {
      ASSERT_EQ(first.packets[p].delivered_ns, r->packets[p].delivered_ns);
    }
  }
}

// Equal-time races on one link resolve by packet id under the flit backend,
// exactly as under link-claim: arbitration policy is backend-independent.
TEST(FlitEventOrderTest, EqualTimeTiesResolveByPacketId) {
  graph::Cdcg cdcg;
  for (int c = 0; c < 4; ++c) cdcg.add_core("c" + std::to_string(c));
  const graph::PacketId first = cdcg.add_packet(0, 1, 0, 128);
  const graph::PacketId second = cdcg.add_packet(0, 1, 0, 128);
  const noc::Mesh mesh(2, 2);
  const mapping::Mapping m(mesh, 4);
  const SimulationResult r =
      simulate(cdcg, mesh, m, energy::technology_0_07u(), shallow(1));
  EXPECT_EQ(r.packets[first].contention_ns, 0.0);
  EXPECT_GT(r.packets[second].contention_ns, 0.0);
  EXPECT_LT(r.packets[first].delivered_ns, r.packets[second].delivered_ns);
}

// --- Option validation -------------------------------------------------------

TEST(FlitOptionValidation, RejectsIllegalCombinations) {
  const Instance inst = make_instance(7);

  SimOptions zero_depth = shallow(0);
  EXPECT_THROW(
      simulate(inst.cdcg, inst.mesh, inst.mapping, inst.tech, zero_depth),
      std::invalid_argument);

  // Virtual cut-through stores whole packets: depth 1 cannot hold the
  // multi-flit worms this instance carries.
  SimOptions vct = shallow(1);
  vct.switching = Switching::kVirtualCutThrough;
  EXPECT_THROW(simulate(inst.cdcg, inst.mesh, inst.mapping, inst.tech, vct),
               std::invalid_argument);
}

TEST(FlitOptionValidation, AcceptsValidConfigurations) {
  const Instance inst = make_instance(7);
  std::uint64_t max_flits = 1;
  for (graph::PacketId p = 0; p < inst.cdcg.num_packets(); ++p) {
    max_flits = std::max(max_flits, inst.tech.flits(inst.cdcg.packet(p).bits));
  }
  SimOptions vct = shallow(static_cast<std::uint32_t>(max_flits));
  vct.switching = Switching::kVirtualCutThrough;
  EXPECT_NO_THROW(simulate(inst.cdcg, inst.mesh, inst.mapping, inst.tech, vct));
  EXPECT_NO_THROW(
      simulate(inst.cdcg, inst.mesh, inst.mapping, inst.tech, shallow(1)));
}

}  // namespace
}  // namespace nocmap::sim
