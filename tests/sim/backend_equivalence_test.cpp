/// \file backend_equivalence_test.cpp
/// Differential cross-validation of the two simulator backends.
///
/// The flit backend (docs/simulation.md) is built so its flow-control
/// constraints contribute *exactly* +0.0 whenever they do not bind, which
/// makes it bitwise-equal to the link-claim model — same doubles, not just
/// close ones — whenever the buffers are deep enough. This file checks that
/// equivalence from four angles:
///
///  * ~200 randomized (CDCG x mapping x mesh/torus/xmesh) cases at
///    depth >= max packet flits + 2: wormhole/credit and wormhole/on-off are
///    bitwise equal to link-claim, even under link contention;
///  * contention-free schedules (link-claim reports zero contention): every
///    mode combination agrees, including virtual cut-through;
///  * all 18 Table-1 suite applications, on their native mesh and on
///    torus/xmesh of the same shape: ground-truth texec and energy match
///    bitwise at never-binding depth;
///  * shallow buffers: designed congestion scenarios where the flit model is
///    an *admissible* refinement (latency never below link-claim), and a
///    searched demonstration that CDCM mapping *rankings* can invert under
///    congestion — the reason the backend exists.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "nocmap/energy/energy_model.hpp"
#include "nocmap/noc/topology.hpp"
#include "nocmap/sim/schedule.hpp"
#include "nocmap/workload/random_cdcg.hpp"
#include "nocmap/workload/suite.hpp"

namespace nocmap::sim {
namespace {

const char* const kTopologyKinds[] = {"mesh", "torus", "xmesh"};

/// Largest packet size of the application, in flits of `tech`.
std::uint64_t max_packet_flits(const graph::Cdcg& cdcg,
                               const energy::Technology& tech) {
  std::uint64_t flits = 1;
  for (graph::PacketId p = 0; p < cdcg.num_packets(); ++p) {
    flits = std::max(flits, tech.flits(cdcg.packet(p).bits));
  }
  return flits;
}

/// A buffer depth at which no flow-control constraint can ever bind
/// (docs/simulation.md: credit needs max_flits + 1, on/off max_flits + 2).
std::uint32_t never_binding_depth(const graph::Cdcg& cdcg,
                                  const energy::Technology& tech) {
  return static_cast<std::uint32_t>(max_packet_flits(cdcg, tech) + 2);
}

SimOptions flit_options(std::uint32_t depth,
                        FlowControl fc = FlowControl::kCredit,
                        Switching sw = Switching::kWormhole) {
  SimOptions o;
  o.backend = SimBackend::kFlit;
  o.buffer_depth = depth;
  o.flow_control = fc;
  o.switching = sw;
  return o;
}

/// Bitwise comparison of everything a caller can observe: the ETR/ECS
/// inputs (texec, energy) and the full per-packet trace.
void expect_bitwise_equal(const SimulationResult& a, const SimulationResult& b,
                          const std::string& what) {
  EXPECT_EQ(a.texec_ns, b.texec_ns) << what;
  EXPECT_EQ(a.energy.dynamic_j, b.energy.dynamic_j) << what;
  EXPECT_EQ(a.energy.static_j, b.energy.static_j) << what;
  EXPECT_EQ(a.total_contention_ns, b.total_contention_ns) << what;
  EXPECT_EQ(a.num_contended_packets, b.num_contended_packets) << what;
  ASSERT_EQ(a.packets.size(), b.packets.size()) << what;
  for (std::size_t p = 0; p < a.packets.size(); ++p) {
    const PacketTrace& x = a.packets[p];
    const PacketTrace& y = b.packets[p];
    ASSERT_EQ(x.inject_ns, y.inject_ns) << what << " packet " << p;
    ASSERT_EQ(x.delivered_ns, y.delivered_ns) << what << " packet " << p;
    ASSERT_EQ(x.contention_ns, y.contention_ns) << what << " packet " << p;
    ASSERT_EQ(x.hops.size(), y.hops.size()) << what << " packet " << p;
    for (std::size_t h = 0; h < x.hops.size(); ++h) {
      ASSERT_EQ(x.hops[h].resource, y.hops[h].resource)
          << what << " packet " << p << " hop " << h;
      ASSERT_EQ(x.hops[h].start_ns, y.hops[h].start_ns)
          << what << " packet " << p << " hop " << h;
      ASSERT_EQ(x.hops[h].end_ns, y.hops[h].end_ns)
          << what << " packet " << p << " hop " << h;
    }
  }
}

struct Instance {
  graph::Cdcg cdcg;
  std::unique_ptr<noc::Topology> topo;
  mapping::Mapping mapping;
  energy::Technology tech;
};

/// A random application + mapping on the given topology kind. Multi-flit
/// packets and mappings denser than the mesh diameter make link contention
/// the common case, which is exactly what the deep-buffer theorem must
/// survive.
Instance make_instance(std::uint64_t seed, const std::string& kind) {
  util::Rng rng(seed * 3 + 17);
  workload::RandomCdcgParams params;
  params.num_cores = 4 + static_cast<std::uint32_t>(rng.index(6));
  params.num_packets =
      params.num_cores + static_cast<std::uint32_t>(rng.index(40));
  params.total_bits = params.num_packets * (8 + rng.index(400));
  params.parallelism = 2.0 + rng.uniform01() * 4.0;
  graph::Cdcg cdcg = workload::generate_random_cdcg(params, rng);

  const std::uint32_t w = 3 + static_cast<std::uint32_t>(rng.index(2));
  const std::uint32_t h = 3 + static_cast<std::uint32_t>(rng.index(2));
  std::unique_ptr<noc::Topology> topo = noc::make_topology(kind, w, h);
  auto m = mapping::Mapping::random(*topo, params.num_cores, rng);
  energy::Technology tech = energy::example_technology();
  // Narrow links => multi-flit worms (up to ~100 flits) => long link holds.
  tech.flit_width_bits = 4 + static_cast<std::uint32_t>(rng.index(12));
  return Instance{std::move(cdcg), std::move(topo), std::move(m), tech};
}

class BackendEquivalenceTest : public ::testing::TestWithParam<std::uint64_t> {
};

// ~200 randomized cases: 66 seeds x {mesh, torus, xmesh}. At never-binding
// depth the wormhole flit backend is bitwise-equal to link-claim under BOTH
// flow controls — even though most of these schedules are heavily contended.
TEST_P(BackendEquivalenceTest, DeepBuffersAreBitwiseEqualUnderContention) {
  for (const char* kind : kTopologyKinds) {
    const Instance inst = make_instance(GetParam(), kind);
    const std::uint32_t depth = never_binding_depth(inst.cdcg, inst.tech);
    const SimulationResult link =
        simulate(inst.cdcg, *inst.topo, inst.mapping, inst.tech, {});
    for (const FlowControl fc : {FlowControl::kCredit, FlowControl::kOnOff}) {
      const SimulationResult flit =
          simulate(inst.cdcg, *inst.topo, inst.mapping, inst.tech,
                   flit_options(depth, fc));
      expect_bitwise_equal(link, flit,
                           std::string(kind) + (fc == FlowControl::kCredit
                                                    ? "/credit"
                                                    : "/onoff"));
      // The corrections really never fired: the flit observability counters
      // are exactly zero, not just small.
      EXPECT_EQ(flit.flit_stall_ns, 0.0) << kind;
      EXPECT_EQ(flit.flit_backpressure_ns, 0.0) << kind;
      EXPECT_LE(flit.flit_max_occupancy, static_cast<double>(depth)) << kind;
    }
  }
}

// Contention-free schedules (the link-claim model reports zero contention):
// the wormhole modes must agree bitwise, and virtual cut-through must agree
// whenever its clearance gate never fires. (VCT is *stricter* than
// "contention-free" — reusing an input port within one router latency of the
// previous worm's drain binds the gate even though no link was ever
// contended — so where it stalls we check admissibility instead.)
TEST_P(BackendEquivalenceTest, ContentionFreeCasesAgreeInEveryMode) {
  for (const char* kind : kTopologyKinds) {
    // Single-flit packets (wide links) on sparse mappings: most of these
    // schedules come out contention-free.
    Instance inst = make_instance(GetParam(), kind);
    inst.tech.flit_width_bits = 1u << 20;
    const SimulationResult link =
        simulate(inst.cdcg, *inst.topo, inst.mapping, inst.tech, {});
    if (link.total_contention_ns != 0.0) continue;
    const std::uint32_t depth = never_binding_depth(inst.cdcg, inst.tech);
    for (const FlowControl fc : {FlowControl::kCredit, FlowControl::kOnOff}) {
      const SimulationResult worm = simulate(
          inst.cdcg, *inst.topo, inst.mapping, inst.tech,
          flit_options(depth, fc, Switching::kWormhole));
      expect_bitwise_equal(link, worm, kind);
      const SimulationResult vct = simulate(
          inst.cdcg, *inst.topo, inst.mapping, inst.tech,
          flit_options(depth, fc, Switching::kVirtualCutThrough));
      if (vct.flit_stall_ns == 0.0) {
        expect_bitwise_equal(link, vct, std::string(kind) + "/vct");
      } else {
        EXPECT_GE(vct.texec_ns, link.texec_ns) << kind;
      }
    }
  }
}

// A schedule with fully disjoint routes touches every port exactly once, so
// no gate of any mode can ever fire: all 2x2 flow-control/switching
// combinations must be bitwise-identical to link-claim.
TEST(BackendEquivalence, DisjointRoutesAgreeInEveryMode) {
  graph::Cdcg cdcg;
  for (int c = 0; c < 8; ++c) cdcg.add_core("c" + std::to_string(c));
  // Horizontal neighbour pairs on a 3x3 board: routes share nothing.
  cdcg.add_packet(0, 1, 0, 640);
  cdcg.add_packet(3, 4, 2, 320);
  cdcg.add_packet(6, 7, 5, 1280);
  const energy::Technology tech = energy::technology_0_07u();
  for (const char* kind : kTopologyKinds) {
    const std::unique_ptr<noc::Topology> topo = noc::make_topology(kind, 3, 3);
    const mapping::Mapping m(*topo, cdcg.num_cores());
    const SimulationResult link = simulate(cdcg, *topo, m, tech, {});
    ASSERT_EQ(link.total_contention_ns, 0.0) << kind;
    const std::uint32_t depth = never_binding_depth(cdcg, tech);
    for (const FlowControl fc : {FlowControl::kCredit, FlowControl::kOnOff}) {
      for (const Switching sw :
           {Switching::kWormhole, Switching::kVirtualCutThrough}) {
        const SimulationResult flit =
            simulate(cdcg, *topo, m, tech, flit_options(depth, fc, sw));
        expect_bitwise_equal(link, flit, kind);
        EXPECT_EQ(flit.flit_stall_ns, 0.0) << kind;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BackendEquivalenceTest,
                         ::testing::Range<std::uint64_t>(0, 66));

// Acceptance gate: the 18 Table-1 applications, ground-truth-evaluated on
// their native mesh and on torus/xmesh of the same shape. Deep-buffer flit
// simulation must reproduce link-claim texec and energy bitwise — these are
// exactly the ETR/ECS inputs of the paper's Table 2.
TEST(BackendSuiteEquivalence, AllEighteenAppsBitwiseOnEveryTopology) {
  const energy::Technology tech = energy::technology_0_07u();
  const std::vector<workload::SuiteEntry> suite = workload::table1_suite();
  ASSERT_EQ(suite.size(), 18u);
  for (const workload::SuiteEntry& app : suite) {
    const std::uint32_t depth = never_binding_depth(app.cdcg, tech);
    for (const char* kind : kTopologyKinds) {
      const std::unique_ptr<noc::Topology> topo =
          noc::make_topology(kind, app.noc_width, app.noc_height);
      const mapping::Mapping m(*topo, app.cdcg.num_cores());
      // Traces are compared in the randomized tests; the big boards just
      // check scalars.
      const SimulationResult link = simulate(app.cdcg, *topo, m, tech);
      for (const FlowControl fc :
           {FlowControl::kCredit, FlowControl::kOnOff}) {
        const SimulationResult flit =
            simulate(app.cdcg, *topo, m, tech, flit_options(depth, fc));
        const std::string what = app.name + "/" + kind;
        EXPECT_EQ(link.texec_ns, flit.texec_ns) << what;
        EXPECT_EQ(link.energy.dynamic_j, flit.energy.dynamic_j) << what;
        EXPECT_EQ(link.energy.static_j, flit.energy.static_j) << what;
        EXPECT_EQ(link.total_contention_ns, flit.total_contention_ns) << what;
      }
    }
  }
}

// --- Shallow buffers: fidelity, not equivalence ------------------------------

/// A convergecast: `fan` sources all stream a large packet to core 0, plus a
/// chain of dependent packets behind each. Shallow buffers force worms to
/// park along their whole path — the flit model's congestion at its worst.
graph::Cdcg make_convergecast(std::uint32_t fan, std::uint64_t bits) {
  graph::Cdcg cdcg;
  for (std::uint32_t c = 0; c < fan + 1; ++c) {
    cdcg.add_core("c" + std::to_string(c));
  }
  for (std::uint32_t s = 1; s <= fan; ++s) {
    const graph::PacketId first = cdcg.add_packet(s, 0, s, bits);
    const graph::PacketId second = cdcg.add_packet(0, s, 0, bits / 2);
    cdcg.add_dependence(first, second);
  }
  return cdcg;
}

// Under forced congestion the flit backend is an admissible refinement:
// finite buffers can only delay worms relative to infinite ones, never
// accelerate them. (This is a property of these *designed* scenarios — not a
// theorem for arbitrary schedules, where a delayed worm can hand a link to a
// different winner; docs/simulation.md spells out the distinction.)
TEST(BackendFidelity, ShallowBuffersNeverBeatLinkClaimOnConvergecasts) {
  const energy::Technology tech = energy::technology_0_07u();
  for (std::uint32_t fan = 3; fan <= 8; ++fan) {
    const graph::Cdcg cdcg = make_convergecast(fan, 4096);
    const std::unique_ptr<noc::Topology> topo = noc::make_topology("mesh", 3, 3);
    const mapping::Mapping m(*topo, cdcg.num_cores());
    const SimulationResult link = simulate(cdcg, *topo, m, tech, {});
    for (const std::uint32_t depth : {1u, 2u, 3u}) {
      for (const FlowControl fc :
           {FlowControl::kCredit, FlowControl::kOnOff}) {
        const SimulationResult flit =
            simulate(cdcg, *topo, m, tech, flit_options(depth, fc));
        EXPECT_GE(flit.texec_ns, link.texec_ns)
            << "fan " << fan << " depth " << depth;
        // Shallow buffers on a convergecast must actually stall — the
        // scenario would be vacuous otherwise.
        if (depth == 1) {
          EXPECT_GT(flit.flit_stall_ns, 0.0) << "fan " << fan;
        }
      }
    }
  }
}

// The new-result demonstration: two mappings whose CDCM order *inverts*
// between the backends. Under link-claim m1 beats m2; with one-flit buffers
// the congestion m1 creates makes it the worse mapping. A search over random
// instances must find such an inversion — this is the golden congestion
// experiment of docs/experiments.md, kept honest here.
TEST(BackendFidelity, CdcmRankingCanInvertUnderCongestion) {
  const energy::Technology tech = energy::technology_0_07u();
  bool found = false;
  for (std::uint64_t seed = 1; seed <= 200 && !found; ++seed) {
    util::Rng rng(seed);
    workload::RandomCdcgParams params;
    params.num_cores = 8;
    params.num_packets = 40;
    params.total_bits = 40 * 2048;
    const graph::Cdcg cdcg = workload::generate_random_cdcg(params, rng);
    const std::unique_ptr<noc::Topology> topo =
        noc::make_topology("mesh", 3, 3);
    const auto m1 = mapping::Mapping::random(*topo, params.num_cores, rng);
    const auto m2 = mapping::Mapping::random(*topo, params.num_cores, rng);
    const double link1 = simulate(cdcg, *topo, m1, tech, {}).texec_ns;
    const double link2 = simulate(cdcg, *topo, m2, tech, {}).texec_ns;
    const SimOptions shallow = flit_options(1);
    const double flit1 = simulate(cdcg, *topo, m1, tech, shallow).texec_ns;
    const double flit2 = simulate(cdcg, *topo, m2, tech, shallow).texec_ns;
    found = (link1 < link2 && flit1 > flit2) ||
            (link2 < link1 && flit2 > flit1);
  }
  EXPECT_TRUE(found)
      << "no ranking inversion in 200 random instances — the congestion "
         "model lost its bite (or the search space shrank); re-derive the "
         "golden experiment in docs/experiments.md";
}

}  // namespace
}  // namespace nocmap::sim
