/// \file checkpoint_test.cpp
/// Checkpointed incremental evaluation must be *bitwise* equal to a full
/// resimulation — costs, traces, and the decisions a search makes on top of
/// them (docs/simulation.md, "Checkpointed incremental evaluation").
///
/// The randomized suite walks mesh/torus/xmesh boards with mixed move
/// sequences (identity re-evaluations, single swaps, composite 3-swap
/// moves) at checkpoint intervals covering both degenerate extremes — 1
/// (snapshot every pop) and 2^30 (effectively one pre-loop snapshot, full
/// replays) — plus auto and a small prime. Every comparison is on the IEEE
/// bit pattern, not a tolerance: the restore argument promises the same
/// arithmetic, not arithmetic that is merely close.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "nocmap/energy/technology.hpp"
#include "nocmap/graph/cdcg.hpp"
#include "nocmap/mapping/cost.hpp"
#include "nocmap/mapping/mapping.hpp"
#include "nocmap/noc/topology.hpp"
#include "nocmap/sim/schedule.hpp"
#include "nocmap/sim/simulator.hpp"
#include "nocmap/util/rng.hpp"
#include "nocmap/workload/random_cdcg.hpp"

namespace nocmap {
namespace {

std::uint64_t bits(double v) {
  std::uint64_t b;
  std::memcpy(&b, &v, sizeof(b));
  return b;
}

graph::Cdcg make_workload(const noc::Topology& topo, std::uint64_t seed) {
  workload::RandomCdcgParams params;
  params.num_cores = topo.num_tiles();
  params.num_packets = topo.num_tiles() * 4;
  params.total_bits = static_cast<std::uint64_t>(params.num_packets) * 256;
  util::Rng rng(seed);
  return workload::generate_random_cdcg(params, rng);
}

void expect_scalars_equal(const sim::SimulationResult& a,
                          const sim::SimulationResult& b,
                          const std::string& context) {
  EXPECT_EQ(bits(a.texec_ns), bits(b.texec_ns)) << context;
  EXPECT_EQ(bits(a.energy.dynamic_j), bits(b.energy.dynamic_j)) << context;
  EXPECT_EQ(bits(a.energy.static_j), bits(b.energy.static_j)) << context;
  EXPECT_EQ(bits(a.total_contention_ns), bits(b.total_contention_ns))
      << context;
  EXPECT_EQ(a.num_contended_packets, b.num_contended_packets) << context;
}

/// One checkpointed simulator and one plain simulator walk the same mixed
/// move sequence; every step's scalar result must match bit for bit.
/// 3 topologies x 4 intervals x 3 seeds x 50 steps = 1800 compared cases.
TEST(CheckpointEquivalence, RandomWalksBitwiseEqualFullResim) {
  const char* kinds[] = {"mesh", "torus", "xmesh"};
  const std::uint32_t intervals[] = {1, 7, 0 /* auto */, 1u << 30};
  const energy::Technology tech = energy::technology_0_07u();
  int cases = 0;
  for (const char* kind : kinds) {
    for (const std::uint32_t interval : intervals) {
      for (std::uint64_t seed = 1; seed <= 3; ++seed) {
        noc::TopologyOptions topt;
        const auto topo = noc::make_topology(kind, 4, 4, topt);
        const graph::Cdcg cdcg = make_workload(*topo, seed);

        sim::SimOptions co;
        co.checkpoints = true;
        co.checkpoint_interval = interval;
        sim::Simulator ckpt(cdcg, *topo, tech, co);
        ASSERT_TRUE(ckpt.checkpointing_active());

        sim::Simulator full(cdcg, *topo, tech);

        const std::uint32_t tiles = topo->num_tiles();
        util::Rng rng(seed * 977 + interval);
        mapping::Mapping m(*topo, cdcg.num_cores());
        for (int step = 0; step < 50; ++step) {
          const std::string context = std::string(kind) + " interval=" +
                                      std::to_string(interval) + " seed=" +
                                      std::to_string(seed) + " step=" +
                                      std::to_string(step);
          expect_scalars_equal(ckpt.run(m), full.run(m), context);
          ++cases;
          if (step % 7 == 3) continue;  // Identity re-evaluation.
          const int nswap = step % 11 == 5 ? 3 : 1;  // Composite moves too.
          for (int s = 0; s < nswap; ++s) {
            noc::TileId x = static_cast<noc::TileId>(rng.index(tiles)), y;
            do {
              y = static_cast<noc::TileId>(rng.index(tiles));
            } while (y == x);
            m.swap_tiles(x, y);
          }
        }
        const sim::CheckpointStats& st = ckpt.checkpoint_stats();
        EXPECT_EQ(st.runs, 50u);
        EXPECT_GT(st.pops_total, 0u);
        EXPECT_LE(st.replay_frac(), 1.0);
        // Fine cadences price swaps from mid-schedule restores, beyond the
        // 7 identity re-evaluations that even interval 2^30 restores.
        if (interval == 1 || interval == 7) {
          const std::string context = std::string(kind) + " interval=" +
                                      std::to_string(interval) + " seed=" +
                                      std::to_string(seed);
          EXPECT_GT(st.restored_runs, 7u) << context;
          EXPECT_LT(st.replay_frac(), 1.0) << context;
        }
      }
    }
  }
  EXPECT_GE(cases, 200);
}

/// Traced runs fall back to a full resimulation — and must still agree with
/// a never-checkpointed simulator on the full trace, while scalar runs
/// before and after the traced one stay bitwise-correct (the traced run
/// invalidates the snapshots; the next scalar run re-records).
TEST(CheckpointEquivalence, TracedRunsFallBackAndStayConsistent) {
  noc::TopologyOptions topt;
  const auto topo = noc::make_topology("mesh", 4, 4, topt);
  const graph::Cdcg cdcg = make_workload(*topo, 7);
  const energy::Technology tech = energy::technology_0_07u();

  sim::SimOptions co;
  co.checkpoints = true;
  sim::Simulator ckpt(cdcg, *topo, tech, co);
  sim::Simulator full(cdcg, *topo, tech, sim::SimOptions{});

  util::Rng rng(99);
  const std::uint32_t tiles = topo->num_tiles();
  mapping::Mapping m(*topo, cdcg.num_cores());
  for (int step = 0; step < 10; ++step) {
    expect_scalars_equal(ckpt.run(m), full.run(m),
                         "pre-trace step " + std::to_string(step));
    const sim::SimulationResult a = ckpt.run_traced(m);
    const sim::SimulationResult b = full.run_traced(m);
    expect_scalars_equal(a, b, "traced step " + std::to_string(step));
    ASSERT_EQ(a.packets.size(), b.packets.size());
    for (std::size_t p = 0; p < a.packets.size(); ++p) {
      EXPECT_EQ(bits(a.packets[p].delivered_ns), bits(b.packets[p].delivered_ns));
      EXPECT_EQ(bits(a.packets[p].contention_ns), bits(b.packets[p].contention_ns));
      ASSERT_EQ(a.packets[p].hops.size(), b.packets[p].hops.size());
      for (std::size_t h = 0; h < a.packets[p].hops.size(); ++h) {
        EXPECT_EQ(a.packets[p].hops[h].resource, b.packets[p].hops[h].resource);
        EXPECT_EQ(bits(a.packets[p].hops[h].start_ns),
                  bits(b.packets[p].hops[h].start_ns));
        EXPECT_EQ(bits(a.packets[p].hops[h].end_ns),
                  bits(b.packets[p].hops[h].end_ns));
      }
    }
    // Scalar runs after the trace must re-record and stay exact.
    expect_scalars_equal(ckpt.run(m), full.run(m),
                         "post-trace step " + std::to_string(step));
    noc::TileId x = static_cast<noc::TileId>(rng.index(tiles)), y;
    do {
      y = static_cast<noc::TileId>(rng.index(tiles));
    } while (y == x);
    m.swap_tiles(x, y);
  }
}

/// A search must make byte-identical decisions on top of a checkpointed
/// cost: run the same deterministic Metropolis accept/reject walk through
/// CdcmCost with checkpoints on and off, and compare every delta, every
/// decision, and the final cost, bit for bit.
TEST(CheckpointEquivalence, SaDecisionTrajectoryIdentical) {
  const char* kinds[] = {"mesh", "torus", "xmesh"};
  const energy::Technology tech = energy::technology_0_07u();
  for (const char* kind : kinds) {
    noc::TopologyOptions topt;
    const auto topo = noc::make_topology(kind, 4, 4, topt);
    const graph::Cdcg cdcg = make_workload(*topo, 21);

    sim::SimOptions co;
    co.checkpoints = true;
    const mapping::CdcmCost ckpt_cost(cdcg, *topo, tech,
                                      noc::RoutingAlgorithm::kXY, co);
    const mapping::CdcmCost full_cost(cdcg, *topo, tech);
    ASSERT_TRUE(ckpt_cost.checkpointing_active());
    ASSERT_FALSE(full_cost.checkpointing_active());

    auto trajectory = [&](const mapping::CostFunction& cost) {
      util::Rng rng(4242);
      mapping::Mapping m(*topo, cdcg.num_cores());
      const std::uint32_t tiles = topo->num_tiles();
      std::vector<std::uint64_t> decisions;
      double temperature = 1e-9;
      for (int step = 0; step < 120; ++step) {
        noc::TileId x = static_cast<noc::TileId>(rng.index(tiles)), y;
        do {
          y = static_cast<noc::TileId>(rng.index(tiles));
        } while (y == x);
        const double d = cost.swap_delta(m, x, y);
        const bool accept = d <= 0.0 || rng.uniform01() < temperature;
        decisions.push_back(bits(d) ^ (accept ? 1u : 0u));
        if (accept) cost.apply_swap(m, x, y);
        temperature *= 0.95;
      }
      decisions.push_back(bits(cost.cost(m)));
      return decisions;
    };
    EXPECT_EQ(trajectory(ckpt_cost), trajectory(full_cost)) << kind;
  }
}

/// Composite moves price through CdcmCost::move_delta — one probe run per
/// composite. Checkpointed and plain costs must agree on every composite
/// delta bit for bit.
TEST(CheckpointEquivalence, CompositeMoveDeltasIdentical) {
  noc::TopologyOptions topt;
  const auto topo = noc::make_topology("mesh", 4, 4, topt);
  const graph::Cdcg cdcg = make_workload(*topo, 5);
  const energy::Technology tech = energy::technology_0_07u();

  sim::SimOptions co;
  co.checkpoints = true;
  co.checkpoint_interval = 1;  // Maximal snapshot resolution.
  const mapping::CdcmCost ckpt_cost(cdcg, *topo, tech,
                                    noc::RoutingAlgorithm::kXY, co);
  const mapping::CdcmCost full_cost(cdcg, *topo, tech);

  util::Rng rng(31);
  mapping::Mapping m1(*topo, cdcg.num_cores());
  mapping::Mapping m2(*topo, cdcg.num_cores());
  const std::uint32_t tiles = topo->num_tiles();
  for (int step = 0; step < 25; ++step) {
    std::vector<std::pair<noc::TileId, noc::TileId>> swaps;
    for (int s = 0; s <= step % 4; ++s) {
      noc::TileId x = static_cast<noc::TileId>(rng.index(tiles)), y;
      do {
        y = static_cast<noc::TileId>(rng.index(tiles));
      } while (y == x);
      swaps.emplace_back(x, y);
    }
    const double a = ckpt_cost.move_delta(m1, swaps.data(), swaps.size());
    const double b = full_cost.move_delta(m2, swaps.data(), swaps.size());
    EXPECT_EQ(bits(a), bits(b)) << "step " << step;
    if (step % 2 == 0) {
      ckpt_cost.apply_move(m1, swaps.data(), swaps.size());
      full_cost.apply_move(m2, swaps.data(), swaps.size());
    }
  }
}

/// The flit backend cannot restore snapshots (its port-state arenas are not
/// recorded): requesting checkpoints there must silently fall back to full
/// resimulation and produce bitwise the flit results.
TEST(CheckpointEquivalence, FlitBackendFallsBackToFullResim) {
  noc::TopologyOptions topt;
  const auto topo = noc::make_topology("mesh", 4, 4, topt);
  const graph::Cdcg cdcg = make_workload(*topo, 11);
  const energy::Technology tech = energy::technology_0_07u();

  sim::SimOptions co;
  co.checkpoints = true;
  co.backend = sim::SimBackend::kFlit;
  co.buffer_depth = 2;
  sim::Simulator ckpt(cdcg, *topo, tech, co);
  EXPECT_FALSE(ckpt.checkpointing_active());

  sim::SimOptions fo = co;
  fo.checkpoints = false;
  sim::Simulator full(cdcg, *topo, tech, fo);

  util::Rng rng(17);
  const std::uint32_t tiles = topo->num_tiles();
  mapping::Mapping m(*topo, cdcg.num_cores());
  for (int step = 0; step < 20; ++step) {
    const sim::SimulationResult& a = ckpt.run(m);
    const sim::SimulationResult& b = full.run(m);
    expect_scalars_equal(a, b, "flit step " + std::to_string(step));
    EXPECT_EQ(bits(a.flit_stall_ns), bits(b.flit_stall_ns));
    EXPECT_EQ(bits(a.flit_backpressure_ns), bits(b.flit_backpressure_ns));
    noc::TileId x = static_cast<noc::TileId>(rng.index(tiles)), y;
    do {
      y = static_cast<noc::TileId>(rng.index(tiles));
    } while (y == x);
    m.swap_tiles(x, y);
  }
  EXPECT_EQ(ckpt.checkpoint_stats().runs, 0u);
}

/// The auto interval scales with the packet count and the accessor reports
/// the resolved value; stats survive reset.
TEST(CheckpointEquivalence, StatsAndIntervalAccessors) {
  noc::TopologyOptions topt;
  const auto topo = noc::make_topology("mesh", 4, 4, topt);
  const graph::Cdcg cdcg = make_workload(*topo, 2);
  const energy::Technology tech = energy::technology_0_07u();

  sim::SimOptions co;
  co.checkpoints = true;
  sim::Simulator s(cdcg, *topo, tech, co);
  EXPECT_GE(s.checkpoint_interval(), 32u);  // Auto floor.

  mapping::Mapping m(*topo, cdcg.num_cores());
  (void)s.run(m);
  m.swap_tiles(0, 1);
  (void)s.run(m);
  EXPECT_EQ(s.checkpoint_stats().runs, 2u);
  EXPECT_GT(s.checkpoint_stats().pops_total, 0u);
  s.reset_checkpoint_stats();
  EXPECT_EQ(s.checkpoint_stats().runs, 0u);
  EXPECT_EQ(s.checkpoint_stats().pops_total, 0u);
}

}  // namespace
}  // namespace nocmap
