/// \file bounded_run_test.cpp
/// Simulator::run(mapping, reject_above) is exact: a run that completes is
/// bitwise the unbounded run, a run stops only when the unbounded cost is
/// above the bound, and a stopped run leaves the arena ready for the next
/// run. Checked on every queue and flow-control policy of the event loop:
/// the two-word heap (forced by a 1.5 ns clock, whose flit times are not
/// integers), the one-word heap (a clock long enough to push the horizon
/// past the calendar's), the bucket calendar, and the flit backend under
/// credit, on/off and virtual cut-through at depths 1 and 8. The
/// contention-free floor a bounded run prices first never exceeds the
/// simulated makespan.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <ostream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "nocmap/energy/energy_model.hpp"
#include "nocmap/noc/mesh.hpp"
#include "nocmap/noc/topology.hpp"
#include "nocmap/sim/event_queue.hpp"
#include "nocmap/sim/schedule.hpp"
#include "nocmap/sim/simulator.hpp"
#include "nocmap/workload/paper_example.hpp"
#include "nocmap/workload/random_cdcg.hpp"

namespace nocmap::sim {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
/// A clock that keeps every time an integer but stretches the schedule's
/// horizon bound past the calendar's 2^24 ns: the one-word heap's binding.
constexpr double kLongClockNs = 20'000.0;

struct Backend {
  std::string name;
  SimOptions options;
  double clock_period_ns = 1.0;  ///< technology_0_07u's clock.
  ScalarQueue queue = ScalarQueue::kWordHeap;  ///< Flit runs' integer times.
};

// gtest would otherwise print the backend as raw bytes, heap pointers
// included, and the test names listed from them would change from build to
// build.
void PrintTo(const Backend& b, std::ostream* os) { *os << b.name; }

std::vector<Backend> backends() {
  std::vector<Backend> out;
  out.push_back({"heap", SimOptions{}, 1.5, ScalarQueue::kHeap});
  out.push_back({"word-heap", SimOptions{}, kLongClockNs});
  out.push_back({"calendar", SimOptions{}, 1.0, ScalarQueue::kCalendar});
  for (const std::uint32_t depth : {1u, 8u}) {
    for (const char* mode : {"credit", "onoff", "vct"}) {
      SimOptions flit;
      flit.backend = SimBackend::kFlit;
      flit.buffer_depth = depth;
      flit.flow_control = std::string(mode) == "onoff" ? FlowControl::kOnOff
                                                       : FlowControl::kCredit;
      if (std::string(mode) == "vct") {
        flit.switching = Switching::kVirtualCutThrough;
      }
      out.push_back({std::string(mode) + "-depth" + std::to_string(depth),
                     flit});
    }
  }
  return out;
}

/// Eight cores, forty packets on a 3x3 mesh: the congestion experiment's
/// shape. Virtual cut-through stores whole packets, so its flits are widened
/// until the largest packet fits the buffer.
struct Instance {
  graph::Cdcg cdcg;
  noc::Mesh mesh{3, 3};
  energy::Technology tech = energy::technology_0_07u();

  explicit Instance(const SimOptions& options, double clock_period_ns = 1.0) {
    tech.clock_period_ns = clock_period_ns;
    workload::RandomCdcgParams params;
    params.num_cores = 8;
    params.num_packets = 40;
    params.total_bits = 81'920;
    util::Rng rng(7);
    cdcg = workload::generate_random_cdcg(params, rng);
    if (options.switching == Switching::kVirtualCutThrough) {
      std::uint64_t max_bits = 1;
      for (graph::PacketId p = 0; p < cdcg.num_packets(); ++p) {
        max_bits = std::max(max_bits, cdcg.packet(p).bits);
      }
      tech.flit_width_bits = static_cast<std::uint32_t>(
          (max_bits + options.buffer_depth - 1) / options.buffer_depth);
    }
  }
};

void expect_same_scalars(const SimulationResult& got,
                         const SimulationResult& want) {
  EXPECT_FALSE(got.stopped);
  EXPECT_EQ(got.texec_ns, want.texec_ns);
  EXPECT_EQ(got.energy.dynamic_j, want.energy.dynamic_j);
  EXPECT_EQ(got.energy.static_j, want.energy.static_j);
  EXPECT_EQ(got.total_contention_ns, want.total_contention_ns);
  EXPECT_EQ(got.num_contended_packets, want.num_contended_packets);
  EXPECT_EQ(got.flit_stall_ns, want.flit_stall_ns);
  EXPECT_EQ(got.flit_backpressure_ns, want.flit_backpressure_ns);
  EXPECT_EQ(got.flit_max_occupancy, want.flit_max_occupancy);
}

class BoundedRunTest : public ::testing::TestWithParam<Backend> {};

/// Equation 10 at `texec_ns`, formed as the simulator forms it.
double energy_at(const Instance& inst, double dynamic_j, double texec_ns) {
  return dynamic_j +
         energy::static_noc_power(inst.tech, inst.mesh.num_tiles()) * texec_ns;
}

/// Bounds just below, at and just above the unbounded cost, +infinity, and
/// ones that must stop: below the dynamic energy (before any injection),
/// between the dynamic energy and the contention-free floor's energy (at
/// the floor, unsimulated), and halfway between the dynamic energy and the
/// cost and between the floor's energy and the cost (at the floor, or
/// after some delivery, unless only the last delivery crosses it). Every
/// bounded run shares one arena, and after each one an unbounded run of
/// the next mapping on that arena must equal a fresh Simulator.
TEST_P(BoundedRunTest, CompletedRunsAreExactAndStopsOnlyRejectLosers) {
  const Backend& backend = GetParam();
  const Instance inst(backend.options, backend.clock_period_ns);
  Simulator shared(inst.cdcg, inst.mesh, inst.tech, backend.options);
  ASSERT_EQ(shared.scalar_queue(), backend.queue);
  util::Rng rng(11);
  int floor_stops = 0;
  int mid_run_stops = 0;
  for (int trial = 0; trial < 40; ++trial) {
    const mapping::Mapping m =
        mapping::Mapping::random(inst.mesh, inst.cdcg.num_cores(), rng);
    Simulator fresh(inst.cdcg, inst.mesh, inst.tech, backend.options);
    const SimulationResult want = fresh.run(m);
    const double cost = want.energy.total_j();
    const double dynamic = want.energy.dynamic_j;
    const double floor = fresh.contention_free_makespan(m);
    const double floor_j = energy_at(inst, dynamic, floor);
    ASSERT_FALSE(want.stopped);
    ASSERT_GT(cost, dynamic);  // The static share is what a stop waits on.
    ASSERT_LE(floor, want.texec_ns);
    ASSERT_GT(floor_j, dynamic);

    const double bounds[] = {std::nextafter(cost, -kInf),
                             cost,
                             std::nextafter(cost, kInf),
                             kInf,
                             dynamic / 2,
                             dynamic,
                             dynamic + (floor_j - dynamic) / 2,
                             std::nextafter(floor_j, -kInf),
                             dynamic + (cost - dynamic) / 2,
                             floor_j + (cost - floor_j) / 2};
    for (const double bound : bounds) {
      SCOPED_TRACE("trial " + std::to_string(trial) + ", bound " +
                   std::to_string(bound));
      const SimulationResult got = shared.run(m, bound);
      if (bound >= cost) {
        expect_same_scalars(got, want);
      } else if (got.stopped) {
        // The value reported is the energy so far: above the bound, never
        // above the cost.
        EXPECT_GT(got.energy.total_j(), bound);
        EXPECT_LE(got.energy.total_j(), cost);
        EXPECT_LE(got.texec_ns, want.texec_ns);
        EXPECT_EQ(got.energy.dynamic_j, dynamic);
        if (got.texec_ns > floor) ++mid_run_stops;
      } else {
        expect_same_scalars(got, want);
      }
      if (bound < dynamic) {
        EXPECT_TRUE(got.stopped);
        EXPECT_EQ(got.texec_ns, 0.0);
      } else if (bound < floor_j) {
        // Stopped at the floor: the reported makespan is the floor's.
        EXPECT_TRUE(got.stopped);
        EXPECT_EQ(got.texec_ns, floor);
        EXPECT_EQ(got.total_contention_ns, 0.0);
        ++floor_stops;
      }

      // The arena is ready for the next unbounded run.
      const mapping::Mapping next =
          mapping::Mapping::random(inst.mesh, inst.cdcg.num_cores(), rng);
      Simulator reference(inst.cdcg, inst.mesh, inst.tech, backend.options);
      const SimulationResult want_next = reference.run(next);
      expect_same_scalars(shared.run(next), want_next);
    }
  }
  EXPECT_GE(floor_stops, 40 * 3);
  // The bounds above the floor's energy must have stopped some runs after
  // a delivery.
  EXPECT_GT(mid_run_stops, 0);
}

/// A plain run() after a stopped one runs to completion: nothing of the
/// stop carries over to the next call. A bound equal to the dynamic energy
/// stops every run at the contention-free floor, unsimulated; one equal to
/// the floor's energy passes the floor and, on a mapping where a delivery
/// before the last one already passes it, stops the simulation with
/// packets still queued.
TEST_P(BoundedRunTest, PlainRunAfterAStopCompletes) {
  const Backend& backend = GetParam();
  const Instance inst(backend.options, backend.clock_period_ns);
  Simulator simulator(inst.cdcg, inst.mesh, inst.tech, backend.options);
  Simulator fresh(inst.cdcg, inst.mesh, inst.tech, backend.options);
  util::Rng rng(3);
  mapping::Mapping m(inst.mesh, inst.cdcg.num_cores());
  SimulationResult want;
  double floor = 0.0;
  double floor_j = 0.0;
  for (int tries = 0;; ++tries) {
    ASSERT_LT(tries, 100) << "no mapping stops mid-run at the floor's energy";
    want = fresh.run(m);
    floor = fresh.contention_free_makespan(m);
    floor_j = energy_at(inst, want.energy.dynamic_j, floor);
    if (fresh.run(m, floor_j).stopped) break;
    m = mapping::Mapping::random(inst.mesh, inst.cdcg.num_cores(), rng);
  }
  for (int i = 0; i < 3; ++i) {
    const SimulationResult& at_floor =
        simulator.run(m, want.energy.dynamic_j);
    EXPECT_TRUE(at_floor.stopped);
    EXPECT_EQ(at_floor.texec_ns, floor);
    expect_same_scalars(simulator.run(m), want);

    const SimulationResult& mid_run = simulator.run(m, floor_j);
    EXPECT_TRUE(mid_run.stopped);
    EXPECT_GT(mid_run.texec_ns, floor);
    EXPECT_LT(mid_run.texec_ns, want.texec_ns);
    expect_same_scalars(simulator.run(m), want);
  }
}

/// The contention-free floor never exceeds the simulated makespan, bit for
/// bit, and equals it when no packet waits: random mappings of random CDCGs
/// (which always contend) and of the paper's example (which often does
/// not) on mesh, torus and express mesh, under link claim and under the
/// flit backend at depth 1 (credit, on/off, virtual cut-through), on the
/// 0.07 um preset's 1 ns clock, on a 1.5 ns clock and on a 0.3 ns clock,
/// whose times round.
TEST(ContentionFreeFloorTest, NeverExceedsTheSimulatedMakespan) {
  std::vector<graph::Cdcg> cdcgs{workload::paper_example_cdcg()};
  for (std::uint32_t seed = 1; seed <= 3; ++seed) {
    workload::RandomCdcgParams params;
    params.num_cores = 6 + seed;
    params.num_packets = params.num_cores * seed;
    params.total_bits = params.num_packets * 300;
    util::Rng graph_rng(seed);
    cdcgs.push_back(workload::generate_random_cdcg(params, graph_rng));
  }
  std::vector<std::pair<std::string, SimOptions>> policies;
  policies.emplace_back("link-claim", SimOptions{});
  for (const char* mode : {"credit", "onoff", "vct"}) {
    SimOptions flit;
    flit.backend = SimBackend::kFlit;
    flit.buffer_depth = 1;
    flit.flow_control = std::string(mode) == "onoff" ? FlowControl::kOnOff
                                                     : FlowControl::kCredit;
    if (std::string(mode) == "vct") {
      flit.switching = Switching::kVirtualCutThrough;
    }
    policies.emplace_back(mode, flit);
  }
  int exact = 0;
  int below = 0;
  for (const char* kind : {"mesh", "torus", "xmesh"}) {
    const std::unique_ptr<noc::Topology> topo =
        noc::make_topology(kind, 4, 3);
    for (std::size_t app = 0; app < cdcgs.size(); ++app) {
      const graph::Cdcg& cdcg = cdcgs[app];
      for (const auto& [name, options] : policies) {
        for (const double clock : {1.0, 1.5, 0.3}) {
          SCOPED_TRACE(std::string(kind) + ", CDCG " + std::to_string(app) +
                       ", " + name + ", " + std::to_string(clock) + " ns");
          energy::Technology tech = energy::technology_0_07u();
          tech.clock_period_ns = clock;
          if (options.switching == Switching::kVirtualCutThrough) {
            // Depth 1 stores whole packets only if each is one flit.
            std::uint64_t max_bits = 1;
            for (graph::PacketId p = 0; p < cdcg.num_packets(); ++p) {
              max_bits = std::max(max_bits, cdcg.packet(p).bits);
            }
            tech.flit_width_bits = static_cast<std::uint32_t>(max_bits);
          }
          Simulator simulator(cdcg, *topo, tech, options);
          util::Rng rng(app * 31 + 1);
          for (int trial = 0; trial < 10; ++trial) {
            const mapping::Mapping m =
                mapping::Mapping::random(*topo, cdcg.num_cores(), rng);
            const double floor = simulator.contention_free_makespan(m);
            const SimulationResult& got = simulator.run(m);
            ASSERT_LE(floor, got.texec_ns);
            if (got.total_contention_ns == 0.0) {
              EXPECT_EQ(floor, got.texec_ns);
              ++exact;
            } else {
              ++below;
            }
          }
        }
      }
    }
  }
  // Both regimes occur.
  EXPECT_GT(exact, 0);
  EXPECT_GT(below, 0);
}

INSTANTIATE_TEST_SUITE_P(
    EveryPolicy, BoundedRunTest, ::testing::ValuesIn(backends()),
    [](const ::testing::TestParamInfo<Backend>& info) {
      std::string name = info.param.name;
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

/// Checkpointed runs ignore the bound: a stop would leave the snapshot
/// ladder describing a run that never finished.
TEST(BoundedRunCheckpointTest, CheckpointedRunsIgnoreTheBound) {
  SimOptions options;
  options.checkpoints = true;
  const Instance inst(options);
  Simulator ckpt(inst.cdcg, inst.mesh, inst.tech, options);
  ASSERT_TRUE(ckpt.checkpointing_active());
  SimOptions plain = options;
  plain.checkpoints = false;
  Simulator full(inst.cdcg, inst.mesh, inst.tech, plain);
  util::Rng rng(5);
  mapping::Mapping m(inst.mesh, inst.cdcg.num_cores());
  const std::uint32_t tiles = inst.mesh.num_tiles();
  for (int step = 0; step < 50; ++step) {
    const auto a = static_cast<noc::TileId>(rng.index(tiles));
    const auto b =
        static_cast<noc::TileId>((a + 1 + rng.index(tiles - 1)) % tiles);
    m.swap_tiles(a, b);
    const SimulationResult want = full.run(m);
    expect_same_scalars(ckpt.run(m, want.energy.dynamic_j / 2), want);
    expect_same_scalars(ckpt.run(m, want.energy.dynamic_j), want);
  }
}

/// After a stop the calendar pops only the events still queued, which
/// leaves it clean: the next run needs no full clear and sees none of them.
TEST(BucketQueueTest, AbandonedRunLeavesAnEmptyCleanCalendar) {
  detail::BucketQueue queue;
  queue.init(8);
  queue.begin_run();
  queue.push(5, 0, 1);
  queue.push(5, 3, 0);
  queue.push(9, 1, 2);
  queue.push(700, 2, 0);  // A later word of the occupancy bitmap.
  std::size_t time = 0;
  std::uint32_t packet = 0;
  std::uint32_t hop = 0;
  queue.pop_min(time, packet, hop);
  EXPECT_EQ(time, 5u);
  EXPECT_EQ(packet, 0u);
  queue.abandon_run(3);
  EXPECT_FALSE(queue.dirty());

  queue.begin_run();
  queue.push(6, 4, 0);
  queue.push(6, 1, 3);
  queue.pop_min(time, packet, hop);
  EXPECT_EQ(time, 6u);
  EXPECT_EQ(packet, 1u);
  EXPECT_EQ(hop, 3u);
  queue.pop_min(time, packet, hop);
  EXPECT_EQ(time, 6u);
  EXPECT_EQ(packet, 4u);
  EXPECT_THROW(queue.pop_min(time, packet, hop), std::logic_error);
}

}  // namespace
}  // namespace nocmap::sim
