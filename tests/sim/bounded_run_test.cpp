/// \file bounded_run_test.cpp
/// Simulator::run(mapping, reject_above) is exact: a run that completes is
/// bitwise the unbounded run, a run stops only when the unbounded cost is
/// above the bound, and a stopped run leaves the arena ready for the next
/// run. Checked on every queue and flow-control policy of the event loop:
/// the heap (forced by a 1.5 ns clock, whose flit times are not integers),
/// the bucket calendar, and the flit backend under credit, on/off and
/// virtual cut-through at depths 1 and 8.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <ostream>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "nocmap/noc/mesh.hpp"
#include "nocmap/sim/event_queue.hpp"
#include "nocmap/sim/schedule.hpp"
#include "nocmap/sim/simulator.hpp"
#include "nocmap/workload/random_cdcg.hpp"

namespace nocmap::sim {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

struct Backend {
  std::string name;
  SimOptions options;
  double clock_period_ns = 1.0;  ///< technology_0_07u's clock.
};

// gtest would otherwise print the backend as raw bytes, heap pointers
// included, and the test names listed from them would change from build to
// build.
void PrintTo(const Backend& b, std::ostream* os) { *os << b.name; }

std::vector<Backend> backends() {
  std::vector<Backend> out;
  out.push_back({"heap", SimOptions{}, 1.5});
  out.push_back({"calendar", SimOptions{}});
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

/// Bounds just below, at and just above the unbounded cost, +infinity, and
/// two that must stop: below the dynamic energy (before any injection) and
/// halfway between the dynamic energy and the cost (after some delivery,
/// unless only the last delivery crosses it). Every bounded run shares one
/// arena, and after each one an unbounded run of the next mapping on that
/// arena must equal a fresh Simulator.
TEST_P(BoundedRunTest, CompletedRunsAreExactAndStopsOnlyRejectLosers) {
  const Backend& backend = GetParam();
  const Instance inst(backend.options, backend.clock_period_ns);
  Simulator shared(inst.cdcg, inst.mesh, inst.tech, backend.options);
  util::Rng rng(11);
  int mid_run_stops = 0;
  for (int trial = 0; trial < 40; ++trial) {
    const mapping::Mapping m =
        mapping::Mapping::random(inst.mesh, inst.cdcg.num_cores(), rng);
    Simulator fresh(inst.cdcg, inst.mesh, inst.tech, backend.options);
    const SimulationResult want = fresh.run(m);
    const double cost = want.energy.total_j();
    const double dynamic = want.energy.dynamic_j;
    ASSERT_FALSE(want.stopped);
    ASSERT_GT(cost, dynamic);  // The static share is what a stop waits on.

    const double bounds[] = {std::nextafter(cost, -kInf),
                             cost,
                             std::nextafter(cost, kInf),
                             kInf,
                             dynamic / 2,
                             dynamic + (cost - dynamic) / 2};
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
        if (got.texec_ns > 0.0) ++mid_run_stops;
      } else {
        expect_same_scalars(got, want);
      }
      if (bound < dynamic) {
        EXPECT_TRUE(got.stopped);
        EXPECT_EQ(got.texec_ns, 0.0);
      }

      // The arena is ready for the next unbounded run.
      const mapping::Mapping next =
          mapping::Mapping::random(inst.mesh, inst.cdcg.num_cores(), rng);
      Simulator reference(inst.cdcg, inst.mesh, inst.tech, backend.options);
      const SimulationResult want_next = reference.run(next);
      expect_same_scalars(shared.run(next), want_next);
    }
  }
  // The halfway bounds must have stopped some runs after a delivery.
  EXPECT_GT(mid_run_stops, 0);
}

/// A plain run() after a stopped one runs to completion: nothing of the
/// stop carries over to the next call. A bound equal to the dynamic energy
/// stops every run at its first delivery, with packets still queued.
TEST_P(BoundedRunTest, PlainRunAfterAStopCompletes) {
  const Backend& backend = GetParam();
  const Instance inst(backend.options, backend.clock_period_ns);
  Simulator simulator(inst.cdcg, inst.mesh, inst.tech, backend.options);
  Simulator fresh(inst.cdcg, inst.mesh, inst.tech, backend.options);
  const mapping::Mapping m(inst.mesh, inst.cdcg.num_cores());
  const SimulationResult want = fresh.run(m);
  for (int i = 0; i < 3; ++i) {
    const SimulationResult& stopped = simulator.run(m, want.energy.dynamic_j);
    EXPECT_TRUE(stopped.stopped);
    EXPECT_GT(stopped.texec_ns, 0.0);
    expect_same_scalars(simulator.run(m), want);
  }
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
