/// \file steady_state_alloc_test.cpp
/// The evaluation hot paths allocate nothing in the steady state: once a
/// warm-up has grown the arenas, Simulator::run() and the CdcmCost
/// swap_delta + apply_swap pair price a move without touching the heap,
/// under the link-claim backend on each of its queues and under the flit
/// backend. So do bounded runs, stopped at the contention-free floor or
/// mid-run, or completed, and CdcmCost::cost_within.
///
/// The binary replaces the global allocation functions with counting
/// versions, which is why it is a test executable of its own. The nothrow
/// forms are replaced too (std::stable_sort's buffer comes from them):
/// otherwise they would come from the default allocator and be freed by the
/// replacements below, which sanitizers report as a mismatch.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <memory>
#include <new>
#include <string>
#include <vector>

#include "nocmap/energy/energy_model.hpp"
#include "nocmap/energy/technology.hpp"
#include "nocmap/graph/cdcg.hpp"
#include "nocmap/mapping/cost.hpp"
#include "nocmap/mapping/mapping.hpp"
#include "nocmap/noc/topology.hpp"
#include "nocmap/sim/simulator.hpp"
#include "nocmap/util/rng.hpp"
#include "nocmap/workload/random_cdcg.hpp"

namespace {
std::atomic<std::uint64_t> g_allocations{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size ? size : 1);
}
void* operator new[](std::size_t size, const std::nothrow_t& tag) noexcept {
  return ::operator new(size, tag);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace nocmap {
namespace {

constexpr int kWarmupMoves = 256;
constexpr int kCountedMoves = 256;

/// One core per tile and four 256-bit packets per core, seed 1.
graph::Cdcg bench_workload(const noc::Topology& topo) {
  workload::RandomCdcgParams params;
  params.num_cores = topo.num_tiles();
  params.num_packets = topo.num_tiles() * 4;
  params.total_bits = static_cast<std::uint64_t>(params.num_packets) * 256;
  util::Rng rng(1);
  return workload::generate_random_cdcg(params, rng);
}

/// The evaluation bindings: link claim on the calendar (the 0.07u preset's
/// 1 ns clock) and on the one-word heap (a 20 us clock, whose horizon bound
/// the calendar refuses), and the flit backend with 8-flit buffers.
struct Binding {
  std::string name;
  sim::SimOptions options;
  double clock_period_ns;
  sim::ScalarQueue queue;
};

std::vector<Binding> bindings() {
  sim::SimOptions flit;
  flit.backend = sim::SimBackend::kFlit;
  flit.buffer_depth = 8;
  return {{"calendar", sim::SimOptions{}, 1.0, sim::ScalarQueue::kCalendar},
          {"word-heap", sim::SimOptions{}, 20'000.0,
           sim::ScalarQueue::kWordHeap},
          {"flit", flit, 1.0, sim::ScalarQueue::kWordHeap}};
}

/// Heap allocations made by kCountedMoves calls of `move`, after
/// kWarmupMoves uncounted calls have grown every buffer it uses.
template <class Move>
std::uint64_t steady_state_allocations(Move&& move) {
  for (int i = 0; i < kWarmupMoves; ++i) move();
  const std::uint64_t before = g_allocations.load(std::memory_order_relaxed);
  for (int i = 0; i < kCountedMoves; ++i) move();
  return g_allocations.load(std::memory_order_relaxed) - before;
}

/// The 3x3 and 8x8 meshes, in every binding: a random swap walk priced by
/// Simulator::run() and by the CdcmCost swap_delta + apply_swap pair.
TEST(SteadyStateAllocTest, PricingAMoveAllocatesNothing) {
  for (const std::uint32_t side : {3u, 8u}) {
    for (const Binding& binding : bindings()) {
      SCOPED_TRACE(std::to_string(side) + "x" + std::to_string(side) + " " +
                   binding.name);
      energy::Technology tech = energy::technology_0_07u();
      tech.clock_period_ns = binding.clock_period_ns;
      const sim::SimOptions& options = binding.options;
      const std::unique_ptr<noc::Topology> topo =
          noc::make_topology("mesh", side, side);
      const graph::Cdcg cdcg = bench_workload(*topo);
      util::Rng rng(2);
      const auto draw_swap = [&](noc::TileId& a, noc::TileId& b) {
        a = static_cast<noc::TileId>(rng.index(topo->num_tiles()));
        do {
          b = static_cast<noc::TileId>(rng.index(topo->num_tiles()));
        } while (b == a);
      };

      sim::Simulator simulator(cdcg, *topo, tech, options);
      ASSERT_EQ(simulator.scalar_queue(), binding.queue);
      mapping::Mapping m(*topo, cdcg.num_cores());
      EXPECT_EQ(steady_state_allocations([&] {
                  noc::TileId a, b;
                  draw_swap(a, b);
                  m.swap_tiles(a, b);
                  simulator.run(m);
                }),
                0u)
          << "Simulator::run";

      const mapping::CdcmCost cost(cdcg, *topo, tech,
                                   noc::RoutingAlgorithm::kXY, options);
      EXPECT_EQ(steady_state_allocations([&] {
                  noc::TileId a, b;
                  draw_swap(a, b);
                  cost.swap_delta(m, a, b);
                  cost.apply_swap(m, a, b);
                }),
                0u)
          << "CdcmCost::swap_delta + apply_swap";
    }
  }
}

/// Bounded runs in every binding: a run bounded by its own dynamic energy
/// stops at the contention-free floor, unsimulated, one bounded by the
/// floor's energy simulates and may stop mid-run with packets still
/// queued, and one bounded by its cost completes. CdcmCost::cost_within is
/// driven as exhaustive search drives it, against the running best, plus a
/// bound of zero that stops before any injection.
TEST(SteadyStateAllocTest, BoundedRunsAllocateNothing) {
  for (const std::uint32_t side : {3u, 8u}) {
    for (const Binding& binding : bindings()) {
      SCOPED_TRACE(std::to_string(side) + "x" + std::to_string(side) + " " +
                   binding.name);
      energy::Technology tech = energy::technology_0_07u();
      tech.clock_period_ns = binding.clock_period_ns;
      const sim::SimOptions& options = binding.options;
      const std::unique_ptr<noc::Topology> topo =
          noc::make_topology("mesh", side, side);
      const graph::Cdcg cdcg = bench_workload(*topo);
      const double static_power =
          energy::static_noc_power(tech, topo->num_tiles());
      util::Rng rng(3);
      mapping::Mapping m(*topo, cdcg.num_cores());
      const auto random_swap = [&] {
        const auto a = static_cast<noc::TileId>(rng.index(topo->num_tiles()));
        noc::TileId b = a;
        while (b == a) {
          b = static_cast<noc::TileId>(rng.index(topo->num_tiles()));
        }
        m.swap_tiles(a, b);
      };

      sim::Simulator simulator(cdcg, *topo, tech, options);
      ASSERT_EQ(simulator.scalar_queue(), binding.queue);
      std::uint64_t stopped = 0;
      std::uint64_t mid_run = 0;
      std::uint64_t completed = 0;
      EXPECT_EQ(steady_state_allocations([&] {
                  random_swap();
                  const sim::SimulationResult& full = simulator.run(m);
                  const double dynamic = full.energy.dynamic_j;
                  const double total = full.energy.total_j();
                  const double floor = simulator.contention_free_makespan(m);
                  stopped += simulator.run(m, dynamic).stopped;
                  mid_run += simulator.run(m, dynamic + static_power * floor)
                                 .stopped;
                  completed += !simulator.run(m, total).stopped;
                }),
                0u)
          << "Simulator::run with a bound";
      EXPECT_EQ(stopped, std::uint64_t{kWarmupMoves + kCountedMoves});
      EXPECT_GT(mid_run, 0u);
      EXPECT_EQ(completed, std::uint64_t{kWarmupMoves + kCountedMoves});

      const mapping::CdcmCost cost(cdcg, *topo, tech,
                                   noc::RoutingAlgorithm::kXY, options);
      double best = std::numeric_limits<double>::infinity();
      EXPECT_EQ(steady_state_allocations([&] {
                  random_swap();
                  best = std::min(best, cost.cost_within(m, best));
                  cost.cost_within(m, 0.0);
                }),
                0u)
          << "CdcmCost::cost_within";
    }
  }
}

}  // namespace
}  // namespace nocmap
