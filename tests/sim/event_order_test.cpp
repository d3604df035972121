/// \file event_order_test.cpp
/// Determinism of the simulator's event ordering.
///
/// The event queue must pop header-arrival events in (time, packet, hop)
/// order — equal timestamps tie-break by packet id, never by heap insertion
/// order or queue internals. Two regression angles:
///
///  * the contract of the queues (two-word and one-word heap keys, the
///    bucket calendar) directly: permuted pushes pop in one canonical order;
///  * end to end: two CDCGs that are the same application with packets
///    *constructed in permuted order* yield exactly permuted traces — no
///    result leaks the construction order.

#include <algorithm>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "nocmap/noc/mesh.hpp"
#include "nocmap/sim/event_queue.hpp"
#include "nocmap/sim/schedule.hpp"
#include "nocmap/util/rng.hpp"

namespace nocmap::sim {
namespace {

TEST(EventQueueTest, PopsInTimePacketHopOrderForAnyPushOrder) {
  // Events with deliberate timestamp collisions.
  std::vector<detail::QueuedEvent> events;
  for (std::uint32_t packet = 0; packet < 8; ++packet) {
    for (std::uint32_t hop = 0; hop < 3; ++hop) {
      events.push_back(
          detail::QueuedEvent::make(static_cast<double>((packet * 7) % 3),
                                    packet, hop));
    }
  }
  std::vector<detail::QueuedEvent> sorted = events;
  std::sort(sorted.begin(), sorted.end());

  util::Rng rng(99);
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<detail::QueuedEvent> shuffled = events;
    rng.shuffle(shuffled);
    detail::EventQueue queue;
    for (const detail::QueuedEvent& e : shuffled) queue.push(e);
    for (const detail::QueuedEvent& expected : sorted) {
      ASSERT_FALSE(queue.empty());
      const detail::QueuedEvent got = queue.pop_min();
      EXPECT_EQ(got.time_key, expected.time_key);
      EXPECT_EQ(got.packet_hop, expected.packet_hop);
    }
    EXPECT_TRUE(queue.empty());
  }
}

TEST(EventQueueTest, ReplaceMinEqualsPopThenPush) {
  util::Rng rng(5);
  detail::EventQueue a, b;
  for (std::uint32_t p = 0; p < 16; ++p) {
    const detail::QueuedEvent e = detail::QueuedEvent::make(
        static_cast<double>(rng.index(40)), p, 0);
    a.push(e);
    b.push(e);
  }
  for (std::uint32_t step = 0; step < 200; ++step) {
    const detail::QueuedEvent e = detail::QueuedEvent::make(
        static_cast<double>(40 + rng.index(200)), step % 16, 1 + step / 16);
    const detail::QueuedEvent from_replace = a.replace_min(e);
    const detail::QueuedEvent from_pop = b.pop_min();
    b.push(e);
    EXPECT_EQ(from_replace.time_key, from_pop.time_key);
    EXPECT_EQ(from_replace.packet_hop, from_pop.packet_hop);
  }
}

/// One-word keys pop in (time, packet) order for any push order, with the
/// time and packet recovered exactly, up to the largest time and packet id
/// the format takes.
TEST(EventQueueTest, WordKeysPopInTimePacketOrderForAnyPushOrder) {
  const double max_time =
      static_cast<double>(detail::WordKey::kMaxTime - 1);
  const std::uint32_t max_packet = detail::WordKey::kMaxPackets - 1;
  std::vector<std::pair<double, std::uint32_t>> events;
  for (std::uint32_t i = 0; i < 24; ++i) {
    // Deliberate timestamp collisions, and the extremes of both fields.
    events.emplace_back(static_cast<double>((i * 7) % 5), i);
  }
  events.emplace_back(max_time, 30);
  events.emplace_back(max_time, max_packet);
  events.emplace_back(0.0, max_packet);
  std::vector<std::pair<double, std::uint32_t>> sorted = events;
  std::sort(sorted.begin(), sorted.end());

  util::Rng rng(7);
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<std::pair<double, std::uint32_t>> shuffled = events;
    rng.shuffle(shuffled);
    detail::EventHeap<std::uint64_t> queue;
    for (const auto& [time, packet] : shuffled) {
      queue.push(detail::WordKey::make(time, packet));
    }
    for (const auto& [time, packet] : sorted) {
      ASSERT_FALSE(queue.empty());
      const std::uint64_t key = queue.pop_min();
      EXPECT_EQ(detail::WordKey::time_ns(key), time);
      EXPECT_EQ(detail::WordKey::packet(key), packet);
    }
    EXPECT_TRUE(queue.empty());
  }
}

TEST(BucketQueueTest, PopsByBucketThenPacketForAnyPushOrder) {
  // (bucket, packet) pairs with collisions; a packet queues once.
  struct Item {
    std::size_t bucket;
    std::uint32_t packet;
    std::uint32_t hop;
  };
  std::vector<Item> items;
  for (std::uint32_t packet = 0; packet < 24; ++packet) {
    items.push_back(Item{(packet * 5) % 4, packet, packet % 7});
  }
  std::vector<Item> sorted = items;
  std::sort(sorted.begin(), sorted.end(), [](const Item& x, const Item& y) {
    if (x.bucket != y.bucket) return x.bucket < y.bucket;
    return x.packet < y.packet;
  });

  util::Rng rng(7);
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<Item> shuffled = items;
    rng.shuffle(shuffled);
    detail::BucketQueue queue;
    queue.init(items.size());
    queue.begin_run();
    for (const Item& it : shuffled) queue.push(it.bucket, it.packet, it.hop);
    for (const Item& expected : sorted) {
      std::size_t time;
      std::uint32_t packet, hop;
      queue.pop_min(time, packet, hop);
      EXPECT_EQ(time, expected.bucket);
      EXPECT_EQ(packet, expected.packet);
      EXPECT_EQ(hop, expected.hop);
    }
    queue.finish_run();
  }
}

// --- End-to-end: permuted packet construction order --------------------------

struct PacketSpec {
  graph::CoreId src, dst;
  std::uint64_t comp, bits;
  std::vector<std::size_t> deps;  ///< Indices into the spec list.
};

/// Builds the CDCG with packets added in `order`; returns the graph plus
/// old-spec-index -> new-PacketId map.
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

TEST(EventOrderTest, PermutedPacketConstructionYieldsPermutedTraces) {
  // Timestamp ties exist (the four t == 0 injections) but equal-time events
  // never compete for the same link: link contention arises only between
  // *strictly ordered* arrivals (staggered comp times on shared routes), so
  // the schedule is invariant under packet renumbering. Ties on the same
  // link are id-resolved by design and covered by the test below.
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

  std::vector<std::size_t> identity(specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) identity[i] = i;
  std::vector<graph::PacketId> base_ids;
  const graph::Cdcg base =
      build_permuted(specs, identity, num_cores, base_ids);
  mapping::Mapping m(mesh, num_cores);
  const SimulationResult base_result = simulate(base, mesh, m, tech);

  util::Rng rng(1234);
  for (int trial = 0; trial < 10; ++trial) {
    std::vector<std::size_t> order = identity;
    rng.shuffle(order);
    std::vector<graph::PacketId> ids;
    const graph::Cdcg permuted = build_permuted(specs, order, num_cores, ids);
    const SimulationResult result = simulate(permuted, mesh, m, tech);

    // Scalars are construction-order independent. Per-event quantities are
    // exact; the dynamic-energy and contention *aggregates* are summed in
    // packet/event order, so a permutation may round their last bits
    // differently — compare those within 4 ULP.
    EXPECT_EQ(result.texec_ns, base_result.texec_ns);
    EXPECT_DOUBLE_EQ(result.energy.dynamic_j, base_result.energy.dynamic_j);
    EXPECT_EQ(result.energy.static_j, base_result.energy.static_j);
    EXPECT_DOUBLE_EQ(result.total_contention_ns,
                     base_result.total_contention_ns);
    EXPECT_EQ(result.num_contended_packets, base_result.num_contended_packets);

    // Per-packet traces match under the id permutation, bit for bit.
    for (std::size_t spec = 0; spec < specs.size(); ++spec) {
      const PacketTrace& a = base_result.packets[base_ids[spec]];
      const PacketTrace& b = result.packets[ids[spec]];
      EXPECT_EQ(a.ready_ns, b.ready_ns);
      EXPECT_EQ(a.inject_ns, b.inject_ns);
      EXPECT_EQ(a.delivered_ns, b.delivered_ns);
      EXPECT_EQ(a.contention_ns, b.contention_ns);
      ASSERT_EQ(a.hops.size(), b.hops.size());
      for (std::size_t h = 0; h < a.hops.size(); ++h) {
        EXPECT_EQ(a.hops[h].resource, b.hops[h].resource);
        EXPECT_EQ(a.hops[h].start_ns, b.hops[h].start_ns);
        EXPECT_EQ(a.hops[h].end_ns, b.hops[h].end_ns);
      }
    }
  }
}

TEST(EventOrderTest, EqualTimeTiesOnOneLinkResolveByPacketId) {
  // Two identical packets race for the same first link at the same instant;
  // FIFO arbitration must award it to the lower packet id, deterministically.
  graph::Cdcg cdcg;
  for (int c = 0; c < 4; ++c) cdcg.add_core("c" + std::to_string(c));
  const graph::PacketId first = cdcg.add_packet(0, 1, 0, 128);
  const graph::PacketId second = cdcg.add_packet(0, 1, 0, 128);

  const noc::Mesh mesh(2, 2);
  const mapping::Mapping m(mesh, 4);
  const SimulationResult r =
      simulate(cdcg, mesh, m, energy::technology_0_07u(), {});
  // The winner ships uncontended; the loser waits exactly the winner's
  // serialization on the shared link.
  EXPECT_EQ(r.packets[first].contention_ns, 0.0);
  EXPECT_GT(r.packets[second].contention_ns, 0.0);
  EXPECT_LT(r.packets[first].delivered_ns, r.packets[second].delivered_ns);
}

}  // namespace
}  // namespace nocmap::sim
