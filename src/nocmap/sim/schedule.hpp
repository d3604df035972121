#pragma once
/// \file schedule.hpp
/// The CDCM evaluator: an event-driven wormhole NoC scheduler.
///
/// This is the algorithm of Section 4 of the paper. Given a CDCG, a
/// topology, a mapping and a technology bundle, it executes the packet graph on the CRG:
///
///  * A packet becomes *ready* when all of its dependence predecessors have
///    been fully delivered ("a vertex can only be executed if all of its
///    input edges are free"); roots are ready at time 0 (pointed by Start).
///  * After the source core's computation time (t_aq * lambda) the packet is
///    injected: its header enters the core->router local link, then hops
///    router by router along the deterministic route. Local links overlap
///    freely, as in the paper's model, so worms from one core first contend
///    on the first inter-router link they share.
///  * At each router the header claims the *outgoing inter-router link*. If
///    that link is still occupied by another worm, the packet waits in the
///    router's input buffer (unbounded under the default link-claim
///    backend, as in the paper's example) and the contention time is added
///    from that point on. With FIFO arbitration, the worm whose header
///    arrived first wins the link.
///  * Ejection (router->core) never blocks: the destination core always
///    accepts flits. (This matches the paper's worked example, where two
///    worms overlap on a router->core link without any contention being
///    reported.)
///
/// Per-hop occupancy bookkeeping reproduces the "cost variable lists" the
/// paper annotates CRG vertices and edges with (Figure 3): a router is
/// occupied from header arrival until its tail flit has been forwarded,
/// [a, h + (n-1)*tl*lambda]; a link from header entry until the tail has
/// traversed it, [h, h + n*tl*lambda], where h = max(a, link free time) + tr
/// * lambda. The end-to-end latency of an uncontended packet equals
/// Equation 8: (K*(tr+tl) + tl*n) * lambda.
///
/// The result carries execution time (texec = delivery of the last packet),
/// the dynamic energy (Equation 4), static energy (Equation 9) and the full
/// per-packet / per-resource traces used by the timeline renderer and the
/// figure-reproduction benches. simulate() always records the traces; the
/// scalar Simulator::run() of the search loops never does.

#include <cstdint>
#include <vector>

#include "nocmap/energy/energy_model.hpp"
#include "nocmap/energy/technology.hpp"
#include "nocmap/graph/cdcg.hpp"
#include "nocmap/mapping/mapping.hpp"
#include "nocmap/noc/topology.hpp"
#include "nocmap/noc/routing.hpp"

namespace nocmap::sim {

/// One resource reservation of one packet, in path order.
struct HopRecord {
  noc::ResourceId resource = 0;
  double start_ns = 0.0;
  double end_ns = 0.0;
};

/// Full life of one packet through the NoC.
struct PacketTrace {
  graph::PacketId packet = 0;
  double ready_ns = 0.0;      ///< All dependences delivered.
  double inject_ns = 0.0;     ///< ready + computation time.
  double delivered_ns = 0.0;  ///< Tail flit reaches the destination core.
  double contention_ns = 0.0; ///< Total time spent blocked in input buffers.
  std::uint32_t num_routers = 0;  ///< K for this packet's route.
  std::vector<HopRecord> hops;    ///< local-in, (router, link)*, router,
                                  ///< local-out.
};

/// One entry of a resource's occupancy list ("cost variable list").
struct Occupancy {
  graph::PacketId packet = 0;
  double start_ns = 0.0;
  double end_ns = 0.0;
  bool contended = false;  ///< This worm was blocked while holding/awaiting
                           ///< the resource (the '*' marks in Figure 3a).
};

/// Which evaluation backend executes the schedule: the flow-control policy
/// of the simulator's one event loop. Both agree bitwise whenever the flit
/// backend's flow-control constraints never bind (docs/simulation.md).
enum class SimBackend : std::uint8_t {
  /// The paper's model: a worm claims whole links hop by hop; router input
  /// buffers are unbounded.
  kLinkClaim,
  /// Flit-accurate model: head/body/tail flits stream through *finite*
  /// per-port input buffers (buffer_depth flits each) under credit or
  /// on/off flow control, with wormhole or virtual-cut-through switching.
  /// Stalled worms back up into upstream buffers and, once those fill,
  /// keep upstream links busy (backpressure).
  kFlit,
};

/// kFlit: how a router learns about downstream buffer space.
enum class FlowControl : std::uint8_t {
  /// Per-slot credits: a head may enter the downstream port the instant a
  /// slot frees there.
  kCredit,
  /// On/off signalling: the stop signal is raised one slot early (to cover
  /// the flit in flight) and the go signal takes one link traversal to
  /// arrive, so stalls last >= the credit-based ones.
  kOnOff,
};

/// kFlit: switching discipline.
enum class Switching : std::uint8_t {
  /// Wormhole: a head advances as soon as one downstream slot is free; a
  /// blocked worm's body parks across the buffers along its path.
  kWormhole,
  /// Virtual cut-through: a head advances only once the downstream buffer
  /// can hold the *whole* packet (requires buffer_depth >= max packet
  /// flits; validated at Simulator construction). Blocked worms never hold
  /// upstream links.
  kVirtualCutThrough,
};

struct SimOptions {
  noc::RoutingAlgorithm routing = noc::RoutingAlgorithm::kXY;
  /// Evaluation backend (the event loop's flow-control policy).
  SimBackend backend = SimBackend::kLinkClaim;
  /// kFlit: input-buffer capacity of every router port, in flits (>= 1).
  /// Depths >= max packet flits + 2 never bind, making kFlit bitwise equal
  /// to kLinkClaim under wormhole switching (docs/simulation.md). Finite
  /// buffers exist only under kFlit; link-claim buffers are unbounded.
  std::uint32_t buffer_depth = 8;
  FlowControl flow_control = FlowControl::kCredit;   ///< kFlit only.
  Switching switching = Switching::kWormhole;        ///< kFlit only.
  /// Checkpointed incremental evaluation: scalar link-claim runs record
  /// periodic snapshots of the event loop (packet progress, link busy
  /// times, queued events) at deterministic pop-count boundaries, and each
  /// subsequent run restores the latest snapshot taken before the earliest
  /// instant the mapping change can affect, replaying only the suffix.
  /// Results are bitwise-identical to a full resimulation
  /// (docs/simulation.md spells out the argument). Ignored — with a full
  /// resimulation fallback — for the flit backend and traced runs.
  bool checkpoints = false;
  /// Snapshot cadence in event pops; 0 = auto (scaled from packet count).
  /// 1 checkpoints every pop (maximal restore resolution, maximal memory);
  /// very large values degrade to one pre-loop snapshot (full replays).
  std::uint32_t checkpoint_interval = 0;
};

struct SimulationResult {
  double texec_ns = 0.0;                 ///< Application execution time.
  energy::EnergyBreakdown energy;        ///< Equations 4, 9, 10.
  double total_contention_ns = 0.0;      ///< Sum over packets.
  std::size_t num_contended_packets = 0;
  /// Set when Simulator::run(mapping, reject_above) stopped before
  /// delivering every packet, because the energy already exceeded
  /// reject_above. texec_ns, the static energy and the contention figures
  /// then describe the schedule up to the stop, and energy.total_j() is
  /// still above reject_above. Never set on a complete schedule.
  bool stopped = false;
  std::vector<PacketTrace> packets;      ///< Indexed by PacketId.
  /// Occupancy lists indexed by ResourceId (empty after a scalar
  /// Simulator::run()); each list is sorted by start time.
  std::vector<std::vector<Occupancy>> occupancy;

  // --- kFlit observability (all exactly 0.0 under kLinkClaim, and whenever
  // --- the flow-control constraints never bind) ----------------------------
  /// Admission stalls: time heads waited on downstream buffer space (credit
  /// / on-off / VCT clearance), summed over packets. Included in
  /// total_contention_ns as well.
  double flit_stall_ns = 0.0;
  /// Backpressure: total extension of upstream link busy times caused by
  /// worm bodies that overflowed the buffers along their path.
  double flit_backpressure_ns = 0.0;
  /// Peak modeled input-buffer occupancy, in flits. Never exceeds
  /// SimOptions::buffer_depth (the backpressure cascade is what enforces
  /// the bound).
  double flit_max_occupancy = 0.0;
};

/// Execute `cdcg` mapped by `mapping` onto `topo` under `tech`.
///
/// Preconditions (checked): the mapping covers exactly cdcg.num_cores()
/// cores on this topology, and the CDCG is acyclic. Throws
/// std::invalid_argument / std::logic_error on violations.
SimulationResult simulate(const graph::Cdcg& cdcg, const noc::Topology& topo,
                          const mapping::Mapping& mapping,
                          const energy::Technology& tech,
                          const SimOptions& options = {});

}  // namespace nocmap::sim
