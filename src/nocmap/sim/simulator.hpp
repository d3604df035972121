#pragma once
/// \file simulator.hpp
/// Reusable CDCM evaluation arena with a swap-aware hot path.
///
/// sim::simulate() is correct but pays construction costs on every call: it
/// recomputes every packet's route (two heap allocations per packet) and
/// allocates fresh state/event/result storage. Inside a search loop the
/// (CDCG, topology, technology, options) tuple is fixed and only the mapping
/// changes, so all of that state can be bound once and reused.
///
/// Simulator does exactly that, in three layers:
///
///  * Construction binds the application and NoC: route table, per-packet
///    timing constants, core->packet incidence lists, and every arena buffer
///    (structure-of-arrays: one flat vector per per-packet field, so the
///    per-run reset is a handful of memset/memcpy passes instead of a walk
///    over an array of structs).
///  * run(mapping) diffs `mapping` against the currently bound one and
///    rebinds only the packets incident to cores that moved — after the
///    2-tile swap moves of simulated annealing that is O(deg) route-table
///    lookups instead of O(packets). Rebinding is exact, not approximate:
///    per-packet routes and energies are pure functions of the endpoint
///    tiles, and per-run aggregates are re-accumulated in packet order, so
///    results are byte-identical to a freshly constructed Simulator.
///  * One event loop serves every run. It pops header-arrival events in
///    fully deterministic (time, packet, hop) order, independent of packet
///    construction order, from one of three queues (sim/event_queue.hpp):
///    a flat 4-ary heap of two-word keys, the same heap over one-word keys
///    when every time is an exact integer, or, when the horizon is short
///    too, a bucket calendar. A flow-control policy prices each hop: link
///    claim, or the flit backend's finite buffers. Both choices are made at
///    construction (docs/simulation.md has the table).
///
/// run(mapping) returns a scalars-only result (no per-packet vectors, no
/// occupancy lists) with zero heap allocations in the steady state.
/// run_traced(mapping) produces the full SimulationResult of simulate(),
/// which is a thin wrapper over this class. Both paths run the same event
/// loop, so scalar and traced results agree bitwise. A scalar run may carry
/// a rejection bound and stop once its energy is sure to exceed it, first
/// at its contention-free schedule and then during the simulation; the
/// unbounded run is the same run with a bound of +infinity.
///
/// A Simulator instance is NOT thread-safe (it mutates its arena); give each
/// thread its own instance. CdcmCost owns one per cost-function object, and
/// the parallel searches build one cost function per worker.

#include <cstdint>
#include <limits>
#include <vector>

#include "nocmap/graph/cdcg.hpp"
#include "nocmap/mapping/mapping.hpp"
#include "nocmap/noc/topology.hpp"
#include "nocmap/noc/route_table.hpp"
#include "nocmap/sim/event_queue.hpp"
#include "nocmap/sim/schedule.hpp"

namespace nocmap::sim {

/// Counters for SimOptions::checkpoints, accumulated across scalar runs.
/// pops_total counts the event pops a full resimulation of every run would
/// have executed; pops_replayed counts the pops actually executed after
/// snapshot restores, so 1 - replay_frac() is the fraction of event work the
/// checkpoints saved.
struct CheckpointStats {
  std::uint64_t runs = 0;          ///< Checkpointed scalar runs.
  std::uint64_t restored_runs = 0; ///< Served from a mid-schedule restore.
  std::uint64_t pops_total = 0;
  std::uint64_t pops_replayed = 0;
  double replay_frac() const {
    return pops_total == 0
               ? 1.0
               : static_cast<double>(pops_replayed) /
                     static_cast<double>(pops_total);
  }
};

/// The queue a Simulator's scalar runs pop from, chosen from the input at
/// construction. Traced runs and checkpoint recording always take the
/// two-word heap. All pop in one total order (docs/simulation.md, "One
/// event loop, two policies").
enum class ScalarQueue : std::uint8_t {
  kHeap,      ///< Two-word keys: any non-negative time.
  kWordHeap,  ///< One-word keys: integer times, horizon below 2^45 ns.
  kCalendar,  ///< Buckets: integer times, horizon at most 2^24 ns,
              ///< link claim only.
};

class Simulator {
 public:
  /// Binds the application, NoC and technology; validates them once and
  /// precomputes the route table. The referenced objects must outlive the
  /// Simulator.
  Simulator(const graph::Cdcg& cdcg, const noc::Topology& topo,
            const energy::Technology& tech, SimOptions options = {});

  /// Evaluate `mapping`, reusing all internal buffers and the route bindings
  /// of the previous run (only packets whose endpoint cores moved are
  /// rebound). The returned result carries the scalar fields only (texec,
  /// energy, contention); its `packets` and `occupancy` vectors stay empty.
  /// The reference is valid until the next run()/run_traced() call on this
  /// instance.
  ///
  /// `reject_above` bounds the run: it stops as soon as its Equation-10
  /// energy is certain to exceed the bound, before injecting anything when
  /// the dynamic energy alone does or when the dynamic energy plus the
  /// static power times contention_free_makespan() does (the result then
  /// reports that makespan as texec_ns), otherwise at the first delivery
  /// after which the dynamic energy plus the static power times the
  /// makespan so far does. A stopped result has `stopped` set and
  /// reject_above < energy.total_j() <= the unbounded cost; a run that
  /// completes is bitwise the unbounded run (docs/simulation.md, "Bounded
  /// runs"). Runs with checkpointing_active() ignore the bound.
  const SimulationResult& run(
      const mapping::Mapping& mapping,
      double reject_above = std::numeric_limits<double>::infinity());

  /// Evaluate `mapping` and return the full result by value: per-packet
  /// records, hop lists and occupancy lists. This is the semantics of
  /// sim::simulate().
  SimulationResult run_traced(const mapping::Mapping& mapping);

  /// The makespan of `mapping`'s schedule with every wait zero: each
  /// packet's constants added in the order the event loop adds them, at
  /// the latest delivery of its predecessors. Rounding is monotone and
  /// waits are never negative, so this is at most the texec_ns of run()
  /// bit for bit, under either backend, and equal to it when nothing
  /// waits. Binds `mapping` like run() does.
  double contention_free_makespan(const mapping::Mapping& mapping);

  /// True when SimOptions::checkpoints is set AND this binding is eligible
  /// (link-claim backend, tr > 0 and tl > 0, at least one packet).
  /// Ineligible bindings silently fall back to full resimulation, so
  /// results never depend on this flag.
  bool checkpointing_active() const { return ckpt_active_; }
  const CheckpointStats& checkpoint_stats() const { return ckpt_stats_; }
  void reset_checkpoint_stats() { ckpt_stats_ = CheckpointStats{}; }
  /// The resolved snapshot cadence in pops (the auto-tuned value when
  /// SimOptions::checkpoint_interval == 0).
  std::uint64_t checkpoint_interval() const { return ckpt_interval_res_; }

  ScalarQueue scalar_queue() const { return scalar_queue_; }

 private:
  /// How far a run has got: deliveries, the makespan so far, and (when
  /// recording checkpoints) the events popped.
  struct Progress {
    std::size_t delivered = 0;
    double texec = 0.0;
    std::uint64_t pops = 0;
  };
  // run_loop's queue policies (HeapQueue, WordHeap, BucketCalendar) and
  // flow-control policies (LinkClaim, FlitGate), defined in simulator.cpp.
  // Queue policies are at most two pointers wide and pass by value, so the
  // loop keeps them in registers.
  struct HeapQueue;
  struct WordHeap;
  struct BucketCalendar;
  struct LinkClaim;
  struct FlitGate;

  template <bool Full>
  void run_impl(const mapping::Mapping& mapping, double reject_above,
                SimulationResult& out);
  /// The one event loop: one event per router of every route, popped from
  /// `queue` (a heap, or the integer-time calendar), with `flow` adding its
  /// buffer model's constraints to link arbitration. Full records traces;
  /// Ckpt (scalar heap runs only) keeps the queued-event shadow and
  /// snapshots the arena every ckpt_interval_res_ pops. Scalar link-claim
  /// runs without Ckpt fuse each packet's ejection into its last link
  /// claim. Resumes from `st`, and returns early, with packets undelivered,
  /// after the first delivery that takes the energy so far above
  /// `reject_above`.
  template <bool Full, bool Ckpt, class Queue, class Flow>
  Progress run_loop(Queue queue, const Flow& flow, Progress st,
                    double reject_above, SimulationResult& out);
  /// Inject every root packet, then run the loop from the start.
  template <bool Full, bool Ckpt = false, class Queue, class Flow>
  Progress run_from_roots(Queue queue, const Flow& flow, double reject_above,
                          SimulationResult& out);
  template <bool Full, bool Ckpt, class Queue>
  void inject(Queue queue, graph::PacketId p, SimulationResult& out);
  /// Deliver `p` at `delivered_ns` and inject the successors it frees.
  template <bool Full, bool Ckpt, class Queue>
  void deliver(Queue queue, graph::PacketId p, double delivered_ns,
               Progress& st, SimulationResult& out);
  /// Traced path: append the router record of `hop` and the record of the
  /// resource the header leaves it on (`next`).
  void record_hop(graph::PacketId p, std::uint32_t hop, noc::ResourceId next,
                  double arrival, double header_out, SimulationResult& out);

  /// Validate `mapping`'s shape (the one-time bind() check — the event loop
  /// itself is check-free), diff it against the bound mapping, and rebind
  /// the packets incident to every core that moved.
  void sync_bind(const mapping::Mapping& mapping);
  void rebind_packet(graph::PacketId p);
  /// contention_free_makespan() of the bound mapping.
  double floor_makespan();

  /// Reset the per-run arena to the pre-injection state (pending counts,
  /// ready/contention times, link busy times, event queue).
  template <bool Full>
  void reset_arena();
  /// The checkpointed scalar path: pick the latest snapshot at or before
  /// the earliest affected instant of this run's rebind, restore it and
  /// replay the suffix — or run in full (recording snapshots) when no
  /// usable snapshot exists.
  void run_ckpt(SimulationResult& out);
  /// Append a snapshot of the current mid-loop state.
  void record_ckpt(const Progress& at, const SimulationResult& out);

  const graph::Cdcg& cdcg_;
  const noc::Topology& topo_;
  energy::Technology tech_;
  SimOptions options_;
  noc::RouteTable routes_;

  /// Everything the event loop reads per event besides the route row,
  /// packed together per packet: the bound route's length, the worm's
  /// serialization time and the CSR successor range. `len` is rewritten by
  /// rebind_packet(); the rest is immutable after construction.
  struct HotPacket {
    double n_tl = 0.0;            ///< flits * tl (serialization time).
    std::uint32_t len = 0;        ///< K: routers on the bound route.
    std::uint32_t succ_begin = 0;
    std::uint32_t succ_end = 0;
  };

  // --- Bound once per (cdcg, tech): timing constants, immutable packet data.
  double lambda_, tr_, tl_;
  double static_power_;  ///< Equation 5: the NoC's static power, J/ns.
  std::vector<HotPacket> hot_;
  std::vector<double> flits_;     ///< Per-packet flit count (as double).
  std::vector<double> comp_ns_;   ///< Per-packet t_aq * lambda.
  std::vector<std::uint32_t> num_preds_;
  /// What rebind_packet() reads per packet: the endpoint cores and the bit
  /// volume (as double, the conversion dynamic_packet_energy performs).
  std::vector<graph::CoreId> src_core_;
  std::vector<graph::CoreId> dst_core_;
  std::vector<double> bits_;
  /// dynamic_bit_energy per router count, up to the longest route;
  /// bits_[p] * ebit_[k] is bitwise dynamic_packet_energy(tech, bits, k).
  std::vector<double> ebit_;
  /// A topological order of the packets, and the per-packet latest
  /// predecessor delivery of the contention-free schedule.
  std::vector<graph::PacketId> topo_order_;
  std::vector<double> floor_ready_;
  /// Successor lists in CSR form: successors of p are
  /// succ_list_[hot_[p].succ_begin .. hot_[p].succ_end).
  std::vector<graph::PacketId> succ_list_;
  /// Packets incident to each core (as source or destination), CSR form.
  std::vector<std::uint32_t> core_pkt_off_;
  std::vector<graph::PacketId> core_pkt_list_;
  /// Per-tile local-link resource ids, precomputed so the event loop never
  /// pays a virtual call into the topology.
  std::vector<noc::ResourceId> local_in_;
  std::vector<noc::ResourceId> local_out_;

  // --- Route bindings for the currently bound mapping (SoA) ----------------
  bool bound_ = false;
  std::vector<noc::TileId> bound_tiles_;  ///< Per-core bound tile.
  std::vector<const noc::TileId*> route_routers_;  ///< Traced path only.
  std::vector<noc::ResourceId> src_local_in_; ///< Injection link per packet.
  std::vector<noc::ResourceId> dst_local_out_;///< Ejection link per packet.
  /// Per-packet bound route links, one arena_stride_-wide row each.
  std::vector<noc::ResourceId> links_arena_;
  std::size_t arena_stride_ = 1;  ///< Longest route's links, rounded to pow2.
  std::vector<double> dyn_energy_;  ///< Per-packet Equation-4 energy.
  std::vector<std::uint64_t> rebind_stamp_;   ///< Dedup for rebinding.
  std::uint64_t stamp_ = 0;
  std::vector<graph::CoreId> moved_scratch_;

  // --- Per-run arena (SoA), reused across runs -----------------------------
  std::vector<std::uint32_t> pending_;  ///< Outstanding predecessor count.
  std::vector<double> ready_;           ///< Running max of pred deliveries.
  std::vector<double> contention_;      ///< Accumulated blocked time.
  std::vector<std::uint8_t> contended_down_;  ///< Traced path only.
  std::vector<double> link_free_;       ///< Per-resource "busy until".
  detail::EventQueue queue_;
  SimulationResult scalar_result_;      ///< Backs run()'s return value.

  // --- Checkpointed incremental evaluation (SimOptions::checkpoints) -------
  /// One snapshot of the scalar event loop at a pop-count boundary. Every
  /// injected-but-undelivered packet holds exactly one queued event, so the
  /// queue state is three flat per-packet arrays instead of a heap copy.
  struct Ckpt {
    Progress at;                   ///< at.pops: pops before this boundary.
    detail::QueuedEvent next{};    ///< Key of the next pop (validity test).
    bool has_next = false;         ///< False at the end-of-run snapshot.
    double total_contention = 0.0;
    std::size_t num_contended = 0;
    std::vector<std::uint32_t> pending;
    std::vector<double> ready;
    std::vector<double> contention;
    std::vector<double> link_free;
    std::vector<double> ev_time;       ///< Queued-event arrival per packet.
    std::vector<std::uint32_t> ev_hop; ///< Queued-event hop per packet.
    std::vector<std::uint8_t> ev_state;///< 0 waiting, 1 queued, 2 delivered.
  };
  static constexpr std::size_t kMaxCkptSlots = 4096;

  bool ckpt_active_ = false;      ///< options + eligibility (see ctor).
  bool ckpt_valid_ = false;       ///< Snapshots match the arena's last run.
  bool full_rebind_run_ = false;  ///< sync_bind() took the first-bind path.
  std::uint64_t ckpt_interval_res_ = 0;  ///< Resolved snapshot cadence.
  std::vector<Ckpt> ckpts_;       ///< Slot pool, reused across runs.
  std::size_t ckpt_count_ = 0;    ///< Live prefix of ckpts_.
  /// Shadow of the queue during recording runs: each packet's single
  /// in-flight event, updated on inject/advance/delivery.
  std::vector<double> ev_time_;
  std::vector<std::uint32_t> ev_hop_;
  std::vector<std::uint8_t> ev_state_;
  CheckpointStats ckpt_stats_;
  /// Suffix replays normally run on the bucket calendar (when it is the
  /// scalar queue), whose mid-run states cannot be snapshotted (the fused
  /// ejection applies successor effects at an earlier pop position). Every
  /// kCkptRefreshPeriod-th restored replay runs on the recording heap
  /// instead, so the snapshot ladder regrows behind the walk's earliest
  /// affected instant after truncations.
  static constexpr std::uint32_t kCkptRefreshPeriod = 16;
  std::uint32_t ckpt_replays_since_refresh_ = 0;

  // --- Integer-time fast paths ---------------------------------------------
  /// The two-word heap unless every timing constant is an exact integer
  /// (in ns) and the ids and the worst-case horizon fit a faster queue —
  /// verified in the constructor, never assumed. All arithmetic then stays
  /// exact, so results are byte-identical to the two-word heap's.
  ScalarQueue scalar_queue_ = ScalarQueue::kHeap;
  detail::BucketQueue bucket_;
  /// The one-word heap, with each packet's queued hop beside it.
  detail::EventHeap<std::uint64_t> word_queue_;
  std::vector<std::uint32_t> word_hop_;

  // --- Flit backend (options_.backend == kFlit) ----------------------------
  /// Per-(packet, hop) header-out history of the current run — the
  /// backpressure cascade needs the upstream flit-arrival schedule, which
  /// is not derivable from the head event alone.
  std::vector<double> hout_arena_;
  /// Per-link port state of the *downstream* input buffer the link feeds:
  /// the earliest time a new worm's head finds a free slot there, and the
  /// time the buffer is completely empty (VCT admission). Both stay 0.0
  /// until a worm's transit could actually have filled the port.
  std::vector<double> port_slot_free_;
  std::vector<double> port_clear_;
};

}  // namespace nocmap::sim
