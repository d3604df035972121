#include "nocmap/sim/simulator.hpp"

#include <algorithm>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <string>
#include <type_traits>

namespace nocmap::sim {

namespace {
constexpr double kNoBound = std::numeric_limits<double>::infinity();

/// An event as the loop reads it, whatever its queue's key format.
struct Event {
  double time_ns;
  graph::PacketId packet;
  std::uint32_t hop;
};

/// Only a dependence cycle could drain a queue early, and the CDCG was
/// validated acyclic at construction.
[[noreturn]] void throw_undelivered() {
  throw std::logic_error("simulate: not all packets were delivered");
}
}  // namespace

Simulator::Simulator(const graph::Cdcg& cdcg, const noc::Topology& topo,
                     const energy::Technology& tech, SimOptions options)
    : cdcg_(cdcg),
      topo_(topo),
      tech_(tech),
      options_(options),
      routes_(topo, options.routing),
      lambda_(tech.clock_period_ns),
      tr_(static_cast<double>(tech.tr_cycles) * tech.clock_period_ns),
      tl_(static_cast<double>(tech.tl_cycles) * tech.clock_period_ns),
      static_power_(energy::static_noc_power(tech, topo.num_tiles())) {
  tech_.validate();
  cdcg_.validate(/*require_connected=*/false);

  if (options_.backend == SimBackend::kFlit && options_.buffer_depth == 0) {
    throw std::invalid_argument(
        "simulate: the flit backend needs buffer_depth >= 1");
  }

  const std::size_t num_packets = cdcg_.num_packets();
  const std::size_t num_cores = cdcg_.num_cores();
  hot_.resize(num_packets);
  flits_.reserve(num_packets);
  comp_ns_.reserve(num_packets);
  num_preds_.reserve(num_packets);
  src_core_.reserve(num_packets);
  dst_core_.reserve(num_packets);
  bits_.reserve(num_packets);
  for (graph::PacketId p = 0; p < num_packets; ++p) {
    const graph::Packet& pk = cdcg_.packet(p);
    const double flits = static_cast<double>(tech_.flits(pk.bits));
    src_core_.push_back(pk.src);
    dst_core_.push_back(pk.dst);
    bits_.push_back(static_cast<double>(pk.bits));
    flits_.push_back(flits);
    comp_ns_.push_back(static_cast<double>(pk.comp_time) * lambda_);
    num_preds_.push_back(
        static_cast<std::uint32_t>(cdcg_.predecessors(p).size()));
    HotPacket& hp = hot_[p];
    hp.n_tl = flits * tl_;
    const std::vector<graph::PacketId>& succ = cdcg_.successors(p);
    hp.succ_begin = static_cast<std::uint32_t>(succ_list_.size());
    succ_list_.insert(succ_list_.end(), succ.begin(), succ.end());
    hp.succ_end = static_cast<std::uint32_t>(succ_list_.size());
  }
  topo_order_ = cdcg_.topological_order();
  floor_ready_.resize(num_packets);

  // Packets incident to each core — counting sort into CSR. A packet shows
  // up in both its endpoints' lists (src != dst is a CDCG invariant).
  core_pkt_off_.assign(num_cores + 1, 0);
  for (graph::PacketId p = 0; p < num_packets; ++p) {
    ++core_pkt_off_[src_core_[p] + 1];
    ++core_pkt_off_[dst_core_[p] + 1];
  }
  for (std::size_t c = 1; c <= num_cores; ++c) {
    core_pkt_off_[c] += core_pkt_off_[c - 1];
  }
  core_pkt_list_.resize(core_pkt_off_[num_cores]);
  std::vector<std::uint32_t> fill(core_pkt_off_.begin(),
                                  core_pkt_off_.end() - 1);
  for (graph::PacketId p = 0; p < num_packets; ++p) {
    core_pkt_list_[fill[src_core_[p]]++] = p;
    core_pkt_list_[fill[dst_core_[p]]++] = p;
  }

  local_in_.reserve(topo_.num_tiles());
  local_out_.reserve(topo_.num_tiles());
  for (noc::TileId t = 0; t < topo_.num_tiles(); ++t) {
    local_in_.push_back(topo_.local_in_resource(t));
    local_out_.push_back(topo_.local_out_resource(t));
  }

  bound_tiles_.resize(num_cores);
  route_routers_.resize(num_packets);
  src_local_in_.resize(num_packets);
  dst_local_out_.resize(num_packets);
  dyn_energy_.resize(num_packets);
  rebind_stamp_.assign(num_packets, 0);
  moved_scratch_.reserve(num_cores);

  pending_.resize(num_packets);
  ready_.resize(num_packets);
  contention_.resize(num_packets);
  contended_down_.resize(num_packets);
  link_free_.resize(topo_.num_resources(), 0.0);
  queue_.reserve(num_packets + 1);

  // --- Dense route rows -----------------------------------------------------
  // rebind_packet() copies each bound route into a fixed-stride row, so the
  // event loop finds a link without first loading a pointer into the route
  // table. Rows (and the flit backend's header-out history) fit the longest
  // route over every tile pair, in inter-router links.
  std::uint32_t max_links = 0;
  for (noc::TileId s = 0; s < topo_.num_tiles(); ++s) {
    for (noc::TileId d = 0; d < topo_.num_tiles(); ++d) {
      max_links = std::max(max_links, routes_.hops(s, d) - 1);
    }
  }
  while (arena_stride_ < max_links) arena_stride_ <<= 1;
  links_arena_.resize(num_packets * arena_stride_);
  ebit_.resize(max_links + 2, 0.0);
  for (std::uint32_t k = 1; k <= max_links + 1; ++k) {
    ebit_[k] = energy::dynamic_bit_energy(tech_, k);
  }

  // --- Integer-time fast-path eligibility ----------------------------------
  // Exact checks, not preset assumptions: every timing constant must be an
  // exact non-negative integer number of nanoseconds (then all event times
  // are integer-valued doubles and double arithmetic is exact), ids must
  // fit the packed key formats, and the worst-case schedule horizon must
  // fit them too: 2^24 ns for the calendar, whose bucket count is the
  // horizon, and 2^45 ns for one-word keys.
  const auto integral = [](double v) {
    return v >= 0.0 && v < 9.0e15 &&
           static_cast<double>(static_cast<std::uint64_t>(v)) == v;
  };
  bool integer_time =
      num_packets > 0 && integral(tr_) && integral(tl_) && max_links > 0;
  for (graph::PacketId p = 0; integer_time && p < num_packets; ++p) {
    integer_time = integral(comp_ns_[p]) && integral(hot_[p].n_tl);
  }
  if (integer_time) {
    // Horizon bound: each of a packet's events advances the latest time
    // (queued, link-free, port or delivery) by at most tr + tl + n_tl, plus
    // one tl of on/off signalling lag under the flit backend, and its
    // injection by comp + tl, so the schedule ends below this sum for any
    // mapping.
    const double gate_lag =
        options_.backend == SimBackend::kFlit ? tl_ : 0.0;
    double horizon = 0.0;
    for (graph::PacketId p = 0; p < num_packets; ++p) {
      horizon += comp_ns_[p] + static_cast<double>(max_links + 2) *
                                   (tr_ + tl_ + gate_lag + hot_[p].n_tl);
    }
    if (options_.backend == SimBackend::kLinkClaim &&
        num_packets < detail::BucketQueue::kMaxPackets &&
        max_links + 1 < detail::BucketQueue::kMaxHops &&
        horizon <= static_cast<double>(1u << 24)) {
      scalar_queue_ = ScalarQueue::kCalendar;
      bucket_.init(num_packets);
    } else if (num_packets <= detail::WordKey::kMaxPackets &&
               horizon < static_cast<double>(detail::WordKey::kMaxTime)) {
      scalar_queue_ = ScalarQueue::kWordHeap;
      word_queue_.reserve(num_packets + 1);
      word_hop_.resize(num_packets);
    }
  }

  // --- Checkpointed incremental evaluation ---------------------------------
  // Eligibility is exact, not assumed: the restore argument needs strictly
  // sorted pops (tr > 0 and tl > 0 make every pushed key strictly future);
  // the flit backend's port-state arenas are not snapshotted. Ineligible
  // bindings silently run in full, so results never depend on this flag.
  ckpt_active_ = options_.checkpoints &&
                 options_.backend == SimBackend::kLinkClaim && tr_ > 0.0 &&
                 tl_ > 0.0 && num_packets > 0;
  if (ckpt_active_) {
    // Auto cadence: about 16 snapshots over the ~6 pops a packet's route
    // contributes on the shipped meshes, floored so tiny graphs do not
    // snapshot every other pop.
    ckpt_interval_res_ =
        options_.checkpoint_interval != 0
            ? options_.checkpoint_interval
            : std::max<std::uint64_t>(32, (num_packets * 6) / 16);
    ev_time_.resize(num_packets);
    ev_hop_.resize(num_packets);
    ev_state_.resize(num_packets);
  }

  // --- Flit-backend arenas --------------------------------------------------
  if (options_.backend == SimBackend::kFlit) {
    double max_flits = 0.0;
    for (graph::PacketId p = 0; p < num_packets; ++p) {
      max_flits = std::max(max_flits, flits_[p]);
    }
    if (options_.switching == Switching::kVirtualCutThrough &&
        static_cast<double>(options_.buffer_depth) < max_flits) {
      throw std::invalid_argument(
          "simulate: virtual cut-through stores whole packets, so "
          "buffer_depth must be >= the largest packet's flit count (" +
          std::to_string(static_cast<std::uint64_t>(max_flits)) + ")");
    }
    hout_arena_.resize(num_packets * arena_stride_);
    port_slot_free_.resize(topo_.num_resources(), 0.0);
    port_clear_.resize(topo_.num_resources(), 0.0);
  }
}

void Simulator::rebind_packet(graph::PacketId p) {
  const noc::TileId src = bound_tiles_[src_core_[p]];
  const noc::TileId dst = bound_tiles_[dst_core_[p]];
  const noc::RouteSpan<noc::TileId> routers = routes_.routers(src, dst);
  const noc::RouteSpan<noc::ResourceId> links = routes_.links(src, dst);
  route_routers_[p] = routers.data;
  std::memcpy(&links_arena_[p * arena_stride_], links.data,
              links.size * sizeof(noc::ResourceId));
  hot_[p].len = routers.size;
  src_local_in_[p] = local_in_[src];
  dst_local_out_[p] = local_out_[dst];
  // Dynamic energy depends only on volume and hop count (Equation 4).
  dyn_energy_[p] = bits_[p] * ebit_[routers.size];
}

void Simulator::sync_bind(const mapping::Mapping& mapping) {
  // The one-time shape validation: two integer compares per run, and the
  // event loop below never re-checks anything.
  if (mapping.num_cores() != cdcg_.num_cores()) {
    throw std::invalid_argument(
        "simulate: mapping and CDCG disagree on the number of cores");
  }
  if (mapping.num_tiles() != topo_.num_tiles()) {
    throw std::invalid_argument(
        "simulate: mapping built for another topology");
  }

  const std::size_t num_cores = cdcg_.num_cores();
  full_rebind_run_ = false;
  if (!bound_) {
    for (graph::CoreId c = 0; c < num_cores; ++c) {
      bound_tiles_[c] = mapping.tile_of(c);
    }
    for (graph::PacketId p = 0; p < cdcg_.num_packets(); ++p) {
      rebind_packet(p);
    }
    bound_ = true;
    full_rebind_run_ = true;
    return;
  }

  // Diff against the bound mapping: after a search swap move at most two
  // cores differ, so rebinding touches only their incident packets.
  moved_scratch_.clear();
  for (graph::CoreId c = 0; c < num_cores; ++c) {
    const noc::TileId t = mapping.tile_of(c);
    if (bound_tiles_[c] != t) {
      bound_tiles_[c] = t;
      moved_scratch_.push_back(c);
    }
  }
  if (moved_scratch_.empty()) return;
  ++stamp_;
  for (const graph::CoreId c : moved_scratch_) {
    const std::uint32_t begin = core_pkt_off_[c];
    const std::uint32_t end = core_pkt_off_[c + 1];
    for (std::uint32_t i = begin; i < end; ++i) {
      const graph::PacketId p = core_pkt_list_[i];
      if (rebind_stamp_[p] == stamp_) continue;  // Both endpoints moved.
      rebind_stamp_[p] = stamp_;
      rebind_packet(p);
    }
  }
}

// --- Queue policies ----------------------------------------------------------
// All pop in the same total (time, packet, hop) order. next() yields the
// earliest event; the loop then either advance()s the packet to its next
// hop or retire()s the event at delivery.

/// The 4-ary heap over two-word keys: serves every run the integer-time
/// queues cannot — non-integer timing, traces and checkpoint recording.
struct Simulator::HeapQueue {
  detail::EventQueue& heap;

  void push(double time_ns, graph::PacketId p, std::uint32_t hop) {
    heap.push(detail::QueuedEvent::make(time_ns, p, hop));
  }
  Event next() const {
    if (heap.empty()) throw_undelivered();
    const detail::QueuedEvent& e = heap.min();
    return Event{e.time_ns(), e.packet(), e.hop()};
  }
  /// The header's next arrival replaces the popped event in one sift-down.
  void advance(double time_ns, graph::PacketId p, std::uint32_t hop) {
    heap.replace_min(detail::QueuedEvent::make(time_ns, p, hop));
  }
  void retire() { heap.pop_min(); }
};

/// The same heap over one-word (time, packet) keys (ScalarQueue::kWordHeap).
/// A packet has one queued event, so its hop lives in a per-packet array.
struct Simulator::WordHeap {
  detail::EventHeap<std::uint64_t>& heap;
  std::uint32_t* hops;

  void push(double time_ns, graph::PacketId p, std::uint32_t hop) {
    hops[p] = hop;
    heap.push(detail::WordKey::make(time_ns, p));
  }
  Event next() const {
    if (heap.empty()) throw_undelivered();
    const std::uint64_t key = heap.min();
    const graph::PacketId p = detail::WordKey::packet(key);
    return Event{detail::WordKey::time_ns(key), p, hops[p]};
  }
  void advance(double time_ns, graph::PacketId p, std::uint32_t hop) {
    hops[p] = hop;
    heap.replace_min(detail::WordKey::make(time_ns, p));
  }
  void retire() { heap.pop_min(); }
};

/// The integer-time bucket calendar (ScalarQueue::kCalendar). next()
/// already pops, so there is nothing to retire.
struct Simulator::BucketCalendar {
  detail::BucketQueue& calendar;

  void push(double time_ns, graph::PacketId p, std::uint32_t hop) {
    calendar.push(static_cast<std::size_t>(time_ns), p, hop);
  }
  Event next() {
    std::size_t bucket = 0;
    std::uint32_t p = 0;
    std::uint32_t hop = 0;
    calendar.pop_min(bucket, p, hop);  // Throws when drained early.
    return Event{static_cast<double>(bucket), p, hop};
  }
  void advance(double time_ns, graph::PacketId p, std::uint32_t hop) {
    push(time_ns, p, hop);
  }
  void retire() {}
};

// --- Flow-control policies ---------------------------------------------------
// Output-link arbitration (FIFO by header arrival) is the loop's own; a
// policy adds the constraints of its buffer model around it.

/// The paper's model: buffers are unbounded, so only the link ahead binds.
struct Simulator::LinkClaim {
  void admit(noc::ResourceId, double, double&, SimulationResult&) const {}
  void claimed(graph::PacketId, std::uint32_t, double, double,
               SimulationResult&) const {}
  void ejected(graph::PacketId, std::uint32_t, double,
               SimulationResult&) const {}
};

/// The flit backend: finite input buffers under credit or on/off flow
/// control, wormhole or virtual cut-through. Each constraint is written so
/// that a non-binding one contributes an exact +0.0 and leaves every
/// accumulator byte-identical to LinkClaim:
///
///  * admission (admit) — the head additionally waits for buffer space at
///    the far end of the link it claims: one slot under wormhole (credits /
///    on-off), the whole buffer under virtual cut-through;
///  * port drain (drain) — a worm streams through a port at one flit per tl,
///    entering at its previous hop's header-out and leaving at this hop's,
///    so the port's free-slot / all-clear times follow in closed form and
///    the event count stays one per router per packet;
///  * backpressure (claimed) — a stalled worm's body parks across the input
///    buffers along its path; whatever a buffer cannot absorb keeps the
///    link feeding it busy past its nominal tail time.
struct Simulator::FlitGate {
  Simulator& s;
  bool onoff;
  bool vct;
  double depth;
  /// Body slots one input buffer offers a *stalled* worm. On/off raises the
  /// stop signal one slot early to cover the flit in flight.
  double stage_slots;

  explicit FlitGate(Simulator& sim)
      : s(sim),
        onoff(sim.options_.flow_control == FlowControl::kOnOff),
        vct(sim.options_.switching == Switching::kVirtualCutThrough),
        depth(static_cast<double>(sim.options_.buffer_depth)),
        stage_slots(onoff && depth > 1.0 ? depth - 1.0 : depth) {}

  void admit(noc::ResourceId link, double arrival, double& wait,
             SimulationResult& out) const {
    // port_slot_free_/port_clear_ stay 0.0 for ports no worm could have
    // filled, so the gate is +0.0 exactly then.
    const double slot = s.port_slot_free_[link];
    const double gate =
        vct ? s.port_clear_[link] : (onoff && slot > 0.0 ? slot + s.tl_ : slot);
    const double granted = arrival + wait;
    const double admit_wait = granted < gate ? gate - granted : 0.0;
    wait += admit_wait;
    out.flit_stall_ns += admit_wait;
  }

  void claimed(graph::PacketId p, std::uint32_t hop, double header_out,
               double wait, SimulationResult& out) const {
    const std::size_t row = p * s.arena_stride_;
    s.hout_arena_[row + hop] = header_out;
    if (hop == 0) return;
    drain(p, hop, header_out, out);
    // The head stalled `wait`; its body backs up into the buffers behind
    // it, each stage absorbing what fits, and any leftover keeps the link
    // feeding that stage busy. Under VCT the downstream buffer holds the
    // whole worm (depth >= flits, validated), so upstream links are never
    // held.
    if (wait <= 0.0 || vct) return;
    const double n_tl = s.hot_[p].n_tl;
    double remaining = wait;
    double body = s.flits_[p] - 1.0;  // Flits behind the head.
    double cap = stage_slots - 1.0;   // The head occupies one slot.
    std::uint32_t k = hop;
    while (k > 0 && body > 0.0) {
      const double park = std::min(body, cap > 0.0 ? cap : 0.0);
      remaining -= park * s.tl_;
      body -= park;
      if (remaining <= 0.0 || body <= 0.0) break;
      const noc::ResourceId up = s.links_arena_[row + k - 1];
      const double tail_done = s.hout_arena_[row + k - 1] + n_tl + remaining;
      if (tail_done > s.link_free_[up]) {
        out.flit_backpressure_ns += tail_done - s.link_free_[up];
        s.link_free_[up] = tail_done;
      }
      --k;
      cap = stage_slots;
    }
  }

  /// Ejection never blocks (the destination NI always accepts flits), but
  /// the final router's input port still drains at flit rate.
  void ejected(graph::PacketId p, std::uint32_t hop, double header_out,
               SimulationResult& out) const {
    drain(p, hop, header_out, out);
  }

  /// Drain bookkeeping for the input port the head of `p` just left: the
  /// far end of links[hop - 1].
  void drain(graph::PacketId p, std::uint32_t hop, double header_out,
             SimulationResult& out) const {
    const std::size_t prev = p * s.arena_stride_ + hop - 1;
    const noc::ResourceId inport = s.links_arena_[prev];
    const double flits = s.flits_[p];
    const double hout_prev = s.hout_arena_[prev];
    const double occ =
        std::min(flits, std::min((header_out - hout_prev) / s.tl_, depth));
    if (occ > out.flit_max_occupancy) out.flit_max_occupancy = occ;
    // The whole buffer is clear of this worm once its tail has been
    // forwarded (VCT admission reads this).
    s.port_clear_[inport] =
        std::max(s.port_clear_[inport], header_out + s.hot_[p].n_tl);
    // A following head finds a free slot once at most stage_slots - 1 of
    // this worm's flits can still be queued here. Worms shorter than the
    // buffer can never fill it: no update, the gate keeps its prior value.
    const double excess = flits - (stage_slots - 1.0);
    if (excess > 0.0) {
      s.port_slot_free_[inport] =
          std::max(s.port_slot_free_[inport], header_out + excess * s.tl_);
    }
  }
};

void Simulator::record_hop(graph::PacketId p, std::uint32_t hop,
                           noc::ResourceId next, double arrival,
                           double header_out, SimulationResult& out) {
  // The router holds the worm from header arrival until its tail flit is
  // forwarded; `next` (a link, or the local-out at the destination) from
  // header entry until the tail has crossed it.
  const noc::ResourceId router = topo_.router_resource(route_routers_[p][hop]);
  const double router_end = header_out + (flits_[p] - 1.0) * tl_;
  const double next_end = header_out + hot_[p].n_tl;
  const bool contended = contended_down_[p] != 0;
  std::vector<HopRecord>& hops = out.packets[p].hops;
  hops.push_back(HopRecord{router, arrival, router_end});
  hops.push_back(HopRecord{next, header_out, next_end});
  out.occupancy[router].push_back(
      Occupancy{p, arrival, router_end, contended});
  out.occupancy[next].push_back(Occupancy{p, header_out, next_end, contended});
}

template <bool Full, bool Ckpt, class Queue>
void Simulator::inject(Queue queue, graph::PacketId p, SimulationResult& out) {
  // Local links overlap freely, so injection never waits.
  const double start = ready_[p] + comp_ns_[p];
  if constexpr (Full) {
    const double end = start + hot_[p].n_tl;
    const noc::ResourceId local_in = src_local_in_[p];
    PacketTrace& trace = out.packets[p];
    trace.packet = p;
    trace.ready_ns = ready_[p];
    trace.inject_ns = start;
    trace.hops.push_back(HopRecord{local_in, start, end});
    out.occupancy[local_in].push_back(Occupancy{p, start, end, false});
  }
  if constexpr (Ckpt) {
    ev_time_[p] = start + tl_;
    ev_hop_[p] = 0;
    ev_state_[p] = 1;
  }
  queue.push(start + tl_, p, 0);
}

template <bool Full, bool Ckpt, class Queue>
void Simulator::deliver(Queue queue, graph::PacketId p, double delivered_ns,
                        Progress& st, SimulationResult& out) {
  ++st.delivered;
  st.texec = std::max(st.texec, delivered_ns);
  if (contention_[p] > 0) ++out.num_contended_packets;
  if constexpr (Full) {
    PacketTrace& trace = out.packets[p];
    trace.delivered_ns = delivered_ns;
    trace.contention_ns = contention_[p];
  }
  if constexpr (Ckpt) ev_state_[p] = 2;
  const HotPacket& hp = hot_[p];
  const std::uint32_t succ_end = hp.succ_end;
  for (std::uint32_t i = hp.succ_begin; i < succ_end; ++i) {
    const graph::PacketId succ = succ_list_[i];
    ready_[succ] = std::max(ready_[succ], delivered_ns);
    if (--pending_[succ] == 0) inject<Full, Ckpt>(queue, succ, out);
  }
}

const SimulationResult& Simulator::run(const mapping::Mapping& mapping,
                                       double reject_above) {
  run_impl<false>(mapping, reject_above, scalar_result_);
  return scalar_result_;
}

SimulationResult Simulator::run_traced(const mapping::Mapping& mapping) {
  SimulationResult out;
  run_impl<true>(mapping, kNoBound, out);
  return out;
}

double Simulator::contention_free_makespan(const mapping::Mapping& mapping) {
  sync_bind(mapping);
  // The snapshots describe the previous run's bindings, not these.
  ckpt_valid_ = false;
  return floor_makespan();
}

/// run_loop()'s arithmetic with every wait +0.0, in topological order: a
/// packet injects at its latest predecessor delivery plus its computation
/// time, each of its len - 1 link claims adds tr, then tl, and the
/// ejection adds tr, then its serialization time. The loop adds each wait
/// to the arrival before tr, and arrival + 0.0 is the arrival exactly.
double Simulator::floor_makespan() {
  std::fill(floor_ready_.begin(), floor_ready_.end(), 0.0);
  double makespan = 0.0;
  for (const graph::PacketId p : topo_order_) {
    const HotPacket& hp = hot_[p];
    double arrival = (floor_ready_[p] + comp_ns_[p]) + tl_;
    for (std::uint32_t hop = 1; hop < hp.len; ++hop) {
      arrival = (arrival + tr_) + tl_;
    }
    const double delivered = (arrival + tr_) + hp.n_tl;
    makespan = std::max(makespan, delivered);
    for (std::uint32_t i = hp.succ_begin; i < hp.succ_end; ++i) {
      const graph::PacketId succ = succ_list_[i];
      floor_ready_[succ] = std::max(floor_ready_[succ], delivered);
    }
  }
  return makespan;
}

template <bool Full>
void Simulator::run_impl(const mapping::Mapping& mapping, double reject_above,
                         SimulationResult& out) {
  sync_bind(mapping);

  const std::size_t num_packets = cdcg_.num_packets();
  out.texec_ns = 0.0;
  out.energy = energy::EnergyBreakdown{};
  out.total_contention_ns = 0.0;
  out.num_contended_packets = 0;
  out.stopped = false;
  out.flit_stall_ns = 0.0;
  out.flit_backpressure_ns = 0.0;
  out.flit_max_occupancy = 0.0;
  if constexpr (Full) {
    out.packets.assign(num_packets, PacketTrace{});
    for (graph::PacketId p = 0; p < num_packets; ++p) {
      out.packets[p].num_routers = hot_[p].len;
    }
    out.occupancy.assign(topo_.num_resources(), {});
  }

  // Dynamic energy is a pure function of the bindings; re-accumulate it in
  // packet order so the sum is byte-identical to a full rebind.
  double dynamic_j = 0.0;
  for (graph::PacketId p = 0; p < num_packets; ++p) {
    dynamic_j += dyn_energy_[p];
  }
  out.energy.dynamic_j = dynamic_j;

  if (!Full && ckpt_active_) {
    // A stop would leave the snapshot ladder describing a run that never
    // finished, so checkpointed runs ignore the bound.
    run_ckpt(out);
  } else if (dynamic_j > reject_above) {
    // Static energy is never negative, so the total is above the bound
    // too: nothing to simulate.
    out.stopped = true;
  } else {
    // A bounded run first prices its contention-free schedule. The
    // simulated makespan is never below that floor, so when the floor
    // already costs more than the bound, so does the run: report the
    // floor's makespan, whose total lies above the bound and not above the
    // cost (docs/simulation.md, "Bounded runs").
    const double floor = reject_above < kNoBound ? floor_makespan() : 0.0;
    if (dynamic_j + static_power_ * floor > reject_above) {
      out.texec_ns = floor;
      out.stopped = true;
    } else {
      // Traced runs leave the arena in a state the snapshots no longer
      // describe; the next checkpointed run re-records from scratch.
      ckpt_valid_ = false;
      reset_arena<Full>();
      const bool flit = options_.backend == SimBackend::kFlit;
      if (flit) {
        std::fill(port_slot_free_.begin(), port_slot_free_.end(), 0.0);
        std::fill(port_clear_.begin(), port_clear_.end(), 0.0);
      }
      Progress st;
      if (!Full && scalar_queue_ == ScalarQueue::kWordHeap) {
        const WordHeap heap{word_queue_, word_hop_.data()};
        st = flit ? run_from_roots<false>(heap, FlitGate(*this), reject_above,
                                          out)
                  : run_from_roots<false>(heap, LinkClaim{}, reject_above,
                                          out);
      } else if (!Full && scalar_queue_ == ScalarQueue::kCalendar) {
        bucket_.begin_run();
        st = run_from_roots<false>(BucketCalendar{bucket_}, LinkClaim{},
                                   reject_above, out);
        if (st.delivered == num_packets) {
          bucket_.finish_run();
        } else {
          // Every injected packet (pending count 0) that is not delivered
          // holds exactly one queued event.
          std::size_t injected = 0;
          for (graph::PacketId p = 0; p < num_packets; ++p) {
            injected += pending_[p] == 0;
          }
          bucket_.abandon_run(injected - st.delivered);
        }
      } else {
        const HeapQueue heap{queue_};
        st = flit ? run_from_roots<Full>(heap, FlitGate(*this), reject_above,
                                         out)
                  : run_from_roots<Full>(heap, LinkClaim{}, reject_above,
                                         out);
      }
      out.stopped = st.delivered != num_packets;
    }
  }

  if constexpr (Full) {
    for (auto& list : out.occupancy) {
      std::sort(list.begin(), list.end(),
                [](const Occupancy& a, const Occupancy& b) {
                  if (a.start_ns != b.start_ns) return a.start_ns < b.start_ns;
                  return a.packet < b.packet;
                });
    }
  }

  // Equation 9, the product run_loop()'s bound test forms.
  out.energy.static_j = static_power_ * out.texec_ns;
}

template <bool Full>
void Simulator::reset_arena() {
  const std::size_t num_packets = cdcg_.num_packets();
  if (num_packets != 0) {
    std::memcpy(pending_.data(), num_preds_.data(),
                num_packets * sizeof(std::uint32_t));
  }
  std::fill(ready_.begin(), ready_.end(), 0.0);
  std::fill(contention_.begin(), contention_.end(), 0.0);
  if constexpr (Full) {
    std::fill(contended_down_.begin(), contended_down_.end(),
              std::uint8_t{0});
  }
  std::fill(link_free_.begin(), link_free_.end(), 0.0);
  queue_.clear();
  word_queue_.clear();
}

void Simulator::record_ckpt(const Progress& at, const SimulationResult& out) {
  if (ckpt_count_ >= kMaxCkptSlots) return;
  if (ckpts_.size() == ckpt_count_) ckpts_.emplace_back();
  Ckpt& c = ckpts_[ckpt_count_++];
  c.at = at;
  c.has_next = !queue_.empty();
  c.next = c.has_next ? queue_.min() : detail::QueuedEvent{};
  c.total_contention = out.total_contention_ns;
  c.num_contended = out.num_contended_packets;
  c.pending.assign(pending_.begin(), pending_.end());
  c.ready.assign(ready_.begin(), ready_.end());
  c.contention.assign(contention_.begin(), contention_.end());
  c.link_free.assign(link_free_.begin(), link_free_.end());
  c.ev_time.assign(ev_time_.begin(), ev_time_.end());
  c.ev_hop.assign(ev_hop_.begin(), ev_hop_.end());
  c.ev_state.assign(ev_state_.begin(), ev_state_.end());
}

/// The checkpointed scalar path. Correctness rests on two facts, spelled
/// out in docs/simulation.md:
///
///  * Pops are strictly sorted in (time, packet, hop) order (every pushed
///    key is strictly in the future when tr > 0 and tl > 0), so the pop
///    prefix before any key is the same for every queue implementation.
///  * The first pop whose processing can differ between the old and new
///    bindings is the earliest first-event key K* over the rebound (dirty)
///    packets: earlier pops touch no dirty packet and read no state a
///    dirty packet wrote (injection writes no shared state), so any
///    snapshot whose next pop key is <= K* restores a state the new run
///    shares bitwise.
void Simulator::run_ckpt(SimulationResult& out) {
  const std::size_t num_packets = cdcg_.num_packets();
  ++ckpt_stats_.runs;

  std::size_t slot = static_cast<std::size_t>(-1);
  if (ckpt_valid_ && !full_rebind_run_ && ckpt_count_ > 0) {
    // The earliest affected instant: min first-event key over the packets
    // incident to the moved cores. ready_ still holds the previous run's
    // final values, and a packet's final ready equals its value at
    // injection (no predecessor delivers after it injects), so the key is
    // the same for the old and new bindings.
    bool have_kstar = false;
    detail::QueuedEvent kstar{};
    for (const graph::CoreId c : moved_scratch_) {
      const std::uint32_t begin = core_pkt_off_[c];
      const std::uint32_t end = core_pkt_off_[c + 1];
      for (std::uint32_t i = begin; i < end; ++i) {
        const graph::PacketId p = core_pkt_list_[i];
        const detail::QueuedEvent key =
            detail::QueuedEvent::make(ready_[p] + comp_ns_[p] + tl_, p, 0);
        if (!have_kstar || key < kstar) {
          kstar = key;
          have_kstar = true;
        }
      }
    }
    // Latest snapshot whose next pop is not past the affected instant. A
    // snapshot with no next pop (end of run) only serves identity rebinds.
    for (std::size_t s = ckpt_count_; s-- > 0;) {
      const Ckpt& c = ckpts_[s];
      if (!have_kstar || (c.has_next && !(kstar < c.next))) {
        slot = s;
        break;
      }
    }
  }

  Progress st;
  std::uint64_t resume_pops = 0;
  if (slot == static_cast<std::size_t>(-1)) {
    // Cold path: full run, recording snapshots as it goes.
    reset_arena<false>();
    std::fill(ev_state_.begin(), ev_state_.end(), std::uint8_t{0});
    ckpt_count_ = 0;
    st = run_from_roots<false, true>(HeapQueue{queue_}, LinkClaim{}, kNoBound,
                                     out);
    ckpt_replays_since_refresh_ = 0;
  } else {
    const Ckpt& c = ckpts_[slot];
    std::memcpy(pending_.data(), c.pending.data(),
                num_packets * sizeof(std::uint32_t));
    std::memcpy(ready_.data(), c.ready.data(), num_packets * sizeof(double));
    std::memcpy(contention_.data(), c.contention.data(),
                num_packets * sizeof(double));
    std::memcpy(link_free_.data(), c.link_free.data(),
                link_free_.size() * sizeof(double));
    std::memcpy(ev_time_.data(), c.ev_time.data(),
                num_packets * sizeof(double));
    std::memcpy(ev_hop_.data(), c.ev_hop.data(),
                num_packets * sizeof(std::uint32_t));
    std::memcpy(ev_state_.data(), c.ev_state.data(), num_packets);
    out.total_contention_ns = c.total_contention;
    out.num_contended_packets = c.num_contended;
    // Snapshots past the restore point describe a future this run rewrites.
    ckpt_count_ = slot + 1;
    if (c.at.pops > 0) ++ckpt_stats_.restored_runs;
    // Copy out the resume point: a recording replay can grow ckpts_ and
    // invalidate `c`.
    st = c.at;
    resume_pops = st.pops;
    // Replay the suffix on the bucket calendar when it is available: its
    // pops are ~2-3x cheaper than the heap's, and the suffix is all a
    // restored run pays for. The recording heap
    // replays (a) ineligible bindings, (b) full replays (pops == 0 — the
    // ladder collapsed, so rebuild it while paying the full cost anyway),
    // and (c) every kCkptRefreshPeriod-th restore, because calendar mid-run
    // states cannot be snapshotted.
    const bool heap_replay = scalar_queue_ != ScalarQueue::kCalendar ||
                             resume_pops == 0 ||
                             ++ckpt_replays_since_refresh_ >=
                                 kCkptRefreshPeriod;
    if (heap_replay) {
      ckpt_replays_since_refresh_ = 0;
      // Rebuild the queue from the per-packet shadow; the push order is
      // irrelevant because keys are unique and pops are totally ordered.
      queue_.clear();
      HeapQueue heap{queue_};
      for (graph::PacketId p = 0; p < num_packets; ++p) {
        if (ev_state_[p] == 1) heap.push(ev_time_[p], p, ev_hop_[p]);
      }
      st = run_loop<false, true>(heap, LinkClaim{}, st, kNoBound, out);
    } else {
      bucket_.begin_run();
      BucketCalendar calendar{bucket_};
      for (graph::PacketId p = 0; p < num_packets; ++p) {
        if (ev_state_[p] != 1) continue;
        if (ev_hop_[p] + 1 == hot_[p].len) {
          // A pending ejection: apply it at seed time. Ejections touch no
          // links and every effect commutes (max-merges and counters) —
          // exactly the reordering the fused ejection performs anyway.
          deliver<false, false>(calendar, p,
                                ev_time_[p] + tr_ + hot_[p].n_tl, st, out);
        } else {
          calendar.push(ev_time_[p], p, ev_hop_[p]);
        }
      }
      st = run_loop<false, false>(calendar, LinkClaim{}, st, kNoBound, out);
      bucket_.finish_run();
      // Heap-equivalent accounting (fused ejections are never popped):
      // every packet pops once per router. The shadow is stale now, so the
      // end-of-run snapshot below records a finished run.
      st.pops = 0;
      for (graph::PacketId p = 0; p < num_packets; ++p) {
        st.pops += hot_[p].len;
      }
      queue_.clear();
      std::fill(ev_state_.begin(), ev_state_.end(), std::uint8_t{2});
    }
  }
  ckpt_stats_.pops_replayed += st.pops - resume_pops;
  ckpt_stats_.pops_total += st.pops;
  // End-of-run snapshot: it serves identity rebinds (re-evaluating the same
  // mapping restores it and replays nothing). After a calendar replay the
  // mid-run ladder stays as truncated — only heap replays regrow it.
  if (ckpts_[ckpt_count_ - 1].at.pops != st.pops) record_ckpt(st, out);
  ckpt_valid_ = true;
}

template <bool Full, bool Ckpt, class Queue, class Flow>
Simulator::Progress Simulator::run_from_roots(Queue queue, const Flow& flow,
                                              double reject_above,
                                              SimulationResult& out) {
  for (graph::PacketId p = 0; p < cdcg_.num_packets(); ++p) {
    if (pending_[p] == 0) inject<Full, Ckpt>(queue, p, out);
  }
  if constexpr (Ckpt) record_ckpt(Progress{}, out);
  return run_loop<Full, Ckpt>(queue, flow, Progress{}, reject_above, out);
}

/// The event loop. Keys are unique ((time, packet, hop) — a packet has one
/// in-flight event), so the pop order is a total order regardless of push
/// order or queue internals. Contention accounting is branchless: the
/// uncontended case adds an exact +0.0, which leaves every accumulator
/// byte-identical. With Ckpt the loop maintains the per-packet queued-event
/// shadow and snapshots the arena at every ckpt_interval_res_-th pop.
///
/// After each delivery the loop forms Equation 10 of the schedule so far,
/// the dynamic energy plus the static power times the makespan so far, with
/// the same two roundings run_impl() and total_j() apply to the final
/// makespan. The makespan never decreases and IEEE rounding is monotone, so
/// this value never exceeds the final one, and the loop may stop as soon as
/// it exceeds `reject_above`.
template <bool Full, bool Ckpt, class Queue, class Flow>
Simulator::Progress Simulator::run_loop(Queue queue, const Flow& flow,
                                        Progress st, double reject_above,
                                        SimulationResult& out) {
  // The fused ejection: a scalar link-claim run that records no snapshots
  // delivers each packet at its last link claim. A delivery only updates
  // successors, the fused delivery time associates exactly as the unfused
  // one, and successors still queue strictly in the future (tl > 0), so no
  // scalar result can tell. Traces, snapshots and the flit port drain see
  // the ejection event, so those runs keep it.
  constexpr bool kFuse = !Full && !Ckpt && std::is_same_v<Flow, LinkClaim>;
  const std::size_t num_packets = cdcg_.num_packets();
  const std::size_t stride = arena_stride_;
  const double tr = tr_;
  const double tl = tl_;
  const double dynamic_j = out.energy.dynamic_j;
  const double static_power = static_power_;
  const auto over_bound = [&] {
    const double static_j = static_power * st.texec;
    return dynamic_j + static_j > reject_above;
  };
  // Summed in a register, in pop order as always: the stores to the
  // double arenas below could alias the result's field.
  double total_contention = out.total_contention_ns;
  std::uint64_t next_rec = 0;
  if constexpr (Ckpt) {
    next_rec = (st.pops / ckpt_interval_res_ + 1) * ckpt_interval_res_;
  }
  while (st.delivered != num_packets) {
    if constexpr (Ckpt) {
      if (st.pops == next_rec) {
        out.total_contention_ns = total_contention;
        record_ckpt(st, out);
        next_rec += ckpt_interval_res_;
      }
      ++st.pops;
    }
    const Event ev = queue.next();
    const graph::PacketId p = ev.packet;
    const std::uint32_t hop = ev.hop;
    const double arrival = ev.time_ns;
    const HotPacket& hp = hot_[p];
    const double n_tl = hp.n_tl;

    // A fused run never queues an ejection.
    if (kFuse || hop + 1 != hp.len) {
      const noc::ResourceId link = links_arena_[p * stride + hop];
      const double free_at = link_free_[link];
      double wait = arrival < free_at ? free_at - arrival : 0.0;
      flow.admit(link, arrival, wait, out);
      contention_[p] += wait;
      total_contention += wait;
      if constexpr (Full) {
        if (wait > 0.0) contended_down_[p] = 1;
      }
      const double header_out = arrival + wait + tr;
      link_free_[link] = header_out + n_tl;
      flow.claimed(p, hop, header_out, wait, out);
      if constexpr (Full) record_hop(p, hop, link, arrival, header_out, out);
      if (kFuse && hop + 2 == hp.len) {
        // The final link: eject without a further event, associating as
        // the unfused ejection does: ((header_out + tl) + tr) + n_tl. The
        // popped event goes before the successors it frees are queued.
        queue.retire();
        deliver<Full, Ckpt>(queue, p, ((header_out + tl) + tr) + n_tl, st,
                            out);
        if (over_bound()) break;
      } else {
        if constexpr (Ckpt) {
          ev_time_[p] = header_out + tl;
          ev_hop_[p] = hop + 1;
        }
        queue.advance(header_out + tl, p, hop + 1);
      }
    } else {
      // Ejection to the destination core: never blocks.
      queue.retire();
      const double header_out = arrival + tr;
      flow.ejected(p, hop, header_out, out);
      if constexpr (Full) {
        record_hop(p, hop, dst_local_out_[p], arrival, header_out, out);
      }
      deliver<Full, Ckpt>(queue, p, header_out + n_tl, st, out);
      if (over_bound()) break;
    }
  }
  out.total_contention_ns = total_contention;
  out.texec_ns = st.texec;
  return st;
}

}  // namespace nocmap::sim
