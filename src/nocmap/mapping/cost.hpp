#pragma once
/// \file cost.hpp
/// Mapping objective functions.
///
/// Both search engines (simulated annealing and exhaustive search) are
/// parameterized by a CostFunction, mirroring the paper's framework: "Both
/// algorithms start from an initial mapping, evaluate the mapping cost, and
/// search for a new mapping that reduces the computed cost".
///
///  * CwmCost  — the CWM objective, Equation 3: the NoC dynamic energy
///    computed from per-core-pair volumes (the CWG). Timing-blind.
///  * CdcmCost — the CDCM objective, Equation 10: total (static + dynamic)
///    NoC energy obtained by scheduling the CDCG on the mapped NoC with the
///    wormhole simulator, which also yields texec and contention.
///
/// Both implementations are allocation-free per evaluation: CwmCost prices
/// routes through a precomputed hop table (noc::RouteTable), and CdcmCost
/// owns a reusable sim::Simulator arena. CwmCost additionally implements the
/// incremental swap-delta protocol below, which simulated annealing uses to
/// price a move in O(deg(a) + deg(b)) instead of O(|E|).

#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "nocmap/energy/technology.hpp"
#include "nocmap/graph/cdcg.hpp"
#include "nocmap/graph/cwg.hpp"
#include "nocmap/mapping/mapping.hpp"
#include "nocmap/noc/topology.hpp"
#include "nocmap/noc/route_table.hpp"
#include "nocmap/noc/routing.hpp"
#include "nocmap/sim/simulator.hpp"

namespace nocmap::mapping {

/// Abstract mapping objective. Implementations must be pure functions of the
/// mapping (given their bound application/NoC/technology), so search engines
/// may cache and compare costs freely.
///
/// Objects are not required to be thread-safe across concurrent cost() calls
/// (CdcmCost mutates its simulator arena); parallel searches construct one
/// cost function per worker.
class CostFunction {
 public:
  virtual ~CostFunction() = default;

  /// The cost of `m`; lower is better. Units: Joule for both shipped
  /// implementations.
  virtual double cost(const Mapping& m) const = 0;

  virtual std::string name() const = 0;

  /// cost(m), bit for bit, whenever that is <= reject_above; otherwise any
  /// value above reject_above. A search that keeps only candidates at or
  /// below an incumbent passes the incumbent, and an objective that can
  /// tell a loser early may stop pricing it there: CdcmCost does not
  /// simulate when the energy of the contention-free schedule already
  /// exceeds the bound, and otherwise stops the simulation once the energy
  /// so far does. The default calls cost(m).
  virtual double cost_within(const Mapping& m,
                             [[maybe_unused]] double reject_above) const {
    return cost(m);
  }

  /// Number of cores of the bound application (the search engines need it
  /// to build candidate mappings).
  virtual std::size_t num_cores() const = 0;

  // --- Incremental (delta) evaluation --------------------------------------
  //
  // Implementations that can price the canonical swap move faster than a
  // full cost() advertise it via has_swap_delta(); search engines then drive
  // the hot loop as
  //     double d = f.swap_delta(m, a, b);   // m is NOT modified
  //     if (accept) f.apply_swap(m, a, b);  // commit the move
  // and maintain the running cost as `cost += d`, resynchronizing with a
  // full cost() periodically to bound floating-point drift.

  /// Called by a search engine at the start of a run. Cost values are pure
  /// functions of the mapping, but an implementation may carry *pacing*
  /// state across calls (HybridCost's verification cadence); resetting it
  /// here keeps results identical whether a cost object is fresh or reused
  /// from a worker pool.
  virtual void begin_search() const {}

  /// True when swap_delta()/apply_swap() are implemented.
  virtual bool has_swap_delta() const { return false; }

  /// cost(m') - cost(m), where m' is m with the contents of tiles `a` and
  /// `b` swapped. `m` is left unchanged. Only callable when
  /// has_swap_delta(); the default throws std::logic_error.
  virtual double swap_delta(const Mapping& m, noc::TileId a,
                            noc::TileId b) const;

  /// Commit the swap: mutate `m` and update any internal incremental state.
  /// The default implementation just performs m.swap_tiles(a, b), which is
  /// sufficient for stateless implementations.
  virtual void apply_swap(Mapping& m, noc::TileId a, noc::TileId b) const;

  // --- Composite moves (large-neighbourhood protocol) ----------------------
  //
  // The large-neighbourhood moves of search/moves.hpp (segment reversal and
  // rotation, region relocation, worst-edge ejection) decompose into ordered
  // sequences of elementary tile swaps; every elementary swap is an
  // involution, so the reversed sequence undoes the move. Engines price a
  // composite exactly like a swap:
  //     double d = f.move_delta(m, move.swaps.data(), move.swaps.size());
  //     if (accept) f.apply_move(m, move.swaps.data(), move.swaps.size());
  // Only callable when has_swap_delta().

  /// cost(m') - cost(m), where m' is m after applying `swaps[0..count)` in
  /// order. `m` may be mutated transiently but is restored before
  /// returning. The default prices each elementary swap with swap_delta()
  /// and undoes the sequence with raw tile swaps — correct for stateless
  /// implementations (CwmCost); CdcmCost overrides it with one probe
  /// resimulation of the final mapping, so the delta is bitwise
  /// cost(m') - cost(m) no matter how long the sequence is.
  virtual double move_delta(Mapping& m,
                            const std::pair<noc::TileId, noc::TileId>* swaps,
                            std::size_t count) const;

  /// Commit the composite move: apply every swap in order and update any
  /// internal incremental state. Default: apply_swap() per element.
  virtual void apply_move(Mapping& m,
                          const std::pair<noc::TileId, noc::TileId>* swaps,
                          std::size_t count) const;

  // --- Batched candidate pricing -------------------------------------------

  /// True when swap_deltas() is cheap enough to price a whole neighbourhood
  /// (no full evaluation per candidate, as CwmCost's O(deg) swap_delta) —
  /// the signal callers like search::steepest_polish use to decide whether
  /// pricing every candidate swap at once is affordable.
  virtual bool has_batched_deltas() const { return false; }

  /// Price `count` independent candidate swaps of the *same* base mapping at
  /// once: out[i] = swap_delta(m, cands[i].first, cands[i].second), bitwise.
  /// The default loops the scalar protocol (preserving any pacing state
  /// semantics, e.g. HybridCost's cadence advances once per candidate), and
  /// every shipped objective uses it; forwarding wrappers may override it.
  /// Only callable when has_swap_delta().
  virtual void swap_deltas(const Mapping& m,
                           const std::pair<noc::TileId, noc::TileId>* cands,
                           std::size_t count, double* out) const;

  // --- Partial-mapping lower bounds (branch-and-bound protocol) ------------
  //
  // Branch-and-bound search (search/branch_and_bound.hpp) extends *partial*
  // mappings one core at a time and discards a prefix as soon as no
  // completion of it can beat the incumbent. Implementations that can bound
  // partial mappings advertise it via has_lower_bound() and hand the engine
  // a LowerBound evaluator. The admissibility arguments for the shipped
  // implementations are documented in docs/search.md.

  /// Incremental evaluator over partial placements. Not thread-safe; each
  /// search worker obtains its own instance from its own cost function. The
  /// creating cost function must outlive the evaluator.
  class LowerBound {
   public:
    virtual ~LowerBound() = default;

    /// Forget every placement (the state right after construction).
    virtual void reset() = 0;

    /// Record that `core` now occupies `tile` / no longer occupies `tile`.
    /// O(deg(core)) via the per-core incident-edge lists. Calls must nest
    /// stack-like per core and never place a core or tile twice.
    virtual void place(graph::CoreId core, noc::TileId tile) = 0;
    virtual void unplace(graph::CoreId core, noc::TileId tile) = 0;

    /// Admissible lower bound on cost(m) over every complete mapping m that
    /// extends the current partial placement (unplaced cores on currently
    /// free tiles). For CwmCost the bound equals cost(m) exactly once all
    /// cores are placed; for CdcmCost it stays a strict lower bound (the
    /// simulated static energy exceeds the critical-path floor).
    ///
    /// `prune_above` is a cascade hint: the caller only cares whether the
    /// bound exceeds it. An implementation may return any admissible bound
    /// already known to exceed prune_above without computing its tightest
    /// one (HopLowerBound skips the assignment solve when the cheap
    /// row-minima bound already proves the prune, and stops a warm solve
    /// once its dual objective does), so pass the incumbent when pruning
    /// and +infinity when the tight value itself is wanted.
    ///
    /// The value depends only on the placement sequence since reset() and
    /// the bound() calls made along it. An evaluator may reuse state saved
    /// at earlier depths of that sequence (HopLowerBound warm-starts its
    /// assignment from the parent depth's solution), but never state from
    /// a sibling or from before reset(). With reused state, an answer at or
    /// below prune_above agrees with a fresh evaluator's to 1e-12 relative,
    /// far inside the search's 1e-9 prune slack; an answer above it may lie
    /// below the fresh one, but is still admissible and still proves the
    /// prune.
    virtual double bound(double prune_above) const = 0;
    double bound() const {
      return bound(std::numeric_limits<double>::infinity());
    }

    /// Total bits on edges incident to `core`; the engine places heavy
    /// communicators first so bounds tighten as early as possible.
    virtual std::uint64_t core_traffic(graph::CoreId core) const = 0;
  };

  /// True when make_lower_bound() is implemented.
  virtual bool has_lower_bound() const { return false; }

  /// A fresh evaluator bound to this cost function's application, topology
  /// and technology. Only callable when has_lower_bound(); the default
  /// throws std::logic_error.
  virtual std::unique_ptr<LowerBound> make_lower_bound() const;

  // --- Symmetry (exhaustive and branch-and-bound pruning) ------------------

  /// True when cost() is exactly invariant under every map of the bound
  /// topology's symmetry_maps() (CWM: hop counts are distances, and
  /// automorphisms preserve distances). The default symmetry_group() is
  /// built from this answer.
  virtual bool symmetry_invariant() const { return false; }

  /// The tile permutations g of `topo`, the topology this cost function is
  /// bound to, under which cost() is exactly invariant: cost(g∘m) equals
  /// cost(m) bitwise for every mapping m, where g∘m places core c on tile
  /// g(m(c)). A subgroup of topo.symmetry_maps() that contains the
  /// identity. Exhaustive search enumerates one placement per orbit of this
  /// group; branch and bound pins core 0 to one tile per orbit.
  ///
  /// The default is every symmetry_maps() map when symmetry_invariant(),
  /// and the identity alone otherwise. CdcmCost keeps only the maps that
  /// carry routes onto routes. Computed on every call, so a search asks
  /// once.
  virtual std::vector<std::vector<noc::TileId>> symmetry_group(
      const noc::Topology& topo) const;
};

/// Equation 3 — EDyNoC(CWM) = sum over all communications of w_ab * EBit_ij.
///
/// Precomputes the CWG edge list, the per-pair hop table (for the bound
/// topology and routing algorithm) and per-core
/// incident-edge lists; each full evaluation is a flat loop of hop-table
/// lookups (no Route construction), and swap_delta() reprices only the edges
/// incident to the two affected tiles.
class CwmCost final : public CostFunction {
 public:
  /// The referenced objects must outlive the cost function.
  CwmCost(const graph::Cwg& cwg, const noc::Topology& topo,
          const energy::Technology& tech,
          noc::RoutingAlgorithm routing = noc::RoutingAlgorithm::kXY);

  double cost(const Mapping& m) const override;
  std::string name() const override { return "CWM"; }
  std::size_t num_cores() const override { return num_cores_; }

  bool has_swap_delta() const override { return true; }
  double swap_delta(const Mapping& m, noc::TileId a,
                    noc::TileId b) const override;
  bool has_batched_deltas() const override { return true; }

  bool has_lower_bound() const override { return true; }
  std::unique_ptr<LowerBound> make_lower_bound() const override;
  bool symmetry_invariant() const override { return true; }

 private:
  /// Gather the edges incident to the candidate swap (a, b) into the flat
  /// scratch arrays (weight, old hop count, new hop count), in the order
  /// swap_delta() prices them. Returns the entry count.
  std::size_t gather_swap(const Mapping& m, noc::TileId a,
                          noc::TileId b) const;

  std::vector<graph::CwgEdge> edges_;
  // Per-core incident edges in CSR form: entries for core c live at
  // [inc_offsets_[c], inc_offsets_[c + 1]). The flat parallel arrays keep
  // the repricing loop free of pointer chasing, and the bit volume
  // is stored pre-converted to double (the same conversion
  // dynamic_packet_energy performs).
  std::vector<std::uint32_t> inc_offsets_;
  std::vector<graph::CoreId> inc_other_;
  std::vector<double> inc_bits_;
  std::vector<std::uint8_t> inc_out_;  ///< 1: core -> other; 0: reverse.
  /// dynamic_bit_energy per hop count, up to the topology diameter;
  /// bits * ebit_[k] is bitwise dynamic_packet_energy(tech, bits, k).
  std::vector<double> ebit_;
  const noc::Topology* topo_;  ///< For make_lower_bound(); outlives us.
  noc::RouteTable table_;
  energy::Technology tech_;
  noc::RoutingAlgorithm routing_;
  std::size_t num_cores_;
  // Scratch for gather_swap (cost functions are single-worker objects;
  // const methods may reuse buffers).
  mutable std::vector<double> batch_w_;
  mutable std::vector<std::uint32_t> batch_k_old_;
  mutable std::vector<std::uint32_t> batch_k_new_;
};

/// Equation 10 — ENoC(CDCM) = EStNoC + EDyNoC(CDCM), from a full wormhole
/// simulation of the CDCG on the mapped NoC.
///
/// Owns one sim::Simulator arena, so repeated cost() calls reuse the route
/// table, packet state and event storage (no steady-state allocations).
///
/// Implements the swap-delta and composite-move protocols with one probe of
/// exact full-resimulation semantics: a swap is the one-swap move, and
/// pricing a move re-runs the whole wormhole schedule for the moved mapping
/// (only the route *bindings* are updated incrementally, which is exact —
/// routes and per-packet energies are pure functions of the endpoint
/// tiles), so the returned delta is bitwise cost(m') - cost(m). The speedup
/// comes from the simulator's swap-aware rebinding plus the cost caches
/// below: the cost of the current mapping and of the last probed move are
/// remembered, and committing a move whose result equals the probed mapping
/// promotes the probe, so one SA move costs one simulator run instead of
/// two, and the per-step resynchronization evaluation is a cache hit. A
/// cache entry is filled only after its run completed, so a run that throws
/// or stops early leaves none.
///
/// Not thread-safe: give each search worker its own CdcmCost.
class CdcmCost final : public CostFunction {
 public:
  /// `sim_options` selects the evaluation backend and its flow-control
  /// parameters (docs/simulation.md); its routing field is overridden by
  /// `routing`. The default is the link-claim backend — the historical
  /// behavior.
  CdcmCost(const graph::Cdcg& cdcg, const noc::Topology& topo,
           const energy::Technology& tech,
           noc::RoutingAlgorithm routing = noc::RoutingAlgorithm::kXY,
           sim::SimOptions sim_options = {});

  double cost(const Mapping& m) const override;
  /// A bounded sim::Simulator::run: it stops at the contention-free floor
  /// or once its energy so far exceeds reject_above; a stopped run is never
  /// cached.
  double cost_within(const Mapping& m, double reject_above) const override;
  std::string name() const override { return "CDCM"; }
  std::size_t num_cores() const override { return cdcg_.num_cores(); }

  bool has_swap_delta() const override { return true; }
  double swap_delta(const Mapping& m, noc::TileId a,
                    noc::TileId b) const override;
  void apply_swap(Mapping& m, noc::TileId a, noc::TileId b) const override;
  /// One probe resimulation of the end state of the sequence — bitwise
  /// cost(m') - cost(m) for a composite of any length, at the price of a
  /// single arena run (the default would run the arena twice per element).
  /// `m` is not modified.
  double move_delta(Mapping& m,
                    const std::pair<noc::TileId, noc::TileId>* swaps,
                    std::size_t count) const override;
  void apply_move(Mapping& m, const std::pair<noc::TileId, noc::TileId>* swaps,
                  std::size_t count) const override;

  /// The CWM-style hop bound on the packet graph plus the mapping-independent
  /// static-energy floor (critical path of the CDCG at minimal routes, no
  /// contention) — provably <= the simulated Equation-10 cost; the argument
  /// is spelled out in docs/search.md.
  bool has_lower_bound() const override { return true; }
  std::unique_ptr<LowerBound> make_lower_bound() const override;

  /// The symmetry_maps() maps g that carry every route onto a route under
  /// the bound routing: routers(g(s), g(d)) == g(routers(s, d)) for every
  /// tile pair. Under such a map a simulation, link-claim or flit, is a
  /// relabeling of the resources, so the cost agrees bitwise. For XY on a
  /// square mesh these are the 4 flips; a transpose turns XY routes into YX
  /// routes.
  std::vector<std::vector<noc::TileId>> symmetry_group(
      const noc::Topology& topo) const override;

  /// Full simulation (with traces) of a mapping — used for reporting after
  /// the search picked a winner.
  sim::SimulationResult evaluate(const Mapping& m) const;

  /// Checkpointed-evaluation counters of the owned arena (all zero unless
  /// sim_options.checkpoints was set and the binding is eligible).
  const sim::CheckpointStats& checkpoint_stats() const;
  /// True when the owned arena actually runs the checkpointed path.
  bool checkpointing_active() const;

 private:
  /// The one pricing path of swap_delta() and move_delta(): the cost of `m`
  /// after `swaps[0..count)` minus cost(m), remembered as the probe.
  double probe(const Mapping& m,
               const std::pair<noc::TileId, noc::TileId>* swaps,
               std::size_t count) const;

  const graph::Cdcg& cdcg_;
  const noc::Topology& topo_;
  energy::Technology tech_;
  noc::RoutingAlgorithm routing_;
  /// The arena. unique_ptr keeps the class movable-constructible in spirit
  /// and the header light; mutable because cost() is semantically const but
  /// reuses the buffers.
  mutable std::unique_ptr<sim::Simulator> simulator_;

  // --- Cost caches (values always originate from a real simulator run, so
  // --- returning them is exact, not approximate) ---------------------------
  mutable std::optional<Mapping> cur_map_;    ///< Last full-cost mapping.
  mutable double cur_cost_ = 0.0;
  mutable std::optional<Mapping> probe_map_;  ///< Last probed move result.
  mutable double probe_cost_ = 0.0;
  mutable bool probe_valid_ = false;
};

/// The hybrid CWM->CDCM objective: the paper's accuracy-vs-cost tradeoff
/// (ETR/ECS gains of CDCM against its simulation cost) turned into a speed
/// knob for the timing-aware search.
///
/// cost() is always the exact CDCM objective (Equation 10), so temperature
/// -step resynchronizations and best-mapping pinning stay exact. Move
/// pricing is where the speed comes from: swap_delta() prices moves with
/// the O(deg) incremental CWM delta (Equation 3 — the timing-blind dynamic
/// energy change) and only every `cdcm_cadence`-th call with the exact
/// full-resimulation CDCM delta. cadence 1 degenerates to pure CDCM
/// search; cadence 0 never verifies a move with the simulator and relies
/// on the per-step CDCM resynchronization alone.
class HybridCost final : public CostFunction {
 public:
  /// `sim_options` is forwarded to the CDCM half (see CdcmCost); the CWM
  /// prefilter is timing-blind and unaffected by the backend choice.
  HybridCost(const graph::Cdcg& cdcg, const noc::Topology& topo,
             const energy::Technology& tech,
             noc::RoutingAlgorithm routing = noc::RoutingAlgorithm::kXY,
             std::uint32_t cdcm_cadence = 8,
             sim::SimOptions sim_options = {});

  double cost(const Mapping& m) const override { return cdcm_.cost(m); }
  std::string name() const override { return "HYBRID"; }
  std::size_t num_cores() const override { return cdcm_.num_cores(); }

  void begin_search() const override { probes_ = 0; }
  bool has_swap_delta() const override { return true; }
  double swap_delta(const Mapping& m, noc::TileId a,
                    noc::TileId b) const override;
  void apply_swap(Mapping& m, noc::TileId a, noc::TileId b) const override;
  /// A composite advances the cadence once (it is one priced move): the
  /// timing-blind CWM delta proposes, and every cadence-th composite is
  /// priced with the exact single-probe CDCM delta instead.
  double move_delta(Mapping& m,
                    const std::pair<noc::TileId, noc::TileId>* swaps,
                    std::size_t count) const override;
  void apply_move(Mapping& m, const std::pair<noc::TileId, noc::TileId>* swaps,
                  std::size_t count) const override;

  /// cost() is the exact CDCM objective, so the CDCM bound applies as-is.
  bool has_lower_bound() const override { return true; }
  std::unique_ptr<LowerBound> make_lower_bound() const override {
    return cdcm_.make_lower_bound();
  }
  /// cost() is the exact CDCM objective, so its group is CDCM's.
  std::vector<std::vector<noc::TileId>> symmetry_group(
      const noc::Topology& topo) const override {
    return cdcm_.symmetry_group(topo);
  }

 private:
  /// Advance the cadence by one priced move; true on the moves the exact
  /// CDCM delta prices.
  bool exact_turn() const;

  graph::Cwg cwg_;  ///< Owns the CWM projection the prefilter prices.
  CwmCost cwm_;
  CdcmCost cdcm_;
  std::uint32_t cadence_;
  mutable std::uint64_t probes_ = 0;
};

/// Convenience free function: Equation 3 for a single mapping.
double cwm_dynamic_energy(const graph::Cwg& cwg, const noc::Topology& topo,
                          const Mapping& m, const energy::Technology& tech,
                          noc::RoutingAlgorithm routing =
                              noc::RoutingAlgorithm::kXY);

}  // namespace nocmap::mapping
