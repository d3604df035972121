#include "nocmap/mapping/cost.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <stdexcept>

#include "nocmap/energy/energy_model.hpp"

namespace nocmap::mapping {

double CostFunction::swap_delta(const Mapping&, noc::TileId,
                                noc::TileId) const {
  throw std::logic_error("swap_delta: not implemented by " + name());
}

std::unique_ptr<CostFunction::LowerBound> CostFunction::make_lower_bound()
    const {
  throw std::logic_error("make_lower_bound: not implemented by " + name());
}

std::vector<std::vector<noc::TileId>> CostFunction::symmetry_group(
    const noc::Topology& topo) const {
  if (symmetry_invariant()) return topo.symmetry_maps();
  std::vector<noc::TileId> identity(topo.num_tiles());
  std::iota(identity.begin(), identity.end(), noc::TileId{0});
  return {std::move(identity)};
}

void CostFunction::apply_swap(Mapping& m, noc::TileId a, noc::TileId b) const {
  m.swap_tiles(a, b);
}

double CostFunction::move_delta(
    Mapping& m, const std::pair<noc::TileId, noc::TileId>* swaps,
    std::size_t count) const {
  if (count == 1) return swap_delta(m, swaps[0].first, swaps[0].second);
  // Price the sequence cumulatively, then restore `m` by undoing the
  // involutions in reverse. The undo uses raw tile swaps, so implementations
  // with internal incremental state (CdcmCost's cost caches) must override.
  double delta = 0.0;
  for (std::size_t i = 0; i < count; ++i) {
    delta += swap_delta(m, swaps[i].first, swaps[i].second);
    m.swap_tiles(swaps[i].first, swaps[i].second);
  }
  for (std::size_t i = count; i-- > 0;) {
    m.swap_tiles(swaps[i].first, swaps[i].second);
  }
  return delta;
}

void CostFunction::apply_move(Mapping& m,
                              const std::pair<noc::TileId, noc::TileId>* swaps,
                              std::size_t count) const {
  for (std::size_t i = 0; i < count; ++i) {
    apply_swap(m, swaps[i].first, swaps[i].second);
  }
}

void CostFunction::swap_deltas(const Mapping& m,
                               const std::pair<noc::TileId, noc::TileId>* cands,
                               std::size_t count, double* out) const {
  for (std::size_t i = 0; i < count; ++i) {
    out[i] = swap_delta(m, cands[i].first, cands[i].second);
  }
}

CwmCost::CwmCost(const graph::Cwg& cwg, const noc::Topology& topo,
                 const energy::Technology& tech, noc::RoutingAlgorithm routing)
    : edges_(cwg.edges()),
      topo_(&topo),
      table_(topo, routing),
      tech_(tech),
      routing_(routing),
      num_cores_(cwg.num_cores()) {
  tech_.validate();

  // CSR incident-edge lists (counting sort by endpoint core).
  inc_offsets_.assign(num_cores_ + 1, 0);
  for (const graph::CwgEdge& e : edges_) {
    ++inc_offsets_[e.src + 1];
    ++inc_offsets_[e.dst + 1];
  }
  for (std::size_t c = 1; c <= num_cores_; ++c) {
    inc_offsets_[c] += inc_offsets_[c - 1];
  }
  const std::size_t entries = inc_offsets_[num_cores_];
  inc_other_.resize(entries);
  inc_bits_.resize(entries);
  inc_out_.resize(entries);
  std::vector<std::uint32_t> fill(inc_offsets_.begin(),
                                  inc_offsets_.end() - 1);
  for (const graph::CwgEdge& e : edges_) {
    const std::uint32_t s = fill[e.src]++;
    inc_other_[s] = e.dst;
    inc_bits_[s] = static_cast<double>(e.bits);
    inc_out_[s] = 1;
    const std::uint32_t d = fill[e.dst]++;
    inc_other_[d] = e.src;
    inc_bits_[d] = static_cast<double>(e.bits);
    inc_out_[d] = 0;
  }

  // Per-hop-count energy per bit up to the diameter:
  // bits * ebit_[k] reproduces dynamic_packet_energy(tech, bits, k) bitwise
  // (the packet energy is defined as exactly that product), so the table
  // turns every hot-loop pricing into one gather and one multiply.
  std::uint32_t max_k = 1;
  const std::uint32_t num_tiles = topo.num_tiles();
  for (noc::TileId s = 0; s < num_tiles; ++s) {
    for (noc::TileId d = 0; d < num_tiles; ++d) {
      max_k = std::max(max_k, table_.hops(s, d));
    }
  }
  ebit_.resize(max_k + 1, 0.0);
  for (std::uint32_t k = 1; k <= max_k; ++k) {
    ebit_[k] = energy::dynamic_bit_energy(tech_, k);
  }
}

double CwmCost::cost(const Mapping& m) const {
  double energy_j = 0.0;
  for (const graph::CwgEdge& e : edges_) {
    const std::uint32_t k = table_.hops(m.tile_of(e.src), m.tile_of(e.dst));
    energy_j += static_cast<double>(e.bits) * ebit_[k];
  }
  return energy_j;
}

// Collect (weight, old hops, new hops) for every edge the swap (a, b)
// reprices, in scalar pricing order: the edges of the core on `a` first
// (the mutual ca<->cb edge repriced with both endpoints moved), then the
// edges of the core on `b` minus the mutual ones.
std::size_t CwmCost::gather_swap(const Mapping& m, noc::TileId a,
                                 noc::TileId b) const {
  std::size_t n = 0;
  const std::optional<graph::CoreId> ca = m.core_on(a);
  const std::optional<graph::CoreId> cb = m.core_on(b);
  const std::size_t cap =
      (ca ? inc_offsets_[*ca + 1] - inc_offsets_[*ca] : 0) +
      (cb ? inc_offsets_[*cb + 1] - inc_offsets_[*cb] : 0);
  if (batch_w_.size() < cap) {
    batch_w_.resize(cap);
    batch_k_old_.resize(cap);
    batch_k_new_.resize(cap);
  }
  if (ca) {
    for (std::uint32_t i = inc_offsets_[*ca]; i < inc_offsets_[*ca + 1]; ++i) {
      const graph::CoreId other = inc_other_[i];
      const bool outgoing = inc_out_[i] != 0;
      if (cb && other == *cb) {
        // Both endpoints move: a<->b. Reprice with both new tiles.
        batch_w_[n] = inc_bits_[i];
        batch_k_old_[n] = outgoing ? table_.hops(a, b) : table_.hops(b, a);
        batch_k_new_[n] = outgoing ? table_.hops(b, a) : table_.hops(a, b);
        ++n;
        continue;
      }
      const noc::TileId far = m.tile_of(other);
      batch_w_[n] = inc_bits_[i];
      batch_k_old_[n] = outgoing ? table_.hops(a, far) : table_.hops(far, a);
      batch_k_new_[n] = outgoing ? table_.hops(b, far) : table_.hops(far, b);
      ++n;
    }
  }
  if (cb) {
    for (std::uint32_t i = inc_offsets_[*cb]; i < inc_offsets_[*cb + 1]; ++i) {
      const graph::CoreId other = inc_other_[i];
      // ca<->cb edges were fully repriced in the loop above.
      if (ca && other == *ca) continue;
      const bool outgoing = inc_out_[i] != 0;
      const noc::TileId far = m.tile_of(other);
      batch_w_[n] = inc_bits_[i];
      batch_k_old_[n] = outgoing ? table_.hops(b, far) : table_.hops(far, b);
      batch_k_new_[n] = outgoing ? table_.hops(a, far) : table_.hops(far, a);
      ++n;
    }
  }
  return n;
}

double CwmCost::swap_delta(const Mapping& m, noc::TileId a,
                           noc::TileId b) const {
  if (a == b) return 0.0;
  const std::size_t n = gather_swap(m, a, b);
  // Reduce over the flat scratch arrays: two gathers from the ebit table
  // and a multiply-subtract per edge, no branches. An unchanged hop count
  // contributes an exact +0.0, so no filtering is needed.
  const double* w = batch_w_.data();
  const std::uint32_t* k_old = batch_k_old_.data();
  const std::uint32_t* k_new = batch_k_new_.data();
  const double* ebit = ebit_.data();
  double delta = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    delta += w[i] * ebit[k_new[i]] - w[i] * ebit[k_old[i]];
  }
  return delta;
}

namespace {

/// The hop lower bound shared by the CWM and CDCM objectives.
///
/// Invariant classification of every CWG edge against the current partial
/// placement:
///  * both endpoints placed  -> exact hop-table energy (the "prefix"),
///  * one endpoint placed    -> priced inside bound(): the unplaced core
///    must land on some currently free tile, so its edges to placed cores
///    cost at least their summed hop-table energy at a candidate tile; the
///    candidates are coupled across cores through a minimum-cost
///    assignment (unplaced cores x free tiles, Hungarian algorithm), which
///    respects that distinct cores take distinct tiles — the
///    Gilmore-Lawler-style relaxation from the exact-QAP literature,
///  * neither endpoint placed -> both cores end on distinct, currently
///    free tiles; from either endpoint's candidate tile u the edge costs
///    at least its volume priced at the minimal hop count from u to any
///    *other free* tile. Half of that is charged to each endpoint's
///    per-core minimum above (each side's charge is a lower bound on the
///    whole edge, so half from each is admissible), which makes candidate
///    tiles in sparse free regions expensive exactly when they should be.
///
/// The prefix is maintained incrementally in O(deg(core)) per
/// place()/unplace(); `extra_floor_j` adds any mapping-independent term
/// (zero for CWM, the static-energy critical-path floor for CDCM). Once
/// every core is placed, bound() recomputes the total fresh in edge order,
/// which makes it bitwise equal to CwmCost::cost() (and immune to push/pop
/// floating-point drift).
///
/// Warm-started assignment. The assignment is solved in square form: one
/// row per unplaced core plus num_tiles - num_cores zero-cost dummy rows
/// against one column per free tile, so rows and columns stay equal in
/// number at every depth (traffic-free cores have zero rows too). Each
/// depth keeps the state of the last node bound() built there: the matrix
/// and, once fully solved, the potentials, matching and value. unplace()
/// and reset() invalidate every depth they leave, so a saved depth always
/// describes a prefix of the current placement sequence and none lies
/// deeper than the current placement. A child starts from its parent's
/// state: it drops the placed core's row and the taken tile's column,
/// reprices only the rows whose entries changed (the placed core's
/// unplaced partners, plus the half-charge entries at tiles whose nearest
/// free neighbour was the taken tile), unmatches the rows whose matched
/// entry moved, and re-augments only the unmatched rows. Entries never
/// decrease down a placement path, so the parent's potentials stay
/// dual-feasible and the warm solve reaches the optimum a cold solve
/// would; the matrix itself is bitwise the one a cold build produces.
/// By weak duality the potentials bound that optimum from below after
/// every augment, so a warm solve stops as soon as its dual objective
/// proves the prune and leaves its depth unsolved: an answer above
/// prune_above may lie below the cold value, while one at or below it
/// agrees with the cold value to 1e-12 relative (docs/search.md).
class HopLowerBound final : public CostFunction::LowerBound {
 public:
  HopLowerBound(std::vector<graph::CwgEdge> edges, std::size_t num_cores,
                const noc::Topology& topo, const energy::Technology& tech,
                noc::RoutingAlgorithm routing, double extra_floor_j)
      : edges_(std::move(edges)),
        table_(topo, routing),
        tech_(tech),
        num_cores_(num_cores),
        num_tiles_(topo.num_tiles()),
        extra_floor_j_(extra_floor_j) {
    // Per-hop-count energy per bit, up to the topology's diameter.
    std::uint32_t max_k = 1;
    for (noc::TileId s = 0; s < num_tiles_; ++s) {
      for (noc::TileId d = 0; d < num_tiles_; ++d) {
        max_k = std::max(max_k, table_.hops(s, d));
      }
    }
    ebit_.resize(max_k + 1, 0.0);
    for (std::uint32_t k = 1; k <= max_k; ++k) {
      ebit_[k] = energy::dynamic_bit_energy(tech_, k);
    }

    incident_.resize(num_cores_);
    traffic_.resize(num_cores_, 0);
    for (const graph::CwgEdge& e : edges_) {
      const double bits = static_cast<double>(e.bits);
      incident_[e.src].push_back(Incident{e.dst, bits, true});
      incident_[e.dst].push_back(Incident{e.src, bits, false});
      traffic_[e.src] += e.bits;
      traffic_[e.dst] += e.bits;
    }
    placed_.resize(num_cores_, kUnplaced);
    occupied_.resize(num_tiles_, 0);
    levels_.resize(num_cores_);
    zero_row_.assign(num_tiles_, 0.0);
    minv_.resize(num_tiles_);
    way_.resize(num_tiles_);
    used_.resize(num_tiles_ + 1);
    reset();
  }

  void reset() override {
    invalidate(0, num_placed_);
    std::fill(placed_.begin(), placed_.end(), kUnplaced);
    std::fill(occupied_.begin(), occupied_.end(), 0);
    num_placed_ = 0;
    prefix_j_ = 0.0;
    order_.clear();
  }

  void place(graph::CoreId core, noc::TileId tile) override {
    for (const Incident& e : incident_[core]) {
      const noc::TileId far = placed_[e.other];
      if (far != kUnplaced) {
        prefix_j_ += e.bits * ebit_[e.outgoing ? table_.hops(tile, far)
                                               : table_.hops(far, tile)];
      }
    }
    placed_[core] = tile;
    occupied_[tile] = 1;
    ++num_placed_;
    order_.push_back(Placement{core, tile});
  }

  void unplace(graph::CoreId core, noc::TileId tile) override {
    placed_[core] = kUnplaced;
    occupied_[tile] = 0;
    --num_placed_;
    for (const Incident& e : incident_[core]) {
      const noc::TileId far = placed_[e.other];
      if (far != kUnplaced) {
        prefix_j_ -= e.bits * ebit_[e.outgoing ? table_.hops(tile, far)
                                               : table_.hops(far, tile)];
      }
    }
    // The depths up to the core's own placement keep their prefix (for a
    // stack-like caller the core is the last entry).
    std::size_t pos = order_.size();
    while (pos > 0 && order_[pos - 1].core != core) --pos;
    order_.erase(order_.begin() + static_cast<std::ptrdiff_t>(pos - 1));
    invalidate(pos, num_placed_ + 1);
  }

  double bound(double prune_above) const override {
    if (num_placed_ == num_cores_) return complete_cost() + extra_floor_j_;

    free_.clear();
    for (noc::TileId u = 0; u < num_tiles_; ++u) {
      if (!occupied_[u]) free_.push_back(u);
    }
    Level& level = levels_[num_placed_];
    const Level* parent = num_placed_ > 0 && levels_[num_placed_ - 1].built
                              ? &levels_[num_placed_ - 1]
                              : nullptr;
    if (!level.built) {
      if (parent) {
        derive_matrix(level, *parent);
      } else {
        build_matrix(level);
      }
      level.built = true;
    }

    // Entry (c, u) of the matrix is a lower bound on core c's remainder
    // contribution if it lands on free tile u (its placed partners priced
    // exactly, half of each unplaced-unplaced edge priced at u's
    // nearest-free-tile hop count). A complete mapping assigns the cores
    // *distinct* free tiles, so the minimum-cost assignment over the matrix
    // — not just the sum of row minima — is still admissible, and
    // substantially tighter when cores compete for the same good tiles.
    const double base = prefix_j_ + extra_floor_j_;
    double cheap = base;  ///< base + sum of row minima: admissible itself.
    for (graph::CoreId c = 0; c < num_cores_; ++c) {
      if (placed_[c] != kUnplaced || traffic_[c] == 0) continue;
      const double* row = level.rows[c];
      double row_min = std::numeric_limits<double>::infinity();
      for (const noc::TileId u : free_) row_min = std::min(row_min, row[u]);
      cheap += row_min;
      // Cascade: a partial sum of row minima is already admissible, so the
      // moment it exceeds the caller's threshold the assignment solve is
      // unnecessary.
      if (cheap > prune_above) return cheap;
    }
    if (!level.solved) {
      if (parent && parent->solved) {
        // The warm solve stops early once its dual objective proves the
        // prune by the margin that covers the dual's rounding.
        const double stop = prune_above + kDualMargin * std::abs(prune_above);
        return base + warm_solve(level, *parent, stop - base);
      }
      cold_solve(level);
    }
    return base + level.value;
  }

  std::uint64_t core_traffic(graph::CoreId core) const override {
    return core < traffic_.size() ? traffic_[core] : 0;
  }

 private:
  static constexpr noc::TileId kUnplaced =
      std::numeric_limits<noc::TileId>::max();
  /// No partner: a free row or a free column of the assignment.
  static constexpr std::uint32_t kNone =
      std::numeric_limits<std::uint32_t>::max();
  /// Relative margin by which a dual objective must exceed prune_above to
  /// stop a warm solve: it covers the rounding of the potentials and of
  /// their sum, so the full solve would have pruned too.
  static constexpr double kDualMargin = 1e-12;

  /// One edge endpoint as seen from a core; in the scratch buffer of
  /// gather() `other` is reused to hold the placed partner's *tile*.
  struct Incident {
    std::uint32_t other = 0;
    double bits = 0.0;
    bool outgoing = false;
  };

  struct Placement {
    graph::CoreId core = 0;
    noc::TileId tile = 0;
  };

  /// The assignment state one depth saves (see the class comment). Rows are
  /// numbered by core id, then the dummies from num_cores up; columns by
  /// tile id. Only unplaced cores' rows and free tiles' columns are live.
  struct Level {
    bool built = false;   ///< dmin and rows describe the current prefix.
    bool solved = false;  ///< u, v, matching and value are its optimum.
    /// Per free tile: hops to the nearest other free tile (0 for the last
    /// free tile: ebit_[0] is 0, and that tile can only host the last
    /// unplaced core, which by then has no unplaced partners).
    std::vector<std::uint32_t> dmin;
    /// Per row: its entries indexed by tile, shared with the parent when
    /// unchanged; zero_row_ for dummies and traffic-free cores.
    std::vector<const double*> rows;
    std::vector<double> pool;  ///< Storage of the rows repriced here.
    std::vector<double> u;     ///< Row potentials.
    std::vector<double> v;     ///< Column potentials.
    std::vector<std::uint32_t> col_of_row;
    std::vector<std::uint32_t> row_of_col;  ///< Plus augment()'s root slot.
    double value = 0.0;  ///< The optimal assignment cost.
  };

  /// Fresh full evaluation in edge order — the exact CwmCost::cost() sum.
  double complete_cost() const {
    double energy_j = 0.0;
    for (const graph::CwgEdge& e : edges_) {
      const std::uint32_t k = table_.hops(placed_[e.src], placed_[e.dst]);
      energy_j += energy::dynamic_packet_energy(tech_, e.bits, k);
    }
    return energy_j;
  }

  /// Forget the saved states of depths `from` through `to`.
  void invalidate(std::size_t from, std::size_t to) {
    for (std::size_t d = from; d <= to && d < levels_.size(); ++d) {
      levels_[d].built = levels_[d].solved = false;
    }
  }

  /// Hop count from free tile `u` to the nearest *other* free tile (either
  /// direction — admissible for both edge orientations); 0 when none.
  std::uint32_t nearest_free(noc::TileId u) const {
    std::uint32_t dmin = std::numeric_limits<std::uint32_t>::max();
    for (const noc::TileId v : free_) {
      if (v == u) continue;
      dmin = std::min(dmin, std::min(table_.hops(u, v), table_.hops(v, u)));
    }
    return dmin == std::numeric_limits<std::uint32_t>::max() ? 0 : dmin;
  }

  /// Collect `core`'s placed partners (with their tiles) into scratch_ and
  /// return its bits towards unplaced partners.
  double gather(graph::CoreId core) const {
    scratch_.clear();
    double unplaced_bits = 0.0;
    for (const Incident& e : incident_[core]) {
      if (placed_[e.other] != kUnplaced) {
        scratch_.push_back(Incident{placed_[e.other], e.bits, e.outgoing});
      } else {
        unplaced_bits += e.bits;
      }
    }
    return unplaced_bits;
  }

  /// Price `core`'s matrix entries at the tiles `cols` into out[tile].
  void price_row(graph::CoreId core, const std::vector<noc::TileId>& cols,
                 const std::vector<std::uint32_t>& dmin, double* out) const {
    const double unplaced_bits = gather(core);
    for (const noc::TileId u : cols) {
      double s = 0.5 * unplaced_bits * ebit_[dmin[u]];
      for (const Incident& e : scratch_) {
        s += e.bits * ebit_[e.outgoing ? table_.hops(u, e.other)
                                       : table_.hops(e.other, u)];
      }
      out[u] = s;
    }
  }

  /// Price the matrix of the current placement from scratch.
  void build_matrix(Level& level) const {
    level.dmin.resize(num_tiles_);
    for (const noc::TileId u : free_) level.dmin[u] = nearest_free(u);
    level.rows.assign(num_tiles_, zero_row_.data());
    std::size_t live = 0;
    for (graph::CoreId c = 0; c < num_cores_; ++c) {
      if (placed_[c] == kUnplaced && traffic_[c] != 0) ++live;
    }
    level.pool.resize(live * num_tiles_);
    double* out = level.pool.data();
    for (graph::CoreId c = 0; c < num_cores_; ++c) {
      if (placed_[c] != kUnplaced || traffic_[c] == 0) continue;
      price_row(c, free_, level.dmin, out);
      level.rows[c] = out;
      out += num_tiles_;
    }
  }

  /// The matrix of the current placement from the parent depth's: only the
  /// rows that read a changed quantity are repriced, every other row is
  /// shared. Bitwise the matrix build_matrix() produces.
  void derive_matrix(Level& level, const Level& parent) const {
    const Placement last = order_[num_placed_ - 1];
    // Only a tile whose nearest free neighbour was the taken tile can move.
    level.dmin = parent.dmin;
    moved_.clear();
    for (const noc::TileId u : free_) {
      const std::uint32_t h = std::min(table_.hops(u, last.tile),
                                       table_.hops(last.tile, u));
      if (h != parent.dmin[u]) continue;
      level.dmin[u] = nearest_free(u);
      if (level.dmin[u] != parent.dmin[u]) moved_.push_back(u);
    }
    // Every entry of the placed core's unplaced partners changes (one of
    // their unplaced edges became a placed one). A moved tile changes the
    // half-charge entry at that tile in every row with unplaced traffic.
    dirty_.clear();
    const auto is_dirty = [&](graph::CoreId c) {
      return std::find(dirty_.begin(), dirty_.end(), c) != dirty_.end();
    };
    for (const Incident& e : incident_[last.core]) {
      if (placed_[e.other] == kUnplaced && traffic_[e.other] != 0 &&
          !is_dirty(e.other)) {
        dirty_.push_back(e.other);
      }
    }
    const std::size_t partners = dirty_.size();
    if (!moved_.empty()) {
      for (graph::CoreId c = 0; c < num_cores_; ++c) {
        if (placed_[c] == kUnplaced && traffic_[c] != 0 && !is_dirty(c) &&
            gather(c) != 0.0) {
          dirty_.push_back(c);
        }
      }
    }
    level.rows = parent.rows;
    level.pool.resize(dirty_.size() * num_tiles_);
    double* out = level.pool.data();
    for (std::size_t i = 0; i < dirty_.size(); ++i, out += num_tiles_) {
      const graph::CoreId c = dirty_[i];
      if (i < partners) {
        price_row(c, free_, level.dmin, out);
      } else {
        const double* shared = parent.rows[c];
        for (const noc::TileId u : free_) out[u] = shared[u];
        price_row(c, moved_, level.dmin, out);
      }
      level.rows[c] = out;
    }
  }

  /// Cold start: zero potentials, every row free. The traffic rows augment
  /// in core order; the zero rows then take the columns left over, with
  /// u = 0. That is dual-feasible and tight: v <= 0 everywhere, and a free
  /// column still has v = 0 because no phase has scanned it as used.
  void cold_solve(Level& level) const {
    level.u.assign(num_tiles_, 0.0);
    level.v.assign(num_tiles_, 0.0);
    level.col_of_row.assign(num_tiles_, kNone);
    level.row_of_col.assign(num_tiles_ + 1, kNone);
    for (graph::CoreId c = 0; c < num_cores_; ++c) {
      if (placed_[c] == kUnplaced && traffic_[c] != 0) augment(level, c);
    }
    std::size_t next = 0;
    for (std::uint32_t r = 0; r < num_tiles_; ++r) {
      if (r < num_cores_ && (placed_[r] != kUnplaced || traffic_[r] != 0)) {
        continue;
      }
      while (level.row_of_col[free_[next]] != kNone) ++next;
      level.row_of_col[free_[next]] = r;
      level.col_of_row[r] = free_[next];
    }
    level.value = matched_cost(level);
    level.solved = true;
  }

  /// Warm start from the parent's optimum: drop the placed core's row and
  /// the taken tile's column, free every repriced row whose matched entry
  /// moved, and re-augment only the free rows. Entries only grew, so the
  /// potentials stay dual-feasible and every kept match stays tight.
  ///
  /// Returns the optimum and marks the level solved. Between augments the
  /// dual objective already bounds the optimum from below (weak duality):
  /// once it exceeds `stop_above`, the solve stops and returns it instead,
  /// leaving the level unsolved.
  double warm_solve(Level& level, const Level& parent,
                    double stop_above) const {
    const Placement last = order_[num_placed_ - 1];
    level.u = parent.u;
    level.v = parent.v;
    level.col_of_row = parent.col_of_row;
    level.row_of_col = parent.row_of_col;
    const std::uint32_t col = level.col_of_row[last.core];
    if (col != last.tile) {
      level.row_of_col[col] = kNone;
      level.col_of_row[level.row_of_col[last.tile]] = kNone;
    }
    for (graph::CoreId c = 0; c < num_cores_; ++c) {
      if (placed_[c] != kUnplaced || level.rows[c] == parent.rows[c]) continue;
      const std::uint32_t j = level.col_of_row[c];
      if (j != kNone && level.rows[c][j] != parent.rows[c][j]) {
        level.row_of_col[j] = kNone;
        level.col_of_row[c] = kNone;
      }
    }
    bool augmented = false;
    for (std::uint32_t r = 0; r < num_tiles_; ++r) {
      if (r < num_cores_ && placed_[r] != kUnplaced) continue;
      if (level.col_of_row[r] != kNone) continue;
      // Checked after each augment but the last, which ends the solve.
      if (augmented) {
        const double dual = dual_value(level);
        if (dual > stop_above) return dual;
      }
      augment(level, r);
      augmented = true;
    }
    level.value = matched_cost(level);
    level.solved = true;
    return level.value;
  }

  /// The dual objective: row potentials of the live rows (unplaced cores
  /// and dummies) plus column potentials of the free tiles. Dual-feasible
  /// potentials make it a lower bound on the optimal assignment cost.
  double dual_value(const Level& level) const {
    double dual = 0.0;
    for (std::uint32_t r = 0; r < num_tiles_; ++r) {
      if (r < num_cores_ && placed_[r] != kUnplaced) continue;
      dual += level.u[r];
    }
    for (const noc::TileId t : free_) dual += level.v[t];
    return dual;
  }

  /// Match free row `root`: one shortest-augmenting-path phase of the
  /// Hungarian algorithm (Dijkstra over the reduced costs a - u - v of the
  /// free tiles), which keeps the potentials dual-feasible and every
  /// matched entry tight. The virtual column num_tiles_ holds the root.
  void augment(Level& level, std::uint32_t root) const {
    constexpr double kInf = std::numeric_limits<double>::infinity();
    const std::uint32_t virt = num_tiles_;
    for (const noc::TileId t : free_) {
      minv_[t] = kInf;
      used_[t] = 0;
    }
    level.row_of_col[virt] = root;
    std::uint32_t j0 = virt;
    do {
      used_[j0] = 1;
      const std::uint32_t i0 = level.row_of_col[j0];
      const double* a = level.rows[i0];
      const double ui = level.u[i0];
      double delta = kInf;
      std::uint32_t j1 = virt;
      for (const noc::TileId t : free_) {
        if (used_[t]) continue;
        const double cur = a[t] - ui - level.v[t];
        if (cur < minv_[t]) {
          minv_[t] = cur;
          way_[t] = j0;
        }
        if (minv_[t] < delta) {
          delta = minv_[t];
          j1 = t;
        }
      }
      level.u[root] += delta;
      for (const noc::TileId t : free_) {
        if (used_[t]) {
          level.u[level.row_of_col[t]] += delta;
          level.v[t] -= delta;
        } else {
          minv_[t] -= delta;
        }
      }
      j0 = j1;
    } while (level.row_of_col[j0] != kNone);
    // Flip the alternating path back to the root.
    do {
      const std::uint32_t j1 = way_[j0];
      const std::uint32_t r = level.row_of_col[j1];
      level.row_of_col[j0] = r;
      level.col_of_row[r] = j0;
      j0 = j1;
    } while (j0 != virt);
  }

  /// The matching's cost, summed directly over the chosen entries in tile
  /// order (an actual matching cost even under floating-point rounding;
  /// the zero rows add exact zeros).
  double matched_cost(const Level& level) const {
    double cost = 0.0;
    for (const noc::TileId t : free_) {
      cost += level.rows[level.row_of_col[t]][t];
    }
    return cost;
  }

  std::vector<graph::CwgEdge> edges_;
  std::vector<std::vector<Incident>> incident_;
  std::vector<std::uint64_t> traffic_;
  noc::RouteTable table_;
  energy::Technology tech_;
  std::size_t num_cores_;
  std::uint32_t num_tiles_;
  std::vector<double> ebit_;       ///< dynamic_bit_energy per hop count.
  double extra_floor_j_ = 0.0;

  std::vector<noc::TileId> placed_;  ///< Per core; kUnplaced when free.
  std::vector<char> occupied_;       ///< Per tile.
  std::size_t num_placed_ = 0;
  double prefix_j_ = 0.0;
  std::vector<Placement> order_;     ///< Placements, oldest first.
  std::vector<double> zero_row_;     ///< The row of every zero-cost row.
  /// Per-depth assignment states (bound() is const but saves them).
  mutable std::vector<Level> levels_;
  // Scratch (bound() is const but reuses buffers).
  mutable std::vector<Incident> scratch_;
  mutable std::vector<noc::TileId> free_;
  mutable std::vector<noc::TileId> moved_;
  mutable std::vector<graph::CoreId> dirty_;
  mutable std::vector<double> minv_;
  mutable std::vector<std::uint32_t> way_;
  mutable std::vector<char> used_;
};

/// Mapping-independent floor on the CDCM execution time: the critical path
/// of the dependence DAG with every packet delivered at the contention-free
/// Equation-8 latency of a minimal route. Any mapping places distinct cores
/// on distinct tiles, so every route has at least `min_pair_k` routers and
/// contention only adds delay.
double cdcg_texec_floor_ns(const graph::Cdcg& cdcg,
                           const energy::Technology& tech,
                           std::uint32_t min_pair_k) {
  std::vector<double> delivered(cdcg.num_packets(), 0.0);
  double texec = 0.0;
  for (graph::PacketId p : cdcg.topological_order()) {
    double ready = 0.0;
    for (graph::PacketId q : cdcg.predecessors(p)) {
      ready = std::max(ready, delivered[q]);
    }
    const graph::Packet& pk = cdcg.packet(p);
    delivered[p] = ready +
                   static_cast<double>(pk.comp_time) * tech.clock_period_ns +
                   energy::total_packet_delay_ns(tech, min_pair_k,
                                                 tech.flits(pk.bits));
    texec = std::max(texec, delivered[p]);
  }
  return texec;
}

/// The minimal hop count between distinct tiles (the K used by both floors).
std::uint32_t minimal_pair_hops(const noc::Topology& topo) {
  std::uint32_t min_k = std::numeric_limits<std::uint32_t>::max();
  for (noc::TileId a = 0; a < topo.num_tiles(); ++a) {
    for (noc::TileId b = 0; b < topo.num_tiles(); ++b) {
      if (a != b) min_k = std::min(min_k, topo.distance(a, b) + 1);
    }
  }
  return min_k;
}

}  // namespace

std::unique_ptr<CostFunction::LowerBound> CwmCost::make_lower_bound() const {
  return std::make_unique<HopLowerBound>(edges_, num_cores_, *topo_, tech_,
                                         routing_, /*extra_floor_j=*/0.0);
}

std::unique_ptr<CostFunction::LowerBound> CdcmCost::make_lower_bound() const {
  const graph::Cwg cwg = cdcg_.to_cwg();
  const double static_floor_j = energy::static_noc_energy(
      tech_, topo_.num_tiles(),
      cdcg_texec_floor_ns(cdcg_, tech_, minimal_pair_hops(topo_)));
  return std::make_unique<HopLowerBound>(cwg.edges(), cdcg_.num_cores(), topo_,
                                         tech_, routing_, static_floor_j);
}

double cwm_dynamic_energy(const graph::Cwg& cwg, const noc::Topology& topo,
                          const Mapping& m, const energy::Technology& tech,
                          noc::RoutingAlgorithm routing) {
  return CwmCost(cwg, topo, tech, routing).cost(m);
}

CdcmCost::CdcmCost(const graph::Cdcg& cdcg, const noc::Topology& topo,
                   const energy::Technology& tech,
                   noc::RoutingAlgorithm routing, sim::SimOptions sim_options)
    : cdcg_(cdcg), topo_(topo), tech_(tech), routing_(routing) {
  tech_.validate();
  cdcg_.validate(/*require_connected=*/false);
  sim_options.routing = routing_;
  simulator_ =
      std::make_unique<sim::Simulator>(cdcg_, topo_, tech_, sim_options);
}

std::vector<std::vector<noc::TileId>> CdcmCost::symmetry_group(
    const noc::Topology& topo) const {
  const std::uint32_t n = topo.num_tiles();
  std::vector<std::vector<noc::TileId>> routers(std::size_t{n} * n);
  for (noc::TileId s = 0; s < n; ++s) {
    for (noc::TileId d = 0; d < n; ++d) {
      routers[std::size_t{s} * n + d] = topo.route(s, d, routing_).routers;
    }
  }
  const auto carries_routes = [&](const std::vector<noc::TileId>& g) {
    for (noc::TileId s = 0; s < n; ++s) {
      for (noc::TileId d = 0; d < n; ++d) {
        const std::vector<noc::TileId>& route = routers[std::size_t{s} * n + d];
        const std::vector<noc::TileId>& image =
            routers[std::size_t{g[s]} * n + g[d]];
        if (!std::equal(route.begin(), route.end(), image.begin(), image.end(),
                        [&](noc::TileId r, noc::TileId i) {
                          return g[r] == i;
                        })) {
          return false;
        }
      }
    }
    return true;
  };
  std::vector<std::vector<noc::TileId>> group;
  for (const std::vector<noc::TileId>& g : topo.symmetry_maps()) {
    if (carries_routes(g)) group.push_back(g);
  }
  return group;
}

double CdcmCost::cost(const Mapping& m) const {
  return cost_within(m, std::numeric_limits<double>::infinity());
}

double CdcmCost::cost_within(const Mapping& m, double reject_above) const {
  // Cache hits return the value a fresh run would produce: the simulator is
  // deterministic and the cached cost came from a real run of this exact
  // mapping.
  if (cur_map_ && m == *cur_map_) return cur_cost_;
  if (probe_valid_ && m == *probe_map_) return probe_cost_;
  const sim::SimulationResult& r = simulator_->run(m, reject_above);
  // A stopped run's energy is not the cost, only a value above the bound.
  if (r.stopped) return r.energy.total_j();
  cur_map_ = m;  // Copy-assign reuses the cached mapping's storage.
  cur_cost_ = r.energy.total_j();
  probe_valid_ = false;
  return cur_cost_;
}

double CdcmCost::swap_delta(const Mapping& m, noc::TileId a,
                            noc::TileId b) const {
  const std::pair<noc::TileId, noc::TileId> swap{a, b};
  return probe(m, &swap, 1);
}

void CdcmCost::apply_swap(Mapping& m, noc::TileId a, noc::TileId b) const {
  const std::pair<noc::TileId, noc::TileId> swap{a, b};
  apply_move(m, &swap, 1);
}

double CdcmCost::move_delta(Mapping& m,
                            const std::pair<noc::TileId, noc::TileId>* swaps,
                            std::size_t count) const {
  return probe(m, swaps, count);
}

double CdcmCost::probe(const Mapping& m,
                       const std::pair<noc::TileId, noc::TileId>* swaps,
                       std::size_t count) const {
  const double base = cost(m);
  probe_valid_ = false;  // probe_map_ changes before its run completes.
  if (!probe_map_) {
    probe_map_ = m;
  } else {
    *probe_map_ = m;
  }
  for (std::size_t i = 0; i < count; ++i) {
    probe_map_->swap_tiles(swaps[i].first, swaps[i].second);
  }
  // One full scalar resimulation of the move's end state: the simulator
  // rebinds only the packets incident to the moved cores, then replays the
  // whole schedule, so this is bitwise cost(m') - cost(m) for a move of any
  // length.
  probe_cost_ = simulator_->run(*probe_map_).energy.total_j();
  probe_valid_ = true;
  return probe_cost_ - base;
}

void CdcmCost::apply_move(Mapping& m,
                          const std::pair<noc::TileId, noc::TileId>* swaps,
                          std::size_t count) const {
  for (std::size_t i = 0; i < count; ++i) {
    m.swap_tiles(swaps[i].first, swaps[i].second);
  }
  if (probe_valid_ && m == *probe_map_) {
    // The committed mapping is the one just probed (the simulator is
    // deterministic, so the cached cost is its exact cost): promote it, so
    // the next probe's base and the per-step resync cost() are free.
    cur_map_.swap(probe_map_);
    cur_cost_ = probe_cost_;
  } else {
    cur_map_.reset();
  }
  probe_valid_ = false;
}

sim::SimulationResult CdcmCost::evaluate(const Mapping& m) const {
  return simulator_->run_traced(m);
}

const sim::CheckpointStats& CdcmCost::checkpoint_stats() const {
  return simulator_->checkpoint_stats();
}

bool CdcmCost::checkpointing_active() const {
  return simulator_->checkpointing_active();
}

HybridCost::HybridCost(const graph::Cdcg& cdcg, const noc::Topology& topo,
                       const energy::Technology& tech,
                       noc::RoutingAlgorithm routing,
                       std::uint32_t cdcm_cadence,
                       sim::SimOptions sim_options)
    : cwg_(cdcg.to_cwg()),
      cwm_(cwg_, topo, tech, routing),
      cdcm_(cdcg, topo, tech, routing, sim_options),
      cadence_(cdcm_cadence) {}

bool HybridCost::exact_turn() const {
  ++probes_;
  return cadence_ != 0 && probes_ % cadence_ == 0;
}

double HybridCost::swap_delta(const Mapping& m, noc::TileId a,
                              noc::TileId b) const {
  // Off the exact turns, the prefilter: the timing-blind CWM repricing of
  // the two tiles, O(deg) hop-table lookups. The running cost it feeds
  // drifts from the true CDCM objective until the next exact turn or
  // per-step resync.
  return exact_turn() ? cdcm_.swap_delta(m, a, b) : cwm_.swap_delta(m, a, b);
}

void HybridCost::apply_swap(Mapping& m, noc::TileId a, noc::TileId b) const {
  // CwmCost is stateless; CdcmCost keeps its probe/current caches in sync.
  cdcm_.apply_swap(m, a, b);
}

double HybridCost::move_delta(Mapping& m,
                              const std::pair<noc::TileId, noc::TileId>* swaps,
                              std::size_t count) const {
  return exact_turn() ? cdcm_.move_delta(m, swaps, count)
                      : cwm_.move_delta(m, swaps, count);
}

void HybridCost::apply_move(Mapping& m,
                            const std::pair<noc::TileId, noc::TileId>* swaps,
                            std::size_t count) const {
  cdcm_.apply_move(m, swaps, count);
}

}  // namespace nocmap::mapping
