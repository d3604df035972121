#pragma once
/// \file topology.hpp
/// The NoC topology abstraction — the Communication Resource Graph (CRG) of
/// Definition 3 in Marcon et al., DATE 2005, decoupled from mesh-ness.
///
/// The paper's models never assume a mesh: the CRG is just a resource graph
/// and Equations 1-10 only consume hop counts, resource ids and routes. This
/// header captures exactly that contract so the whole pipeline (route tables,
/// cost functions, the wormhole simulator, the search engines, the CLI) can
/// run on any tiled topology. Concrete instances:
///
///   * noc::Mesh        — the paper's regular 2-D mesh (mesh.hpp),
///   * noc::Torus       — 2-D torus with wrap-around links (torus.hpp),
///   * noc::ExpressMesh — mesh plus long-range express links
///                        (express_mesh.hpp).
///
/// Mesh and Torus are one implementation, noc::Grid (grid.hpp), whose axes
/// wrap or not as fixed at construction: a Mesh is the grid with no
/// wrapping axis.
///
/// See docs/topologies.md for the full contract, the per-topology resource-id
/// layouts and the routing/deadlock discussion.

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

namespace nocmap::noc {

/// Index of a tile (= router) in row-major order: tile (x, y) has id
/// y * width + x. Matches the paper's tau_1..tau_n numbering when counting
/// from tau_1 = tile 0 at the top-left, left-to-right, top-to-bottom.
using TileId = std::uint32_t;

/// Dense id over *all* NoC resources (routers, links, local links) of one
/// topology instance. Ids are contiguous in [0, num_resources()).
using ResourceId = std::uint32_t;

/// Grid coordinates of a tile. x grows rightwards, y grows downwards.
struct Coord {
  std::int32_t x = 0;
  std::int32_t y = 0;
  friend bool operator==(const Coord& a, const Coord& b) {
    return a.x == b.x && a.y == b.y;
  }
  friend bool operator!=(const Coord& a, const Coord& b) { return !(a == b); }
};

/// What a ResourceId refers to; used by annotation/reporting code.
enum class ResourceKind : std::uint8_t {
  kRouter,        ///< The router of a tile.
  kLink,          ///< A directed inter-router link (incl. wrap/express).
  kLocalIn,       ///< Core -> router injection link of a tile.
  kLocalOut,      ///< Router -> core ejection link of a tile.
};

/// Decoded resource description.
struct ResourceInfo {
  ResourceKind kind = ResourceKind::kRouter;
  TileId tile = 0;                    ///< Router / local-link / link-src tile.
  std::optional<TileId> link_dst;     ///< For kLink: the downstream tile.
};

/// Deterministic routing algorithms. All four are minimal on every shipped
/// topology w.r.t. Topology::distance() — see routing.hpp for the exact
/// per-algorithm guarantee and the deadlock fine print.
enum class RoutingAlgorithm : std::uint8_t {
  kXY,         ///< Route fully in X, then fully in Y (paper default).
  kYX,         ///< Route fully in Y, then fully in X.
  kWestFirst,  ///< Turn-model west-first: all westward travel first.
  kOddEven,    ///< Deterministic instance of Chiu's odd-even turn model.
};

/// A deterministic route between two tiles.
///
/// `routers` always contains K >= 1 entries, source first, destination last
/// (K == 1 when src == dst, i.e. both cores share a tile — excluded by valid
/// mappings but handled gracefully). `links[i]` connects routers[i] to
/// routers[i+1], so links.size() == K - 1.
struct Route {
  std::vector<TileId> routers;
  std::vector<ResourceId> links;

  /// K: the number of routers the packet passes through (Equation 2 and 8).
  std::uint32_t num_routers() const {
    return static_cast<std::uint32_t>(routers.size());
  }
};

/// Abstract W x H tiled topology. Immutable after construction, so a single
/// instance may be shared by any number of concurrent readers (route tables,
/// simulators, search workers).
///
/// The contract, in the paper's terms (Definition 3):
///  * **Tiles** — num_tiles() routers on a W x H grid, one IP core slot per
///    tile. The grid coordinate system (coord/tile_at/contains) is shared by
///    every instance; what differs is which tiles are *adjacent*.
///  * **Resources** — every router, directed inter-router link and local
///    (core<->router) link has a dense ResourceId, so the CDCM scheduler can
///    keep its per-resource occupancy lists ("cost variable lists") in flat
///    arrays sized num_resources(). The id *layout* is topology-specific;
///    describe()/resource_name() decode ids generically.
///  * **Neighbour/link enumeration** — neighbours() is the adjacency
///    relation (4-neighbours plus any wrap or express links);
///    link_resource() names the directed link between two adjacent tiles.
///  * **Deterministic-route provider** — route() returns the unique route of
///    a (src, dst, algorithm) triple. Routes are minimal: exactly
///    distance(src, dst) links. compute_route() in routing.hpp forwards
///    here and stays the reference implementation RouteTable is tested
///    against.
class Topology {
 public:
  virtual ~Topology() = default;

  // --- Grid shape (shared by all instances) --------------------------------

  std::uint32_t width() const { return width_; }
  std::uint32_t height() const { return height_; }
  std::uint32_t num_tiles() const { return width_ * height_; }

  /// Row-major decode. Throws std::invalid_argument when out of range.
  Coord coord(TileId tile) const;
  /// Row-major encode. Throws std::invalid_argument when out of range.
  TileId tile_at(Coord c) const;
  /// Whether `c` lies on the grid.
  bool contains(Coord c) const;

  // --- Identity ------------------------------------------------------------

  /// Short kind tag: "mesh", "torus" or "xmesh" (stable; used by the CLI
  /// --topology flag and CSV output).
  virtual const char* kind() const = 0;

  /// Human-readable instance label, e.g. "4x4", "4x4 torus", "8x8 xmesh(2)".
  /// The plain mesh intentionally prints bare "WxH" so mesh output is
  /// identical to the pre-topology-abstraction era.
  virtual std::string label() const;

  // --- Metric and adjacency ------------------------------------------------

  /// Minimal hop distance between the routers of `a` and `b` under the
  /// topology's deterministic routing: every route() has exactly
  /// distance(a, b) links, for every algorithm. Equals the graph distance of
  /// the link graph on Mesh and Torus; on ExpressMesh it is the *monotone*
  /// distance (see express_mesh.hpp).
  virtual std::uint32_t distance(TileId a, TileId b) const = 0;

  /// The tiles adjacent to `tile` (each reachable over one directed link).
  /// Order is deterministic but topology-specific.
  virtual std::vector<TileId> neighbours(TileId tile) const = 0;

  // --- Resource id space ---------------------------------------------------

  /// Total size of the resource id space; ids are dense in [0, this).
  virtual std::uint32_t num_resources() const = 0;

  /// The router of `tile`. Always equal to `tile` (routers occupy the low
  /// ids in every layout). Throws when out of range.
  ResourceId router_resource(TileId tile) const;
  /// Directed link from `src` to adjacent tile `dst`.
  /// Throws std::invalid_argument if no such link exists.
  virtual ResourceId link_resource(TileId src, TileId dst) const = 0;
  /// Core -> router injection link of `tile`.
  virtual ResourceId local_in_resource(TileId tile) const = 0;
  /// Router -> core ejection link of `tile`.
  virtual ResourceId local_out_resource(TileId tile) const = 0;

  /// Decode a ResourceId. Throws std::invalid_argument for ids that are out
  /// of range or refer to an unallocated link slot.
  virtual ResourceInfo describe(ResourceId id) const = 0;

  /// Human-readable resource name, e.g. "router(t5)", "link(t5->t6)",
  /// "local-in(t2)". Tiles print 1-based as in the paper (t1..tn).
  std::string resource_name(ResourceId id) const;

  // --- Deterministic-route provider ----------------------------------------

  /// The route from `src` to `dst` under `algo`. Minimal (exactly
  /// distance(src, dst) links), deterministic, and contiguous (each link
  /// connects consecutive routers). Throws when a tile is out of range.
  virtual Route route(TileId src, TileId dst, RoutingAlgorithm algo) const = 0;

  // --- Search support ------------------------------------------------------

  /// Tile permutations that preserve distance, hence the CWM objective.
  /// Always contains at least the identity. Each objective draws from these
  /// the maps it is exactly invariant under
  /// (mapping::CostFunction::symmetry_group), which exhaustive and
  /// branch-and-bound search prune by: all of them for CWM, only the
  /// route-preserving ones for CDCM, since e.g. a transpose turns XY routes
  /// into YX routes. The Explorer's ES-auto estimate reads the full set.
  ///
  /// Computed once per instance by compute_symmetry_maps() and cached
  /// (thread-safe — instances are shared by concurrent search workers), so
  /// repeated queries cost a mutex acquisition, not an automorphism search.
  const std::vector<std::vector<TileId>>& symmetry_maps() const;

 protected:
  /// Throws std::invalid_argument unless width >= 1, height >= 1 and
  /// width * height >= 2 (a 1-tile NoC has no communication resources).
  Topology(std::uint32_t width, std::uint32_t height);

  /// The symmetry group behind symmetry_maps(); called at most once per
  /// instance. The default keeps the automorphisms among the dihedral
  /// candidates of the bounding grid; Grid overrides to add the rotations
  /// of its wrapping axes.
  virtual std::vector<std::vector<TileId>> compute_symmetry_maps() const;

  /// Of `candidates` (tile permutations), the ones that are automorphisms of
  /// the neighbours() relation — i.e. genuine topology symmetries.
  std::vector<std::vector<TileId>> keep_automorphisms(
      std::vector<std::vector<TileId>> candidates) const;

  /// The dihedral candidate maps of the bounding W x H grid: identity and
  /// the axis flips, plus the four transpositions when W == H.
  std::vector<std::vector<TileId>> dihedral_candidates() const;

  // Copyable by concrete subclasses only: copying through a base reference
  // would slice off the derived state (C++ Core Guidelines C.67).
  Topology(const Topology&) = default;
  Topology& operator=(const Topology&) = default;

  /// Per-axis position stepper: the next X (resp. Y) toward the walk's
  /// target, given the current position. Called only while current !=
  /// target on that axis.
  using AxisStepper = std::function<std::int32_t(std::int32_t)>;

  /// The dimension-ordered route skeleton shared by every shipped
  /// instance: validates the tiles, orders the axes via
  /// detail::x_before_y(algo, x_dir, src column) and walks each axis with
  /// the given stepper until the target coordinate is reached, collecting
  /// link resources along the way. `x_dir` is the chosen X travel
  /// direction (-1/0/+1; wrap-aware on a torus).
  Route dimension_ordered_route(TileId src, TileId dst,
                                RoutingAlgorithm algo, int x_dir,
                                const AxisStepper& step_x,
                                const AxisStepper& step_y) const;

 private:
  /// Lazily computed symmetry_maps() storage. Copyable so concrete
  /// topologies stay copyable: a copy shares no state with the source (the
  /// computed maps are duplicated, the mutex is fresh).
  class SymmetryMapCache {
   public:
    SymmetryMapCache() = default;
    SymmetryMapCache(const SymmetryMapCache& other);
    SymmetryMapCache& operator=(const SymmetryMapCache& other);

    /// The cached maps, computing them via `compute` on the first call.
    const std::vector<std::vector<TileId>>& get(
        const std::function<std::vector<std::vector<TileId>>()>& compute)
        const;

   private:
    std::unique_ptr<const std::vector<std::vector<TileId>>> snapshot() const;

    mutable std::mutex mutex_;
    /// Stable address once set (the vector object itself never moves), so
    /// get() can hand out references that outlive the lock.
    mutable std::unique_ptr<const std::vector<std::vector<TileId>>> maps_;
  };

  std::uint32_t width_;
  std::uint32_t height_;
  SymmetryMapCache symmetry_cache_;
};

/// Options for make_topology(). Only some fields apply to some kinds.
struct TopologyOptions {
  /// ExpressMesh only: express links connect tiles k apart (k >= 2) along
  /// rows and columns, starting at aligned positions (multiples of k).
  std::uint32_t express_interval = 2;
};

/// Factory over the registered kinds: "mesh", "torus", "xmesh".
/// Throws std::invalid_argument for an unknown kind or invalid dimensions.
std::unique_ptr<Topology> make_topology(const std::string& kind,
                                        std::uint32_t width,
                                        std::uint32_t height,
                                        const TopologyOptions& options = {});

/// The registered kind names, in CLI presentation order.
const std::vector<std::string>& topology_kinds();

}  // namespace nocmap::noc
