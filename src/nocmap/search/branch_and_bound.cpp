#include "nocmap/search/branch_and_bound.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <limits>
#include <numeric>
#include <optional>
#include <stdexcept>
#include <vector>

#include "nocmap/util/parallel.hpp"
#include "nocmap/util/rng.hpp"

namespace nocmap::search {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Relative slack on the prune test: a node survives unless its bound
/// exceeds the incumbent by more than this fraction. Covers the incremental
/// prefix's floating-point drift and the per-edge vs per-packet rounding of
/// the CDCM bound, so a node containing an exactly-optimal completion can
/// never be cut by rounding noise. Exploring subtrees that are worse by
/// < 1e-9 relative costs nothing measurable.
constexpr double kBoundSlack = 1e-9;

/// What one subtree task reports. Tasks share no mutable state but the node
/// budget, so the aggregate over tasks of a completed search is
/// byte-identical for any thread count.
struct ShardOutcome {
  double best_cost = kInf;
  std::vector<noc::TileId> best;  ///< Core -> tile; empty when none found.
  std::uint64_t visited = 0;
  std::uint64_t pruned = 0;  ///< Eliminated volume (see SearchResult).
  std::uint64_t tests = 0;
  std::uint64_t leaf_evals = 0;
};

std::uint64_t saturating_add(std::uint64_t a, std::uint64_t b) {
  const std::uint64_t s = a + b;
  return s < a ? std::numeric_limits<std::uint64_t>::max() : s;
}

std::uint64_t saturating_mul(std::uint64_t a, std::uint64_t b) {
  if (b != 0 && a > std::numeric_limits<std::uint64_t>::max() / b) {
    return std::numeric_limits<std::uint64_t>::max();
  }
  return a * b;
}

/// Shared, read-mostly description of the search.
struct SearchPlan {
  const noc::Topology* topo = nullptr;
  std::size_t num_cores = 0;
  std::uint32_t num_tiles = 0;
  std::vector<graph::CoreId> order;       ///< Placement order.
  /// Candidates for core id 0: the minimum of each orbit of the
  /// objective's symmetry group (every tile without symmetry).
  std::vector<noc::TileId> first_tiles;
  std::vector<std::vector<noc::TileId>> prefixes;  ///< One per subtree task.
  double incumbent_cost = kInf;           ///< Seeded incumbent (SA/greedy).
  std::uint64_t max_nodes = 0;
  const CancelToken* cancel = nullptr;
  /// eliminated[level]: nodes of the subtree rooted at a placement of
  /// order[level] (itself included) — what a failing bound test at that
  /// level removes from the enumeration. Saturating.
  std::vector<std::uint64_t> eliminated;
};

/// Fan-out of the enumeration below each level, for the eliminated-node
/// accounting. The core-0 level uses the symmetry-collapsed candidate
/// count (exact when core 0 leads the order, a close upper bound
/// otherwise — occupied tiles may overlap the orbit minima).
std::vector<std::uint64_t> eliminated_subtree_sizes(const SearchPlan& plan) {
  const std::size_t n = plan.num_cores;
  std::vector<std::uint64_t> eliminated(n, 1);
  for (std::size_t level = n - 1; level-- > 0;) {
    const std::size_t child = level + 1;
    std::uint64_t fanout = plan.num_tiles - static_cast<std::uint64_t>(child);
    if (plan.order[child] == 0) {
      fanout = std::min<std::uint64_t>(fanout, plan.first_tiles.size());
    }
    eliminated[level] = saturating_add(
        1, saturating_mul(fanout, eliminated[child]));
  }
  return eliminated;
}

/// The smallest tile of each orbit of `group`, in increasing order: the
/// tiles no map of the group sends to a smaller one.
std::vector<noc::TileId> orbit_minima(
    const std::vector<std::vector<noc::TileId>>& group,
    std::uint32_t num_tiles) {
  std::vector<noc::TileId> minima;
  for (noc::TileId t = 0; t < num_tiles; ++t) {
    if (std::none_of(group.begin(), group.end(),
                     [t](const std::vector<noc::TileId>& g) {
                       return g[t] < t;
                     })) {
      minima.push_back(t);
    }
  }
  return minima;
}

/// Mutable coordination between workers: the node budget.
struct SearchState {
  std::atomic<std::uint64_t> nodes{0};     ///< Global bound-test counter.
  std::atomic<bool> truncated{false};
};

/// One worker's private search machinery.
class ShardRunner {
 public:
  ShardRunner(const mapping::CostFunction& cost, const SearchPlan& plan,
              SearchState& state)
      : cost_(cost),
        plan_(plan),
        state_(state),
        lb_(cost.make_lower_bound()),
        leaf_(*plan.topo, plan.num_cores),
        assignment_(plan.num_cores, 0),
        used_(plan.num_tiles, 0) {
    cost_.begin_search();
  }

  ShardOutcome run(const std::vector<noc::TileId>& prefix) {
    out_ = ShardOutcome{};
    incumbent_ = plan_.incumbent_cost;
    lb_->reset();
    std::fill(used_.begin(), used_.end(), 0);
    // Replay the prefix through the same node test the inner levels use, so
    // an infeasible prefix is pruned (and counted) exactly once per task.
    replay(prefix, 0);
    return std::move(out_);
  }

 private:
  double prune_limit() const {
    return incumbent_ + kBoundSlack * std::abs(incumbent_);
  }

  /// True when the node survives the bound test and, at full depth, the
  /// leaf evaluation happened. False when the subtree below is cut;
  /// `prune_volume` is the eliminated-node credit charged in that case (the
  /// full subtree for inner nodes, only this task's slice during prefix
  /// replay — sibling tasks sharing the prefix charge their own slices).
  bool enter_node(std::size_t level, graph::CoreId core, noc::TileId tile,
                  std::uint64_t prune_volume) {
    // Cancellation truncates exactly like an exhausted node budget; polled
    // before the budget counter so a cancellation at the K-th poll equals
    // max_nodes == K - 1 single-threaded (the recorded-cut contract).
    if (plan_.cancel && plan_.cancel->cancelled()) {
      state_.truncated.store(true, std::memory_order_relaxed);
      stop_ = true;
      return false;
    }
    if (plan_.max_nodes != 0 &&
        state_.nodes.fetch_add(1, std::memory_order_relaxed) >=
            plan_.max_nodes) {
      state_.truncated.store(true, std::memory_order_relaxed);
      stop_ = true;
      return false;
    }
    if (plan_.max_nodes == 0) {
      state_.nodes.fetch_add(1, std::memory_order_relaxed);
    }
    ++out_.tests;
    lb_->place(core, tile);
    used_[tile] = 1;
    assignment_[core] = tile;
    const double limit = prune_limit();
    if (lb_->bound(limit) > limit) {
      out_.pruned = saturating_add(out_.pruned, prune_volume);
      return false;
    }
    ++out_.visited;
    if (level + 1 == plan_.num_cores) evaluate_leaf();
    return true;
  }

  void leave_node(graph::CoreId core, noc::TileId tile) {
    lb_->unplace(core, tile);
    used_[tile] = 0;
  }

  void evaluate_leaf() {
    leaf_.set_assignment(assignment_);
    // Priced against the prune limit: a leaf above it can neither become
    // the incumbent nor beat the optimum of a completed tree, which costs
    // at most the seeded incumbent, so only some value above the limit is
    // needed from it, and every other leaf is priced exactly.
    const double limit = prune_limit();
    const double c = cost_.cost_within(leaf_, limit);
    ++out_.leaf_evals;
    if (c > limit) return;
    // Strict pruning guarantees every optimum in the space is evaluated, so
    // breaking cost ties toward the lexicographically smallest assignment
    // makes the final winner independent of the visit order — and equal to
    // the first optimum exhaustive_search's enumeration encounters.
    if (c < out_.best_cost ||
        (c == out_.best_cost &&
         (out_.best.empty() || assignment_ < out_.best))) {
      out_.best_cost = c;
      out_.best = assignment_;
    }
    if (c < incumbent_) incumbent_ = c;
  }

  void replay(const std::vector<noc::TileId>& prefix, std::size_t level) {
    if (level == prefix.size()) {
      if (level == plan_.num_cores) return;  // Prefix is already a leaf.
      descend(level);
      return;
    }
    const graph::CoreId core = plan_.order[level];
    const noc::TileId tile = prefix[level];
    // This task's slice of the tree: the rest of the prefix chain plus the
    // subtree under the last prefix level.
    const std::size_t last = prefix.size() - 1;
    const std::uint64_t slice =
        saturating_add(static_cast<std::uint64_t>(last - level),
                       plan_.eliminated[last]);
    if (enter_node(level, core, tile, slice) && level + 1 < plan_.num_cores) {
      replay(prefix, level + 1);
    }
    if (!stop_) leave_node(core, tile);
  }

  void descend(std::size_t level) {
    const graph::CoreId core = plan_.order[level];
    if (core == 0) {
      for (const noc::TileId t : plan_.first_tiles) {
        if (!visit(level, core, t)) return;
      }
      return;
    }
    for (noc::TileId t = 0; t < plan_.num_tiles; ++t) {
      if (!visit(level, core, t)) return;
    }
  }

  bool visit(std::size_t level, graph::CoreId core, noc::TileId tile) {
    if (used_[tile]) return true;
    if (enter_node(level, core, tile, plan_.eliminated[level]) &&
        level + 1 < plan_.num_cores) {
      descend(level + 1);
    }
    if (stop_) return false;
    leave_node(core, tile);
    return true;
  }

  const mapping::CostFunction& cost_;
  const SearchPlan& plan_;
  SearchState& state_;
  std::unique_ptr<mapping::CostFunction::LowerBound> lb_;
  mapping::Mapping leaf_;
  std::vector<noc::TileId> assignment_;
  std::vector<char> used_;
  ShardOutcome out_;
  double incumbent_ = kInf;
  bool stop_ = false;
};

/// All feasible placement prefixes of length `depth` (the subtree tasks),
/// in lexicographic enumeration order.
std::vector<std::vector<noc::TileId>> make_prefixes(const SearchPlan& plan,
                                                    std::uint32_t depth) {
  std::vector<std::vector<noc::TileId>> prefixes;
  std::vector<noc::TileId> prefix;
  std::vector<char> used(plan.num_tiles, 0);
  const std::function<void(std::uint32_t)> gen = [&](std::uint32_t level) {
    if (level == depth) {
      prefixes.push_back(prefix);
      return;
    }
    const graph::CoreId core = plan.order[level];
    const auto try_tile = [&](noc::TileId t) {
      if (used[t]) return;
      used[t] = 1;
      prefix.push_back(t);
      gen(level + 1);
      prefix.pop_back();
      used[t] = 0;
    };
    if (core == 0) {
      for (const noc::TileId t : plan.first_tiles) try_tile(t);
    } else {
      for (noc::TileId t = 0; t < plan.num_tiles; ++t) try_tile(t);
    }
  };
  gen(0);
  return prefixes;
}

SearchResult run_search(const mapping::CostFunction& setup_cost,
                        const BnbCostFactory* factory,
                        const noc::Topology& topo, const BnbOptions& options) {
  const std::size_t num_cores = setup_cost.num_cores();
  const std::uint32_t num_tiles = topo.num_tiles();
  if (num_cores == 0) {
    throw std::invalid_argument("branch_and_bound: application has no cores");
  }
  if (num_cores > num_tiles) {
    throw std::invalid_argument("branch_and_bound: more cores than tiles");
  }
  if (!setup_cost.has_lower_bound()) {
    throw std::invalid_argument("branch_and_bound: " + setup_cost.name() +
                                " does not implement the LowerBound protocol");
  }
  if (options.incumbent &&
      (options.incumbent->num_cores() != num_cores ||
       options.incumbent->num_tiles() != num_tiles)) {
    throw std::invalid_argument(
        "branch_and_bound: incumbent mapping does not fit");
  }

  SearchPlan plan;
  plan.topo = &topo;
  plan.num_cores = num_cores;
  plan.num_tiles = num_tiles;
  plan.first_tiles = orbit_minima(
      options.use_symmetry ? setup_cost.symmetry_group(topo)
                           : std::vector<std::vector<noc::TileId>>{},
      num_tiles);
  plan.max_nodes = options.max_nodes;
  plan.cancel = options.cancel;

  // Placement order: heaviest communicators first (ties by core id), so
  // early prefixes already carry most of the cost mass and the remainder
  // bound has little slack left to hide in.
  {
    const std::unique_ptr<mapping::CostFunction::LowerBound> lb =
        setup_cost.make_lower_bound();
    plan.order.resize(num_cores);
    std::iota(plan.order.begin(), plan.order.end(), graph::CoreId{0});
    std::stable_sort(plan.order.begin(), plan.order.end(),
                     [&](graph::CoreId a, graph::CoreId b) {
                       return lb->core_traffic(a) > lb->core_traffic(b);
                     });
  }

  // --- Incumbent seeding ----------------------------------------------------
  setup_cost.begin_search();
  SearchResult result{mapping::Mapping(topo, num_cores), kInf, 0.0, 0, true};
  std::optional<mapping::Mapping> seed_map;
  if (options.incumbent) {
    seed_map = *options.incumbent;
    plan.incumbent_cost = setup_cost.cost(*seed_map);
    ++result.evaluations;
  }
  if (options.seed_with_sa) {
    util::Rng rng(options.seed);
    SaOptions seed_sa = options.sa;
    if (options.cancel) seed_sa.cancel = options.cancel;
    SearchResult sa = anneal(setup_cost, topo, rng, seed_sa,
                             seed_map ? &*seed_map : nullptr);
    result.evaluations += sa.evaluations;
    if (!seed_map || sa.best_cost < plan.incumbent_cost) {
      plan.incumbent_cost = sa.best_cost;
      seed_map = std::move(sa.best);
    }
  }
  result.initial_cost = seed_map ? plan.incumbent_cost : 0.0;

  // --- Subtree tasks --------------------------------------------------------
  const std::uint32_t depth = std::min<std::uint32_t>(
      options.shard_depth, static_cast<std::uint32_t>(num_cores));
  plan.eliminated = eliminated_subtree_sizes(plan);
  plan.prefixes = make_prefixes(plan, depth);

  SearchState state;
  std::vector<ShardOutcome> outcomes(plan.prefixes.size());
  // Worker 0 searches on setup_cost; the others build their cost function
  // and runner on their first task. A task claimed after the budget ran out
  // is skipped, as the one-worker loop would skip it.
  const std::size_t threads =
      factory ? std::max<std::uint32_t>(1, options.threads) : 1;
  const std::size_t workers =
      util::worker_count(threads, plan.prefixes.size());
  std::vector<std::unique_ptr<mapping::CostFunction>> costs(workers);
  std::vector<std::optional<ShardRunner>> runners(workers);
  util::parallel_for_index(
      threads, plan.prefixes.size(), [&](std::size_t worker, std::size_t k) {
        if (state.truncated.load(std::memory_order_relaxed)) return;
        if (!runners[worker]) {
          if (worker != 0) costs[worker] = (*factory)();
          runners[worker].emplace(worker == 0 ? setup_cost : *costs[worker],
                                  plan, state);
        }
        outcomes[k] = runners[worker]->run(plan.prefixes[k]);
      });

  // --- Deterministic reduction, in task order -------------------------------
  const std::vector<noc::TileId>* tree_best = nullptr;
  double tree_cost = kInf;
  for (const ShardOutcome& out : outcomes) {
    result.nodes_visited += out.visited;
    result.nodes_pruned = saturating_add(result.nodes_pruned, out.pruned);
    result.nodes_tested += out.tests;
    result.evaluations += out.leaf_evals;
    if (out.best.empty()) continue;
    if (out.best_cost < tree_cost ||
        (out.best_cost == tree_cost &&
         (tree_best == nullptr || out.best < *tree_best))) {
      tree_cost = out.best_cost;
      tree_best = &out.best;
    }
  }
  result.node_budget = options.max_nodes;
  result.exhausted = !state.truncated.load(std::memory_order_relaxed);

  // A completed tree always contains a leaf at least as good as the seeded
  // incumbent (the incumbent — or, under the symmetry collapse, one of its
  // images, which costs the same bit for bit — is itself enumerable and
  // strict pruning never cuts it), so the tree winner is the search-space
  // optimum. Only a budget-truncated run may have to fall back to the
  // incumbent.
  if (tree_best != nullptr &&
      (result.exhausted || !seed_map || tree_cost <= plan.incumbent_cost)) {
    result.best = mapping::Mapping::from_assignment(topo, *tree_best);
    result.best_cost = tree_cost;
    if (!seed_map) result.initial_cost = result.best_cost;
  } else if (seed_map) {
    result.best = std::move(*seed_map);
    result.best_cost = plan.incumbent_cost;
  } else if (tree_best != nullptr) {
    result.best = mapping::Mapping::from_assignment(topo, *tree_best);
    result.best_cost = tree_cost;
  } else {
    // Truncated before any leaf and no incumbent: report the identity
    // mapping the result was initialized with, priced honestly.
    result.best_cost = setup_cost.cost(result.best);
    ++result.evaluations;
    result.initial_cost = result.best_cost;
  }
  return result;
}

}  // namespace

SearchResult branch_and_bound(const BnbCostFactory& make_cost,
                              const noc::Topology& topo,
                              const BnbOptions& options) {
  if (!make_cost) {
    throw std::invalid_argument("branch_and_bound: null cost factory");
  }
  const std::unique_ptr<mapping::CostFunction> setup_cost = make_cost();
  if (!setup_cost) {
    throw std::invalid_argument("branch_and_bound: factory returned null");
  }
  return run_search(*setup_cost, &make_cost, topo, options);
}

SearchResult branch_and_bound(const mapping::CostFunction& cost,
                              const noc::Topology& topo,
                              const BnbOptions& options) {
  return run_search(cost, nullptr, topo, options);
}

}  // namespace nocmap::search
