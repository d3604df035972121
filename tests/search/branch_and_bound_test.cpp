#include "nocmap/search/branch_and_bound.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "nocmap/search/exhaustive.hpp"
#include "nocmap/search/greedy.hpp"
#include "nocmap/util/rng.hpp"
#include "nocmap/workload/paper_example.hpp"
#include "nocmap/workload/random_cdcg.hpp"
#include "nocmap/workload/suite.hpp"

namespace nocmap::search {
namespace {

graph::Cdcg random_workload(std::uint32_t cores, std::uint64_t seed = 1) {
  workload::RandomCdcgParams params;
  params.num_cores = cores;
  params.num_packets = cores * 4;
  params.total_bits = static_cast<std::uint64_t>(params.num_packets) * 256;
  util::Rng rng(seed);
  return workload::generate_random_cdcg(params, rng);
}

// --- Equivalence with exhaustive search ------------------------------------
//
// The acceptance contract of the engine: on enumerable instances the B&B
// optimum (cost AND mapping) is byte-identical to exhaustive_search. Both
// engines collapse by the objective's own symmetry group, under which the
// cost is exactly invariant, so both return the lexicographically smallest
// optimum of the full space: the one ES returns with pruning disabled.

TEST(BranchAndBoundTest, MatchesExhaustiveCwmOnAllTopologies) {
  const energy::Technology tech = energy::technology_0_07u();
  const graph::Cdcg cdcg = random_workload(9);
  const graph::Cwg cwg = cdcg.to_cwg();
  for (const std::string& kind : {std::string("mesh"), std::string("torus"),
                                  std::string("xmesh")}) {
    SCOPED_TRACE(kind);
    const std::unique_ptr<noc::Topology> topo = noc::make_topology(kind, 3, 3);
    const mapping::CwmCost cost(cwg, *topo, tech);
    const SearchResult es = exhaustive_search(cost, *topo);
    const SearchResult bb = branch_and_bound(cost, *topo);
    EXPECT_TRUE(bb.exhausted);
    EXPECT_EQ(bb.best_cost, es.best_cost);  // Bitwise, not approximate.
    EXPECT_EQ(bb.best, es.best);
    EXPECT_LT(bb.nodes_visited, es.evaluations);
  }
}

TEST(BranchAndBoundTest, MatchesExhaustiveCdcmOnAllTopologies) {
  const energy::Technology tech = energy::example_technology();
  const graph::Cdcg cdcg = workload::paper_example_cdcg();
  for (const std::string& kind : {std::string("mesh"), std::string("torus"),
                                  std::string("xmesh")}) {
    SCOPED_TRACE(kind);
    const std::unique_ptr<noc::Topology> topo = noc::make_topology(kind, 3, 3);
    // One cost function for both searches: ES stops simulating losing
    // candidates, and B&B, which stops simulating losing leaves too, runs
    // on the same arena after it, so a stop must leave nothing behind.
    const mapping::CdcmCost cost(cdcg, *topo, tech);
    EsOptions full;
    full.use_symmetry = false;
    const SearchResult es_full = exhaustive_search(cost, *topo, full);
    const SearchResult es = exhaustive_search(cost, *topo);
    const SearchResult bb = branch_and_bound(cost, *topo);
    EXPECT_TRUE(bb.exhausted);
    EXPECT_EQ(bb.best_cost, es_full.best_cost);
    EXPECT_EQ(bb.best, es_full.best);
    EXPECT_EQ(bb.best_cost, es.best_cost);
    EXPECT_EQ(bb.best, es.best);
  }
}

TEST(BranchAndBoundTest, MatchesExhaustiveCwm4x4) {
  const energy::Technology tech = energy::technology_0_07u();
  // 6 cores on 16 tiles: ES enumerates 16!/10! / sym placements — small
  // enough to cross-check a non-square-board instance end to end.
  const graph::Cdcg cdcg = random_workload(6, 7);
  const graph::Cwg cwg = cdcg.to_cwg();
  const std::unique_ptr<noc::Topology> topo = noc::make_topology("mesh", 4, 4);
  const mapping::CwmCost cost(cwg, *topo, tech);
  const SearchResult es = exhaustive_search(cost, *topo);
  const SearchResult bb = branch_and_bound(cost, *topo);
  EXPECT_TRUE(bb.exhausted);
  EXPECT_EQ(bb.best_cost, es.best_cost);
  EXPECT_EQ(bb.best, es.best);
}

// --- Determinism ------------------------------------------------------------

TEST(BranchAndBoundTest, ByteIdenticalForAnyThreadCount) {
  const energy::Technology tech = energy::technology_0_07u();
  const graph::Cdcg cdcg = random_workload(16);
  const graph::Cwg cwg = cdcg.to_cwg();
  const std::unique_ptr<noc::Topology> topo = noc::make_topology("mesh", 4, 4);
  const BnbCostFactory factory = [&]() -> std::unique_ptr<mapping::CostFunction> {
    return std::make_unique<mapping::CwmCost>(cwg, *topo, tech);
  };
  BnbOptions options;
  options.threads = 1;
  const SearchResult r1 = branch_and_bound(factory, *topo, options);
  options.threads = 4;
  const SearchResult r4 = branch_and_bound(factory, *topo, options);
  EXPECT_TRUE(r1.exhausted);
  // The bound's floor on a 16-core board: at least 90 % of the enumeration
  // tree is cut away without being expanded.
  const std::optional<double> pruned =
      pruned_fraction(r1.nodes_visited, r1.nodes_pruned);
  ASSERT_TRUE(pruned.has_value());
  EXPECT_GE(*pruned, 0.90);
  EXPECT_EQ(r1.best_cost, r4.best_cost);
  EXPECT_EQ(r1.best, r4.best);
  // Not just the result: every counter is thread-invariant (tasks prune
  // against the seeded incumbent plus their own discoveries only).
  EXPECT_EQ(r1.nodes_visited, r4.nodes_visited);
  EXPECT_EQ(r1.nodes_pruned, r4.nodes_pruned);
  EXPECT_EQ(r1.nodes_tested, r4.nodes_tested);
  EXPECT_EQ(r1.evaluations, r4.evaluations);
}

TEST(BranchAndBoundTest, ShardDepthDoesNotChangeTheResult) {
  const energy::Technology tech = energy::technology_0_07u();
  const graph::Cdcg cdcg = random_workload(9);
  const graph::Cwg cwg = cdcg.to_cwg();
  const std::unique_ptr<noc::Topology> topo = noc::make_topology("mesh", 3, 3);
  const mapping::CwmCost cost(cwg, *topo, tech);
  std::optional<SearchResult> reference;
  for (std::uint32_t depth : {0u, 1u, 3u, 9u, 20u}) {
    SCOPED_TRACE(depth);
    BnbOptions options;
    options.shard_depth = depth;
    const SearchResult r = branch_and_bound(cost, *topo, options);
    if (!reference) {
      reference = r;
      continue;
    }
    EXPECT_EQ(r.best_cost, reference->best_cost);
    EXPECT_EQ(r.best, reference->best);
  }
}

// --- Errors ------------------------------------------------------------------

/// CWM on a 3x3 mesh that throws "first" on the placement (0, 1, 2, 3) and
/// "second" on (3, 0, 1, 2), and prices nothing else differently. The
/// first is reached before the second in enumeration order, 1008
/// placements and 24 subtree tasks apart, but it sleeps before throwing,
/// so at several workers the second throws first in time.
/// Its lower bound is 0 and every core's traffic is equal, so branch and
/// bound walks the whole tree in the same lexicographic order as ES.
class ThrowingCost final : public mapping::CostFunction {
 public:
  ThrowingCost(const graph::Cwg& cwg, const noc::Topology& topo)
      : inner_(cwg, topo, energy::technology_0_07u()),
        first_(mapping::Mapping::from_assignment(topo, {0, 1, 2, 3})),
        second_(mapping::Mapping::from_assignment(topo, {3, 0, 1, 2})) {}

  double cost(const mapping::Mapping& m) const override {
    if (m == first_) {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      throw std::runtime_error("first");
    }
    if (m == second_) throw std::runtime_error("second");
    return inner_.cost(m);
  }
  std::string name() const override { return "throwing"; }
  std::size_t num_cores() const override { return inner_.num_cores(); }
  bool has_lower_bound() const override { return true; }
  std::unique_ptr<LowerBound> make_lower_bound() const override {
    return std::make_unique<ZeroBound>();
  }

 private:
  class ZeroBound final : public LowerBound {
   public:
    void reset() override {}
    void place(graph::CoreId, noc::TileId) override {}
    void unplace(graph::CoreId, noc::TileId) override {}
    double bound(double) const override { return 0.0; }
    std::uint64_t core_traffic(graph::CoreId) const override { return 0; }
  };

  mapping::CwmCost inner_;
  mapping::Mapping first_;
  mapping::Mapping second_;
};

template <typename Search>
void expect_first_error_at_any_thread_count(const Search& search) {
  for (const std::uint32_t threads : {1u, 2u, 4u, 7u}) {
    try {
      search(threads);
      ADD_FAILURE() << "no exception at threads " << threads;
    } catch (const std::runtime_error& e) {
      EXPECT_EQ(std::string(e.what()), "first") << "threads " << threads;
    }
  }
}

TEST(SearchErrorTest, ExhaustiveReportsTheFirstEnumeratedError) {
  const graph::Cwg cwg = random_workload(4).to_cwg();
  const noc::Mesh mesh(3, 3);
  const CostFactory factory = [&]() -> std::unique_ptr<mapping::CostFunction> {
    return std::make_unique<ThrowingCost>(cwg, mesh);
  };
  expect_first_error_at_any_thread_count([&](std::uint32_t threads) {
    EsOptions options;
    options.threads = threads;
    exhaustive_search(factory, mesh, options);
  });
}

TEST(SearchErrorTest, BranchAndBoundReportsTheFirstEnumeratedError) {
  const graph::Cwg cwg = random_workload(4).to_cwg();
  const noc::Mesh mesh(3, 3);
  const CostFactory factory = [&]() -> std::unique_ptr<mapping::CostFunction> {
    return std::make_unique<ThrowingCost>(cwg, mesh);
  };
  expect_first_error_at_any_thread_count([&](std::uint32_t threads) {
    BnbOptions options;
    options.threads = threads;
    options.seed_with_sa = false;
    branch_and_bound(factory, mesh, options);
  });
}

// --- Budget and seeding -----------------------------------------------------

TEST(BranchAndBoundTest, BudgetFallsBackToTheSeededIncumbent) {
  const energy::Technology tech = energy::technology_0_07u();
  const graph::Cdcg cdcg = random_workload(16);
  const graph::Cwg cwg = cdcg.to_cwg();
  const std::unique_ptr<noc::Topology> topo = noc::make_topology("mesh", 4, 4);
  const mapping::CwmCost cost(cwg, *topo, tech);
  BnbOptions options;
  options.max_nodes = 50;  // Far too small to finish a 16-core tree.
  const SearchResult truncated = branch_and_bound(cost, *topo, options);
  EXPECT_FALSE(truncated.exhausted);
  EXPECT_EQ(truncated.node_budget, 50u);
  EXPECT_TRUE(truncated.best.is_valid());

  // The fallback is never worse than the SA seed it started from.
  options.max_nodes = 0;
  const SearchResult full = branch_and_bound(cost, *topo, options);
  EXPECT_TRUE(full.exhausted);
  EXPECT_LE(full.best_cost, truncated.best_cost);
  // And the truncated run is never worse than its own seeded incumbent.
  EXPECT_LE(truncated.best_cost, truncated.initial_cost);
}

TEST(BranchAndBoundTest, WithoutSeedingStillFindsTheOptimum) {
  const energy::Technology tech = energy::technology_0_07u();
  const graph::Cdcg cdcg = random_workload(9);
  const graph::Cwg cwg = cdcg.to_cwg();
  const std::unique_ptr<noc::Topology> topo = noc::make_topology("mesh", 3, 3);
  const mapping::CwmCost cost(cwg, *topo, tech);
  BnbOptions options;
  options.seed_with_sa = false;
  const SearchResult bare = branch_and_bound(cost, *topo, options);
  const SearchResult es = exhaustive_search(cost, *topo);
  EXPECT_TRUE(bare.exhausted);
  EXPECT_EQ(bare.best_cost, es.best_cost);
  EXPECT_EQ(bare.best, es.best);
  // No incumbent to start from: the tree is bigger than the seeded run's.
  const SearchResult seeded = branch_and_bound(cost, *topo);
  EXPECT_GE(bare.nodes_tested, seeded.nodes_tested);
}

TEST(BranchAndBoundTest, CallerIncumbentIsUsed) {
  const energy::Technology tech = energy::technology_0_07u();
  const graph::Cdcg cdcg = random_workload(9);
  const graph::Cwg cwg = cdcg.to_cwg();
  const std::unique_ptr<noc::Topology> topo = noc::make_topology("mesh", 3, 3);
  const mapping::CwmCost cost(cwg, *topo, tech);
  const SearchResult es = exhaustive_search(cost, *topo);
  BnbOptions options;
  options.seed_with_sa = false;
  options.incumbent = &es.best;  // Seed with the known optimum.
  const SearchResult r = branch_and_bound(cost, *topo, options);
  EXPECT_TRUE(r.exhausted);
  EXPECT_EQ(r.best_cost, es.best_cost);
  EXPECT_EQ(r.initial_cost, es.best_cost);
}

/// Forwards to a CdcmCost and tallies the leaf prices branch and bound asks
/// of cost_within(): above the limit it passes, or within it.
class LeafTally final : public mapping::CostFunction {
 public:
  explicit LeafTally(const mapping::CdcmCost& cost) : cost_(cost) {}
  double cost(const mapping::Mapping& m) const override {
    return cost_.cost(m);
  }
  double cost_within(const mapping::Mapping& m,
                     double limit) const override {
    const double c = cost_.cost_within(m, limit);
    ++(c > limit ? above : within);
    return c;
  }
  std::string name() const override { return cost_.name(); }
  std::size_t num_cores() const override { return cost_.num_cores(); }
  bool has_lower_bound() const override { return true; }
  std::unique_ptr<LowerBound> make_lower_bound() const override {
    return cost_.make_lower_bound();
  }
  std::vector<std::vector<noc::TileId>> symmetry_group(
      const noc::Topology& topo) const override {
    return cost_.symmetry_group(topo);
  }

  mutable std::uint64_t above = 0;
  mutable std::uint64_t within = 0;

 private:
  const mapping::CdcmCost& cost_;
};

/// Leaves are priced against the prune limit, and one priced above it
/// updates neither its task's best nor the incumbent. A CDCM search seeded
/// with the optimum and cut at the first budget that prices any leaf has
/// priced only leaves above the limit: it reports the incumbent, at its
/// exact cost, not a stopped leaf's partial price.
TEST(BranchAndBoundTest, LeavesPricedAboveTheLimitLeaveTheIncumbent) {
  const energy::Technology tech = energy::technology_0_07u();
  const graph::Cdcg cdcg = random_workload(6);
  const std::unique_ptr<noc::Topology> topo = noc::make_topology("mesh", 3, 3);
  const mapping::CdcmCost cdcm(cdcg, *topo, tech);
  const SearchResult es = exhaustive_search(cdcm, *topo);
  LeafTally leaves(cdcm);
  BnbOptions options;
  options.seed_with_sa = false;
  options.incumbent = &es.best;
  std::optional<SearchResult> truncated;
  for (options.max_nodes = 1; leaves.above + leaves.within == 0;
       ++options.max_nodes) {
    ASSERT_LT(options.max_nodes, 10'000u);
    truncated = branch_and_bound(leaves, *topo, options);
  }
  EXPECT_FALSE(truncated->exhausted);
  EXPECT_GT(leaves.above, 0u);
  EXPECT_EQ(leaves.within, 0u);
  EXPECT_EQ(truncated->best, es.best);
  EXPECT_EQ(truncated->best_cost, es.best_cost);  // Bitwise: priced in full.
  EXPECT_EQ(truncated->evaluations, 1 + leaves.above);

  // Run to completion, the same search finds the optimum among the leaves
  // it prices within the limit.
  options.max_nodes = 0;
  const SearchResult full = branch_and_bound(leaves, *topo, options);
  EXPECT_TRUE(full.exhausted);
  EXPECT_GT(leaves.within, 0u);
  EXPECT_EQ(full.best, es.best);
  EXPECT_EQ(full.best_cost, es.best_cost);
}

/// A budget-truncated search on a big board eliminates more nodes than the
/// counter holds. A saturated count has no fraction, instead of reading as
/// "100 % pruned".
TEST(BranchAndBoundTest, PrunedFractionIsEmptyWhenSaturated) {
  EXPECT_FALSE(pruned_fraction(40, kNodesPrunedSaturated).has_value());
  const std::optional<double> exact = pruned_fraction(109, 986313);
  ASSERT_TRUE(exact.has_value());
  EXPECT_DOUBLE_EQ(*exact, 986313.0 / 986422.0);
}

TEST(BranchAndBoundTest, CountsAreConsistent) {
  const energy::Technology tech = energy::technology_0_07u();
  const graph::Cdcg cdcg = random_workload(9);
  const graph::Cwg cwg = cdcg.to_cwg();
  const std::unique_ptr<noc::Topology> topo = noc::make_topology("mesh", 3, 3);
  const mapping::CwmCost cost(cwg, *topo, tech);
  const SearchResult r = branch_and_bound(cost, *topo);
  EXPECT_GT(r.nodes_visited, 0u);
  EXPECT_GT(r.nodes_pruned, 0u);
  // Tests = visited + failing tests; each failing test eliminated at least
  // itself, so tested <= visited + pruned.
  EXPECT_GE(r.nodes_tested, r.nodes_visited);
  EXPECT_LE(r.nodes_tested - r.nodes_visited, r.nodes_pruned);
}

// --- Pinned decisions -------------------------------------------------------
//
// Every prune decision is pinned through the node counters of
// single-threaded runs from the greedy incumbent without SA seeding: one
// exhaustive 3x4 tree and budget-truncated descents on the three large
// boards, under CWM and (random-big-2) CDCM. The first two were recorded
// with a cold assignment solve at every node, the other four with a full
// warm solve; the bound, whose warm solves stop once the dual objective
// proves the prune, must reproduce all of them exactly.

struct PinnedRun {
  std::string app;
  bool cdcm;                ///< CdcmCost instead of CwmCost.
  std::uint64_t max_nodes;  ///< 0: no budget (the whole tree).
  std::uint64_t tested;
  std::uint64_t visited;
  std::uint64_t pruned;
  double best_cost;
};

TEST(BranchAndBoundTest, DecisionsArePinnedOnSuiteApps) {
  const energy::Technology tech = energy::technology_0_07u();
  const std::vector<PinnedRun> pinned = {
      {"fft-v2", false, 0, 24827, 5120, 114680968, 1.2844799999999997e-09},
      {"random-big-1", false, 2000, 2000, 40, kNodesPrunedSaturated,
       5.5183330999999987e-06},
      {"random-big-1", false, 50000, 50000, 874, kNodesPrunedSaturated,
       5.5183330999999987e-06},
      {"random-big-2", false, 10000, 10000, 131, kNodesPrunedSaturated,
       0.00032080871722000014},
      {"random-big-3", false, 10000, 10000, 105, kNodesPrunedSaturated,
       0.00046748144387999998},
      {"random-big-2", true, 3000, 3000, 64, kNodesPrunedSaturated,
       0.00060958541722000014},
  };
  const std::vector<workload::SuiteEntry> suite = workload::table1_suite();
  for (const PinnedRun& pin : pinned) {
    SCOPED_TRACE(pin.app + (pin.cdcm ? " CDCM " : " CWM ") +
                 std::to_string(pin.max_nodes));
    const auto entry = std::find_if(
        suite.begin(), suite.end(),
        [&](const workload::SuiteEntry& e) { return e.name == pin.app; });
    ASSERT_NE(entry, suite.end());
    const std::unique_ptr<noc::Topology> topo =
        noc::make_topology("mesh", entry->noc_width, entry->noc_height);
    const graph::Cwg cwg = entry->cdcg.to_cwg();
    std::unique_ptr<mapping::CostFunction> cost;
    if (pin.cdcm) {
      cost = std::make_unique<mapping::CdcmCost>(entry->cdcg, *topo, tech);
    } else {
      cost = std::make_unique<mapping::CwmCost>(cwg, *topo, tech);
    }
    const mapping::Mapping greedy = greedy_mapping(cwg, *topo);
    BnbOptions options;
    options.incumbent = &greedy;
    options.seed_with_sa = false;
    options.threads = 1;
    options.max_nodes = pin.max_nodes;
    const SearchResult r = branch_and_bound(*cost, *topo, options);
    EXPECT_EQ(r.exhausted, pin.max_nodes == 0);
    EXPECT_EQ(r.nodes_tested, pin.tested);
    EXPECT_EQ(r.nodes_visited, pin.visited);
    EXPECT_EQ(r.nodes_pruned, pin.pruned);
    EXPECT_EQ(r.best_cost, pin.best_cost);
  }
}

// --- Error handling ----------------------------------------------------------

TEST(BranchAndBoundTest, RejectsCostWithoutLowerBound) {
  class NoBoundCost final : public mapping::CostFunction {
   public:
    double cost(const mapping::Mapping&) const override { return 0.0; }
    std::string name() const override { return "stub"; }
    std::size_t num_cores() const override { return 2; }
  };
  const std::unique_ptr<noc::Topology> topo = noc::make_topology("mesh", 2, 2);
  const NoBoundCost cost;
  EXPECT_THROW(branch_and_bound(cost, *topo), std::invalid_argument);
}

TEST(BranchAndBoundTest, RejectsMoreCoresThanTiles) {
  const energy::Technology tech = energy::technology_0_07u();
  const graph::Cdcg cdcg = random_workload(9);
  const graph::Cwg cwg = cdcg.to_cwg();
  const std::unique_ptr<noc::Topology> big = noc::make_topology("mesh", 3, 3);
  const std::unique_ptr<noc::Topology> small =
      noc::make_topology("mesh", 2, 2);
  const mapping::CwmCost cost(cwg, *big, tech);
  EXPECT_THROW(branch_and_bound(cost, *small), std::invalid_argument);
}

TEST(BranchAndBoundTest, RejectsMisshapenIncumbent) {
  const energy::Technology tech = energy::technology_0_07u();
  const graph::Cdcg cdcg = random_workload(4);
  const graph::Cwg cwg = cdcg.to_cwg();
  const std::unique_ptr<noc::Topology> topo = noc::make_topology("mesh", 3, 3);
  const std::unique_ptr<noc::Topology> other =
      noc::make_topology("mesh", 2, 2);
  const mapping::CwmCost cost(cwg, *topo, tech);
  const mapping::Mapping wrong(*other, 4);
  BnbOptions options;
  options.incumbent = &wrong;
  EXPECT_THROW(branch_and_bound(cost, *topo, options), std::invalid_argument);
}

}  // namespace
}  // namespace nocmap::search
