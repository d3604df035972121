#include "nocmap/noc/mesh.hpp"
#include "nocmap/search/exhaustive.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <memory>
#include <stdexcept>
#include <string>

#include "nocmap/search/simulated_annealing.hpp"
#include "nocmap/workload/paper_example.hpp"
#include "nocmap/workload/random_cdcg.hpp"

namespace nocmap::search {
namespace {

struct Fixture {
  graph::Cdcg cdcg = workload::paper_example_cdcg();
  noc::Mesh mesh = workload::paper_example_mesh();
  energy::Technology tech = energy::example_technology();
};

graph::Cdcg random_cdcg(std::uint32_t cores, std::uint32_t packets,
                        std::uint64_t bits, std::uint64_t seed) {
  workload::RandomCdcgParams params;
  params.num_cores = cores;
  params.num_packets = packets;
  params.total_bits = bits;
  util::Rng rng(seed);
  return workload::generate_random_cdcg(params, rng);
}

/// Default (orbit-pruned) ES, on one worker and sharded over four, must
/// return what the full enumeration returns, bit for bit: cost, mapping and
/// first cost.
void expect_exact(const CostFactory& make_cost, const noc::Topology& topo) {
  const std::unique_ptr<mapping::CostFunction> cost = make_cost();
  EsOptions full;
  full.use_symmetry = false;
  const SearchResult reference = exhaustive_search(*cost, topo, full);
  const SearchResult serial = exhaustive_search(*cost, topo);
  EsOptions four;
  four.threads = 4;
  const SearchResult sharded = exhaustive_search(make_cost, topo, four);
  for (const SearchResult* pruned : {&serial, &sharded}) {
    EXPECT_EQ(pruned->best_cost, reference.best_cost);
    EXPECT_EQ(pruned->best, reference.best);
    EXPECT_EQ(pruned->initial_cost, reference.initial_cost);
    EXPECT_TRUE(pruned->exhausted);
  }
  EXPECT_EQ(sharded.evaluations, serial.evaluations);
  EXPECT_LE(serial.evaluations, reference.evaluations);
}

TEST(PlacementCountTest, CountsPartialPermutations) {
  EXPECT_EQ(placement_count(4, 4), 24u);
  EXPECT_EQ(placement_count(6, 5), 720u);
  EXPECT_EQ(placement_count(6, 6), 720u);
  EXPECT_EQ(placement_count(9, 2), 72u);
  EXPECT_EQ(placement_count(5, 0), 1u);
}

TEST(PlacementCountTest, SaturatesInsteadOfOverflowing) {
  EXPECT_EQ(placement_count(120, 100),
            std::numeric_limits<std::uint64_t>::max());
}

TEST(ExhaustiveTest, FindsGlobalOptimumOnPaperExample) {
  Fixture f;
  const mapping::CdcmCost cost(f.cdcg, f.mesh, f.tech);
  const SearchResult result = exhaustive_search(cost, f.mesh);
  EXPECT_DOUBLE_EQ(result.best_cost, 399e-12);  // Mapping (b)'s value.
  EXPECT_TRUE(result.exhausted);
  EXPECT_TRUE(result.best.is_valid());
}

TEST(ExhaustiveTest, SymmetryPruningPreservesTheOptimum) {
  Fixture f;
  const mapping::CdcmCost cost(f.cdcg, f.mesh, f.tech);
  EsOptions full;
  full.use_symmetry = false;
  EsOptions pruned;
  pruned.use_symmetry = true;
  const SearchResult a = exhaustive_search(cost, f.mesh, full);
  const SearchResult b = exhaustive_search(cost, f.mesh, pruned);
  EXPECT_DOUBLE_EQ(a.best_cost, b.best_cost);
  // Square 2x2 mesh: CDCM under XY keeps the 4 flips of its 8 symmetries,
  // and no flip fixes a placement of 4 cores, so 24 / 4 orbits.
  EXPECT_EQ(a.evaluations, 24u);
  EXPECT_EQ(b.evaluations, 6u);
}

TEST(ExhaustiveTest, SymmetryPruningOnRectangularMesh) {
  Fixture f;
  const noc::Mesh mesh(4, 2);
  const mapping::CdcmCost cost(f.cdcg, mesh, f.tech);
  EsOptions full;
  full.use_symmetry = false;
  const SearchResult a = exhaustive_search(cost, mesh, full);
  const SearchResult b = exhaustive_search(cost, mesh);
  EXPECT_DOUBLE_EQ(a.best_cost, b.best_cost);
  // 8P4 = 1680 placements; the 4 flips carry XY routes onto XY routes and
  // fix no tile of a 4x2 board, so 1680 / 4 orbits.
  EXPECT_EQ(a.evaluations, 1680u);
  EXPECT_EQ(b.evaluations, 420u);
}

TEST(ExhaustiveTest, SymmetryPruningCountsOneMappingPerOrbit) {
  // 8 cores on 3x3: no symmetry but the identity fixes 8 of the 9 tiles, so
  // by Burnside's lemma the orbits number 9! / |group|: 8 maps for CWM and
  // the 4 route-preserving flips for CDCM under XY.
  const noc::Mesh mesh(3, 3);
  const graph::Cdcg cdcg = random_cdcg(8, 8, 512, 3);
  const graph::Cwg cwg = cdcg.to_cwg();
  const energy::Technology tech = energy::technology_0_07u();
  const mapping::CwmCost cwm(cwg, mesh, tech);
  const mapping::CdcmCost cdcm(cdcg, mesh, tech);
  EXPECT_EQ(exhaustive_search(cwm, mesh).evaluations, 45'360u);
  EXPECT_EQ(exhaustive_search(cdcm, mesh).evaluations, 90'720u);
}

TEST(ExhaustiveTest, OrbitEnumerationMatchesFullEnumeration) {
  struct Board {
    const char* kind;
    std::uint32_t width;
    std::uint32_t height;
    std::uint32_t cores;
  };
  // Square and non-square meshes, tori with odd and even rings and an
  // express mesh. The apps fill most of the small boards: a sparse app's
  // optimum can usually be shifted until core 0 sits on a corner, which
  // every symmetry collapse keeps.
  const Board boards[] = {{"mesh", 2, 2, 4},  {"mesh", 3, 2, 6},
                          {"mesh", 3, 3, 6},  {"mesh", 4, 3, 4},
                          {"torus", 3, 3, 4}, {"torus", 4, 4, 4},
                          {"xmesh", 5, 5, 3}};
  const noc::RoutingAlgorithm routings[] = {
      noc::RoutingAlgorithm::kXY, noc::RoutingAlgorithm::kYX,
      noc::RoutingAlgorithm::kWestFirst, noc::RoutingAlgorithm::kOddEven};
  sim::SimOptions flit;
  flit.backend = sim::SimBackend::kFlit;
  flit.buffer_depth = 1;
  const energy::Technology tech = energy::technology_0_07u();
  std::uint64_t seed = 1;
  for (const Board& board : boards) {
    const std::unique_ptr<noc::Topology> topo =
        noc::make_topology(board.kind, board.width, board.height);
    for (const noc::RoutingAlgorithm routing : routings) {
      for (const sim::SimOptions& so : {sim::SimOptions{}, flit}) {
        SCOPED_TRACE(topo->label() + " routing " +
                     std::to_string(static_cast<int>(routing)) +
                     (so.backend == sim::SimBackend::kFlit ? " flit"
                                                           : " link-claim"));
        const graph::Cdcg cdcg =
            random_cdcg(board.cores, board.cores * 4, board.cores * 512,
                        seed++);
        const graph::Cwg cwg = cdcg.to_cwg();
        expect_exact(
            [&]() -> std::unique_ptr<mapping::CostFunction> {
              return std::make_unique<mapping::CwmCost>(cwg, *topo, tech,
                                                        routing);
            },
            *topo);
        expect_exact(
            [&]() -> std::unique_ptr<mapping::CostFunction> {
              return std::make_unique<mapping::CdcmCost>(cdcg, *topo, tech,
                                                         routing, so);
            },
            *topo);
      }
    }
  }
}

TEST(ExhaustiveTest, OrbitEnumerationIsExactOnTheCongestionApp) {
  // The pinned congestion experiment's application (docs/experiments.md)
  // under link-claim: pinning core 0 by all 8 symmetries of the 3x3 board
  // misses the CDCM optimum, since a transpose turns XY routes into YX.
  const noc::Mesh mesh(3, 3);
  const graph::Cdcg cdcg = random_cdcg(8, 40, 81'920, 7);
  const graph::Cwg cwg = cdcg.to_cwg();
  const energy::Technology tech = energy::technology_0_07u();
  expect_exact(
      [&]() -> std::unique_ptr<mapping::CostFunction> {
        return std::make_unique<mapping::CwmCost>(cwg, mesh, tech);
      },
      mesh);
  expect_exact(
      [&]() -> std::unique_ptr<mapping::CostFunction> {
        return std::make_unique<mapping::CdcmCost>(cdcg, mesh, tech);
      },
      mesh);
}

TEST(ExhaustiveTest, BudgetCapsEvaluationsAndFlagsNonExhausted) {
  Fixture f;
  const mapping::CdcmCost cost(f.cdcg, f.mesh, f.tech);
  EsOptions options;
  options.use_symmetry = false;
  options.max_evaluations = 10;
  const SearchResult result = exhaustive_search(cost, f.mesh, options);
  EXPECT_FALSE(result.exhausted);
  EXPECT_EQ(result.evaluations, 10u);
  EXPECT_TRUE(result.best.is_valid());
}

TEST(ExhaustiveTest, AgreesWithSimulatedAnnealingOnSmallNoCs) {
  // The paper: "for small NoC sizes, both ES and SA methods reached the
  // same results".
  Fixture f;
  const mapping::CdcmCost cost(f.cdcg, f.mesh, f.tech);
  const SearchResult es = exhaustive_search(cost, f.mesh);
  util::Rng rng(2024);
  const SearchResult sa = anneal(cost, f.mesh, rng);
  EXPECT_DOUBLE_EQ(es.best_cost, sa.best_cost);
}

TEST(ExhaustiveTest, FewerCoresThanTilesEnumeratesPartialPlacements) {
  Fixture f;
  // Map only 2 cores of a 2-core application onto 2x2.
  graph::Cdcg small;
  const auto a = small.add_core("a");
  const auto b = small.add_core("b");
  small.add_packet(a, b, 1, 8);
  const mapping::CdcmCost cost(small, f.mesh, f.tech);
  EsOptions options;
  options.use_symmetry = false;
  const SearchResult result = exhaustive_search(cost, f.mesh, options);
  EXPECT_EQ(result.evaluations, 12u);  // 4P2.
  EXPECT_TRUE(result.exhausted);
  // Optimum: adjacent tiles, K = 2: 8 bits * 3 pJ + static.
  const auto best_sim = cost.evaluate(result.best);
  EXPECT_EQ(best_sim.packets[0].num_routers, 2u);
}

TEST(ExhaustiveTest, MoreCoresThanTilesThrows) {
  Fixture f;
  graph::Cdcg big;
  std::vector<graph::CoreId> cores;
  for (int i = 0; i < 5; ++i) {
    cores.push_back(big.add_core("c" + std::to_string(i)));
  }
  big.add_packet(cores[0], cores[1], 1, 1);
  const mapping::CdcmCost cost(big, f.mesh, f.tech);
  EXPECT_THROW(exhaustive_search(cost, f.mesh), std::invalid_argument);
}

}  // namespace
}  // namespace nocmap::search
