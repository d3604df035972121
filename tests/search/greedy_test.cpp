#include "nocmap/noc/mesh.hpp"
#include "nocmap/search/greedy.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

#include "nocmap/mapping/cost.hpp"
#include "nocmap/search/random_search.hpp"
#include "nocmap/workload/paper_example.hpp"
#include "nocmap/workload/random_cdcg.hpp"

namespace nocmap::search {
namespace {

TEST(GreedyTest, ProducesValidMapping) {
  const graph::Cwg cwg = workload::paper_example_cdcg().to_cwg();
  const noc::Mesh mesh = workload::paper_example_mesh();
  const mapping::Mapping m = greedy_mapping(cwg, mesh);
  EXPECT_TRUE(m.is_valid());
  EXPECT_EQ(m.num_cores(), 4u);
}

TEST(GreedyTest, IsDeterministic) {
  const graph::Cwg cwg = workload::paper_example_cdcg().to_cwg();
  const noc::Mesh mesh(3, 3);
  EXPECT_EQ(greedy_mapping(cwg, mesh), greedy_mapping(cwg, mesh));
}

TEST(GreedyTest, PlacesHeavyPartnersAdjacent) {
  // B<->F is the heaviest pair (40 + 15 = 55 bits): greedy must map them on
  // neighbouring tiles even on a roomy mesh.
  const graph::Cwg cwg = workload::paper_example_cdcg().to_cwg();
  const noc::Mesh mesh(4, 4);
  const mapping::Mapping m = greedy_mapping(cwg, mesh);
  using workload::kCoreB;
  using workload::kCoreF;
  EXPECT_EQ(mesh.distance(m.tile_of(kCoreB), m.tile_of(kCoreF)), 1u);
}

TEST(GreedyTest, AchievesMinimalCwmCostOnPaperExample) {
  const graph::Cwg cwg = workload::paper_example_cdcg().to_cwg();
  const noc::Mesh mesh = workload::paper_example_mesh();
  const energy::Technology tech = energy::example_technology();
  const mapping::Mapping m = greedy_mapping(cwg, mesh);
  // On the 2x2 every mapping keeping all pairs adjacent costs 390 pJ.
  EXPECT_DOUBLE_EQ(mapping::cwm_dynamic_energy(cwg, mesh, m, tech), 390e-12);
}

TEST(GreedyTest, CompetitiveWithRandomSamplingOnRandomApps) {
  util::Rng gen(7);
  workload::RandomCdcgParams params;
  params.num_cores = 14;
  params.num_packets = 70;
  params.total_bits = 100000;
  const graph::Cdcg cdcg = workload::generate_random_cdcg(params, gen);
  const graph::Cwg cwg = cdcg.to_cwg();
  const noc::Mesh mesh(4, 4);
  const energy::Technology tech = energy::example_technology();
  const mapping::CwmCost cost(cwg, mesh, tech);

  const double greedy_cost = cost.cost(greedy_mapping(cwg, mesh));
  util::Rng rng(3);
  const SearchResult random = random_search(cost, mesh, rng, 200);
  EXPECT_LT(greedy_cost, random.best_cost);
}

TEST(GreedyTest, MoreCoresThanTilesThrows) {
  graph::Cwg cwg;
  for (int i = 0; i < 5; ++i) cwg.add_core("c" + std::to_string(i));
  const noc::Mesh mesh(2, 2);
  EXPECT_THROW(greedy_mapping(cwg, mesh), std::invalid_argument);
}

TEST(GreedyTest, HandlesEdgelessGraph) {
  graph::Cwg cwg;
  cwg.add_core("a");
  cwg.add_core("b");
  const noc::Mesh mesh(2, 2);
  const mapping::Mapping m = greedy_mapping(cwg, mesh);
  EXPECT_TRUE(m.is_valid());
}

}  // namespace
}  // namespace nocmap::search
