/// \file exhaustive_batched_test.cpp
/// Batched exhaustive search must reproduce the serial engine bit for bit —
/// same winner, cost, initial cost and evaluation count — for every shard
/// size and BatchEvaluator thread count, including under a budget.

#include <memory>
#include <stdexcept>

#include <gtest/gtest.h>

#include "nocmap/mapping/cost.hpp"
#include "nocmap/noc/mesh.hpp"
#include "nocmap/noc/topology.hpp"
#include "nocmap/search/exhaustive.hpp"
#include "nocmap/sim/batch_evaluator.hpp"
#include "nocmap/workload/random_cdcg.hpp"

namespace nocmap::search {
namespace {

graph::Cdcg random_cdcg(std::uint32_t cores, std::uint64_t seed) {
  workload::RandomCdcgParams params;
  params.num_cores = cores;
  params.num_packets = cores * 4;
  params.total_bits = params.num_packets * 128;
  util::Rng rng(seed);
  return workload::generate_random_cdcg(params, rng);
}

void expect_same(const SearchResult& got, const SearchResult& want) {
  EXPECT_EQ(got.best, want.best);
  EXPECT_EQ(got.best_cost, want.best_cost);
  EXPECT_EQ(got.initial_cost, want.initial_cost);
  EXPECT_EQ(got.evaluations, want.evaluations);
  EXPECT_EQ(got.exhausted, want.exhausted);
}

class BatchedEsTest : public ::testing::TestWithParam<const char*> {};

TEST_P(BatchedEsTest, MatchesSerialCdcmSearch) {
  const std::unique_ptr<noc::Topology> topo =
      noc::make_topology(GetParam(), 3, 3, {});
  const graph::Cdcg cdcg = random_cdcg(4, 21);
  const energy::Technology tech = energy::technology_0_07u();
  const mapping::CdcmCost cost(cdcg, *topo, tech);

  const SearchResult serial = exhaustive_search(cost, *topo);

  sim::SimOptions sim_options;
  sim_options.record_traces = false;
  for (const std::uint32_t threads : {1u, 4u}) {
    for (const std::size_t shard : {1ul, 7ul, 64ul, 100000ul}) {
      sim::BatchEvaluator evaluator(cdcg, *topo, tech, sim_options, threads);
      const SearchResult batched = exhaustive_search_batched(
          cost.num_cores(), *topo,
          [&](const mapping::Mapping* mappings, std::size_t count,
              double* costs) {
            evaluator.evaluate_costs(mappings, count, costs);
          },
          cost.symmetry_group(*topo), {}, shard);
      expect_same(batched, serial);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllTopologies, BatchedEsTest,
                         ::testing::Values("mesh", "torus", "xmesh"));

TEST(BatchedEsBudgetTest, BudgetSemanticsMatchSerial) {
  const noc::Mesh mesh(3, 3);
  const graph::Cdcg cdcg = random_cdcg(5, 33);
  const energy::Technology tech = energy::technology_0_07u();
  const mapping::CdcmCost cost(cdcg, mesh, tech);

  EsOptions budget;
  budget.max_evaluations = 137;
  const SearchResult serial = exhaustive_search(cost, mesh, budget);
  EXPECT_FALSE(serial.exhausted);
  EXPECT_EQ(serial.evaluations, 137u);

  sim::BatchEvaluator evaluator(cdcg, mesh, tech, {}, 2);
  const SearchResult batched = exhaustive_search_batched(
      cost.num_cores(), mesh,
      [&](const mapping::Mapping* mappings, std::size_t count,
          double* costs) { evaluator.evaluate_costs(mappings, count, costs); },
      cost.symmetry_group(mesh), budget, 32);
  expect_same(batched, serial);
}

TEST(BatchedEsBudgetTest, NoSymmetryEnumerationMatchesToo) {
  const noc::Mesh mesh(3, 2);
  const graph::Cdcg cdcg = random_cdcg(4, 2);
  const energy::Technology tech = energy::technology_0_07u();
  const mapping::CdcmCost cost(cdcg, mesh, tech);

  EsOptions options;
  options.use_symmetry = false;
  const SearchResult serial = exhaustive_search(cost, mesh, options);
  sim::BatchEvaluator evaluator(cdcg, mesh, tech, {}, 3);
  const SearchResult batched = exhaustive_search_batched(
      cost.num_cores(), mesh,
      [&](const mapping::Mapping* mappings, std::size_t count,
          double* costs) { evaluator.evaluate_costs(mappings, count, costs); },
      cost.symmetry_group(mesh), options, 16);
  expect_same(batched, serial);
}

TEST(BatchedEsInputTest, RejectsASymmetryMapOfAnotherBoard) {
  const noc::Mesh mesh(3, 2);
  const noc::Mesh other(3, 3);
  EXPECT_THROW(exhaustive_search_batched(
                   4, mesh, [](const mapping::Mapping*, std::size_t, double*) {},
                   other.symmetry_maps()),
               std::invalid_argument);
}

}  // namespace
}  // namespace nocmap::search
