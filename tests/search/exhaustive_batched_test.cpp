/// \file exhaustive_batched_test.cpp
/// Exhaustive search sharded over several workers must reproduce the
/// one-worker search bit for bit — same winner, cost, initial cost and
/// evaluation count — for the CWM and CDCM objectives, at every worker
/// count, including under a budget. CDCM's bounded pricing, which stops
/// simulating a candidate once it is sure to lose, must give what full
/// pricing gives.

#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "nocmap/mapping/cost.hpp"
#include "nocmap/noc/mesh.hpp"
#include "nocmap/noc/topology.hpp"
#include "nocmap/search/exhaustive.hpp"
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

/// The factory form at 1 and 4 workers (and at 2, which splits the larger
/// enumerations into several shards) returns what the one-worker
/// const-reference form returns.
void expect_thread_invariant(const CostFactory& make_cost,
                             const noc::Topology& topo,
                             EsOptions options = {}) {
  const SearchResult serial = exhaustive_search(*make_cost(), topo, options);
  for (const std::uint32_t threads : {1u, 2u, 4u}) {
    SCOPED_TRACE(threads);
    options.threads = threads;
    expect_same(exhaustive_search(make_cost, topo, options), serial);
  }
}

class BatchedEsTest : public ::testing::TestWithParam<const char*> {};

TEST_P(BatchedEsTest, MatchesSerialCdcmSearch) {
  const std::unique_ptr<noc::Topology> topo =
      noc::make_topology(GetParam(), 3, 3, {});
  const graph::Cdcg cdcg = random_cdcg(4, 21);
  const energy::Technology tech = energy::technology_0_07u();
  expect_thread_invariant(
      [&]() -> std::unique_ptr<mapping::CostFunction> {
        return std::make_unique<mapping::CdcmCost>(cdcg, *topo, tech);
      },
      *topo);
}

TEST_P(BatchedEsTest, MatchesSerialCwmSearch) {
  const std::unique_ptr<noc::Topology> topo =
      noc::make_topology(GetParam(), 3, 3, {});
  const graph::Cwg cwg = random_cdcg(6, 5).to_cwg();
  const energy::Technology tech = energy::technology_0_07u();
  expect_thread_invariant(
      [&]() -> std::unique_ptr<mapping::CostFunction> {
        return std::make_unique<mapping::CwmCost>(cwg, *topo, tech);
      },
      *topo);
}

/// CDCM priced in full: it overrides cost() but not cost_within(), so
/// exhaustive search prices every candidate with the unbounded default. It
/// forwards the symmetry group, so both searches enumerate the same
/// placements.
class FullPricingCdcm final : public mapping::CostFunction {
 public:
  FullPricingCdcm(const graph::Cdcg& cdcg, const noc::Topology& topo,
                  const energy::Technology& tech, sim::SimOptions options)
      : inner_(cdcg, topo, tech, noc::RoutingAlgorithm::kXY, options) {}

  double cost(const mapping::Mapping& m) const override {
    return inner_.cost(m);
  }
  std::string name() const override { return "full-pricing CDCM"; }
  std::size_t num_cores() const override { return inner_.num_cores(); }
  std::vector<std::vector<noc::TileId>> symmetry_group(
      const noc::Topology& topo) const override {
    return inner_.symmetry_group(topo);
  }

 private:
  mapping::CdcmCost inner_;
};

/// Bounded CDCM pricing (the running best on one worker, the best at each
/// shard's start on more) against full pricing, under link-claim and flit
/// depth 1, with and without symmetry, unbudgeted and with budgets that end
/// inside the first shard and inside the second shard of two workers.
TEST_P(BatchedEsTest, BoundedCdcmPricingMatchesFullPricing) {
  const std::unique_ptr<noc::Topology> topo =
      noc::make_topology(GetParam(), 3, 3, {});
  const graph::Cdcg cdcg = random_cdcg(5, 33);
  const energy::Technology tech = energy::technology_0_07u();
  sim::SimOptions flit;
  flit.backend = sim::SimBackend::kFlit;
  flit.buffer_depth = 1;
  for (const sim::SimOptions& so : {sim::SimOptions{}, flit}) {
    for (const bool symmetry : {true, false}) {
      for (const std::uint64_t budget : {0u, 137u, 2500u}) {
        SCOPED_TRACE(std::string(so.backend == sim::SimBackend::kFlit
                                     ? "flit depth 1"
                                     : "link-claim") +
                     (symmetry ? ", symmetry" : ", no symmetry") +
                     ", budget " + std::to_string(budget));
        EsOptions options;
        options.use_symmetry = symmetry;
        options.max_evaluations = budget;
        const SearchResult full = exhaustive_search(
            FullPricingCdcm(cdcg, *topo, tech, so), *topo, options);
        for (const std::uint32_t threads : {1u, 2u, 4u, 7u}) {
          SCOPED_TRACE(threads);
          options.threads = threads;
          expect_same(
              exhaustive_search(
                  [&]() -> std::unique_ptr<mapping::CostFunction> {
                    return std::make_unique<mapping::CdcmCost>(
                        cdcg, *topo, tech, noc::RoutingAlgorithm::kXY, so);
                  },
                  *topo, options),
              full);
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllTopologies, BatchedEsTest,
                         ::testing::Values("mesh", "torus", "xmesh"));

TEST(BatchedEsBudgetTest, BudgetSemanticsMatchSerial) {
  const noc::Mesh mesh(3, 3);
  const graph::Cdcg cdcg = random_cdcg(5, 33);
  const energy::Technology tech = energy::technology_0_07u();
  const CostFactory factory = [&]() -> std::unique_ptr<mapping::CostFunction> {
    return std::make_unique<mapping::CdcmCost>(cdcg, mesh, tech);
  };

  EsOptions budget;
  budget.max_evaluations = 137;
  const SearchResult serial = exhaustive_search(*factory(), mesh, budget);
  EXPECT_FALSE(serial.exhausted);
  EXPECT_EQ(serial.evaluations, 137u);
  expect_thread_invariant(factory, mesh, budget);

  // A budget that ends inside the second shard of two workers.
  budget.max_evaluations = 2500;
  expect_thread_invariant(factory, mesh, budget);
}

TEST(BatchedEsBudgetTest, NoSymmetryEnumerationMatchesToo) {
  const noc::Mesh mesh(3, 2);
  const graph::Cdcg cdcg = random_cdcg(4, 2);
  const energy::Technology tech = energy::technology_0_07u();
  EsOptions options;
  options.use_symmetry = false;
  expect_thread_invariant(
      [&]() -> std::unique_ptr<mapping::CostFunction> {
        return std::make_unique<mapping::CdcmCost>(cdcg, mesh, tech);
      },
      mesh, options);
}

/// CWM whose symmetry group is another board's.
class ForeignGroupCost final : public mapping::CostFunction {
 public:
  ForeignGroupCost(const graph::Cwg& cwg, const noc::Topology& topo,
                   const noc::Topology& other)
      : inner_(cwg, topo, energy::technology_0_07u()), other_(other) {}

  double cost(const mapping::Mapping& m) const override {
    return inner_.cost(m);
  }
  std::string name() const override { return "foreign-group"; }
  std::size_t num_cores() const override { return inner_.num_cores(); }
  std::vector<std::vector<noc::TileId>> symmetry_group(
      const noc::Topology&) const override {
    return other_.symmetry_maps();
  }

 private:
  mapping::CwmCost inner_;
  const noc::Topology& other_;
};

TEST(BatchedEsInputTest, RejectsASymmetryMapOfAnotherBoard) {
  const noc::Mesh mesh(3, 2);
  const noc::Mesh other(3, 3);
  const graph::Cwg cwg = random_cdcg(4, 2).to_cwg();
  const ForeignGroupCost cost(cwg, mesh, other);
  EXPECT_THROW(exhaustive_search(cost, mesh), std::invalid_argument);
  EsOptions options;
  options.threads = 4;
  EXPECT_THROW(exhaustive_search(
                   [&]() -> std::unique_ptr<mapping::CostFunction> {
                     return std::make_unique<ForeignGroupCost>(cwg, mesh,
                                                               other);
                   },
                   mesh, options),
               std::invalid_argument);
}

}  // namespace
}  // namespace nocmap::search
