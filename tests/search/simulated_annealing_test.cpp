#include "nocmap/noc/mesh.hpp"
#include "nocmap/search/simulated_annealing.hpp"

#include <gtest/gtest.h>

#include "nocmap/search/greedy.hpp"
#include "nocmap/search/random_search.hpp"
#include "nocmap/workload/paper_example.hpp"
#include "nocmap/workload/random_cdcg.hpp"

namespace nocmap::search {
namespace {

struct Fixture {
  graph::Cdcg cdcg = workload::paper_example_cdcg();
  noc::Mesh mesh = workload::paper_example_mesh();
  energy::Technology tech = energy::example_technology();
};

TEST(SimulatedAnnealingTest, FindsTheOptimumOnThePaperExample) {
  // On the 2x2 example the global CDCM optimum is 399 pJ (mapping (b) up to
  // symmetry). SA must find it.
  Fixture f;
  const mapping::CdcmCost cost(f.cdcg, f.mesh, f.tech);
  util::Rng rng(123);
  const SearchResult result = anneal(cost, f.mesh, rng);
  EXPECT_DOUBLE_EQ(result.best_cost, 399e-12);
  EXPECT_TRUE(result.best.is_valid());
  EXPECT_GT(result.evaluations, 0u);
}

TEST(SimulatedAnnealingTest, CwmObjectiveReaches390OnPaperExample) {
  Fixture f;
  const graph::Cwg cwg = f.cdcg.to_cwg();
  const mapping::CwmCost cost(cwg, f.mesh, f.tech);
  util::Rng rng(5);
  const SearchResult result = anneal(cost, f.mesh, rng);
  // 390 pJ: every communication at minimal distance (Figure 2).
  EXPECT_DOUBLE_EQ(result.best_cost, 390e-12);
}

TEST(SimulatedAnnealingTest, DeterministicGivenSeed) {
  Fixture f;
  const mapping::CdcmCost cost(f.cdcg, f.mesh, f.tech);
  util::Rng rng1(77), rng2(77);
  const SearchResult a = anneal(cost, f.mesh, rng1);
  const SearchResult b = anneal(cost, f.mesh, rng2);
  EXPECT_EQ(a.best, b.best);
  EXPECT_DOUBLE_EQ(a.best_cost, b.best_cost);
  EXPECT_EQ(a.evaluations, b.evaluations);
}

TEST(SimulatedAnnealingTest, NeverWorseThanItsOwnStart) {
  Fixture f;
  const mapping::CdcmCost cost(f.cdcg, f.mesh, f.tech);
  for (std::uint64_t seed = 0; seed < 5; ++seed) {
    util::Rng rng(seed);
    const SearchResult result = anneal(cost, f.mesh, rng);
    EXPECT_LE(result.best_cost, result.initial_cost);
  }
}

/// An exact objective whose swap_delta() under-reports every move by 1 J,
/// far more than any real change: every move looks like an improvement,
/// as a prefiltering delta (HybridCost's CWM half) can make a worse move
/// look.
class UnderReportingCost final : public mapping::CostFunction {
 public:
  explicit UnderReportingCost(const mapping::CostFunction& exact)
      : exact_(exact) {}
  double cost(const mapping::Mapping& m) const override {
    return exact_.cost(m);
  }
  std::string name() const override { return "under-reporting"; }
  std::size_t num_cores() const override { return exact_.num_cores(); }
  bool has_swap_delta() const override { return true; }
  double swap_delta(const mapping::Mapping& m, noc::TileId a,
                    noc::TileId b) const override {
    return exact_.swap_delta(m, a, b) - 1.0;
  }

 private:
  const mapping::CostFunction& exact_;
};

TEST(SimulatedAnnealingTest, NeverWorseThanItsSeedWhenDeltasUnderReport) {
  util::Rng gen(42);
  workload::RandomCdcgParams params;
  params.num_cores = 12;
  params.num_packets = 60;
  params.total_bits = 60000;
  const graph::Cdcg cdcg = workload::generate_random_cdcg(params, gen);
  const graph::Cwg cwg = cdcg.to_cwg();
  const noc::Mesh mesh(4, 4);
  const mapping::CwmCost exact(cwg, mesh, energy::example_technology());
  const UnderReportingCost cost(exact);
  const mapping::Mapping seed = greedy_mapping(cwg, mesh);

  SaOptions options;
  options.max_steps = 10;  // Every step "improves", so none goes stale.
  util::Rng rng(3);
  const SearchResult result = anneal(cost, mesh, rng, options, &seed);
  EXPECT_EQ(result.initial_cost, exact.cost(seed));
  EXPECT_LE(result.best_cost, exact.cost(seed));
  EXPECT_EQ(result.best_cost, exact.cost(result.best));
}

TEST(SimulatedAnnealingTest, BeatsRandomSearchOnABiggerInstance) {
  util::Rng gen(42);
  workload::RandomCdcgParams params;
  params.num_cores = 12;
  params.num_packets = 60;
  params.total_bits = 60000;
  const graph::Cdcg cdcg = workload::generate_random_cdcg(params, gen);
  const noc::Mesh mesh(4, 4);
  const mapping::CdcmCost cost(cdcg, mesh, energy::example_technology());

  util::Rng sa_rng(1);
  const SearchResult sa = anneal(cost, mesh, sa_rng);
  util::Rng rs_rng(1);
  // Give random search the same evaluation budget.
  const SearchResult rs = random_search(cost, mesh, rs_rng, sa.evaluations);
  EXPECT_LT(sa.best_cost, rs.best_cost);
}

TEST(SimulatedAnnealingTest, OptionValidation) {
  Fixture f;
  const mapping::CdcmCost cost(f.cdcg, f.mesh, f.tech);
  util::Rng rng(1);
  SaOptions bad;
  bad.cooling = 1.5;
  EXPECT_THROW(anneal(cost, f.mesh, rng, bad), std::invalid_argument);
  bad = SaOptions{};
  bad.initial_acceptance = 0.0;
  EXPECT_THROW(anneal(cost, f.mesh, rng, bad), std::invalid_argument);
}

TEST(SimulatedAnnealingTest, TinyBudgetStillReturnsValidMapping) {
  Fixture f;
  const mapping::CdcmCost cost(f.cdcg, f.mesh, f.tech);
  util::Rng rng(9);
  SaOptions options;
  options.max_steps = 1;
  options.moves_per_tile = 1;
  options.calibration_samples = 1;
  const SearchResult result = anneal(cost, f.mesh, rng, options);
  EXPECT_TRUE(result.best.is_valid());
  EXPECT_GT(result.best_cost, 0.0);
}

}  // namespace
}  // namespace nocmap::search
