#include "nocmap/mapping/cost.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <utility>
#include <vector>

#include "nocmap/noc/mesh.hpp"
#include "nocmap/util/rng.hpp"
#include "nocmap/workload/paper_example.hpp"
#include "nocmap/workload/suite.hpp"

namespace nocmap::mapping {
namespace {

class CostTest : public ::testing::Test {
 protected:
  CostTest()
      : cdcg_(workload::paper_example_cdcg()),
        cwg_(cdcg_.to_cwg()),
        mesh_(workload::paper_example_mesh()),
        tech_(energy::example_technology()) {}

  graph::Cdcg cdcg_;
  graph::Cwg cwg_;
  noc::Mesh mesh_;
  energy::Technology tech_;
};

TEST_F(CostTest, CwmCostMatchesFreeFunction) {
  const CwmCost cost(cwg_, mesh_, tech_);
  const Mapping m = workload::paper_mapping_a();
  EXPECT_DOUBLE_EQ(cost.cost(m), cwm_dynamic_energy(cwg_, mesh_, m, tech_));
  EXPECT_EQ(cost.name(), "CWM");
  EXPECT_EQ(cost.num_cores(), 4u);
}

TEST_F(CostTest, CwmCostIsEquationThree) {
  // Hand computation on mapping (a): AB 15*3, EA 35*3, BF 40*3, AF 15*5,
  // FB 15*3 pJ = 390 pJ.
  const CwmCost cost(cwg_, mesh_, tech_);
  EXPECT_DOUBLE_EQ(cost.cost(workload::paper_mapping_a()), 390e-12);
}

TEST_F(CostTest, CwmCostDependsOnPlacementDistance) {
  // Put the two heaviest communicators (B->F is 40 bits) far apart on a
  // 1x4 strip and compare with adjacent placement.
  const noc::Mesh strip(4, 1);
  const CwmCost cost(cwg_, strip, tech_);
  // A B E F on tiles: B and F adjacent.
  const Mapping close = Mapping::from_assignment(strip, {0, 1, 3, 2});
  // B and F at opposite ends.
  const Mapping far = Mapping::from_assignment(strip, {1, 0, 2, 3});
  EXPECT_LT(cost.cost(close), cost.cost(far));
}

TEST_F(CostTest, CwmCostIsRoutingAware) {
  // On a 2x2, XY and YX give equal hop counts for every pair, so costs
  // match; on a 3x3 with transposed placements they can differ only via
  // route *length*, which is identical — so this checks the plumbing
  // compiles and equal-K invariance holds.
  const CwmCost xy(cwg_, mesh_, tech_, noc::RoutingAlgorithm::kXY);
  const CwmCost yx(cwg_, mesh_, tech_, noc::RoutingAlgorithm::kYX);
  const Mapping m = workload::paper_mapping_a();
  EXPECT_DOUBLE_EQ(xy.cost(m), yx.cost(m));
}

TEST_F(CostTest, CdcmCostEvaluateAgreesWithCost) {
  const CdcmCost cost(cdcg_, mesh_, tech_);
  const Mapping m = workload::paper_mapping_b();
  const sim::SimulationResult full = cost.evaluate(m);
  EXPECT_DOUBLE_EQ(cost.cost(m), full.energy.total_j());
  EXPECT_EQ(cost.name(), "CDCM");
  EXPECT_EQ(cost.num_cores(), 4u);
  // evaluate() records traces; cost() path does not, but scalars agree.
  EXPECT_FALSE(full.occupancy.empty());
}

TEST_F(CostTest, CdcmSeparatesMappingsThatCwmCannot) {
  const CwmCost cwm(cwg_, mesh_, tech_);
  const CdcmCost cdcm(cdcg_, mesh_, tech_);
  const Mapping a = workload::paper_mapping_a();
  const Mapping b = workload::paper_mapping_b();
  EXPECT_DOUBLE_EQ(cwm.cost(a), cwm.cost(b));  // CWM is blind (Figure 2).
  EXPECT_GT(cdcm.cost(a), cdcm.cost(b));       // CDCM sees the contention.
}

/// A run that throws leaves no cache entry behind. Pricing a mapping built
/// for another board throws; the cache used to take the mapping before its
/// run, so the next call with it returned the previous mapping's cost.
TEST_F(CostTest, CdcmCostCachesOnlyCompletedRuns) {
  const energy::Technology tech = energy::technology_0_07u();
  const std::vector<workload::SuiteEntry> apps =
      workload::table1_suite_for("3 x 2");
  ASSERT_FALSE(apps.empty());
  const workload::SuiteEntry& romberg = apps.front();
  ASSERT_EQ(romberg.name, "romberg-v1");
  const graph::Cdcg& cdcg = romberg.cdcg;
  const noc::Mesh board(3, 2);
  const noc::Mesh other(4, 2);
  const CdcmCost cost(cdcg, board, tech);
  util::Rng rng(1);
  const Mapping m = Mapping::random(board, cdcg.num_cores(), rng);
  const Mapping foreign = Mapping::random(other, cdcg.num_cores(), rng);
  const double priced = cost.cost(m);

  EXPECT_THROW(cost.cost(foreign), std::invalid_argument);
  EXPECT_THROW(cost.cost(foreign), std::invalid_argument);
  EXPECT_THROW(cost.swap_delta(foreign, 0, 1), std::invalid_argument);
  EXPECT_THROW(cost.cost(foreign), std::invalid_argument);
  Mapping moved = foreign;
  const std::pair<noc::TileId, noc::TileId> swaps[] = {{0, 1}, {2, 3}};
  EXPECT_THROW(cost.move_delta(moved, swaps, 2), std::invalid_argument);
  EXPECT_THROW(cost.cost(foreign), std::invalid_argument);
  EXPECT_EQ(cost.cost(m), priced);
}

/// cost_within() is cost() bit for bit up to the bound and above the bound
/// otherwise, and a stopped simulation never enters the cache: the next
/// unbounded call prices the mapping in full. CWM takes the default.
TEST_F(CostTest, CostWithinIsExactUpToTheBound) {
  const energy::Technology tech = energy::technology_0_07u();
  const workload::SuiteEntry romberg = workload::table1_suite_for("3 x 2")[0];
  const noc::Mesh board(3, 2);
  const CdcmCost reference(romberg.cdcg, board, tech);
  const CdcmCost bounded(romberg.cdcg, board, tech);
  const graph::Cwg cwg = romberg.cdcg.to_cwg();
  const CwmCost cwm(cwg, board, tech);
  util::Rng rng(4);
  for (int trial = 0; trial < 20; ++trial) {
    const Mapping m = Mapping::random(board, romberg.cdcg.num_cores(), rng);
    const double want = reference.cost(m);
    EXPECT_GT(bounded.cost_within(m, 0.0), 0.0);  // Stops before injecting.
    EXPECT_GT(bounded.cost_within(m, want / 2), want / 2);
    EXPECT_EQ(bounded.cost(m), want);
    EXPECT_EQ(bounded.cost_within(m, want), want);
    EXPECT_EQ(bounded.cost_within(m, 0.0), want);  // A cache hit.
    EXPECT_EQ(cwm.cost_within(m, 0.0), cwm.cost(m));
  }
}

}  // namespace
}  // namespace nocmap::mapping
