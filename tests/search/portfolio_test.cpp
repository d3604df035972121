#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <memory>
#include <stdexcept>
#include <utility>
#include <vector>

#include "nocmap/mapping/cost.hpp"
#include "nocmap/noc/mesh.hpp"
#include "nocmap/search/greedy.hpp"
#include "nocmap/search/portfolio.hpp"
#include "nocmap/workload/random_cdcg.hpp"

namespace nocmap::search {
namespace {

struct Fixture {
  graph::Cdcg cdcg;
  graph::Cwg cwg;
  noc::Mesh mesh{4, 4};
  energy::Technology tech = energy::technology_0_07u();

  explicit Fixture(std::uint64_t seed = 1) {
    workload::RandomCdcgParams params;
    params.num_cores = 13;
    params.num_packets = 65;
    params.total_bits = 65000;
    util::Rng rng(seed);
    cdcg = workload::generate_random_cdcg(params, rng);
    cwg = cdcg.to_cwg();
  }

  BnbCostFactory cwm_factory() const {
    return [this]() -> std::unique_ptr<mapping::CostFunction> {
      return std::make_unique<mapping::CwmCost>(cwg, mesh, tech);
    };
  }
};

PortfolioOptions quick_options() {
  PortfolioOptions po;
  po.sa.max_steps = 40;
  po.sa.max_stale_steps = 6;
  po.bnb_nodes = 5'000;
  return po;
}

TEST(PortfolioTest, ResultIsByteIdenticalForAnyThreadCount) {
  Fixture f;
  PortfolioOptions po = quick_options();
  po.threads = 1;
  const PortfolioResult one =
      portfolio(f.cwm_factory(), f.cwg, f.mesh, noc::RoutingAlgorithm::kXY,
                po);
  po.threads = 4;
  const PortfolioResult four =
      portfolio(f.cwm_factory(), f.cwg, f.mesh, noc::RoutingAlgorithm::kXY,
                po);

  EXPECT_EQ(one.best.best_cost, four.best.best_cost);  // Bitwise.
  EXPECT_TRUE(one.best.best == four.best.best);
  EXPECT_EQ(one.best.evaluations, four.best.evaluations);
  EXPECT_EQ(one.winner, four.winner);
  EXPECT_EQ(one.polish_applied, four.polish_applied);
  ASSERT_EQ(one.members.size(), four.members.size());
  for (std::size_t i = 0; i < one.members.size(); ++i) {
    EXPECT_EQ(one.members[i].label, four.members[i].label);
    EXPECT_EQ(one.members[i].result.best_cost,
              four.members[i].result.best_cost);
    EXPECT_EQ(one.members[i].result.evaluations,
              four.members[i].result.evaluations);
    ASSERT_EQ(one.members[i].samples.size(), four.members[i].samples.size());
    for (std::size_t k = 0; k < one.members[i].samples.size(); ++k) {
      // moves and best_j are deterministic; wall_ms is measured and is
      // deliberately NOT compared.
      EXPECT_EQ(one.members[i].samples[k].moves,
                four.members[i].samples[k].moves);
      EXPECT_EQ(one.members[i].samples[k].best_j,
                four.members[i].samples[k].best_j);
    }
  }
  ASSERT_EQ(one.curve.size(), four.curve.size());
  for (std::size_t k = 0; k < one.curve.size(); ++k) {
    EXPECT_EQ(one.curve[k].moves, four.curve[k].moves);
    EXPECT_EQ(one.curve[k].best_j, four.curve[k].best_j);
  }
}

TEST(PortfolioTest, WinnerIsTheLowestCostMemberAndPolishOnlyImproves) {
  Fixture f;
  const PortfolioResult pr =
      portfolio(f.cwm_factory(), f.cwg, f.mesh, noc::RoutingAlgorithm::kXY,
                quick_options());
  ASSERT_FALSE(pr.members.empty());
  double member_min = pr.members[0].result.best_cost;
  for (const PortfolioMemberOutcome& m : pr.members) {
    member_min = std::min(member_min, m.result.best_cost);
  }
  EXPECT_EQ(pr.members[pr.winner].result.best_cost, member_min);
  // The final polish may refine the winner further but never regress it
  // (it only commits strictly-improving exact deltas).
  EXPECT_LE(pr.best.best_cost, member_min * (1.0 + 1e-12));
  EXPECT_TRUE(pr.best.best.is_valid());
  // The roster: 4 SA members plus the B&B member (CWM has a lower bound).
  EXPECT_EQ(pr.members.size(), 5u);
  EXPECT_EQ(pr.members.back().label, "bnb");
}

TEST(PortfolioTest, CurveIsMonotoneAndEndsAtTheFinalBest) {
  Fixture f;
  const PortfolioResult pr =
      portfolio(f.cwm_factory(), f.cwg, f.mesh, noc::RoutingAlgorithm::kXY,
                quick_options());
  ASSERT_GE(pr.curve.size(), 2u);
  for (std::size_t k = 1; k < pr.curve.size(); ++k) {
    EXPECT_LE(pr.curve[k].best_j, pr.curve[k - 1].best_j) << "index " << k;
    EXPECT_GE(pr.curve[k].moves, pr.curve[k - 1].moves) << "index " << k;
  }
  EXPECT_EQ(pr.curve.back().best_j, pr.best.best_cost);
}

// The terminal point folds in the B&B member's cost, but its move count is
// the SA members' largest: the B&B member's one sample counts bound tests,
// which are not priced moves.
TEST(PortfolioTest, FinalCurvePointCountsOnlySaMoves) {
  Fixture f;
  PortfolioOptions po = quick_options();
  po.bnb_nodes = 20'000;  // More tests than any SA member prices moves.
  const PortfolioResult pr =
      portfolio(f.cwm_factory(), f.cwg, f.mesh, noc::RoutingAlgorithm::kXY,
                po);
  ASSERT_EQ(pr.members.back().label, "bnb");
  std::uint64_t sa_moves = 0;
  for (std::size_t i = 0; i + 1 < pr.members.size(); ++i) {
    for (const AnytimeSample& s : pr.members[i].samples) {
      sa_moves = std::max(sa_moves, s.moves);
    }
  }
  // A terminal point that counted the B&B member's tests would show.
  ASSERT_GT(pr.members.back().result.nodes_tested, sa_moves);
  EXPECT_EQ(pr.curve.back().moves, sa_moves);
  for (std::size_t k = 1; k < pr.curve.size(); ++k) {
    EXPECT_LE(pr.curve[k].best_j, pr.curve[k - 1].best_j) << "index " << k;
    EXPECT_GE(pr.curve[k].moves, pr.curve[k - 1].moves) << "index " << k;
  }
  EXPECT_EQ(pr.curve.back().best_j, pr.best.best_cost);
}

// A coarse checkpoint quantum must not hide improvements: every drop of a
// member's incumbent lands in its sample list at the exact step it
// happened, not at the next quantum boundary — so the merged curve has no
// flat prefix ending in one late jump. (With quantum 0 every step is
// sampled anyway; a huge quantum isolates the improvement-driven path.)
TEST(PortfolioTest, ImprovementsAreSampledBetweenCoarseCheckpoints) {
  Fixture f;
  PortfolioOptions po = quick_options();
  po.checkpoint_moves = 1'000'000'000;  // Quanta effectively never fire.
  po.include_bnb = false;
  const PortfolioResult pr =
      portfolio(f.cwm_factory(), f.cwg, f.mesh, noc::RoutingAlgorithm::kXY,
                po);
  bool any_intermediate = false;
  for (const PortfolioMemberOutcome& m : pr.members) {
    ASSERT_FALSE(m.samples.empty()) << m.label;
    // Samples within one member must strictly improve (each was recorded
    // because the incumbent dropped; only the guaranteed terminal sample
    // may repeat the last best).
    for (std::size_t k = 1; k + 1 < m.samples.size(); ++k) {
      EXPECT_LT(m.samples[k].best_j, m.samples[k - 1].best_j) << m.label;
    }
    any_intermediate = any_intermediate || m.samples.size() > 2;
  }
  // At least one member of the roster improved more than once mid-run —
  // the curve is not a single flat segment plus a jump.
  EXPECT_TRUE(any_intermediate);
  for (std::size_t k = 1; k < pr.curve.size(); ++k) {
    EXPECT_LE(pr.curve[k].best_j, pr.curve[k - 1].best_j);
    EXPECT_GE(pr.curve[k].moves, pr.curve[k - 1].moves);
  }
  EXPECT_EQ(pr.curve.back().best_j, pr.best.best_cost);
}

TEST(PortfolioTest, MoveBudgetCutsEverySaMemberDeterministically) {
  Fixture f;
  PortfolioOptions po = quick_options();
  po.max_moves = 200;  // Far below convergence.
  po.include_bnb = false;
  const PortfolioResult pr =
      portfolio(f.cwm_factory(), f.cwg, f.mesh, noc::RoutingAlgorithm::kXY,
                po);
  EXPECT_TRUE(pr.budget_cut);
  for (const PortfolioMemberOutcome& m : pr.members) {
    EXPECT_TRUE(m.budget_cut) << m.label;
    ASSERT_FALSE(m.samples.empty());
    // The cut lands on the first step boundary at or past the budget.
    EXPECT_GE(m.samples.back().moves, po.max_moves) << m.label;
  }
}

TEST(PortfolioTest, FailingCostFactoryThrowsAtAnyThreadCount) {
  Fixture f;
  for (const std::uint32_t threads : {1u, 4u}) {
    PortfolioOptions po = quick_options();
    po.threads = threads;
    // The first call builds the pre-race probe; the second, inside a member
    // on the worker pool, fails.
    std::atomic<int> calls{0};
    const BnbCostFactory failing =
        [&]() -> std::unique_ptr<mapping::CostFunction> {
      if (calls.fetch_add(1) == 1) throw std::runtime_error("factory failed");
      return std::make_unique<mapping::CwmCost>(f.cwg, f.mesh, f.tech);
    };
    EXPECT_THROW(portfolio(failing, f.cwg, f.mesh, noc::RoutingAlgorithm::kXY,
                           po),
                 std::runtime_error)
        << "threads " << threads;
  }
}

TEST(PortfolioTest, TimeBudgetCutIsReproducibleViaTheRecordedCheckpoint) {
  Fixture f;
  const mapping::CwmCost cost(f.cwg, f.mesh, f.tech);
  SaOptions so;
  so.max_steps = 400;
  so.time_budget_ms = 0.01;  // Cut almost immediately (step boundaries).
  util::Rng rng_a(5);
  SaChain budgeted(cost, f.mesh, rng_a, so);
  while (budgeted.step()) {
  }
  ASSERT_TRUE(budgeted.budget_cut());
  const std::uint64_t checkpoint = budgeted.moves_priced();

  // The contract: rerunning with max_moves = the recorded checkpoint
  // reproduces the budgeted run exactly, because the budget only ever cuts
  // at step boundaries.
  SaOptions replay = so;
  replay.time_budget_ms = 0.0;
  replay.max_moves = checkpoint;
  util::Rng rng_b(5);
  SaChain replayed(cost, f.mesh, rng_b, replay);
  while (replayed.step()) {
  }
  EXPECT_EQ(replayed.moves_priced(), checkpoint);
  EXPECT_EQ(replayed.result().best_cost, budgeted.result().best_cost);
  EXPECT_TRUE(replayed.result().best == budgeted.result().best);
}

TEST(PortfolioTest, SteepestPolishReachesAPairwiseLocalOptimum) {
  Fixture f;
  const mapping::CwmCost cost(f.cwg, f.mesh, f.tech);
  mapping::Mapping m = greedy_mapping(f.cwg, f.mesh);
  double cost_j = cost.cost(m);
  const double before = cost_j;
  PolishOptions po;
  po.max_passes = 64;
  const PolishOutcome out = steepest_polish(cost, m, cost_j, po);
  EXPECT_LE(cost_j, before);
  EXPECT_NEAR(cost_j, cost.cost(m), std::abs(cost_j) * 1e-9);
  if (out.applied < po.max_passes) {
    // Converged: no pairwise swap improves any further.
    const std::uint32_t tiles = f.mesh.num_tiles();
    for (noc::TileId a = 0; a < tiles; ++a) {
      for (noc::TileId b = a + 1; b < tiles; ++b) {
        EXPECT_GE(cost.swap_delta(m, a, b), 0.0) << a << "<->" << b;
      }
    }
  }
}

}  // namespace
}  // namespace nocmap::search
