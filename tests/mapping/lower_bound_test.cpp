#include "nocmap/mapping/cost.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

#include "nocmap/util/rng.hpp"
#include "nocmap/workload/random_cdcg.hpp"
#include "nocmap/workload/suite.hpp"

namespace nocmap::mapping {
namespace {

/// Relative tolerance for "bound <= cost": the CDCM bound prices aggregated
/// CWG edges while the simulator sums per packet, which can differ by a few
/// ulp. Admissibility claims below are exact up to this rounding.
constexpr double kRelTol = 1e-12;

constexpr double kUnbounded = std::numeric_limits<double>::infinity();

graph::Cdcg random_workload(std::uint32_t cores, util::Rng& rng) {
  workload::RandomCdcgParams params;
  params.num_cores = cores;
  params.num_packets = cores * 4;
  params.total_bits = static_cast<std::uint64_t>(params.num_packets) * 256;
  return workload::generate_random_cdcg(params, rng);
}

/// Draw a random partial placement: a random subset of cores on random
/// distinct tiles, pushed through the evaluator.
struct PartialPlacement {
  std::vector<graph::CoreId> cores;   ///< Placed cores, in push order.
  std::vector<noc::TileId> tiles;     ///< Their tiles.
  std::vector<graph::CoreId> rest;    ///< Unplaced cores.
  std::vector<noc::TileId> free;      ///< Unoccupied tiles.
};

PartialPlacement random_partial(std::size_t num_cores,
                                std::uint32_t num_tiles, util::Rng& rng) {
  PartialPlacement p;
  std::vector<graph::CoreId> cores(num_cores);
  std::iota(cores.begin(), cores.end(), graph::CoreId{0});
  std::vector<noc::TileId> tiles(num_tiles);
  std::iota(tiles.begin(), tiles.end(), noc::TileId{0});
  // Fisher-Yates with the library RNG (std::shuffle is unspecified across
  // standard libraries).
  for (std::size_t i = cores.size(); i > 1; --i) {
    std::swap(cores[i - 1], cores[rng.index(i)]);
  }
  for (std::size_t i = tiles.size(); i > 1; --i) {
    std::swap(tiles[i - 1], tiles[rng.index(i)]);
  }
  const std::size_t placed = rng.index(num_cores + 1);  // 0..num_cores.
  p.cores.assign(cores.begin(), cores.begin() + placed);
  p.rest.assign(cores.begin() + placed, cores.end());
  p.tiles.assign(tiles.begin(), tiles.begin() + placed);
  p.free.assign(tiles.begin() + placed, tiles.end());
  return p;
}

/// Complete `p` with a random placement of the remaining cores and return
/// the full assignment (indexed by core).
std::vector<noc::TileId> random_completion(const PartialPlacement& p,
                                           std::size_t num_cores,
                                           util::Rng& rng) {
  std::vector<noc::TileId> free = p.free;
  for (std::size_t i = free.size(); i > 1; --i) {
    std::swap(free[i - 1], free[rng.index(i)]);
  }
  std::vector<noc::TileId> assignment(num_cores, 0);
  for (std::size_t i = 0; i < p.cores.size(); ++i) {
    assignment[p.cores[i]] = p.tiles[i];
  }
  for (std::size_t i = 0; i < p.rest.size(); ++i) {
    assignment[p.rest[i]] = free[i];
  }
  return assignment;
}

/// The satellite property: over random partial placements on every
/// topology kind, bound(prefix) <= cost(any completion); and on complete
/// placements the CWM bound equals the exact cost bitwise while the CDCM
/// bound stays below the simulated cost.
TEST(LowerBoundPropertyTest, AdmissibleOnRandomPartialsAcrossTopologies) {
  const energy::Technology tech = energy::technology_0_07u();
  util::Rng rng(0xB0CD);
  constexpr int kTrialsPerTopology = 170;  // ~500 partials over 3 kinds.
  constexpr int kCompletionsPerTrial = 4;

  for (const std::string& kind : {std::string("mesh"), std::string("torus"),
                                  std::string("xmesh")}) {
    SCOPED_TRACE(kind);
    const std::unique_ptr<noc::Topology> topo = noc::make_topology(kind, 4, 3);
    const std::uint32_t tiles = topo->num_tiles();
    const std::uint32_t cores = 8;  // Fewer cores than tiles: empty tiles too.
    const graph::Cdcg cdcg = random_workload(cores, rng);
    const graph::Cwg cwg = cdcg.to_cwg();
    const CwmCost cwm(cwg, *topo, tech);
    const CdcmCost cdcm(cdcg, *topo, tech);
    const std::unique_ptr<CostFunction::LowerBound> cwm_lb =
        cwm.make_lower_bound();
    const std::unique_ptr<CostFunction::LowerBound> cdcm_lb =
        cdcm.make_lower_bound();

    for (int trial = 0; trial < kTrialsPerTopology; ++trial) {
      SCOPED_TRACE(trial);
      const PartialPlacement p = random_partial(cores, tiles, rng);
      cwm_lb->reset();
      cdcm_lb->reset();
      for (std::size_t i = 0; i < p.cores.size(); ++i) {
        cwm_lb->place(p.cores[i], p.tiles[i]);
        cdcm_lb->place(p.cores[i], p.tiles[i]);
      }
      const double cwm_bound = cwm_lb->bound();
      const double cdcm_bound = cdcm_lb->bound();
      for (int c = 0; c < kCompletionsPerTrial; ++c) {
        const std::vector<noc::TileId> assignment =
            random_completion(p, cores, rng);
        const Mapping m = Mapping::from_assignment(*topo, assignment);
        const double cwm_cost = cwm.cost(m);
        const double cdcm_cost = cdcm.cost(m);
        EXPECT_LE(cwm_bound, cwm_cost * (1.0 + kRelTol));
        EXPECT_LE(cdcm_bound, cdcm_cost * (1.0 + kRelTol));
      }
      // Push the rest of the cores: on the now-complete placement the CWM
      // bound is the exact cost, bitwise.
      const std::vector<noc::TileId> assignment =
          random_completion(p, cores, rng);
      for (const graph::CoreId core : p.rest) {
        cwm_lb->place(core, assignment[core]);
        cdcm_lb->place(core, assignment[core]);
      }
      const Mapping m = Mapping::from_assignment(*topo, assignment);
      EXPECT_EQ(cwm_lb->bound(), cwm.cost(m));
      EXPECT_LE(cdcm_lb->bound(), cdcm.cost(m) * (1.0 + kRelTol));
      // Unwind the whole placement through unplace(): the evaluator must
      // return to the empty-prefix bound (push/pop consistency, up to the
      // ulp-level residue of adding and subtracting in different orders —
      // the drift the search engine's pruning slack absorbs).
      const double empty_before = [&] {
        cwm_lb->reset();
        return cwm_lb->bound();
      }();
      cwm_lb->reset();
      for (std::size_t i = 0; i < p.cores.size(); ++i) {
        cwm_lb->place(p.cores[i], p.tiles[i]);
      }
      for (std::size_t i = p.cores.size(); i-- > 0;) {
        cwm_lb->unplace(p.cores[i], p.tiles[i]);
      }
      EXPECT_NEAR(cwm_lb->bound(), empty_before, empty_before * kRelTol);
    }
  }
}

/// The bound of a fresh evaluator that places `cores` on `tiles` in order
/// and answers one bound() call: a cold build and a cold assignment solve.
double cold_bound(const CostFunction& cost,
                  const std::vector<graph::CoreId>& cores,
                  const std::vector<noc::TileId>& tiles, double prune_above) {
  const std::unique_ptr<CostFunction::LowerBound> lb = cost.make_lower_bound();
  for (std::size_t i = 0; i < cores.size(); ++i) lb->place(cores[i], tiles[i]);
  return lb->bound(prune_above);
}

/// Warm starts: randomized walks that place, bound (with a finite and an
/// infinite prune_above, in varying combinations), unplace — the last core
/// or any other — re-place and reset. After every step each bound() must
/// match a fresh evaluator's single call on the same placement sequence to
/// 1e-12 relative, and answer `> prune_above` identically. The boards have
/// more tiles than cores and two traffic-free cores, so the square
/// assignment carries dummy rows and zero rows.
TEST(LowerBoundPropertyTest, WarmStartsMatchColdSolvesOnRandomWalks) {
  const energy::Technology tech = energy::technology_0_07u();
  util::Rng rng(0x3A57);
  constexpr int kStepsPerTopology = 700;

  for (const std::string& kind : {std::string("mesh"), std::string("torus"),
                                  std::string("xmesh")}) {
    SCOPED_TRACE(kind);
    const std::unique_ptr<noc::Topology> topo = noc::make_topology(kind, 4, 3);
    const std::uint32_t num_tiles = topo->num_tiles();
    graph::Cdcg cdcg = random_workload(8, rng);
    cdcg.add_core("idle-a");
    cdcg.add_core("idle-b");
    const std::size_t num_cores = cdcg.num_cores();
    const graph::Cwg cwg = cdcg.to_cwg();
    const CwmCost cwm(cwg, *topo, tech);
    const CdcmCost cdcm(cdcg, *topo, tech);

    for (const CostFunction* cost :
         {static_cast<const CostFunction*>(&cwm),
          static_cast<const CostFunction*>(&cdcm)}) {
      SCOPED_TRACE(cost->name());
      const std::unique_ptr<CostFunction::LowerBound> lb =
          cost->make_lower_bound();
      std::vector<graph::CoreId> cores;  // Placement sequence, oldest first.
      std::vector<noc::TileId> tiles;
      std::vector<char> core_placed(num_cores, 0);
      std::vector<char> tile_used(num_tiles, 0);

      const auto place_random = [&](graph::CoreId core) {
        std::vector<noc::TileId> free;
        for (noc::TileId t = 0; t < num_tiles; ++t) {
          if (!tile_used[t]) free.push_back(t);
        }
        const noc::TileId tile = free[rng.index(free.size())];
        lb->place(core, tile);
        cores.push_back(core);
        tiles.push_back(tile);
        core_placed[core] = 1;
        tile_used[tile] = 1;
      };
      const auto unplace_at = [&](std::size_t i) {
        lb->unplace(cores[i], tiles[i]);
        core_placed[cores[i]] = 0;
        tile_used[tiles[i]] = 0;
        cores.erase(cores.begin() + static_cast<std::ptrdiff_t>(i));
        tiles.erase(tiles.begin() + static_cast<std::ptrdiff_t>(i));
      };

      for (int step = 0; step < kStepsPerTopology; ++step) {
        SCOPED_TRACE(step);
        const double op = rng.uniform01();
        if (op < 0.02) {
          lb->reset();
          cores.clear();
          tiles.clear();
          std::fill(core_placed.begin(), core_placed.end(), 0);
          std::fill(tile_used.begin(), tile_used.end(), 0);
        } else if (op < 0.55 && cores.size() < num_cores) {
          std::vector<graph::CoreId> unplaced;
          for (graph::CoreId c = 0; c < num_cores; ++c) {
            if (!core_placed[c]) unplaced.push_back(c);
          }
          place_random(unplaced[rng.index(unplaced.size())]);
        } else if (op < 0.75 && !cores.empty()) {
          unplace_at(cores.size() - 1);
        } else if (op < 0.85 && !cores.empty()) {
          unplace_at(rng.index(cores.size()));  // Not necessarily the last.
        } else if (!cores.empty()) {
          const graph::CoreId core = cores.back();  // Re-place elsewhere.
          unplace_at(cores.size() - 1);
          place_random(core);
        }

        const double tight = cold_bound(*cost, cores, tiles, kUnbounded);
        const double prune_above = tight * rng.uniform(0.5, 1.5);
        const int calls = static_cast<int>(rng.index(3));  // 0, 1 or both.
        if (calls != 1) {
          const double warm = lb->bound(prune_above);
          const double cold = cold_bound(*cost, cores, tiles, prune_above);
          EXPECT_NEAR(warm, cold, std::abs(cold) * kRelTol);
          EXPECT_EQ(warm > prune_above, cold > prune_above);
        }
        if (calls != 0) {
          const double warm = lb->bound();
          EXPECT_NEAR(warm, tight, std::abs(tight) * kRelTol);
        }
      }
    }
  }
}

/// Dual-certified prunes on a large board: a depth-first placement walk
/// over random-big-1's CWG on its 8x8 mesh, heaviest cores first, where a
/// warm solve re-augments many rows and stops once its dual objective
/// proves the prune. Each node draws a finite prune_above around the tight
/// bound and must answer it as a fresh evaluator does: the same
/// `> prune_above` decision, never above the tight bound, and the cold
/// value itself when not pruned. Some pruned answers must lie below the
/// cold answer, which is the tight bound unless the row-minima cascade
/// answered first: those are the early answers of the dual.
TEST(LowerBoundPropertyTest, DualCertifiedPrunesKeepDecisionsOnALargeBoard) {
  const energy::Technology tech = energy::technology_0_07u();
  const std::vector<workload::SuiteEntry> suite = workload::table1_suite();
  const auto entry = std::find_if(
      suite.begin(), suite.end(),
      [](const workload::SuiteEntry& e) { return e.name == "random-big-1"; });
  ASSERT_NE(entry, suite.end());
  const std::unique_ptr<noc::Topology> topo =
      noc::make_topology("mesh", entry->noc_width, entry->noc_height);
  const graph::Cwg cwg = entry->cdcg.to_cwg();
  const CwmCost cwm(cwg, *topo, tech);
  const std::unique_ptr<CostFunction::LowerBound> lb = cwm.make_lower_bound();

  std::vector<graph::CoreId> order(cwg.num_cores());
  std::iota(order.begin(), order.end(), graph::CoreId{0});
  std::stable_sort(order.begin(), order.end(),
                   [&](graph::CoreId a, graph::CoreId b) {
                     return lb->core_traffic(a) > lb->core_traffic(b);
                   });
  util::Rng rng(0xD0A1);
  constexpr int kSteps = 300;
  std::vector<graph::CoreId> cores;  // Placement sequence, oldest first.
  std::vector<noc::TileId> tiles;
  std::vector<char> tile_used(topo->num_tiles(), 0);
  int early = 0;
  for (int step = 0; step < kSteps; ++step) {
    SCOPED_TRACE(step);
    if (cores.size() == order.size() ||
        (cores.size() > 1 && rng.uniform01() < 0.3)) {
      // Backtrack one to four levels.
      const std::size_t up =
          1 + rng.index(std::min<std::size_t>(cores.size(), 4));
      for (std::size_t k = 0; k < up; ++k) {
        lb->unplace(cores.back(), tiles.back());
        tile_used[tiles.back()] = 0;
        cores.pop_back();
        tiles.pop_back();
      }
    }
    std::vector<noc::TileId> free;
    for (noc::TileId t = 0; t < topo->num_tiles(); ++t) {
      if (!tile_used[t]) free.push_back(t);
    }
    const graph::CoreId core = order[cores.size()];
    const noc::TileId tile = free[rng.index(free.size())];
    lb->place(core, tile);
    cores.push_back(core);
    tiles.push_back(tile);
    tile_used[tile] = 1;

    const double tight = cold_bound(cwm, cores, tiles, kUnbounded);
    const double prune_above = tight * rng.uniform(0.98, 1.02);
    const double warm = lb->bound(prune_above);
    const double cold = cold_bound(cwm, cores, tiles, prune_above);
    EXPECT_EQ(warm > prune_above, cold > prune_above);
    EXPECT_LE(warm, tight + std::abs(tight) * kRelTol);
    if (warm <= prune_above) {
      EXPECT_NEAR(warm, cold, std::abs(cold) * kRelTol);
    } else if (warm < cold - std::abs(cold) * kRelTol) {
      ++early;
    }
    // Finish the node's solve, as a B&B visit would, so that its children
    // warm-start from it.
    EXPECT_NEAR(lb->bound(), tight, std::abs(tight) * kRelTol);
  }
  EXPECT_GT(early, 0);
}

TEST(LowerBoundTest, PlaceUnplaceMirrorsBoundExactly) {
  const energy::Technology tech = energy::technology_0_07u();
  util::Rng rng(7);
  const graph::Cdcg cdcg = random_workload(6, rng);
  const graph::Cwg cwg = cdcg.to_cwg();
  const std::unique_ptr<noc::Topology> topo = noc::make_topology("mesh", 3, 3);
  const CwmCost cwm(cwg, *topo, tech);
  const std::unique_ptr<CostFunction::LowerBound> lb = cwm.make_lower_bound();
  lb->place(0, 4);
  const double one_placed = lb->bound();  // Cold: no parent depth solved.
  lb->place(1, 1);
  const double two_placed = lb->bound();  // Warm from the one-core solve.
  lb->place(2, 7);
  const double three_placed = lb->bound();  // Warm again.
  lb->unplace(2, 7);
  EXPECT_EQ(lb->bound(), two_placed);
  // The warm level matches a cold solve of the same placement to rounding.
  EXPECT_NEAR(two_placed, cold_bound(cwm, {0, 1}, {4, 1}, kUnbounded),
              two_placed * kRelTol);
  // A sibling replaces the saved child level; returning to the first child
  // re-derives it from the unchanged parent, bit for bit.
  lb->place(2, 3);
  const double sibling = cold_bound(cwm, {0, 1, 2}, {4, 1, 3}, kUnbounded);
  EXPECT_NEAR(lb->bound(), sibling, sibling * kRelTol);
  lb->unplace(2, 3);
  lb->place(2, 7);
  EXPECT_EQ(lb->bound(), three_placed);
  lb->unplace(2, 7);
  lb->unplace(1, 1);
  EXPECT_EQ(lb->bound(), one_placed);
}

TEST(LowerBoundTest, CoreTrafficSumsIncidentBits) {
  const energy::Technology tech = energy::technology_0_07u();
  graph::Cwg cwg;
  const graph::CoreId a = cwg.add_core("a");
  const graph::CoreId b = cwg.add_core("b");
  const graph::CoreId c = cwg.add_core("c");
  cwg.add_traffic(a, b, 100);
  cwg.add_traffic(b, c, 40);
  const std::unique_ptr<noc::Topology> topo = noc::make_topology("mesh", 2, 2);
  const CwmCost cwm(cwg, *topo, tech);
  const std::unique_ptr<CostFunction::LowerBound> lb = cwm.make_lower_bound();
  EXPECT_EQ(lb->core_traffic(a), 100u);
  EXPECT_EQ(lb->core_traffic(b), 140u);
  EXPECT_EQ(lb->core_traffic(c), 40u);
}

TEST(LowerBoundTest, HybridDelegatesToCdcm) {
  const energy::Technology tech = energy::technology_0_07u();
  util::Rng rng(3);
  const graph::Cdcg cdcg = random_workload(4, rng);
  const std::unique_ptr<noc::Topology> topo = noc::make_topology("mesh", 2, 2);
  const HybridCost hybrid(cdcg, *topo, tech);
  ASSERT_TRUE(hybrid.has_lower_bound());
  const std::unique_ptr<CostFunction::LowerBound> lb =
      hybrid.make_lower_bound();
  lb->place(0, 0);
  lb->place(1, 1);
  lb->place(2, 2);
  lb->place(3, 3);
  const Mapping m = Mapping::from_assignment(*topo, {0, 1, 2, 3});
  // Hybrid cost() is the exact CDCM objective; its bound must sit below it.
  EXPECT_LE(lb->bound(), hybrid.cost(m) * (1.0 + kRelTol));
}

TEST(LowerBoundTest, DefaultCostFunctionThrows) {
  class Stub final : public CostFunction {
   public:
    double cost(const Mapping&) const override { return 0.0; }
    std::string name() const override { return "stub"; }
    std::size_t num_cores() const override { return 1; }
  };
  const Stub stub;
  EXPECT_FALSE(stub.has_lower_bound());
  EXPECT_FALSE(stub.symmetry_invariant());
  EXPECT_THROW(stub.make_lower_bound(), std::logic_error);
}

}  // namespace
}  // namespace nocmap::mapping
