// ServeEngine contract tests: exact hits translate cached results through the
// relabeling, warm starts never lose to their seed, bypass is byte-identical
// to a direct Explorer run, and responses are thread-count invariant.

#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "nocmap/core/explorer.hpp"
#include "nocmap/mapping/cost.hpp"
#include "nocmap/mapping/mapping.hpp"
#include "nocmap/noc/mesh.hpp"
#include "nocmap/serve/engine.hpp"
#include "nocmap/util/rng.hpp"
#include "nocmap/workload/random_cdcg.hpp"

namespace nocmap::serve {
namespace {

struct Fixture {
  noc::Mesh mesh{3, 3};

  graph::Cdcg random_cdcg(std::uint64_t seed) const {
    workload::RandomCdcgParams params;
    params.num_cores = 7;
    params.num_packets = 28;
    params.total_bits = 2800;
    util::Rng rng(seed);
    return workload::generate_random_cdcg(params, rng);
  }

  graph::Cdcg relabel(const graph::Cdcg& cdcg, std::uint64_t seed) const {
    util::Rng rng(seed);
    const std::vector<std::size_t> perm = rng.permutation(cdcg.num_cores());
    graph::Cdcg out;
    for (graph::CoreId c = 0; c < cdcg.num_cores(); ++c) {
      out.add_core("x" + std::to_string(c));
    }
    for (graph::PacketId id = 0; id < cdcg.num_packets(); ++id) {
      const graph::Packet& p = cdcg.packet(id);
      out.add_packet(static_cast<graph::CoreId>(perm[p.src]),
                     static_cast<graph::CoreId>(perm[p.dst]), p.comp_time,
                     p.bits);
    }
    for (graph::PacketId id = 0; id < cdcg.num_packets(); ++id) {
      for (const graph::PacketId s : cdcg.successors(id)) {
        out.add_dependence(id, s);
      }
    }
    return out;
  }

  graph::Cdcg perturb(const graph::Cdcg& cdcg) const {
    graph::Cdcg out;
    for (graph::CoreId c = 0; c < cdcg.num_cores(); ++c) {
      out.add_core("p" + std::to_string(c));
    }
    for (graph::PacketId id = 0; id < cdcg.num_packets(); ++id) {
      const graph::Packet& p = cdcg.packet(id);
      out.add_packet(p.src, p.dst, p.comp_time + 1, p.bits * 2);
    }
    for (graph::PacketId id = 0; id < cdcg.num_packets(); ++id) {
      for (const graph::PacketId s : cdcg.successors(id)) {
        out.add_dependence(id, s);
      }
    }
    return out;
  }

  /// Quick CWM-objective engine options (CWM keeps the solves fast).
  ServeOptions quick_options() const {
    ServeOptions so;
    so.objective = Objective::kCwm;
    so.explorer.method = core::SearchMethod::kSimulatedAnnealing;
    so.explorer.sa.max_steps = 40;
    so.explorer.sa.max_stale_steps = 6;
    so.explorer.seed = 5;
    return so;
  }
};

bool responses_equal(const MapResponse& a, const MapResponse& b) {
  return a.assignment == b.assignment && a.cost_j == b.cost_j &&
         a.served == b.served && a.exact_hash == b.exact_hash &&
         a.family_hash == b.family_hash;  // solve_ms intentionally excluded.
}

TEST(ServeEngineTest, NullCdcgIsRejected) {
  const Fixture f;
  ServeEngine engine(f.mesh, f.quick_options());
  EXPECT_THROW(engine.serve({MapRequest{}}), std::invalid_argument);
}

TEST(ServeEngineTest, ExactHitTranslatesTheCachedMapping) {
  const Fixture f;
  ServeEngine engine(f.mesh, f.quick_options());
  const graph::Cdcg original = f.random_cdcg(1);
  const graph::Cdcg shuffled = f.relabel(original, 99);

  const MapResponse cold = engine.serve_one(original);
  EXPECT_EQ(cold.served, Served::kCold);
  const MapResponse hit = engine.serve_one(shuffled);
  EXPECT_EQ(hit.served, Served::kExactHit);
  EXPECT_EQ(hit.exact_hash, cold.exact_hash);
  EXPECT_EQ(hit.cost_j, cold.cost_j);
  EXPECT_EQ(hit.solve_ms, 0.0);

  // Same placement, different labeling: the translated assignment must place
  // corresponding cores on identical tiles.
  const CanonicalForm fa = canonicalize(original);
  const CanonicalForm fb = canonicalize(shuffled);
  for (graph::CoreId c = 0; c < original.num_cores(); ++c) {
    EXPECT_EQ(cold.assignment[c],
              hit.assignment[fb.core_of_canon[fa.canon_of_core[c]]]);
  }
  EXPECT_EQ(engine.stats().exact_hits, 1u);
}

TEST(ServeEngineTest, WithinBatchDuplicatesAreSolvedOnce) {
  const Fixture f;
  ServeEngine engine(f.mesh, f.quick_options());
  const graph::Cdcg a = f.random_cdcg(2);
  const graph::Cdcg b = f.relabel(a, 7);

  const std::vector<MapResponse> rs =
      engine.serve({MapRequest{&a, {}}, MapRequest{&b, {}}});
  ASSERT_EQ(rs.size(), 2u);
  EXPECT_EQ(rs[0].served, Served::kCold);
  EXPECT_EQ(rs[1].served, Served::kBatchHit);
  EXPECT_EQ(rs[1].cost_j, rs[0].cost_j);
  EXPECT_EQ(rs[1].solve_ms, 0.0);
  EXPECT_EQ(engine.stats().batch_hits, 1u);
}

TEST(ServeEngineTest, FamilyHitWarmStartsAndNeverLosesToTheSeed) {
  const Fixture f;
  ServeEngine engine(f.mesh, f.quick_options());
  const graph::Cdcg base = f.random_cdcg(3);
  const graph::Cdcg twin = f.perturb(base);

  const MapResponse cold = engine.serve_one(base);
  EXPECT_EQ(cold.served, Served::kCold);
  const MapResponse warm = engine.serve_one(twin);
  EXPECT_EQ(warm.served, Served::kWarmStart);
  EXPECT_EQ(warm.family_hash, cold.family_hash);
  EXPECT_NE(warm.exact_hash, cold.exact_hash);

  // The warm search started from the cached incumbent, so its result is at
  // most the seed's cost under the twin's own objective. perturb() keeps
  // core indices, so the base assignment is the twin's seed verbatim.
  const mapping::Mapping seed_map =
      mapping::Mapping::from_assignment(f.mesh, cold.assignment);
  const mapping::CwmCost seed_cost(twin.to_cwg(), f.mesh,
                                   f.quick_options().explorer.tech);
  EXPECT_LE(warm.cost_j, seed_cost.cost(seed_map));
}

TEST(ServeEngineTest, CallerSeedTriggersAWarmStart) {
  const Fixture f;
  ServeOptions so = f.quick_options();
  so.warm_start = true;
  ServeEngine engine(f.mesh, so);
  const graph::Cdcg cdcg = f.random_cdcg(4);

  MapRequest req;
  req.cdcg = &cdcg;
  req.seed_assignment = {0, 1, 2, 3, 4, 5, 6};
  const std::vector<MapResponse> rs = engine.serve({req});
  EXPECT_EQ(rs[0].served, Served::kWarmStart);
  EXPECT_EQ(engine.stats().warm_starts, 1u);
}

TEST(ServeEngineTest, BypassMatchesADirectExplorerRun) {
  const Fixture f;
  ServeOptions so = f.quick_options();
  so.bypass_cache = true;
  ServeEngine engine(f.mesh, so);
  const graph::Cdcg a = f.random_cdcg(5);
  const graph::Cdcg b = f.relabel(a, 3);  // Would be a hit with the cache on.

  const std::vector<MapResponse> rs =
      engine.serve({MapRequest{&a, {}}, MapRequest{&b, {}}});
  EXPECT_EQ(rs[0].served, Served::kCold);
  EXPECT_EQ(rs[1].served, Served::kCold);
  EXPECT_EQ(engine.cache().size(), 0u);

  // Byte-identical to calling the Explorer directly with the same options.
  core::ExplorerOptions eo = f.quick_options().explorer;
  eo.threads = 1;
  for (std::size_t i = 0; i < 2; ++i) {
    const graph::Cdcg& cdcg = i == 0 ? a : b;
    const core::Explorer direct(cdcg, f.mesh, eo);
    const core::ModelOutcome outcome = direct.optimize_cwm();
    EXPECT_EQ(rs[i].cost_j, outcome.objective_j);
    for (graph::CoreId c = 0; c < cdcg.num_cores(); ++c) {
      EXPECT_EQ(rs[i].assignment[c], outcome.mapping.tile_of(c));
    }
  }
}

TEST(ServeEngineTest, ResponsesAreThreadCountInvariant) {
  const Fixture f;
  std::vector<std::vector<MapResponse>> runs;
  std::vector<CacheStats> cache_stats;
  for (const std::uint32_t threads : {1u, 4u}) {
    ServeOptions so = f.quick_options();
    so.threads = threads;
    ServeEngine engine(f.mesh, so);
    std::vector<graph::Cdcg> apps;
    for (std::uint64_t s = 0; s < 6; ++s) {
      apps.push_back(f.random_cdcg(10 + s));
    }
    apps.push_back(f.relabel(apps[0], 1));  // Within-batch duplicate.
    apps.push_back(f.perturb(apps[1]));     // Family member.
    std::vector<MapRequest> batch;
    for (const graph::Cdcg& app : apps) {
      batch.push_back(MapRequest{&app, {}});
    }
    runs.push_back(engine.serve(batch));
    cache_stats.push_back(engine.cache().stats());
  }
  ASSERT_EQ(runs[0].size(), runs[1].size());
  for (std::size_t i = 0; i < runs[0].size(); ++i) {
    EXPECT_TRUE(responses_equal(runs[0][i], runs[1][i])) << "request " << i;
  }
  // The cache ends in the same state too: probes happen sequentially.
  EXPECT_EQ(cache_stats[0].inserts, cache_stats[1].inserts);
  EXPECT_EQ(cache_stats[0].exact_hits, cache_stats[1].exact_hits);
  EXPECT_EQ(cache_stats[0].family_hits, cache_stats[1].family_hits);
  EXPECT_EQ(cache_stats[0].misses, cache_stats[1].misses);
}

TEST(ServeEngineTest, StatsAccumulateAcrossBatches) {
  const Fixture f;
  ServeEngine engine(f.mesh, f.quick_options());
  const graph::Cdcg a = f.random_cdcg(20);
  const graph::Cdcg b = f.relabel(a, 2);
  (void)engine.serve_one(a);
  (void)engine.serve_one(b);
  const EngineStats stats = engine.stats();
  EXPECT_EQ(stats.requests, 2u);
  EXPECT_EQ(stats.cold, 1u);
  EXPECT_EQ(stats.exact_hits, 1u);
}

TEST(ServeEngineTest, MalformedCallerSeedThrowsAtAnyThreadCount) {
  const Fixture f;
  workload::RandomCdcgParams params;
  params.num_cores = 6;
  params.num_packets = 24;
  params.total_bits = 2400;
  util::Rng rng(8);
  const graph::Cdcg six = workload::generate_random_cdcg(params, rng);
  const graph::Cdcg other = f.random_cdcg(9);
  for (const std::uint32_t threads : {1u, 4u}) {
    ServeOptions so = f.quick_options();
    so.threads = threads;
    ServeEngine engine(f.mesh, so);
    // Three tiles for six cores: the Explorer rejects it inside the worker
    // pool, next to a healthy job, and the error must reach the caller.
    MapRequest bad{&six, {0, 1, 2}};
    EXPECT_THROW(engine.serve({MapRequest{&other, {}}, bad}),
                 std::invalid_argument)
        << "threads " << threads;
  }
}

}  // namespace
}  // namespace nocmap::serve
