#include "nocmap/core/eval_bench.hpp"

#include <algorithm>
#include <chrono>
#include <memory>
#include <sstream>
#include <thread>

#include "nocmap/energy/energy_model.hpp"
#include "nocmap/energy/technology.hpp"
#include "nocmap/graph/cdcg.hpp"
#include "nocmap/mapping/cost.hpp"
#include "nocmap/mapping/mapping.hpp"
#include "nocmap/noc/routing.hpp"
#include "nocmap/noc/topology.hpp"
#include "nocmap/search/branch_and_bound.hpp"
#include "nocmap/search/exhaustive.hpp"
#include "nocmap/sim/batch_evaluator.hpp"
#include "nocmap/sim/schedule.hpp"
#include "nocmap/sim/simulator.hpp"
#include "nocmap/util/rng.hpp"
#include "nocmap/workload/random_cdcg.hpp"

namespace nocmap::core {

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// The seed implementation of the CWM objective, kept verbatim as the
/// benchmark baseline: one compute_route() (two heap allocations) per edge
/// per evaluation.
double legacy_cwm_cost(const std::vector<graph::CwgEdge>& edges,
                       const noc::Topology& topo, const mapping::Mapping& m,
                       const energy::Technology& tech) {
  double energy_j = 0.0;
  for (const graph::CwgEdge& e : edges) {
    const noc::Route route =
        noc::compute_route(topo, m.tile_of(e.src), m.tile_of(e.dst));
    energy_j += energy::dynamic_packet_energy(tech, e.bits, route.num_routers());
  }
  return energy_j;
}

/// Time `body` until the budget elapses; returns calls per second times
/// `evals_per_call` (so batch bodies report per-mapping rates). `sink`
/// defeats dead-code elimination.
template <typename Body>
double measure(double min_time_s, double& sink, Body&& body,
               double evals_per_call = 1.0) {
  // Warm-up: one call outside the timed region (first-touch growth of
  // arena buffers, page faults).
  sink += body();
  std::uint64_t calls = 0;
  const Clock::time_point start = Clock::now();
  double elapsed = 0.0;
  do {
    for (int i = 0; i < 16; ++i) sink += body();
    calls += 16;
    elapsed = seconds_since(start);
  } while (elapsed < min_time_s);
  return static_cast<double>(calls) * evals_per_call / elapsed;
}

void append_json_number(std::ostringstream& os, double v) {
  // Round rates to whole evaluations/second: sub-eval precision is noise.
  os << static_cast<std::uint64_t>(v + 0.5);
}

/// The checkpointed-evaluation workload: `kLanes` parallel lanes, each a
/// chain of pipeline stages over a contiguous block of cores, with `kTokens`
/// tokens streamed through every lane. Token t's packet at stage s depends
/// on the same token's packet at stage s-1 (data) and on token t-1's packet
/// at stage s (the stage core sends in order). This is the shape of the
/// paper's streaming applications — the schedule spreads linearly, so a
/// genuine tail exists for incremental replay to skip. Fully deterministic:
/// no RNG, so every bench run prices the same graph.
struct PipelineWorkload {
  graph::Cdcg cdcg;
  /// Cores of the deepest stage quartile across all lanes, ranked by
  /// mapping-independent normalized stage depth (ties by core id), at least
  /// two. The tail-walk move population draws both swap endpoints here.
  std::vector<graph::CoreId> tail_cores;
};

PipelineWorkload make_pipeline_workload(std::uint32_t tiles) {
  constexpr std::uint32_t kTokens = 4;
  const std::uint32_t lanes =
      std::max<std::uint32_t>(1, std::min<std::uint32_t>(2, tiles / 4));
  PipelineWorkload w;
  for (std::uint32_t c = 0; c < tiles; ++c) {
    w.cdcg.add_core("p" + std::to_string(c));
  }
  std::vector<std::pair<double, graph::CoreId>> depth;  // (-norm_stage, core)
  std::uint32_t offset = 0;
  for (std::uint32_t l = 0; l < lanes; ++l) {
    // Distribute the tiles as evenly as possible; the first `tiles % lanes`
    // lanes take one extra stage.
    const std::uint32_t len = tiles / lanes + (l < tiles % lanes ? 1 : 0);
    std::vector<graph::PacketId> prev_token(len, 0);
    for (std::uint32_t t = 0; t < kTokens; ++t) {
      graph::PacketId prev_in_chain = 0;
      for (std::uint32_t s = 0; s + 1 < len; ++s) {
        const graph::PacketId id = w.cdcg.add_packet(
            offset + s, offset + s + 1, /*comp_time=*/16, /*bits=*/256);
        if (s > 0) w.cdcg.add_dependence(prev_in_chain, id);
        if (t > 0) w.cdcg.add_dependence(prev_token[s], id);
        prev_token[s] = id;
        prev_in_chain = id;
      }
    }
    for (std::uint32_t s = 0; s < len; ++s) {
      depth.emplace_back(-static_cast<double>(s) / (len - 1),
                         static_cast<graph::CoreId>(offset + s));
    }
    offset += len;
  }
  std::sort(depth.begin(), depth.end());
  const std::size_t n_tail =
      std::max<std::size_t>(2, static_cast<std::size_t>(tiles) / 4);
  for (std::size_t i = 0; i < n_tail && i < depth.size(); ++i) {
    w.tail_cores.push_back(depth[i].second);
  }
  return w;
}

}  // namespace

std::string EvalBenchReport::to_json() const {
  std::ostringstream os;
  os << "{\n  \"bench\": \"eval_engine\",\n  \"schema\": 7,\n"
     << "  \"unit\": \"evaluations_per_second\",\n"
     << "  \"host_threads\": " << host_threads << ",\n"
     << "  \"rows\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const EvalBenchRow& r = rows[i];
    os << "    {\"topology\": \"" << r.topology << "\", \"mesh\": \""
       << r.mesh_width << "x" << r.mesh_height
       << "\", \"cores\": " << r.num_cores
       << ", \"packets\": " << r.num_packets << ",\n     \"cwm_legacy\": ";
    append_json_number(os, r.cwm_legacy_per_s);
    os << ", \"cwm_full\": ";
    append_json_number(os, r.cwm_full_per_s);
    os << ", \"cwm_delta\": ";
    append_json_number(os, r.cwm_delta_per_s);
    os << ", \"cwm_delta_speedup\": " << r.cwm_delta_speedup() << ",\n"
       << "     \"cdcm_oneshot\": ";
    append_json_number(os, r.cdcm_oneshot_per_s);
    os << ", \"cdcm_reuse\": ";
    append_json_number(os, r.cdcm_reuse_per_s);
    os << ", \"cdcm_reuse_speedup\": " << r.cdcm_reuse_speedup() << ",\n"
       << "     \"cdcm_delta\": ";
    append_json_number(os, r.cdcm_delta_per_s);
    os << ", \"cdcm_delta_speedup\": " << r.cdcm_delta_speedup() << ",\n"
       << "     \"cdcm_batch_1\": ";
    append_json_number(os, r.cdcm_batch1_per_s);
    os << ", \"cdcm_batch_T\": ";
    append_json_number(os, r.cdcm_batch_t_per_s);
    os << ", \"batch_threads\": " << r.batch_threads
       << ", \"cdcm_batch_scaling\": " << r.cdcm_batch_scaling() << ",\n"
       << "     \"hybrid\": ";
    append_json_number(os, r.hybrid_per_s);
    os << ", \"hybrid_cadence\": " << r.hybrid_cadence
       << ", \"hybrid_speedup\": " << r.hybrid_speedup()
       << ", \"alloc_probe\": \""
       << (r.alloc_probe_available ? "counted" : "unavailable") << "\"";
    if (r.alloc_probe_available) {
      os << ", \"cdcm_allocs_per_run\": " << r.cdcm_allocs_per_run;
    }
    os << ",\n     \"cdcm_ckpt\": ";
    append_json_number(os, r.cdcm_ckpt_per_s);
    os << ", \"cdcm_ckpt_full\": ";
    append_json_number(os, r.cdcm_ckpt_full_per_s);
    os << ", \"ckpt_speedup\": " << r.ckpt_speedup()
       << ", \"ckpt_replay_frac\": " << r.ckpt_replay_frac
       << ", \"ckpt_interval\": " << r.ckpt_interval
       << ", \"ckpt_packets\": " << r.ckpt_packets << ",\n"
       << "     \"cdcm_flit\": ";
    append_json_number(os, r.cdcm_flit_per_s);
    os << ", \"flit_buffer_depth\": " << r.flit_buffer_depth
       << ", \"flit_tax\": " << r.flit_tax() << ",\n"
       << "     \"bnb_evals_per_second\": ";
    append_json_number(os, r.bnb_evals_per_s);
    os << ", \"bnb_nodes_visited\": " << r.bnb_nodes_visited
       << ", \"bnb_nodes_pruned\": " << r.bnb_nodes_pruned
       << ", \"bnb_nodes_tested\": " << r.bnb_nodes_tested
       << ",\n     \"bnb_node_budget\": " << r.bnb_node_budget
       << ", \"bnb_pruned_saturated\": "
       << (r.bnb_pruned_saturated() ? "true" : "false")
       << ", \"bnb_pruned_frac\": ";
    if (const std::optional<double> frac = r.bnb_pruned_frac()) {
      os << *frac;
    } else {
      os << "null";
    }
    os << ", \"bnb_complete\": " << (r.bnb_complete ? "true" : "false")
       << ", \"bnb_best\": ";
    {
      std::ostringstream precise;
      precise.precision(17);
      precise << r.bnb_best_j << ", \"es_best\": ";
      if (r.es_best_j) {
        precise << *r.es_best_j;
      } else {
        precise << "null";
      }
      os << precise.str();
    }
    os << "}" << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  os << "  ]\n}\n";
  return os.str();
}

EvalBenchReport run_eval_bench(const EvalBenchOptions& options) {
  EvalBenchReport report;
  report.host_threads = std::max<std::uint32_t>(
      1, std::thread::hardware_concurrency());
  const energy::Technology tech = energy::technology_0_07u();

  for (const auto& [width, height] : options.sizes) {
    // Callers can hand in any size list (CLI --sizes); reject degenerate
    // grids here with a real message instead of asserting deep in the
    // topology layer (a 0-dimension mesh) or hanging the swap walk (a
    // 1-tile mesh has no second tile to draw).
    if (width == 0 || height == 0 ||
        static_cast<std::uint64_t>(width) * height < 2) {
      throw std::invalid_argument(
          "run_eval_bench: size " + std::to_string(width) + "x" +
          std::to_string(height) +
          " is invalid — both dimensions must be nonzero and the grid needs "
          "at least two tiles");
    }
  }
  std::vector<std::pair<std::uint32_t, std::uint32_t>> sizes = options.sizes;
  if (sizes.empty()) {
    for (std::uint32_t side = options.min_mesh; side <= options.max_mesh;
         ++side) {
      sizes.emplace_back(side, side);
    }
  }

  for (const auto& [width, height] : sizes) {
    noc::TopologyOptions topo_options;
    topo_options.express_interval = options.express_interval;
    const std::unique_ptr<noc::Topology> topo =
        noc::make_topology(options.topology, width, height, topo_options);
    const std::uint32_t tiles = topo->num_tiles();

    workload::RandomCdcgParams params;
    params.num_cores = tiles;
    params.num_packets = tiles * 4;
    params.total_bits = static_cast<std::uint64_t>(params.num_packets) * 256;
    util::Rng workload_rng(options.seed);
    const graph::Cdcg cdcg = workload::generate_random_cdcg(params,
                                                            workload_rng);
    const graph::Cwg cwg = cdcg.to_cwg();
    const std::vector<graph::CwgEdge> edges = cwg.edges();

    EvalBenchRow row;
    row.topology = options.topology;
    row.mesh_width = width;
    row.mesh_height = height;
    row.num_cores = params.num_cores;
    row.num_packets = params.num_packets;
    row.batch_threads = options.batch_threads;
    row.hybrid_cadence = options.hybrid_cadence;

    const mapping::CwmCost cwm(cwg, *topo, tech);
    const mapping::CdcmCost cdcm(cdcg, *topo, tech);
    util::Rng move_rng(options.seed + 0x9E3779B97F4A7C15ULL);
    mapping::Mapping m(*topo, params.num_cores);
    auto random_pair = [&](noc::TileId& a, noc::TileId& b) {
      a = static_cast<noc::TileId>(move_rng.index(tiles));
      do {
        b = static_cast<noc::TileId>(move_rng.index(tiles));
      } while (b == a);
    };
    double sink = 0.0;

    // Accept-all swap random walk: every iteration prices one move, which is
    // exactly the SA inner loop's per-move work.
    row.cwm_legacy_per_s = measure(options.min_time_s, sink, [&] {
      noc::TileId a, b;
      random_pair(a, b);
      m.swap_tiles(a, b);
      return legacy_cwm_cost(edges, *topo, m, tech);
    });
    row.cwm_full_per_s = measure(options.min_time_s, sink, [&] {
      noc::TileId a, b;
      random_pair(a, b);
      m.swap_tiles(a, b);
      return cwm.cost(m);
    });
    row.cwm_delta_per_s = measure(options.min_time_s, sink, [&] {
      noc::TileId a, b;
      random_pair(a, b);
      const double d = cwm.swap_delta(m, a, b);
      cwm.apply_swap(m, a, b);
      return d;
    });

    sim::SimOptions sim_options;
    sim_options.record_traces = false;
    row.cdcm_oneshot_per_s = measure(options.min_time_s, sink, [&] {
      noc::TileId a, b;
      random_pair(a, b);
      m.swap_tiles(a, b);
      return sim::simulate(cdcg, *topo, m, tech, sim_options).texec_ns;
    });

    sim::Simulator simulator(cdcg, *topo, tech, sim_options);
    row.cdcm_reuse_per_s = measure(options.min_time_s, sink, [&] {
      noc::TileId a, b;
      random_pair(a, b);
      m.swap_tiles(a, b);
      return simulator.run(m).texec_ns;
    });

    // The flit-accurate backend, same arena-reuse protocol as cdcm_reuse:
    // the ratio of the two rows is the fidelity tax of finite-buffer
    // simulation (flit_tax in the JSON).
    {
      sim::SimOptions flit_options = sim_options;
      flit_options.backend = sim::SimBackend::kFlit;
      flit_options.buffer_depth = options.flit_buffer_depth;
      row.flit_buffer_depth = options.flit_buffer_depth;
      sim::Simulator flit_simulator(cdcg, *topo, tech, flit_options);
      row.cdcm_flit_per_s = measure(options.min_time_s, sink, [&] {
        noc::TileId a, b;
        random_pair(a, b);
        m.swap_tiles(a, b);
        return flit_simulator.run(m).texec_ns;
      });
    }

    // The SA-protocol walk: price the move against the *current* mapping,
    // then commit it — one arena run per move through CdcmCost's probe
    // cache, with swap-aware route rebinding underneath.
    row.cdcm_delta_per_s = measure(options.min_time_s, sink, [&] {
      noc::TileId a, b;
      random_pair(a, b);
      const double d = cdcm.swap_delta(m, a, b);
      cdcm.apply_swap(m, a, b);
      return d;
    });

    // Batch evaluation: a shard of distinct candidate mappings (a rolling
    // random walk, snapshotted), evaluated at 1 and at T threads.
    {
      std::vector<mapping::Mapping> batch(options.batch_size, m);
      for (auto& candidate : batch) {
        noc::TileId a, b;
        random_pair(a, b);
        m.swap_tiles(a, b);
        candidate = m;
      }
      std::vector<sim::BatchResult> results(batch.size());
      sim::BatchEvaluator batch1(cdcg, *topo, tech, sim_options, 1);
      sim::BatchEvaluator batch_t(cdcg, *topo, tech, sim_options,
                                  options.batch_threads);
      row.cdcm_batch1_per_s = measure(
          options.min_time_s, sink,
          [&] {
            batch1.evaluate(batch.data(), batch.size(), results.data());
            return results.front().texec_ns;
          },
          static_cast<double>(batch.size()));
      row.cdcm_batch_t_per_s = measure(
          options.min_time_s, sink,
          [&] {
            batch_t.evaluate(batch.data(), batch.size(), results.data());
            return results.front().texec_ns;
          },
          static_cast<double>(batch.size()));
    }

    // The hybrid objective under the same SA-protocol walk: CWM deltas with
    // a CDCM verification every hybrid_cadence-th move.
    {
      const mapping::HybridCost hybrid(cdcg, *topo, tech,
                                       noc::RoutingAlgorithm::kXY,
                                       options.hybrid_cadence);
      hybrid.begin_search();
      row.hybrid_per_s = measure(options.min_time_s, sink, [&] {
        noc::TileId a, b;
        random_pair(a, b);
        const double d = hybrid.swap_delta(m, a, b);
        hybrid.apply_swap(m, a, b);
        return d;
      });
    }

    // Checkpointed incremental CDCM evaluation on the staged pipeline
    // workload, under the tail-quartile walk (both swap endpoints drawn
    // from the deepest stage quartile — the SA phase where incremental
    // replay matters, late-search refinement of a mostly-settled schedule).
    // Both rows run the pointwise-identical walk: a fresh RNG and a fresh
    // mapping make the swapped core sequence — and therefore the tile
    // sequence — reproduce exactly, so cdcm_ckpt / cdcm_ckpt_full is a
    // like-for-like ratio (its denominator pays full resimulation).
    {
      const PipelineWorkload pipe = make_pipeline_workload(tiles);
      row.ckpt_packets = static_cast<std::uint32_t>(pipe.cdcg.num_packets());
      sim::SimOptions ckpt_options = sim_options;
      ckpt_options.checkpoints = true;
      ckpt_options.checkpoint_interval = options.ckpt_interval;
      const std::uint64_t walk_seed = options.seed + 0xD1B54A32D192ED03ULL;
      auto run_walk = [&](const sim::SimOptions& so, double& out_rate) {
        const mapping::CdcmCost cost(pipe.cdcg, *topo, tech,
                                     noc::RoutingAlgorithm::kXY, so);
        mapping::Mapping pm(*topo, tiles);
        util::Rng walk_rng(walk_seed);
        out_rate = measure(options.min_time_s, sink, [&] {
          const std::size_t n = pipe.tail_cores.size();
          std::size_t i = walk_rng.index(n), j;
          do {
            j = walk_rng.index(n);
          } while (j == i);
          const noc::TileId a = pm.tile_of(pipe.tail_cores[i]);
          const noc::TileId b = pm.tile_of(pipe.tail_cores[j]);
          const double d = cost.swap_delta(pm, a, b);
          cost.apply_swap(pm, a, b);
          return d;
        });
        return cost.checkpoint_stats().replay_frac();
      };
      row.ckpt_replay_frac = run_walk(ckpt_options, row.cdcm_ckpt_per_s);
      run_walk(sim_options, row.cdcm_ckpt_full_per_s);
      // The resolved auto cadence, for the JSON (the CdcmCost's simulator
      // is private; a throwaway arena resolves the identical value).
      row.ckpt_interval =
          sim::Simulator(pipe.cdcg, *topo, tech, ckpt_options)
              .checkpoint_interval();
    }

    // Branch-and-bound exact CWM search: one full run (it is a search, not
    // a steady-state rate loop — the budget bounds its cost on big boards),
    // plus the serial exhaustive reference when the space is enumerable so
    // CI can cross-check the optimum.
    {
      search::BnbOptions bo;
      // Paper-scale guard: past 64 tiles a single DFS descent is ~100 levels
      // deep and the bound is hopeless against 93+ cores, so a full budget
      // would burn minutes proving nothing. Cap it — the row still reports
      // the truncated best and the realized pruning fraction.
      bo.max_nodes = tiles > 64
                         ? std::min<std::uint64_t>(options.bnb_max_nodes, 2000)
                         : options.bnb_max_nodes;
      bo.seed = options.seed;
      const Clock::time_point t0 = Clock::now();
      const search::SearchResult sr =
          search::branch_and_bound(cwm, *topo, bo);
      const double elapsed = std::max(seconds_since(t0), 1e-9);
      row.bnb_evals_per_s = static_cast<double>(sr.nodes_tested) / elapsed;
      row.bnb_nodes_visited = sr.nodes_visited;
      row.bnb_nodes_pruned = sr.nodes_pruned;
      row.bnb_nodes_tested = sr.nodes_tested;
      row.bnb_node_budget = sr.node_budget;
      row.bnb_complete = sr.exhausted;
      row.bnb_best_j = sr.best_cost;
      if (search::placement_count(tiles, params.num_cores) <=
          options.es_reference_max_placements) {
        row.es_best_j = search::exhaustive_search(cwm, *topo).best_cost;
      }
    }

    if (options.alloc_count) {
      row.alloc_probe_available = true;
      // Steady state: the arena is warm after the timed loop above. Count
      // heap allocations across a batch of runs.
      constexpr int kRuns = 32;
      const std::uint64_t before = options.alloc_count();
      for (int i = 0; i < kRuns; ++i) {
        noc::TileId a, b;
        random_pair(a, b);
        m.swap_tiles(a, b);
        sink += simulator.run(m).texec_ns;
      }
      row.cdcm_allocs_per_run =
          static_cast<std::int64_t>((options.alloc_count() - before) / kRuns);
    }

    if (sink == 42.0) report.rows.clear();  // Keep `sink` observable.
    report.rows.push_back(row);
  }
  return report;
}

}  // namespace nocmap::core
