#include "nocmap/serve/serve_bench.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <sstream>
#include <stdexcept>

#include "nocmap/noc/mesh.hpp"
#include "nocmap/util/rng.hpp"
#include "nocmap/util/strings.hpp"
#include "nocmap/workload/synthetic.hpp"

namespace nocmap::serve {

namespace {

using util::fold;

std::uint64_t double_bits(double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

/// Rebuild `cdcg` with core c renamed to perm[c]. Packet and dependence
/// order is preserved — exactly the equivalence the canonical form (and
/// therefore the cache) recognizes.
graph::Cdcg relabel(const graph::Cdcg& cdcg,
                    const std::vector<std::size_t>& perm) {
  graph::Cdcg out;
  for (graph::CoreId c = 0; c < cdcg.num_cores(); ++c) {
    out.add_core("r" + std::to_string(c));
  }
  for (graph::PacketId id = 0; id < cdcg.num_packets(); ++id) {
    const graph::Packet& p = cdcg.packet(id);
    out.add_packet(perm[p.src], perm[p.dst], p.comp_time, p.bits);
  }
  for (graph::PacketId id = 0; id < cdcg.num_packets(); ++id) {
    for (const graph::PacketId s : cdcg.successors(id)) {
      out.add_dependence(id, s);
    }
  }
  return out;
}

/// Jitter every packet's payload and computation time by up to +-25% while
/// leaving the (src, dst) stream and dependences untouched: a different
/// instance of the same family.
graph::Cdcg perturb(const graph::Cdcg& cdcg, util::Rng& rng) {
  graph::Cdcg out;
  for (graph::CoreId c = 0; c < cdcg.num_cores(); ++c) {
    out.add_core("p" + std::to_string(c));
  }
  for (graph::PacketId id = 0; id < cdcg.num_packets(); ++id) {
    const graph::Packet& p = cdcg.packet(id);
    const double fb = 0.75 + 0.5 * rng.uniform01();
    const double fc = 0.75 + 0.5 * rng.uniform01();
    const std::uint64_t bits = std::max<std::uint64_t>(
        1, static_cast<std::uint64_t>(std::llround(p.bits * fb)));
    const std::uint64_t comp =
        static_cast<std::uint64_t>(std::llround(p.comp_time * fc));
    out.add_packet(p.src, p.dst, comp, bits);
  }
  for (graph::PacketId id = 0; id < cdcg.num_packets(); ++id) {
    for (const graph::PacketId s : cdcg.successors(id)) {
      out.add_dependence(id, s);
    }
  }
  return out;
}

/// Nearest-rank percentile of an ascending-sorted sample.
double percentile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const std::size_t rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(sorted.size())));
  return sorted[std::min(sorted.size() - 1, rank == 0 ? 0 : rank - 1)];
}

}  // namespace

ServeBenchReport run_serve_bench(const ServeBenchOptions& options) {
  if (options.requests == 0) {
    throw std::invalid_argument("serve-bench: requests must be >= 1");
  }
  if (options.dup_ratio < 0.0 || options.near_ratio < 0.0 ||
      options.dup_ratio > 1.0 || options.near_ratio > 1.0 ||
      options.dup_ratio + options.near_ratio > 1.0) {
    throw std::invalid_argument(
        "serve-bench: dup/near ratios must lie in [0,1] and sum to <= 1");
  }
  const workload::SyntheticSpec spec =
      workload::SyntheticSpec::parse(options.population);
  const workload::SyntheticPopulation population(spec);
  const noc::Mesh mesh(options.mesh_width, options.mesh_height);
  const std::uint32_t tiles = mesh.num_tiles();

  // --- Synthesize the request stream (pure function of options + seed) ----
  util::Rng rng(options.seed);
  std::vector<graph::Cdcg> requests;
  requests.reserve(options.requests);
  std::vector<std::size_t> bases;  ///< Indices of fresh requests.
  std::size_t pop_cursor = 0;
  const auto next_fresh = [&]() -> graph::Cdcg {
    // Scan forward (wrapping) for an application that fits the mesh; a
    // wrapped index repeats an earlier application verbatim, which simply
    // adds exact duplicates on top of the configured ratio.
    for (std::size_t scanned = 0; scanned < population.size(); ++scanned) {
      const std::size_t index = pop_cursor++ % population.size();
      workload::WorkloadApp app = population.app(index);
      if (app.cdcg.num_cores() >= 2 && app.cdcg.num_cores() <= tiles &&
          app.cdcg.num_packets() > 0) {
        return std::move(app.cdcg);
      }
    }
    throw std::invalid_argument(
        "serve-bench: no application of population '" + spec.canonical() +
        "' fits a " + std::to_string(options.mesh_width) + "x" +
        std::to_string(options.mesh_height) + " mesh");
  };
  for (std::uint32_t r = 0; r < options.requests; ++r) {
    const double u = rng.uniform01();
    if (!bases.empty() && u < options.dup_ratio) {
      const graph::Cdcg& base = requests[bases[rng.index(bases.size())]];
      requests.push_back(relabel(
          base, rng.permutation(base.num_cores())));
    } else if (!bases.empty() &&
               u < options.dup_ratio + options.near_ratio) {
      const graph::Cdcg& base = requests[bases[rng.index(bases.size())]];
      graph::Cdcg twin = relabel(
          base, rng.permutation(base.num_cores()));
      requests.push_back(perturb(twin, rng));
    } else {
      bases.push_back(requests.size());
      requests.push_back(next_fresh());
    }
  }

  // --- Replay through one engine, in batches -------------------------------
  ServeEngine engine(mesh, options.serve);
  const std::uint32_t batch_size = std::max<std::uint32_t>(1, options.batch);
  std::vector<double> latencies;
  latencies.reserve(options.requests);
  std::uint64_t digest = fold(0x5e12e0ULL, options.requests);
  double cold_ms_sum = 0.0, warm_ms_sum = 0.0;
  std::uint64_t cold_n = 0, warm_n = 0;

  const auto start = std::chrono::steady_clock::now();
  for (std::size_t begin = 0; begin < requests.size(); begin += batch_size) {
    const std::size_t end =
        std::min(requests.size(), begin + static_cast<std::size_t>(batch_size));
    std::vector<MapRequest> batch(end - begin);
    for (std::size_t i = begin; i < end; ++i) {
      batch[i - begin].cdcg = &requests[i];
    }
    const std::vector<MapResponse> responses = engine.serve(batch);
    for (const MapResponse& resp : responses) {
      latencies.push_back(resp.solve_ms);
      digest = fold(digest, double_bits(resp.cost_j));
      digest = fold(digest, static_cast<std::uint64_t>(resp.served));
      digest = fold(digest, resp.assignment.size());
      for (const noc::TileId t : resp.assignment) digest = fold(digest, t);
      if (resp.served == Served::kCold) {
        cold_ms_sum += resp.solve_ms;
        ++cold_n;
      } else if (resp.served == Served::kWarmStart) {
        warm_ms_sum += resp.solve_ms;
        ++warm_n;
      }
    }
  }
  const double total_wall_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - start)
          .count();

  // --- Report --------------------------------------------------------------
  ServeBenchReport rep;
  rep.population = spec.canonical();
  rep.requests = options.requests;
  rep.dup_ratio = options.dup_ratio;
  rep.near_ratio = options.near_ratio;
  rep.mesh_width = options.mesh_width;
  rep.mesh_height = options.mesh_height;
  rep.batch = batch_size;
  rep.threads = std::max<std::uint32_t>(1, options.serve.threads);
  rep.seed = options.seed;
  rep.objective =
      options.serve.objective == Objective::kCwm ? "cwm" : "cdcm";
  rep.bypass_cache = options.serve.bypass_cache;
  rep.cache_capacity = options.serve.cache_capacity;

  const EngineStats stats = engine.stats();
  rep.cold = stats.cold;
  rep.exact_hits = stats.exact_hits;
  rep.batch_hits = stats.batch_hits;
  rep.warm_starts = stats.warm_starts;
  rep.cache_hit_rate =
      static_cast<double>(stats.exact_hits + stats.batch_hits) /
      static_cast<double>(options.requests);
  rep.warm_start_rate = static_cast<double>(stats.warm_starts) /
                        static_cast<double>(options.requests);
  rep.results_digest = digest;

  double sum = 0.0;
  for (const double l : latencies) sum += l;
  std::sort(latencies.begin(), latencies.end());
  rep.p50_ms = percentile(latencies, 0.50);
  rep.p95_ms = percentile(latencies, 0.95);
  rep.p99_ms = percentile(latencies, 0.99);
  rep.mean_ms = sum / static_cast<double>(latencies.size());
  rep.total_wall_ms = total_wall_ms;
  rep.throughput_rps = total_wall_ms > 0.0
                           ? options.requests / (total_wall_ms / 1000.0)
                           : 0.0;
  rep.cold_solve_ms = cold_n != 0 ? cold_ms_sum / cold_n : 0.0;
  rep.warm_solve_ms = warm_n != 0 ? warm_ms_sum / warm_n : 0.0;
  rep.warm_speedup = (cold_n != 0 && warm_n != 0 && rep.warm_solve_ms > 0.0)
                         ? rep.cold_solve_ms / rep.warm_solve_ms
                         : 0.0;
  return rep;
}

std::string ServeBenchReport::to_json() const {
  using util::format_precise;
  std::ostringstream os;
  os << "{\n";
  os << "  \"bench\": \"serve\",\n";
  os << "  \"schema\": 1,\n";
  os << "  \"population\": \"" << population << "\",\n";
  os << "  \"requests\": " << requests << ",\n";
  os << "  \"dup_ratio\": " << format_precise(dup_ratio) << ",\n";
  os << "  \"near_ratio\": " << format_precise(near_ratio) << ",\n";
  os << "  \"mesh_width\": " << mesh_width << ",\n";
  os << "  \"mesh_height\": " << mesh_height << ",\n";
  os << "  \"batch\": " << batch << ",\n";
  os << "  \"threads\": " << threads << ",\n";
  os << "  \"seed\": " << seed << ",\n";
  os << "  \"objective\": \"" << objective << "\",\n";
  os << "  \"bypass_cache\": " << (bypass_cache ? "true" : "false") << ",\n";
  os << "  \"cache_capacity\": " << cache_capacity << ",\n";
  os << "  \"cold\": " << cold << ",\n";
  os << "  \"exact_hits\": " << exact_hits << ",\n";
  os << "  \"batch_hits\": " << batch_hits << ",\n";
  os << "  \"warm_starts\": " << warm_starts << ",\n";
  os << "  \"cache_hit_rate\": " << format_precise(cache_hit_rate) << ",\n";
  os << "  \"warm_start_rate\": " << format_precise(warm_start_rate) << ",\n";
  os << "  \"results_digest\": " << results_digest << ",\n";
  os << "  \"p50_ms\": " << format_precise(p50_ms) << ",\n";
  os << "  \"p95_ms\": " << format_precise(p95_ms) << ",\n";
  os << "  \"p99_ms\": " << format_precise(p99_ms) << ",\n";
  os << "  \"mean_ms\": " << format_precise(mean_ms) << ",\n";
  os << "  \"total_wall_ms\": " << format_precise(total_wall_ms) << ",\n";
  os << "  \"throughput_rps\": " << format_precise(throughput_rps) << ",\n";
  os << "  \"cold_solve_ms\": " << format_precise(cold_solve_ms) << ",\n";
  os << "  \"warm_solve_ms\": " << format_precise(warm_solve_ms) << ",\n";
  os << "  \"warm_speedup\": " << format_precise(warm_speedup) << "\n}\n";
  return os.str();
}

}  // namespace nocmap::serve
