#include "nocmap/core/scale_bench.hpp"

#include <chrono>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "nocmap/energy/technology.hpp"
#include "nocmap/graph/cdcg.hpp"
#include "nocmap/mapping/cost.hpp"
#include "nocmap/noc/mesh.hpp"
#include "nocmap/search/greedy.hpp"
#include "nocmap/util/strings.hpp"
#include "nocmap/workload/random_cdcg.hpp"
#include "nocmap/workload/suite.hpp"

namespace nocmap::core {

namespace {

using Clock = std::chrono::steady_clock;

/// The Table-1 application of this exact grid size, or a deterministic
/// random CDCG at ~80% tile occupancy. The suite covers every paper board
/// (8x8 = random-big-1, 10x10 = random-big-2, 12x10 = random-big-3), so the
/// fallback only fires for off-paper sizes.
graph::Cdcg workload_for(std::uint32_t width, std::uint32_t height,
                         std::uint64_t seed, std::string& name_out) {
  for (workload::SuiteEntry& e : workload::table1_suite()) {
    if (e.noc_width == width && e.noc_height == height) {
      name_out = e.name;
      return std::move(e.cdcg);
    }
  }
  const std::uint32_t tiles = width * height;
  workload::RandomCdcgParams params;
  params.num_cores = std::max<std::uint32_t>(2, tiles * 4 / 5);
  params.num_packets = params.num_cores * 4;
  params.total_bits = static_cast<std::uint64_t>(params.num_packets) * 4096;
  util::Rng rng(seed);
  name_out = "random";
  return workload::generate_random_cdcg(params, rng);
}

}  // namespace

std::string ScaleBenchReport::to_json() const {
  using util::format_precise;
  std::ostringstream os;
  os << "{\n  \"bench\": \"scale_search\",\n  \"schema\": 2,\n"
     << "  \"objective\": \"cwm\",\n"
     << "  \"seed\": " << seed << ",\n  \"threads\": " << threads << ",\n"
     << "  \"checkpoint_moves\": " << checkpoint_moves << ",\n"
     << "  \"max_moves\": " << max_moves << ",\n  \"rows\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const ScaleBenchRow& r = rows[i];
    os << "    {\"topology\": \"" << r.topology << "\", \"mesh\": \""
       << r.mesh_width << "x" << r.mesh_height << "\", \"application\": \""
       << r.application << "\",\n     \"cores\": " << r.num_cores
       << ", \"packets\": " << r.num_packets << ", \"members\": " << r.members
       << ", \"winner\": \"" << r.winner << "\", \"time_cut\": "
       << (r.time_cut ? "true" : "false")
       << ",\n     \"initial_j\": " << format_precise(r.initial_j)
       << ", \"best_j\": " << format_precise(r.best_j)
       << ",\n     \"evaluations\": " << r.evaluations
       << ", \"polish_applied\": " << r.polish_applied
       << ", \"wall_ms\": " << format_precise(r.wall_ms)
       << ",\n     \"ground_truth\": {\"texec_ns\": "
       << format_precise(r.ground_truth_texec_ns)
       << ", \"total_j\": " << format_precise(r.ground_truth_total_j)
       << "},\n     \"curve\": [\n";
    for (std::size_t k = 0; k < r.curve.size(); ++k) {
      const search::AnytimeSample& s = r.curve[k];
      os << "       {\"moves\": " << s.moves
         << ", \"best_j\": " << format_precise(s.best_j)
         << ", \"wall_ms\": " << format_precise(s.wall_ms) << "}"
         << (k + 1 < r.curve.size() ? "," : "") << "\n";
    }
    os << "     ]}" << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  os << "  ]\n}\n";
  return os.str();
}

ScaleBenchReport run_scale_bench(const ScaleBenchOptions& options) {
  // Resolve the run list: explicit workloads win over the size-driven
  // Table-1 selection.
  std::vector<workload::WorkloadApp> runs = options.workloads;
  if (runs.empty()) {
    for (const auto& [width, height] : options.sizes) {
      workload::WorkloadApp w;
      w.noc_width = width;
      w.noc_height = height;
      runs.push_back(std::move(w));
    }
  }
  for (workload::WorkloadApp& w : runs) {
    const std::uint32_t width = w.noc_width;
    const std::uint32_t height = w.noc_height;
    if (width == 0 || height == 0 ||
        static_cast<std::uint64_t>(width) * height < 2) {
      throw std::invalid_argument(
          "run_scale_bench: size " + std::to_string(width) + "x" +
          std::to_string(height) +
          " is invalid — both dimensions must be nonzero and the board needs "
          "at least two tiles");
    }
    if (w.name.empty()) {
      w.cdcg = workload_for(width, height, options.seed, w.name);
    } else if (w.cdcg.num_cores() > static_cast<std::size_t>(width) * height) {
      throw std::invalid_argument(
          "run_scale_bench: workload '" + w.name + "' has " +
          std::to_string(w.cdcg.num_cores()) + " cores but the " +
          std::to_string(width) + "x" + std::to_string(height) +
          " board only has " + std::to_string(width * height) + " tiles");
    }
  }

  ScaleBenchReport report;
  report.seed = options.seed;
  report.threads = options.threads;
  report.checkpoint_moves = options.checkpoint_moves;
  report.max_moves = options.max_moves;
  const energy::Technology tech = energy::technology_0_07u();
  const noc::RoutingAlgorithm routing = noc::RoutingAlgorithm::kXY;

  for (const workload::WorkloadApp& run : runs) {
    const noc::Mesh topo(run.noc_width, run.noc_height);
    ScaleBenchRow row;
    row.mesh_width = run.noc_width;
    row.mesh_height = run.noc_height;
    row.application = run.name;
    const graph::Cdcg& cdcg = run.cdcg;
    row.num_cores = static_cast<std::uint32_t>(cdcg.num_cores());
    row.num_packets = static_cast<std::uint32_t>(cdcg.num_packets());
    const graph::Cwg cwg = cdcg.to_cwg();

    const mapping::Mapping greedy = search::greedy_mapping(cwg, topo);

    search::PortfolioOptions po;
    po.sa_members = options.sa_members;
    po.seed = options.seed;
    po.threads = options.threads;
    po.initial = &greedy;
    po.checkpoint_moves = options.checkpoint_moves;
    po.max_moves = options.max_moves;
    po.time_budget_ms = options.time_budget_ms;
    po.bnb_nodes = options.bnb_nodes;

    auto make_cost = [&]() -> std::unique_ptr<mapping::CostFunction> {
      return std::make_unique<mapping::CwmCost>(cwg, topo, tech, routing);
    };
    row.initial_j = make_cost()->cost(greedy);

    const Clock::time_point t0 = Clock::now();
    search::PortfolioResult pr =
        search::portfolio(make_cost, cwg, topo, routing, po);
    row.wall_ms = std::chrono::duration<double, std::milli>(Clock::now() - t0)
                      .count();
    row.members = static_cast<std::uint32_t>(pr.members.size());
    row.winner = pr.members[pr.winner].label;
    row.time_cut = pr.budget_cut;
    row.best_j = pr.best.best_cost;
    row.evaluations = pr.best.evaluations;
    row.polish_applied = pr.polish_applied;
    row.curve = std::move(pr.curve);

    // Ground truth: one CDCM wormhole simulation of the CWM winner, so the
    // scale report stays comparable with the Table-2 ETR/ECS numbers.
    const mapping::CdcmCost evaluator(cdcg, topo, tech, routing);
    const sim::SimulationResult sim = evaluator.evaluate(pr.best.best);
    row.ground_truth_texec_ns = sim.texec_ns;
    row.ground_truth_total_j = sim.energy.total_j();

    report.rows.push_back(std::move(row));
  }
  return report;
}

}  // namespace nocmap::core
