// Ablation A4 — router buffer capacity. The paper's example assumes
// unbounded input buffers (a blocked worm is fully absorbed); real routers
// have finite buffers and blocked worms back-pressure their upstream links.
// This bench evaluates the same CDCM-optimized mappings under the link-claim
// backend (unbounded buffers) and then under the flit backend at decreasing
// buffer depths.
//
//   ./bench_buffer_ablation

#include <iostream>

#include "nocmap/noc/mesh.hpp"
#include "nocmap/core/explorer.hpp"
#include "nocmap/sim/schedule.hpp"
#include "nocmap/util/strings.hpp"
#include "nocmap/util/table.hpp"
#include "nocmap/workload/suite.hpp"

int main() {
  using namespace nocmap;
  const energy::Technology tech = energy::technology_0_07u();

  util::TextTable t({"application", "buffer (flits)", "texec", "contention",
                     "contended pkts", "energy"});
  t.set_title("Buffer-capacity ablation (mapping fixed to the CDCM optimum "
              "found under unbounded buffers)");

  const char* picks[] = {"objrec-v2", "imgenc-v2", "random-6"};
  for (const workload::SuiteEntry& e : workload::table1_suite()) {
    bool selected = false;
    for (const char* p : picks) selected |= (e.name == p);
    if (!selected) continue;

    const noc::Mesh mesh(e.noc_width, e.noc_height);
    std::cerr << "[buffers] " << e.name << " ..." << std::endl;
    core::ExplorerOptions options;
    options.tech = tech;
    options.seed = 0xB0F;
    options.es_auto_threshold = 50'000;
    const core::Explorer explorer(e.cdcg, mesh, options);
    const core::ModelOutcome best = explorer.optimize_cdcm();

    for (const std::uint32_t depth : {0u, 64u, 8u, 2u}) {
      sim::SimOptions sim_options;
      if (depth != 0) {
        sim_options.backend = sim::SimBackend::kFlit;
        sim_options.buffer_depth = depth;
      }
      const auto result =
          sim::simulate(e.cdcg, mesh, best.mapping, tech, sim_options);
      t.add_row({e.name, depth == 0 ? "unbounded" : std::to_string(depth),
                 util::format_time_ns(result.texec_ns),
                 util::format_time_ns(result.total_contention_ns),
                 std::to_string(result.num_contended_packets),
                 util::format_energy_j(result.energy.total_j())});
    }
    t.add_separator();
  }

  std::cout << t;
  std::cout << "\nExpectation: deep buffers reproduce the unbounded rows "
               "exactly. Shallow ones add\nstalls and backpressure, but a "
               "delayed worm can hand a link to another, so\ntexec and "
               "contention need not grow monotonically (flit backend; see\n"
               "docs/simulation.md).\n";
  return 0;
}
