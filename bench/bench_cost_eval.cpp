/// \file bench_cost_eval.cpp
/// Evaluation-engine microbenchmark: evaluations/second for the CWM
/// objective (legacy full recompute vs hop-table full vs incremental delta)
/// and the CDCM ladder (one-shot simulate(), reusable Simulator arena,
/// CdcmCost swap-delta, BatchEvaluator at 1 and T threads, hybrid
/// CWM->CDCM objective) across square meshes — or any grid/topology via
/// --sizes/--topology — plus a heap-allocation probe that verifies
/// Simulator::run() allocates nothing in the steady state.
///
/// Usage: bench_cost_eval [--quick] [--max-mesh N] [--sizes WxH,...]
///                        [--topology mesh|torus|xmesh]
///                        [--express-interval K] [--batch-threads T]
///                        [--hybrid-cadence N] [--bnb-nodes N] [--out FILE]
///
/// Writes the JSON report (default BENCH_eval.json, the file tracked at the
/// repo root) and prints a summary table. The report schema (fields, units,
/// what CI validates) is documented in docs/bench-format.md.

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <new>
#include <optional>
#include <sstream>
#include <string>

#include "nocmap/core/eval_bench.hpp"

// --- Global allocation probe -------------------------------------------------
// Counts every heap allocation in the process; eval_bench snapshots the
// counter around steady-state Simulator::run() batches.

namespace {
std::atomic<std::uint64_t> g_allocations{0};
std::uint64_t allocation_count() {
  return g_allocations.load(std::memory_order_relaxed);
}

bool parse_size(const std::string& item, std::uint32_t& w, std::uint32_t& h) {
  const std::size_t sep = item.find('x');
  if (sep == std::string::npos || sep == 0 || sep + 1 == item.size()) {
    return false;
  }
  w = static_cast<std::uint32_t>(std::atoi(item.substr(0, sep).c_str()));
  h = static_cast<std::uint32_t>(std::atoi(item.substr(sep + 1).c_str()));
  return w > 0 && h > 0;
}
}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
// The nothrow forms too (std::stable_sort's buffer uses them): otherwise
// they would come from the default allocator and be freed by the
// replacements below, which sanitizers report as a mismatch.
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size ? size : 1);
}
void* operator new[](std::size_t size, const std::nothrow_t& tag) noexcept {
  return ::operator new(size, tag);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

int main(int argc, char** argv) {
  nocmap::core::EvalBenchOptions options;
  options.min_time_s = 0.25;
  options.alloc_count = &allocation_count;
  std::string out_path = "BENCH_eval.json";

  const auto usage = [] {
    std::cerr << "usage: bench_cost_eval [--quick] [--max-mesh N] "
                 "[--sizes WxH,...] [--topology mesh|torus|xmesh] "
                 "[--express-interval K] [--batch-threads T] "
                 "[--hybrid-cadence N] [--bnb-nodes N] [--out FILE]\n";
    return 2;
  };

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--quick") {
      options.min_time_s = 0.05;
      options.max_mesh = 5;
    } else if (arg == "--max-mesh" && i + 1 < argc) {
      options.max_mesh = static_cast<std::uint32_t>(std::atoi(argv[++i]));
    } else if (arg == "--sizes" && i + 1 < argc) {
      std::istringstream list(argv[++i]);
      std::string item;
      while (std::getline(list, item, ',')) {
        std::uint32_t w = 0, h = 0;
        if (!parse_size(item, w, h)) return usage();
        options.sizes.emplace_back(w, h);
      }
      if (options.sizes.empty()) return usage();
    } else if (arg == "--topology" && i + 1 < argc) {
      options.topology = argv[++i];
    } else if (arg == "--express-interval" && i + 1 < argc) {
      options.express_interval =
          static_cast<std::uint32_t>(std::atoi(argv[++i]));
    } else if (arg == "--batch-threads" && i + 1 < argc) {
      options.batch_threads = static_cast<std::uint32_t>(std::atoi(argv[++i]));
      if (options.batch_threads == 0) return usage();
    } else if (arg == "--hybrid-cadence" && i + 1 < argc) {
      options.hybrid_cadence =
          static_cast<std::uint32_t>(std::atoi(argv[++i]));
    } else if (arg == "--ckpt-interval" && i + 1 < argc) {
      options.ckpt_interval = static_cast<std::uint32_t>(std::atoi(argv[++i]));
    } else if (arg == "--bnb-nodes" && i + 1 < argc) {
      options.bnb_max_nodes =
          static_cast<std::uint64_t>(std::atoll(argv[++i]));
      if (options.bnb_max_nodes == 0) return usage();
    } else if (arg == "--out" && i + 1 < argc) {
      out_path = argv[++i];
    } else {
      return usage();
    }
  }

  const nocmap::core::EvalBenchReport report =
      nocmap::core::run_eval_bench(options);

  std::printf(
      "%-6s %12s %12s %12s %12s %12s %12s %11s %10s %9s %12s %12s %7s %10s "
      "%8s\n",
      "noc", "cwm_legacy/s", "cwm_delta/s", "cdcm_1shot/s", "cdcm_reuse/s",
      "cdcm_delta/s", "cdcm_ckpt/s", "ckpt_spdup", "replay%", "batch_Tx",
      "cdcm_batchT/s", "hybrid/s", "allocs", "bnb_prune%", "bnb_done");
  for (const nocmap::core::EvalBenchRow& r : report.rows) {
    char pruned[32] = "saturated";
    if (const std::optional<double> frac = r.bnb_pruned_frac()) {
      std::snprintf(pruned, sizeof pruned, "%.4f%%", 100.0 * *frac);
    }
    std::printf(
        "%ux%-4u %12.0f %12.0f %12.0f %12.0f %12.0f %12.0f %10.1fx %8.1f%% "
        "%8.2fx %12.0f %12.0f %7lld %10s %8s\n",
        r.mesh_width, r.mesh_height, r.cwm_legacy_per_s, r.cwm_delta_per_s,
        r.cdcm_oneshot_per_s, r.cdcm_reuse_per_s, r.cdcm_delta_per_s,
        r.cdcm_ckpt_per_s, r.ckpt_speedup(), 100.0 * r.ckpt_replay_frac,
        r.cdcm_batch_scaling(), r.cdcm_batch_t_per_s, r.hybrid_per_s,
        static_cast<long long>(r.cdcm_allocs_per_run),
        pruned, r.bnb_complete ? "yes" : "no");
  }

  std::ofstream out(out_path);
  if (!out) {
    std::cerr << "bench_cost_eval: cannot write " << out_path << "\n";
    return 1;
  }
  out << report.to_json();
  std::cout << "wrote " << out_path << "\n";
  return 0;
}
