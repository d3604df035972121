#pragma once
/// \file eval_bench.hpp
/// Microbenchmark of the evaluation engine: evaluations/second for the CWM
/// and CDCM objectives under swap-move search, across a range of NoC sizes.
///
/// Three CWM variants are timed — the seed-era full recompute that walks
/// compute_route() per edge (kept here as the baseline), the hop-table full
/// evaluation, and the incremental swap-delta protocol — plus the CDCM
/// ladder: the one-shot sim::simulate() wrapper (pays arena construction
/// per call), the reusable Simulator::run() arena, the CdcmCost swap-delta
/// protocol (swap-aware rebinding + probe caching), the hybrid CWM->CDCM
/// objective, the sim::BatchEvaluator at 1 and T threads, and the
/// flit-accurate backend arena (docs/simulation.md) — so the fidelity tax
/// of finite-buffer simulation is tracked alongside link-claim. The report
/// serializes to the JSON tracked as BENCH_eval.json at the repo root, so
/// successive PRs can follow the perf trajectory.
///
/// Used by bench/bench_cost_eval.cpp (full budgets, allocation probe) and by
/// `nocmap bench --perf` (quick budgets, CI smoke). The JSON schema is
/// documented in docs/bench-format.md.

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "nocmap/search/search_result.hpp"

namespace nocmap::core {

struct EvalBenchOptions {
  std::uint32_t min_mesh = 3;   ///< Smallest (square) mesh side.
  std::uint32_t max_mesh = 8;   ///< Largest (square) mesh side.
  /// Explicit grid sizes (width, height); when non-empty this overrides the
  /// min_mesh..max_mesh square ladder (CLI: `bench --perf --sizes`).
  std::vector<std::pair<std::uint32_t, std::uint32_t>> sizes;
  /// Topology kind for every row: "mesh" (default), "torus" or "xmesh".
  std::string topology = "mesh";
  std::uint32_t express_interval = 2;  ///< xmesh express-link spacing.
  double min_time_s = 0.2;      ///< Wall-clock budget per measurement.
  std::uint64_t seed = 1;       ///< Workload + move-sequence seed.
  std::uint32_t batch_threads = 4;   ///< T for the cdcm_batch_T row.
  std::uint32_t batch_size = 256;    ///< Mappings per BatchEvaluator call.
  std::uint32_t hybrid_cadence = 8;  ///< HybridCost CDCM verification rate.
  /// Snapshot cadence (event pops) for the checkpointed rows; 0 = auto.
  std::uint32_t ckpt_interval = 0;
  /// Input-port buffer depth (flits) for the cdcm_flit row.
  std::uint32_t flit_buffer_depth = 8;
  /// Branch-and-bound node budget (lower-bound tests) per row. The 3x3 and
  /// 4x4 CWM searches complete in well under 10^5 tests; larger boards are
  /// truncated and report bnb_complete = false.
  std::uint64_t bnb_max_nodes = 500'000;
  /// Run the serial exhaustive reference (es_best, the optimum cross-check
  /// against bnb_best) when the unpruned placement count is at most this.
  std::uint64_t es_reference_max_placements = 1'000'000;
  /// Optional live allocation counter (global operator-new hook installed by
  /// the calling binary). When set, the benchmark reports the number of
  /// heap allocations per steady-state Simulator::run(); when null the
  /// report says "alloc_probe": "unavailable" and omits the count.
  std::uint64_t (*alloc_count)() = nullptr;
};

/// One NoC size's measurements. Rates are evaluations per second.
struct EvalBenchRow {
  std::string topology = "mesh";
  std::uint32_t mesh_width = 0;
  std::uint32_t mesh_height = 0;
  std::uint32_t num_cores = 0;
  std::uint32_t num_packets = 0;
  double cwm_legacy_per_s = 0.0;   ///< Seed path: compute_route per edge.
  double cwm_full_per_s = 0.0;     ///< Hop-table full evaluation.
  double cwm_delta_per_s = 0.0;    ///< swap_delta + apply_swap.
  double cdcm_oneshot_per_s = 0.0; ///< sim::simulate() per evaluation.
  double cdcm_reuse_per_s = 0.0;   ///< Simulator::run() arena reuse.
  double cdcm_delta_per_s = 0.0;   ///< CdcmCost swap_delta + apply_swap.
  double cdcm_batch1_per_s = 0.0;  ///< BatchEvaluator, 1 thread.
  double cdcm_batch_t_per_s = 0.0; ///< BatchEvaluator, batch_threads.
  std::uint32_t batch_threads = 0; ///< T of the row above.
  double hybrid_per_s = 0.0;       ///< HybridCost swap_delta + apply_swap.
  std::uint32_t hybrid_cadence = 0;
  /// Simulator::run() arena reuse under the flit-accurate backend
  /// (wormhole, credit flow control, flit_buffer_depth-flit ports).
  double cdcm_flit_per_s = 0.0;
  std::uint32_t flit_buffer_depth = 0;  ///< Depth of the row above.
  /// True when the calling binary installed an operator-new hook
  /// (EvalBenchOptions::alloc_count). The JSON then reports
  /// "alloc_probe": "counted" with the real per-run count; otherwise it
  /// reports "alloc_probe": "unavailable" and omits the count entirely.
  bool alloc_probe_available = false;
  std::int64_t cdcm_allocs_per_run = -1;  ///< Meaningful only when counted.

  // --- Checkpointed incremental CDCM evaluation ---------------------------
  // Measured on a staged pipeline workload (parallel lanes of chained
  // stages — the shape of the paper's streaming applications, where a
  // genuine schedule tail exists) under a tail-quartile move walk: both
  // endpoints of every swap are cores from the deepest quartile of pipeline
  // stages, ranked by mapping-independent stage depth. cdcm_ckpt_full runs
  // the pointwise-identical walk with checkpoints off, so
  // ckpt_speedup = cdcm_ckpt / cdcm_ckpt_full is a like-for-like ratio
  // (docs/bench-format.md spells out the protocol).
  double cdcm_ckpt_per_s = 0.0;       ///< Checkpointed suffix replay.
  double cdcm_ckpt_full_per_s = 0.0;  ///< Same walk, full resimulation.
  /// Replayed pops / pops a full resimulation would have executed, over the
  /// checkpointed measurement; -1 when the row was not measured.
  double ckpt_replay_frac = -1.0;
  std::uint64_t ckpt_interval = 0;  ///< Resolved snapshot cadence (pops).
  std::uint32_t ckpt_packets = 0;   ///< Pipeline-workload packet count.

  // --- Branch-and-bound exact CWM search (one run, not a rate loop) --------
  double bnb_evals_per_s = 0.0;        ///< Lower-bound tests per second.
  std::uint64_t bnb_nodes_visited = 0;
  std::uint64_t bnb_nodes_pruned = 0;  ///< Eliminated volume; saturating.
  std::uint64_t bnb_nodes_tested = 0;
  std::uint64_t bnb_node_budget = 0;
  bool bnb_complete = false;           ///< Tree exhausted within the budget.
  double bnb_best_j = 0.0;             ///< Best CWM cost found.
  /// Serial exhaustive optimum for the same objective; empty (JSON null)
  /// when the space was too large to enumerate. When present and
  /// bnb_complete, it must equal bnb_best_j bitwise (CI enforces it).
  std::optional<double> es_best_j;

  double cwm_delta_speedup() const {
    return cwm_legacy_per_s > 0 ? cwm_delta_per_s / cwm_legacy_per_s : 0.0;
  }
  double cdcm_reuse_speedup() const {
    return cdcm_oneshot_per_s > 0 ? cdcm_reuse_per_s / cdcm_oneshot_per_s
                                  : 0.0;
  }
  double cdcm_delta_speedup() const {
    return cdcm_oneshot_per_s > 0 ? cdcm_delta_per_s / cdcm_oneshot_per_s
                                  : 0.0;
  }
  double cdcm_batch_scaling() const {
    return cdcm_batch1_per_s > 0 ? cdcm_batch_t_per_s / cdcm_batch1_per_s
                                 : 0.0;
  }
  double hybrid_speedup() const {
    return cdcm_reuse_per_s > 0 ? hybrid_per_s / cdcm_reuse_per_s : 0.0;
  }
  /// Checkpointed over full-resimulation pricing rate on the identical
  /// pipeline-workload tail walk (the honest like-for-like ratio).
  double ckpt_speedup() const {
    return cdcm_ckpt_full_per_s > 0 ? cdcm_ckpt_per_s / cdcm_ckpt_full_per_s
                                    : 0.0;
  }
  /// Fidelity tax: link-claim rate over flit-backend rate (>= 1 in
  /// practice — the flit backend does strictly more bookkeeping per event).
  double flit_tax() const {
    return cdcm_flit_per_s > 0 ? cdcm_reuse_per_s / cdcm_flit_per_s : 0.0;
  }
  bool bnb_pruned_saturated() const {
    return bnb_nodes_pruned == search::kNodesPrunedSaturated;
  }
  /// Fraction of the enumeration tree the bound eliminated; empty when the
  /// eliminated volume saturated its counter.
  std::optional<double> bnb_pruned_frac() const {
    return search::pruned_fraction(bnb_nodes_visited, bnb_nodes_pruned);
  }
};

struct EvalBenchReport {
  std::vector<EvalBenchRow> rows;
  /// std::thread::hardware_concurrency() of the measuring host: the context
  /// needed to interpret cdcm_batch_scaling (a 1-CPU box legitimately
  /// reports ~1.0).
  std::uint32_t host_threads = 0;

  /// Pretty-printed JSON document ({"bench": "eval_engine", "schema": 7,
  /// "rows": [...]}).
  std::string to_json() const;
};

/// Run the microbenchmark. Deterministic workloads and move sequences per
/// options.seed; timings are wall-clock, of course, not deterministic.
EvalBenchReport run_eval_bench(const EvalBenchOptions& options = {});

}  // namespace nocmap::core
