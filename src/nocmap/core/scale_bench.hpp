#pragma once
/// \file scale_bench.hpp
/// Paper-scale search benchmark: anytime curves (best cost vs priced moves
/// vs wall clock) of the racing portfolio on the large Table-1 boards.
///
/// The Table-2 reproduction has always covered the small boards; this bench
/// measures the part the paper ran "SA only" on — 8x8 (random-big-1, 62
/// cores), 10x10 (random-big-2, 93 cores) and the 12x10 flagship
/// (random-big-3, 99 cores, 446 packets). Each size maps its Table-1
/// application with search::portfolio under the CWM objective (Equation 3 —
/// the model the large-board comparison optimizes first), greedy-seeded,
/// then ground-truth-evaluates the winner with the CDCM wormhole simulator.
///
/// The report serializes to the JSON tracked as BENCH_scale.json at the
/// repo root (`nocmap bench --scale`; schema in docs/bench-format.md).
/// best_j, evaluations, the winner label and every curve `moves`/`best_j`
/// column are deterministic in (seed, roster, budgets) — identical for any
/// --threads — so successive PRs can diff search quality, not just speed.
/// wall_ms columns are measured wall clock and excluded from any diff.

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "nocmap/search/portfolio.hpp"
#include "nocmap/workload/workload_source.hpp"

namespace nocmap::core {

struct ScaleBenchOptions {
  /// Board sizes (width, height). Default: the paper's three large NoCs.
  /// Sizes with a Table-1 application of the same grid use it; anything
  /// else gets a deterministic random CDCG sized to ~80% tile occupancy.
  std::vector<std::pair<std::uint32_t, std::uint32_t>> sizes = {
      {8, 8}, {10, 10}, {12, 10}};
  /// When non-empty, bench these applications, each on its own board,
  /// instead of `sizes` — the `nocmap bench --scale --workload SRC` path.
  std::vector<workload::WorkloadApp> workloads;
  std::uint64_t seed = 1;
  std::uint32_t threads = 1;  ///< Workers racing the members (throughput only).
  std::uint32_t sa_members = 4;
  /// Anytime-sample spacing in priced moves (0 = every temperature step).
  std::uint64_t checkpoint_moves = 0;
  /// Per-member move budget, 0 = run each member to convergence. The CI
  /// smoke sets this to keep the 8x8 row fast.
  std::uint64_t max_moves = 0;
  double time_budget_ms = 0.0;  ///< Per-member wall budget (0 = none).
  std::uint64_t bnb_nodes = 50'000;  ///< Budget of the exact member.
};

/// One board's portfolio run.
struct ScaleBenchRow {
  std::string topology = "mesh";
  std::uint32_t mesh_width = 0;
  std::uint32_t mesh_height = 0;
  std::string application;  ///< Table-1 name or "random".
  std::uint32_t num_cores = 0;
  std::uint32_t num_packets = 0;
  std::uint32_t members = 0;         ///< Roster size actually raced.
  std::string winner;                ///< Winning member's label.
  bool time_cut = false;             ///< Any member was budget-cut.
  double initial_j = 0.0;            ///< CWM cost of the greedy seed.
  double best_j = 0.0;               ///< CWM cost of the portfolio winner.
  std::uint64_t evaluations = 0;     ///< Pricings summed over the roster.
  std::uint64_t polish_applied = 0;  ///< Final-descent swaps.
  double wall_ms = 0.0;              ///< Whole-portfolio wall clock.
  double ground_truth_texec_ns = 0.0;  ///< CDCM simulation of the winner.
  double ground_truth_total_j = 0.0;
  std::vector<search::AnytimeSample> curve;  ///< Merged, monotone in best_j.
};

struct ScaleBenchReport {
  std::vector<ScaleBenchRow> rows;
  std::uint64_t seed = 1;
  std::uint32_t threads = 1;
  std::uint64_t checkpoint_moves = 0;
  std::uint64_t max_moves = 0;

  /// Pretty-printed JSON ({"bench": "scale_search", "schema": 2, ...}). Schema 2
  /// switched the curve to improvement-driven samples merged by move count.
  std::string to_json() const;
};

/// Run the benchmark. Throws std::invalid_argument on malformed sizes
/// (zero dimension or fewer than two tiles).
ScaleBenchReport run_scale_bench(const ScaleBenchOptions& options = {});

}  // namespace nocmap::core
