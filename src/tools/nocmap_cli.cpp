/// \file nocmap_cli.cpp
/// The `nocmap` command-line driver.
///
/// One binary wrapping the FRW exploration flow (core::Explorer) and the
/// Table-1 workload suite behind five subcommands:
///
///   nocmap explore      optimize one workload under CWM and CDCM and compare
///   nocmap bench        run the Table-1 suite, print Table-2-style ETR/ECS rows
///   nocmap workloads    list the built-in workloads and their statistics
///   nocmap sweep        repeat explore over a seed range and aggregate
///   nocmap serve-bench  load-test the caching/warm-start serving engine
///
/// Every subcommand renders through util::TextTable and switches to CSV with
/// --csv, so results pipe straight into plotting scripts. Exit codes: 0 on
/// success, 1 on a runtime failure, 2 on a usage error.

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <functional>
#include <iostream>
#include <limits>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <new>

#include "nocmap/nocmap.hpp"

// --- Global allocation probe -------------------------------------------------
// Counts every heap allocation in the process so `nocmap bench --perf` can
// report a real cdcm_allocs_per_run ("alloc_probe": "counted") instead of
// declaring the probe unavailable. Mirrors bench/bench_cost_eval.cpp.

namespace {
std::atomic<std::uint64_t> g_cli_allocations{0};
std::uint64_t cli_allocation_count() {
  return g_cli_allocations.load(std::memory_order_relaxed);
}
}  // namespace

void* operator new(std::size_t size) {
  g_cli_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
// The nothrow forms too (std::stable_sort's buffer uses them): otherwise
// they would come from the default allocator and be freed by the
// replacements below, which sanitizers report as a mismatch.
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  g_cli_allocations.fetch_add(1, std::memory_order_relaxed);
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

namespace {

using namespace nocmap;

/// Thrown on bad argv; main() prints the message plus a usage hint, exits 2.
struct UsageError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

constexpr const char* kTopUsage =
    R"(nocmap — energy- and timing-aware NoC mapping (Marcon et al., DATE 2005)

Usage: nocmap <subcommand> [options]

Subcommands:
  explore     Optimize one workload under the CWM (Equation 3) and CDCM
              (Equation 10) objectives and compare both mappings with the
              ground-truth wormhole simulator (ETR / ECS).
  bench       Run the paper's 18-application Table-1 suite and print
              Table-2-style ETR/ECS rows.
  workloads   List the built-in workloads (Table-1 statistics).
  sweep       Repeat explore over a range of seeds and aggregate.
  serve-bench Replay a randomized request stream (with controllable
              duplicate / near-duplicate ratios) through the canonical-form
              caching, warm-starting serving engine and write latency /
              throughput / cache statistics to BENCH_serve.json.

Global:
  -h, --help     Show this message (or subcommand help after a subcommand).
  --version      Print the library version.

Run `nocmap <subcommand> --help` for per-subcommand options.
)";

constexpr const char* kExploreUsage =
    R"(Usage: nocmap explore [options]

Optimize one workload under both application models and report the
execution-time reduction (ETR) and energy-consumption saving (ECS) of the
timing-aware CDCM mapping over the volume-only CWM mapping.

Options:
  --workload NAME   Workload to map (default: paper-example). NAME is
                    "paper-example", any `nocmap workloads` suite name
                    (e.g. romberg-v1, random-big-2), "random" to generate
                    a fresh random CDCG (see --cores/--packets/--bits), or
                    a workload source: file:PATH (.json/.csv/.tgff) or
                    gen:SPEC, with a '#NAME' or '#INDEX' fragment to pick
                    one application from a multi-workload source (see
                    `nocmap workloads --help` and docs/workloads.md).
  --mesh WxH        Mesh size, e.g. 4x4 (default: the workload's own size;
                    2x2 for paper-example).
  --tech NAME       Technology preset: example | 0.35u | 0.07u
                    (default: example for paper-example, 0.07u otherwise).
  --method NAME     Search method: auto | sa | es | bnb | portfolio
                    (default: auto — ES when the symmetry-pruned space is
                    small, SA otherwise). bnb is exact branch and bound:
                    admissible lower-bound pruning with a greedy+SA-seeded
                    incumbent; past --bnb-nodes it falls back to the
                    incumbent (reported as BB/SA). portfolio races SA chains
                    across cooling schedules and move sets (pairwise swaps
                    and the large-neighbourhood catalogue) plus a budgeted
                    B&B member, greedy-seeded, deterministic for any
                    --threads. See docs/search.md.
  --search NAME     Alias for --method.
  --time-budget MS  Wall-clock budget per SA chain / portfolio member in
                    milliseconds, honored at temperature-step boundaries
                    (the cut is recorded as a move-count checkpoint, so the
                    result stays reproducible). Default: none.
  --bnb-nodes N     bnb: node budget (lower-bound tests) before falling
                    back to SA quality (default: 20,000,000). Completed
                    searches are byte-identical for any --threads;
                    budget-truncated runs consume the budget in thread
                    order and reproduce exactly only at --threads 1.
  --topology NAME   NoC topology: mesh | torus | xmesh (default: mesh).
                    torus adds wrap-around links on dimensions of size >= 3;
                    xmesh adds express links every --express-interval tiles.
  --express-interval N
                    xmesh express-link spacing, k >= 2 (default: 2).
  --routing NAME    Routing algorithm: xy | yx | west-first | odd-even
                    (default: xy).
  --seed N          RNG seed driving the SA runs (default: 1).
  --threads N       Worker threads for the SA chains and for the batched
                    CDCM exhaustive search (default: 1). Purely a
                    throughput knob: results are identical for any N.
  --chains N        Independent SA chains per model, best-of-N (default: 1).
  --cost NAME       Timing-aware objective: cdcm (default, Equation 10) or
                    hybrid (CWM-delta prefilter proposes, CDCM verifies at
                    --hybrid-cadence and at every temperature step).
  --hybrid-cadence N
                    With --cost hybrid: verify every Nth priced move with
                    an exact CDCM delta (default: 8; 1 = every move,
                    0 = step resyncs only).
  --ckpt-interval N Enable checkpointed incremental CDCM evaluation: move
                    pricing restores the latest event-loop snapshot taken
                    before the earliest instant the move can affect and
                    replays only the suffix, bitwise-identical to a full
                    resimulation. N is the snapshot cadence in event pops
                    (0 = auto, scaled from the packet count). Ignored —
                    with a full-resimulation fallback — for --backend flit.
  --no-seed-cdcm    Do not seed the CDCM search with the CWM winner.
  --cores N         (--workload random) number of cores (default: 8).
  --packets N       (--workload random) number of packets (default: 32).
  --bits N          (--workload random) total bit volume (default: 4096).
  --backend NAME    Evaluation backend: link (whole-link claims, the paper's
                    model, default) or flit (flit-accurate: finite input
                    buffers, flow control, backpressure). See
                    docs/simulation.md.
  --buffer-depth N  (--backend flit) input-buffer flits per router port
                    (default: 8).
  --flow-control NAME
                    (--backend flit) credit | onoff (default: credit).
  --switching NAME  (--backend flit) wormhole | vct (default: wormhole;
                    vct needs --buffer-depth >= the largest packet).
  --seed-mapping FILE
                    Warm-start the search from the mapping in FILE:
                    whitespace- or comma-separated tile ids (# starts a
                    line comment), one per core
                    (core i starts on the i-th tile listed). The ids must
                    be distinct, in range, and exactly one per application
                    core — anything else is rejected. Every method except
                    es is seeded (es enumerates everything); compare()
                    still reseeds the CDCM half with the CWM winner unless
                    --no-seed-cdcm.
  --csv             Emit CSV instead of aligned text tables.
  -h, --help        Show this message.
)";

constexpr const char* kServeBenchUsage =
    R"(Usage: nocmap serve-bench [options]

Load-test the mapping-as-a-service engine (docs/serving.md): synthesize a
randomized request stream from a gen:SPEC population with a controllable
mix of exact duplicates (relabeled cores) and near-duplicates (relabeled +
payload-perturbed), replay it in batches through the canonical-form result
cache with warm-started search, and report latency percentiles, throughput,
cache hit rates and the warm-start speedup. The JSON report is written to
--out (default BENCH_serve.json; schema in docs/serving.md).

All report fields except wall-clock timings are deterministic in the
options: `results_digest` is byte-identical for any --threads, and — when
every request is unique or the cache is empty — identical between
--bypass-cache and the default cold path.

Options:
  --population SPEC Synthetic population supplying fresh applications
                    (workload gen: grammar, e.g. "apps=64,cores=8,seed=7";
                    default exactly that). Cores must fit the mesh.
  --requests N      Stream length (default: 1000).
  --dup-ratio X     Fraction of requests that are relabeled duplicates of
                    earlier ones (default: 0.35).
  --near-ratio X    Fraction that are relabeled + payload-perturbed
                    near-duplicates (default: 0.25). dup + near <= 1.
  --mesh WxH        Target NoC size (default: 3x3).
  --batch N         Requests per serving batch (default: 16).
  --threads N       Worker threads solving a batch's unique jobs
                    (default: 1). Purely a throughput knob.
  --seed N          Stream-synthesis and search seed (default: 1).
  --objective NAME  cwm | cdcm (default: cwm — the cheap objective keeps
                    the 1000-request replay fast; cdcm load-tests the
                    full wormhole-simulation path).
  --method NAME     auto | sa | bnb | portfolio (default: sa). es is
                    rejected: exhaustive search ignores warm starts.
  --ckpt-interval N Checkpointed incremental CDCM evaluation for the solve
                    paths (0 = auto cadence); results are bitwise-identical
                    either way, so cache entries stay interchangeable.
  --cache-capacity N
                    LRU capacity in cached results (default: 4096).
  --bypass-cache    Solve every request cold; the cache is neither read
                    nor written (the byte-identity baseline the CI leg
                    diffs against).
  --out PATH        Report path (default: BENCH_serve.json).
  --csv             Emit the summary table as CSV.
  -h, --help        Show this message.
)";

constexpr const char* kBenchUsage =
    R"(Usage: nocmap bench [options]

Run the full Table-1 suite (or one NoC size of it) through the Explorer and
print one ETR/ECS row per application — the reproduction of Table 2. With
--perf, run the evaluation-engine microbenchmark instead and write its JSON
report.

Options:
  --noc WxH         Only the applications of one NoC size (e.g. 3x2, 10x10).
  --tech NAME       Technology preset: example | 0.35u | 0.07u
                    (default: 0.07u).
  --method NAME     Search method: auto | sa | es | bnb (default: auto).
  --search NAME     Alias for --method.
  --bnb-nodes N     bnb node budget; also the budget of the --perf bnb
                    rows (default: 20,000,000; --perf default: 100,000).
  --topology NAME   NoC topology: mesh | torus | xmesh (default: mesh); each
                    application keeps its Table-1 grid size.
  --express-interval N
                    xmesh express-link spacing, k >= 2 (default: 2).
  --routing NAME    Routing algorithm: xy | yx | west-first | odd-even
                    (default: xy).
  --seed N          RNG seed driving the SA runs (default: 1).
  --threads N       Worker threads: applications are explored in parallel
                    (default: 1). The printed table is identical for any N.
  --chains N        Independent SA chains per model, best-of-N (default: 1).
  --cost NAME       Timing-aware objective: cdcm (default) or hybrid.
  --hybrid-cadence N
                    With --cost hybrid: CDCM verification cadence
                    (default: 8).
  --ckpt-interval N Checkpointed incremental CDCM evaluation as in
                    `nocmap explore` (0 = auto cadence). --perf/--scale
                    honour it for their checkpointed rows/members.
  --backend NAME    Evaluation backend: link (default) | flit; flit adds
                    --buffer-depth / --flow-control / --switching as in
                    `nocmap explore`.
  --buffer-depth N  (--backend flit) input-buffer flits per port (default 8).
  --flow-control NAME
                    (--backend flit) credit | onoff (default: credit).
  --switching NAME  (--backend flit) wormhole | vct (default: wormhole).
  --perf            Run the evaluation-engine microbenchmark (CWM full vs
                    delta, the CDCM ladder: one-shot / arena / swap-delta /
                    batch x threads / hybrid) and write the JSON report
                    instead of the suite. Honours --topology and
                    --express-interval; --threads sets the batch row's T.
  --scale           Run the paper-scale portfolio benchmark instead: anytime
                    best-cost-vs-moves curves for the large Table-1 boards
                    (default sizes 8x8, 10x10, 12x10), written as
                    BENCH_scale.json. Honours --sizes, --seed, --threads,
                    --bnb-nodes and --time-budget; every reported column
                    except wall_ms is identical for any --threads.
  --workload SRC    --scale: bench a workload source instead of the default
                    boards — suite, file:PATH or gen:SPEC (see
                    `nocmap workloads --help`). Excludes --sizes.
  --time-budget MS  --scale: per-member wall budget (see `explore --help`).
  --sizes LIST      --perf/--scale grid sizes, comma-separated WxH
                    (--perf default: 3x3,...,8x8,10x10,12x10;
                    --scale default: 8x8,10x10,12x10).
  --out FILE        --perf/--scale report path (default: BENCH_eval.json /
                    BENCH_scale.json).
  --csv             Emit CSV instead of aligned text tables.
  -h, --help        Show this message.
)";

constexpr const char* kWorkloadsUsage =
    R"(Usage: nocmap workloads [list|import|export|gen|validate] [options]

Workload ingestion: list, convert, generate and validate application sets
(docs/workloads.md). A workload source SRC is one of:

  suite        the compiled-in Table-1 suite
  file:PATH    a workload file — .json / .csv (the nocmap interchange
               format) or .tgff (TGFF task graphs)
  gen:SPEC     a synthetic population, e.g. gen:apps=200,cores=8,seed=7
               (keys: apps, cores, packets, bits, seed, connectivity,
               burstiness, hotspot, comp, jitter)

These sources are also what `--workload` accepts in explore / sweep /
bench --scale; explore needs a '#NAME' or '#INDEX' fragment to pick one
application from a multi-workload source.

Verbs:
  list [SRC]       List applications, statistics and the source provenance
                   (default verb; default source: the built-in suite).
  import PATH [--out FILE]
                   Read PATH (any supported format) and re-emit it
                   canonically: JSON on stdout, or --out file.json/.csv.
  export SRC --out FILE
                   Materialize any source to a canonical .json/.csv file.
  gen SPEC [--out FILE]
                   Shorthand for `export gen:SPEC`; JSON on stdout
                   without --out.
  validate SRC     Parse and validate, print one line per workload; exits
                   1 with a line/field diagnostic on the first error.

Options:
  --workload SRC    Alternative to the positional SRC.
  --out FILE        Output file for import/export/gen (.json or .csv).
  --csv             list: emit CSV instead of an aligned text table.
  -h, --help        Show this message.
)";

constexpr const char* kSweepUsage =
    R"(Usage: nocmap sweep [options]

Run `explore` once per (topology, routing, seed) combination and aggregate
the ETR/ECS spread — the cheap way to separate model effects from search
noise, and the way to compare topologies on equal footing.

Options:
  --seeds N         Number of seeds to run (default: 5; 1 in suite mode).
  --seed N          First seed (default: 1).
  --workload NAME   As in explore, plus multi-application sources: "suite"
                    runs the full 18-application Table-1 suite, file:PATH /
                    gen:SPEC run every application the source holds (each
                    on its own NoC size).
  --noc WxH         With a multi-application source: only its applications
                    of one NoC size (e.g. 3x2).
  --topology LIST   Comma-separated topologies to sweep, e.g.
                    mesh,torus,xmesh (default: mesh).
  --routing LIST    Comma-separated routing algorithms, e.g. xy,odd-even
                    (default: xy).
  --threads N       Explore the sweep rows in parallel (default: 1); the
                    emitted rows are identical for any N.
  All other `nocmap explore` mesh/tech/method/chains/cost options apply,
  including --backend flit with --buffer-depth/--flow-control/--switching.
  With one topology, one routing and a non-suite workload the historical
  per-seed table is printed; otherwise one row per (topology, routing,
  application, seed) plus per-combination aggregates.
  --csv             Emit CSV instead of aligned text tables.
  -h, --help        Show this message.
)";

// --- Option parsing ----------------------------------------------------------

std::uint64_t parse_u64(const std::string& flag, const std::string& value) {
  // Digits only: std::stoull alone would wrap "-1" to UINT64_MAX.
  if (value.empty() ||
      value.find_first_not_of("0123456789") != std::string::npos) {
    throw UsageError(flag + " expects a non-negative integer, got '" + value +
                     "'");
  }
  try {
    return std::stoull(value);
  } catch (const std::exception&) {
    throw UsageError(flag + " value out of range: '" + value + "'");
  }
}

/// "4x4", "4X4" or "4 x 4" -> (4, 4).
std::pair<std::uint32_t, std::uint32_t> parse_mesh(const std::string& flag,
                                                   const std::string& value) {
  std::string s;
  for (char c : value) {
    if (c == ' ') continue;
    s.push_back(c == 'X' ? 'x' : c);
  }
  std::size_t sep = s.find('x');
  if (sep == std::string::npos || sep == 0 || sep + 1 == s.size()) {
    throw UsageError(flag + " expects WxH (e.g. 4x4), got '" + value + "'");
  }
  auto w = parse_u64(flag, s.substr(0, sep));
  auto h = parse_u64(flag, s.substr(sep + 1));
  // Bound each dimension before any uint32 narrowing, and the tile count to
  // something a mapping search could conceivably handle.
  constexpr std::uint64_t kMaxTiles = 1'000'000;
  if (w > kMaxTiles || h > kMaxTiles || w * h > kMaxTiles) {
    throw UsageError(flag + " mesh too large (at most 1,000,000 tiles), got '" +
                     value + "'");
  }
  if (w == 0 || h == 0 || w * h < 2) {
    throw UsageError(flag + " needs at least two tiles, got '" + value + "'");
  }
  return {static_cast<std::uint32_t>(w), static_cast<std::uint32_t>(h)};
}

energy::Technology parse_tech(const std::string& value) {
  if (value == "example") return energy::example_technology();
  if (value == "0.35u" || value == "0.35") return energy::technology_0_35u();
  if (value == "0.07u" || value == "0.07") return energy::technology_0_07u();
  throw UsageError("--tech expects example | 0.35u | 0.07u, got '" + value +
                   "'");
}

core::SearchMethod parse_method(const std::string& value) {
  if (value == "auto") return core::SearchMethod::kAuto;
  if (value == "sa") return core::SearchMethod::kSimulatedAnnealing;
  if (value == "es") return core::SearchMethod::kExhaustive;
  if (value == "bnb") return core::SearchMethod::kBranchAndBound;
  if (value == "portfolio" || value == "pf") {
    return core::SearchMethod::kPortfolio;
  }
  throw UsageError("--method expects auto | sa | es | bnb | portfolio, got '" +
                   value + "'");
}

sim::SimBackend parse_backend(const std::string& value) {
  if (value == "link" || value == "link-claim") {
    return sim::SimBackend::kLinkClaim;
  }
  if (value == "flit") return sim::SimBackend::kFlit;
  throw UsageError("--backend expects link | flit, got '" + value + "'");
}

sim::FlowControl parse_flow_control(const std::string& value) {
  if (value == "credit") return sim::FlowControl::kCredit;
  if (value == "onoff" || value == "on-off") return sim::FlowControl::kOnOff;
  throw UsageError("--flow-control expects credit | onoff, got '" + value +
                   "'");
}

sim::Switching parse_switching(const std::string& value) {
  if (value == "wormhole") return sim::Switching::kWormhole;
  if (value == "vct" || value == "virtual-cut-through") {
    return sim::Switching::kVirtualCutThrough;
  }
  throw UsageError("--switching expects wormhole | vct, got '" + value + "'");
}

noc::RoutingAlgorithm parse_routing(const std::string& value) {
  try {
    return noc::routing_algorithm_from_name(value);
  } catch (const std::invalid_argument&) {
    throw UsageError("--routing expects xy | yx | west-first | odd-even, got '" +
                     value + "'");
  }
}

/// "a,b,c" -> {"a", "b", "c"}; empty items are usage errors.
std::vector<std::string> split_list(const std::string& flag,
                                    const std::string& value) {
  std::vector<std::string> items;
  std::string item;
  std::istringstream is(value);
  while (std::getline(is, item, ',')) {
    if (item.empty()) throw UsageError(flag + ": empty list item");
    items.push_back(item);
  }
  if (items.empty()) throw UsageError(flag + " expects a value");
  return items;
}

std::vector<std::string> parse_topologies(const std::string& value) {
  std::vector<std::string> kinds = split_list("--topology", value);
  for (const std::string& kind : kinds) {
    const auto& known = noc::topology_kinds();
    if (std::find(known.begin(), known.end(), kind) == known.end()) {
      throw UsageError("--topology expects mesh | torus | xmesh, got '" +
                       kind + "'");
    }
  }
  return kinds;
}

std::vector<noc::RoutingAlgorithm> parse_routings(const std::string& value) {
  std::vector<noc::RoutingAlgorithm> algos;
  for (const std::string& name : split_list("--routing", value)) {
    algos.push_back(parse_routing(name));
  }
  return algos;
}

/// Options shared by explore / bench / sweep.
struct RunOptions {
  std::string workload = "paper-example";
  bool workload_set = false;  ///< --workload was given explicitly.
  std::optional<std::pair<std::uint32_t, std::uint32_t>> mesh;
  std::optional<energy::Technology> tech;
  core::SearchMethod method = core::SearchMethod::kAuto;
  std::uint64_t bnb_nodes = 0;  ///< 0 = the engine's default budget.
  /// Sweep accepts comma-separated lists; every other subcommand requires a
  /// single entry (enforced by require_single_noc()).
  std::vector<std::string> topologies = {"mesh"};
  std::vector<noc::RoutingAlgorithm> routings = {noc::RoutingAlgorithm::kXY};
  std::uint64_t express_interval = 2;
  std::uint64_t seed = 1;
  bool seed_cdcm_with_cwm = true;
  std::uint64_t random_cores = 8;
  std::uint64_t random_packets = 32;
  std::uint64_t random_bits = 4096;
  std::uint64_t threads = 1;
  std::uint64_t chains = 1;
  core::TimingCostMode timing_cost = core::TimingCostMode::kCdcm;
  std::uint64_t hybrid_cadence = 8;
  /// --ckpt-interval: presence enables checkpointed incremental CDCM
  /// evaluation; the value is the snapshot cadence in pops (0 = auto).
  bool checkpoints = false;
  std::uint64_t ckpt_interval = 0;
  sim::SimBackend sim_backend = sim::SimBackend::kLinkClaim;
  std::uint64_t buffer_depth = 8;
  sim::FlowControl flow_control = sim::FlowControl::kCredit;
  sim::Switching switching = sim::Switching::kWormhole;
  /// Track explicit use of the flit-only knobs so --buffer-depth & co.
  /// without --backend flit can be rejected instead of silently ignored.
  bool flit_knob_set = false;
  /// bench --perf / --scale only: explicit grid sizes.
  std::vector<std::pair<std::uint32_t, std::uint32_t>> perf_sizes;
  std::optional<std::string> noc_filter;  // bench only
  bool perf = false;                      // bench only
  bool scale = false;                     // bench only
  std::optional<std::string> out_path;    // bench --perf/--scale only
  /// explore/sweep/bench --scale: per-chain / per-member wall budget in ms
  /// (0 = none). Honored at temperature-step boundaries only, so any cut is
  /// reproducible from the recorded move-count checkpoint.
  std::uint64_t time_budget_ms = 0;
  std::uint64_t num_seeds = 5;            // sweep only
  bool seeds_set = false;                 // sweep only
  /// explore only: warm-start mapping file (--seed-mapping).
  std::optional<std::string> seed_mapping_path;
  bool csv = false;
};

/// Parse a --seed-mapping file: whitespace- or comma-separated tile ids,
/// one per core. Count/range/injectivity are validated by the Explorer,
/// which knows the application and topology.
std::vector<noc::TileId> load_seed_mapping(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw UsageError("--seed-mapping: cannot read '" + path + "'");
  std::vector<noc::TileId> tiles;
  std::string line;
  while (std::getline(in, line)) {
    // Strip `#` line comments, then accept whitespace or comma separators.
    line = line.substr(0, line.find('#'));
    std::istringstream ls(line);
    std::string token;
    while (ls >> token) {
      std::istringstream ts(token);
      std::string item;
      while (std::getline(ts, item, ',')) {
        if (item.empty()) continue;
        const std::uint64_t v = parse_u64("--seed-mapping", item);
        if (v > std::numeric_limits<noc::TileId>::max()) {
          throw UsageError("--seed-mapping: tile id " + item +
                           " out of range");
        }
        tiles.push_back(static_cast<noc::TileId>(v));
      }
    }
  }
  if (tiles.empty()) {
    throw UsageError("--seed-mapping: '" + path + "' contains no tile ids");
  }
  return tiles;
}

/// Parse argv[2..] for a subcommand. `usage` is printed for -h/--help;
/// `allowed` is the set of flags this subcommand actually consumes — anything
/// else is a usage error rather than a silently ignored no-op.
RunOptions parse_run_options(int argc, char** argv, const char* usage,
                             const std::vector<std::string>& allowed) {
  RunOptions opts;
  auto value = [&](int& i, const std::string& flag) -> std::string {
    if (i + 1 >= argc) throw UsageError(flag + " expects a value");
    return argv[++i];
  };
  for (int i = 2; i < argc; ++i) {
    std::string a = argv[i];
    if (a == "-h" || a == "--help") {
      std::cout << usage;
      std::exit(0);
    }
    if (a != "--csv" &&
        std::find(allowed.begin(), allowed.end(), a) == allowed.end()) {
      std::string hint = "option '" + a + "' is not valid for `nocmap " +
                         std::string(argv[1]) + "`";
      throw UsageError(hint);
    }
    if (a == "--workload") {
      opts.workload = value(i, a);
      opts.workload_set = true;
    } else if (a == "--mesh") {
      opts.mesh = parse_mesh(a, value(i, a));
    } else if (a == "--tech") {
      opts.tech = parse_tech(value(i, a));
    } else if (a == "--method" || a == "--search") {
      opts.method = parse_method(value(i, a));
    } else if (a == "--bnb-nodes") {
      opts.bnb_nodes = parse_u64(a, value(i, a));
      if (opts.bnb_nodes == 0) throw UsageError("--bnb-nodes must be >= 1");
    } else if (a == "--topology") {
      opts.topologies = parse_topologies(value(i, a));
    } else if (a == "--express-interval") {
      opts.express_interval = parse_u64(a, value(i, a));
      if (opts.express_interval < 2 || opts.express_interval > 1'000'000) {
        throw UsageError("--express-interval must be in [2, 1,000,000]");
      }
    } else if (a == "--routing") {
      opts.routings = parse_routings(value(i, a));
    } else if (a == "--seed") {
      opts.seed = parse_u64(a, value(i, a));
    } else if (a == "--seeds") {
      opts.num_seeds = parse_u64(a, value(i, a));
      opts.seeds_set = true;
      if (opts.num_seeds == 0) throw UsageError("--seeds must be >= 1");
    } else if (a == "--no-seed-cdcm") {
      opts.seed_cdcm_with_cwm = false;
    } else if (a == "--cores") {
      opts.random_cores = parse_u64(a, value(i, a));
    } else if (a == "--packets") {
      opts.random_packets = parse_u64(a, value(i, a));
    } else if (a == "--bits") {
      opts.random_bits = parse_u64(a, value(i, a));
    } else if (a == "--threads") {
      opts.threads = parse_u64(a, value(i, a));
      if (opts.threads == 0 || opts.threads > 1024) {
        throw UsageError("--threads must be in [1, 1024]");
      }
    } else if (a == "--chains") {
      opts.chains = parse_u64(a, value(i, a));
      if (opts.chains == 0 || opts.chains > 4096) {
        throw UsageError("--chains must be in [1, 4096]");
      }
    } else if (a == "--cost") {
      const std::string v = value(i, a);
      if (v == "cdcm") {
        opts.timing_cost = core::TimingCostMode::kCdcm;
      } else if (v == "hybrid") {
        opts.timing_cost = core::TimingCostMode::kHybrid;
      } else {
        throw UsageError("--cost expects cdcm | hybrid, got '" + v + "'");
      }
    } else if (a == "--hybrid-cadence") {
      opts.hybrid_cadence = parse_u64(a, value(i, a));
      if (opts.hybrid_cadence > 1'000'000) {
        throw UsageError("--hybrid-cadence must be at most 1,000,000");
      }
    } else if (a == "--ckpt-interval") {
      opts.checkpoints = true;
      opts.ckpt_interval = parse_u64(a, value(i, a));
      if (opts.ckpt_interval > 1'000'000'000) {
        throw UsageError("--ckpt-interval must be at most 1,000,000,000");
      }
    } else if (a == "--backend") {
      opts.sim_backend = parse_backend(value(i, a));
    } else if (a == "--buffer-depth") {
      opts.buffer_depth = parse_u64(a, value(i, a));
      opts.flit_knob_set = true;
      if (opts.buffer_depth == 0 || opts.buffer_depth > (1u << 20)) {
        throw UsageError("--buffer-depth must be in [1, 1,048,576]");
      }
    } else if (a == "--flow-control") {
      opts.flow_control = parse_flow_control(value(i, a));
      opts.flit_knob_set = true;
    } else if (a == "--switching") {
      opts.switching = parse_switching(value(i, a));
      opts.flit_knob_set = true;
    } else if (a == "--sizes") {
      for (const std::string& item : split_list(a, value(i, a))) {
        opts.perf_sizes.push_back(parse_mesh(a, item));
      }
    } else if (a == "--perf") {
      opts.perf = true;
    } else if (a == "--scale") {
      opts.scale = true;
    } else if (a == "--time-budget") {
      opts.time_budget_ms = parse_u64(a, value(i, a));
      if (opts.time_budget_ms == 0 || opts.time_budget_ms > 86'400'000) {
        throw UsageError("--time-budget expects milliseconds in [1, 86,400,000]");
      }
    } else if (a == "--seed-mapping") {
      opts.seed_mapping_path = value(i, a);
    } else if (a == "--out") {
      opts.out_path = value(i, a);
    } else if (a == "--noc") {
      auto wh = parse_mesh(a, value(i, a));
      opts.noc_filter =
          std::to_string(wh.first) + " x " + std::to_string(wh.second);
    } else if (a == "--csv") {
      opts.csv = true;
    } else {
      throw UsageError("unknown option '" + a + "'");
    }
  }
  if (opts.flit_knob_set && opts.sim_backend != sim::SimBackend::kFlit) {
    throw UsageError(
        "--buffer-depth/--flow-control/--switching require --backend flit");
  }
  return opts;
}

// --- Workload resolution -----------------------------------------------------

/// Single-entry check for subcommands without sweep semantics.
void require_single_noc(const RunOptions& opts, const char* sub) {
  if (opts.topologies.size() != 1 || opts.routings.size() != 1) {
    throw UsageError(std::string("`nocmap ") + sub +
                     "` takes a single --topology and --routing "
                     "(comma-separated lists are for `nocmap sweep`)");
  }
}

noc::TopologyOptions topology_options(const RunOptions& opts) {
  noc::TopologyOptions to;
  to.express_interval = static_cast<std::uint32_t>(opts.express_interval);
  return to;
}

/// Split "file:apps.json#romberg-v1" into (source spec, fragment).
std::pair<std::string, std::string> split_fragment(const std::string& spec) {
  const std::size_t hash = spec.rfind('#');
  if (hash == std::string::npos) return {spec, ""};
  return {spec.substr(0, hash), spec.substr(hash + 1)};
}

/// make_workload_source() with spec mistakes reported as usage errors
/// (exit 2); malformed file *contents* stay ParseError (exit 1).
std::unique_ptr<workload::WorkloadSource> open_source(
    const std::string& spec) {
  try {
    return workload::make_workload_source(spec);
  } catch (const std::invalid_argument& e) {
    throw UsageError(e.what());
  }
}

/// A workload bound to its target topology, ready for the Explorer.
struct BoundWorkload {
  std::string name;
  graph::Cdcg cdcg;
  std::unique_ptr<noc::Topology> topo;
  energy::Technology tech;
};

BoundWorkload resolve_workload(const RunOptions& opts) {
  std::uint32_t width = 0;
  std::uint32_t height = 0;
  graph::Cdcg cdcg;
  std::string display_name = opts.workload;
  energy::Technology default_tech = energy::technology_0_07u();
  const auto [source_spec, fragment] = split_fragment(opts.workload);

  if (workload::is_source_spec(source_spec)) {
    const std::unique_ptr<workload::WorkloadSource> source =
        open_source(source_spec);
    std::size_t index = 0;
    if (!fragment.empty()) {
      const bool numeric =
          std::all_of(fragment.begin(), fragment.end(), [](unsigned char c) {
            return c >= '0' && c <= '9';
          });
      if (numeric) {
        index = static_cast<std::size_t>(parse_u64("--workload", fragment));
        if (index >= source->size()) {
          throw UsageError("--workload fragment #" + fragment +
                           " is out of range: " + source->name() + " holds " +
                           std::to_string(source->size()) + " workloads");
        }
      } else {
        index = source->find(fragment);
        if (index == source->size()) {
          throw UsageError("no workload named '" + fragment + "' in " +
                           source->name());
        }
      }
    } else if (source->size() != 1) {
      throw UsageError("source " + source->name() + " holds " +
                       std::to_string(source->size()) +
                       " workloads; select one with a '#' fragment, e.g. "
                       "--workload '" +
                       source_spec + "#NAME' (or #INDEX)");
    }
    workload::WorkloadApp app = source->app(index);
    // stderr: stdout stays parseable under --csv.
    std::cerr << "workload source: " << source->provenance() << "\n";
    display_name = app.name;
    width = app.noc_width;
    height = app.noc_height;
    cdcg = std::move(app.cdcg);
  } else if (opts.workload == "paper-example") {
    cdcg = workload::paper_example_cdcg();
    width = 2;
    height = 2;
    default_tech = energy::example_technology();
  } else if (opts.workload == "random") {
    constexpr std::uint64_t kMaxRandomSize = 1'000'000;
    if (opts.random_cores > kMaxRandomSize ||
        opts.random_packets > kMaxRandomSize) {
      throw UsageError("--cores/--packets are limited to 1,000,000");
    }
    workload::RandomCdcgParams params;
    params.num_cores = static_cast<std::uint32_t>(opts.random_cores);
    params.num_packets = static_cast<std::uint32_t>(opts.random_packets);
    params.total_bits = opts.random_bits;
    util::Rng rng(opts.seed);
    cdcg = workload::generate_random_cdcg(params, rng);
    // Smallest near-square mesh that fits the cores.
    std::uint32_t tiles = params.num_cores < 2 ? 2 : params.num_cores;
    width = 1;
    while (width * width < tiles) ++width;
    height = (tiles + width - 1) / width;
  } else {
    bool found = false;
    for (workload::SuiteEntry& e : workload::table1_suite()) {
      if (e.name == opts.workload) {
        cdcg = std::move(e.cdcg);
        width = e.noc_width;
        height = e.noc_height;
        found = true;
        break;
      }
    }
    if (!found) {
      throw UsageError("unknown workload '" + opts.workload +
                       "' (see `nocmap workloads`)");
    }
  }

  if (opts.mesh) {
    width = opts.mesh->first;
    height = opts.mesh->second;
  }
  if (cdcg.num_cores() > static_cast<std::size_t>(width) * height) {
    throw UsageError("workload '" + opts.workload + "' has " +
                     std::to_string(cdcg.num_cores()) +
                     " cores but the mesh only has " +
                     std::to_string(width * height) + " tiles");
  }
  return BoundWorkload{std::move(display_name), std::move(cdcg),
                       noc::make_topology(opts.topologies.front(), width,
                                          height, topology_options(opts)),
                       opts.tech ? *opts.tech : default_tech};
}

core::ExplorerOptions explorer_options(const RunOptions& opts,
                                       const energy::Technology& tech) {
  core::ExplorerOptions eo;
  eo.tech = tech;
  eo.routing = opts.routings.front();
  eo.method = opts.method;
  eo.seed = opts.seed;
  eo.seed_cdcm_with_cwm = opts.seed_cdcm_with_cwm;
  eo.threads = static_cast<std::uint32_t>(opts.threads);
  eo.sa_chains = static_cast<std::uint32_t>(opts.chains);
  eo.timing_cost = opts.timing_cost;
  eo.hybrid_cadence = static_cast<std::uint32_t>(opts.hybrid_cadence);
  eo.cdcm_checkpoints = opts.checkpoints;
  eo.ckpt_interval = static_cast<std::uint32_t>(opts.ckpt_interval);
  eo.sim_backend = opts.sim_backend;
  eo.buffer_depth = static_cast<std::uint32_t>(opts.buffer_depth);
  eo.flow_control = opts.flow_control;
  eo.switching = opts.switching;
  if (opts.bnb_nodes != 0) eo.bnb.max_nodes = opts.bnb_nodes;
  eo.time_budget_ms = static_cast<double>(opts.time_budget_ms);
  if (opts.seed_mapping_path) {
    eo.seed_assignment = load_seed_mapping(*opts.seed_mapping_path);
  }
  return eo;
}

/// Run `job(i)` for i in [0, count) on up to `threads` workers. Results are
/// produced by index, so the output order — and everything the caller
/// renders — is independent of the thread count.
void parallel_for_index(std::uint64_t threads, std::size_t count,
                        const std::function<void(std::size_t)>& job) {
  const std::size_t workers =
      std::min<std::size_t>(std::max<std::uint64_t>(threads, 1), count);
  if (workers <= 1) {
    for (std::size_t i = 0; i < count; ++i) job(i);
    return;
  }
  std::atomic<std::size_t> next{0};
  std::mutex error_mutex;
  std::exception_ptr first_error;
  std::vector<std::thread> pool;
  pool.reserve(workers);
  for (std::size_t w = 0; w < workers; ++w) {
    pool.emplace_back([&] {
      for (;;) {
        const std::size_t i = next.fetch_add(1);
        if (i >= count) return;
        try {
          job(i);
        } catch (...) {
          const std::lock_guard<std::mutex> lock(error_mutex);
          if (!first_error) first_error = std::current_exception();
        }
      }
    });
  }
  for (std::thread& t : pool) t.join();
  if (first_error) std::rethrow_exception(first_error);
}

void print_table(const util::TextTable& table, bool csv) {
  std::cout << (csv ? table.to_csv() : table.to_string());
}

/// Cell formatting that adapts to the output mode: human units in table
/// mode, raw machine-parseable numbers in CSV mode (units move into the
/// header via head()).
class Fmt {
 public:
  explicit Fmt(bool csv) : csv_(csv) {}

  std::string head(const std::string& plain, const std::string& unit) const {
    return csv_ ? plain + "_" + unit : plain;
  }
  std::string count(std::uint64_t v) const {
    return csv_ ? std::to_string(v) : util::format_grouped(v);
  }
  std::string energy(double joule) const {
    if (!csv_) return util::format_energy_j(joule);
    std::ostringstream os;
    os.precision(9);
    os << joule;
    return os.str();
  }
  std::string time(double ns) const {
    return csv_ ? util::format_fixed(ns, 3) : util::format_time_ns(ns);
  }
  std::string percent(double fraction) const {
    return csv_ ? util::format_fixed(fraction * 100.0, 2)
                : util::format_percent(fraction);
  }

 private:
  bool csv_;
};

// --- Subcommands -------------------------------------------------------------

int cmd_explore(const RunOptions& opts) {
  require_single_noc(opts, "explore");
  BoundWorkload wl = resolve_workload(opts);
  core::Explorer explorer(wl.cdcg, *wl.topo, explorer_options(opts, wl.tech));
  core::Comparison cmp = explorer.compare();
  Fmt fmt(opts.csv);

  util::TextTable table(
      {"Model", "Method", "Evaluations", fmt.head("Objective", "J"),
       fmt.head("Texec", "ns"), fmt.head("Dynamic E", "J"),
       fmt.head("Static E", "J"), fmt.head("Total E", "J"),
       fmt.head("Contention", "ns")});
  table.set_title("nocmap explore — " + wl.name + " on " +
                  wl.topo->label() + ", " + wl.tech.name);
  for (const core::ModelOutcome* outcome : {&cmp.cwm, &cmp.cdcm}) {
    table.add_row({outcome->model, outcome->method,
                   fmt.count(outcome->evaluations),
                   fmt.energy(outcome->objective_j),
                   fmt.time(outcome->sim.texec_ns),
                   fmt.energy(outcome->sim.energy.dynamic_j),
                   fmt.energy(outcome->sim.energy.static_j),
                   fmt.energy(outcome->sim.energy.total_j()),
                   fmt.time(outcome->sim.total_contention_ns)});
  }
  print_table(table, opts.csv);

  util::TextTable summary({"Metric", fmt.head("Value", "pct")});
  summary.add_row({"ETR (execution-time reduction)",
                   fmt.percent(cmp.execution_time_reduction())});
  summary.add_row({"ECS (energy saving, " + wl.tech.name + ")",
                   fmt.percent(cmp.energy_saving())});
  print_table(summary, opts.csv);

  if (opts.method == core::SearchMethod::kBranchAndBound) {
    // For a completed search (Complete = yes) every counter is
    // deterministic for any --threads value (the engine's subtree tasks
    // never share pruning state), so this table is safe to diff in CI.
    // Budget-truncated runs consume the global budget in thread order and
    // are only reproducible at --threads 1.
    util::TextTable bnb({"Model", "Budget", "Tested", "Visited", "Pruned",
                         fmt.head("Pruned", "pct"), "Complete"});
    bnb.set_title("branch & bound — nodes");
    for (const core::ModelOutcome* outcome : {&cmp.cwm, &cmp.cdcm}) {
      // A saturated eliminated-volume count is not a number: say so and
      // leave its fraction blank.
      const std::optional<double> frac = search::pruned_fraction(
          outcome->bnb_nodes_visited, outcome->bnb_nodes_pruned);
      bnb.add_row({outcome->model, fmt.count(outcome->bnb_node_budget),
                   fmt.count(outcome->bnb_nodes_tested),
                   fmt.count(outcome->bnb_nodes_visited),
                   frac ? fmt.count(outcome->bnb_nodes_pruned) : "saturated",
                   frac ? fmt.percent(*frac) : "",
                   outcome->bnb_complete ? "yes" : "no"});
    }
    print_table(bnb, opts.csv);
  }

  if (opts.method == core::SearchMethod::kPortfolio) {
    // Every column is deterministic in (seed, roster, budgets) — identical
    // for any --threads — so this table is safe to diff in CI.
    util::TextTable pf({"Model", "Members", "Winner", "Polish", "Cut"});
    pf.set_title("portfolio — racing roster");
    for (const core::ModelOutcome* outcome : {&cmp.cwm, &cmp.cdcm}) {
      pf.add_row({outcome->model, std::to_string(outcome->portfolio_members),
                  outcome->portfolio_winner,
                  fmt.count(outcome->portfolio_polish),
                  outcome->portfolio_cut ? "yes" : "no"});
    }
    print_table(pf, opts.csv);
  }
  return 0;
}

int cmd_bench_perf(const RunOptions& opts) {
  require_single_noc(opts, "bench");
  core::EvalBenchOptions options;
  // Quick budgets: this entry point doubles as the CI smoke step. The
  // full-budget run is the bench_cost_eval binary.
  options.min_time_s = 0.05;
  options.seed = opts.seed;
  options.sizes = opts.perf_sizes;
  if (options.sizes.empty()) {
    // The quick CLI ladder: the library's square 3x3..8x8 default plus the
    // paper's two large boards. run_eval_bench caps the B&B node budget
    // past 64 tiles, so these rows stay smoke-test cheap. (The full-budget
    // bench_cost_eval binary keeps the historical square ladder.)
    for (std::uint32_t side = 3; side <= 8; ++side) {
      options.sizes.emplace_back(side, side);
    }
    options.sizes.emplace_back(10, 10);
    options.sizes.emplace_back(12, 10);
  }
  options.topology = opts.topologies.front();
  options.express_interval =
      static_cast<std::uint32_t>(opts.express_interval);
  options.batch_threads =
      std::max<std::uint32_t>(2, static_cast<std::uint32_t>(opts.threads));
  options.hybrid_cadence = static_cast<std::uint32_t>(opts.hybrid_cadence);
  options.ckpt_interval = static_cast<std::uint32_t>(opts.ckpt_interval);
  options.alloc_count = &cli_allocation_count;
  // Quick default budget too: the 3x3/4x4 exact searches finish far below
  // it (the 4x4 bench instance needs ~36k tests), and the larger boards
  // just report a truncated run without stalling the smoke.
  options.bnb_max_nodes = opts.bnb_nodes != 0 ? opts.bnb_nodes : 100'000;
  const core::EvalBenchReport report = core::run_eval_bench(options);

  Fmt fmt(opts.csv);
  const std::string batch_t =
      "CDCM batch x" + std::to_string(options.batch_threads);
  util::TextTable table(
      {"NoC", "Cores", fmt.head("CWM legacy", "eval_s"),
       fmt.head("CWM delta", "eval_s"),
       fmt.head("CDCM 1-shot", "eval_s"), fmt.head("CDCM reuse", "eval_s"),
       fmt.head("CDCM delta", "eval_s"), fmt.head("CDCM ckpt", "eval_s"),
       fmt.head(batch_t, "eval_s"),
       fmt.head("Hybrid", "eval_s"), fmt.head("B&B pruned", "pct"),
       "B&B done"});
  table.set_title("nocmap bench --perf — evaluations/second, " +
                  options.topology);
  for (const core::EvalBenchRow& r : report.rows) {
    table.add_row({std::to_string(r.mesh_width) + "x" +
                       std::to_string(r.mesh_height),
                   std::to_string(r.num_cores),
                   fmt.count(static_cast<std::uint64_t>(r.cwm_legacy_per_s)),
                   fmt.count(static_cast<std::uint64_t>(r.cwm_delta_per_s)),
                   fmt.count(static_cast<std::uint64_t>(r.cdcm_oneshot_per_s)),
                   fmt.count(static_cast<std::uint64_t>(r.cdcm_reuse_per_s)),
                   fmt.count(static_cast<std::uint64_t>(r.cdcm_delta_per_s)),
                   fmt.count(static_cast<std::uint64_t>(r.cdcm_ckpt_per_s)),
                   fmt.count(static_cast<std::uint64_t>(r.cdcm_batch_t_per_s)),
                   fmt.count(static_cast<std::uint64_t>(r.hybrid_per_s)),
                   r.bnb_pruned_saturated() ? ""
                                            : fmt.percent(*r.bnb_pruned_frac()),
                   r.bnb_complete ? "yes" : "no"});
  }
  print_table(table, opts.csv);

  const std::string out_path = opts.out_path.value_or("BENCH_eval.json");
  std::ofstream out(out_path);
  if (!out) {
    throw std::runtime_error("cannot write " + out_path);
  }
  out << report.to_json();
  // stderr: stdout must stay parseable under --csv.
  std::cerr << "wrote " << out_path << "\n";
  return 0;
}

int cmd_bench_scale(const RunOptions& opts) {
  require_single_noc(opts, "bench");
  if (opts.topologies.front() != "mesh") {
    throw UsageError("bench --scale runs the paper's mesh boards only");
  }
  core::ScaleBenchOptions options;
  if (!opts.perf_sizes.empty()) options.sizes = opts.perf_sizes;
  if (opts.workload_set) {
    if (!opts.perf_sizes.empty()) {
      throw UsageError(
          "bench --scale takes either --workload or --sizes, not both");
    }
    const auto [spec, fragment] = split_fragment(opts.workload);
    if (!workload::is_source_spec(spec)) {
      throw UsageError("bench --scale --workload expects a source spec "
                       "(suite, file:PATH or gen:SPEC), got '" +
                       opts.workload + "'");
    }
    if (!fragment.empty()) {
      throw UsageError("bench --scale benches whole sources; drop the '#" +
                       fragment + "' fragment");
    }
    const std::unique_ptr<workload::WorkloadSource> source =
        open_source(spec);
    std::cerr << "workload source: " << source->provenance() << "\n";
    for (std::size_t i = 0; i < source->size(); ++i) {
      workload::WorkloadApp app = source->app(i);
      core::ScaleBenchWorkload w;
      w.name = std::move(app.name);
      w.width = app.noc_width;
      w.height = app.noc_height;
      w.cdcg = std::move(app.cdcg);
      options.workloads.push_back(std::move(w));
    }
  }
  options.seed = opts.seed;
  options.threads = static_cast<std::uint32_t>(opts.threads);
  options.time_budget_ms = static_cast<double>(opts.time_budget_ms);
  if (opts.bnb_nodes != 0) options.bnb_nodes = opts.bnb_nodes;
  const core::ScaleBenchReport report = core::run_scale_bench(options);

  // Deterministic columns only (best_j, moves, winner — never wall clock),
  // so CI can diff this table across thread counts byte-for-byte.
  Fmt fmt(opts.csv);
  util::TextTable table({"NoC", "Application", "Cores", "Members", "Winner",
                         fmt.head("Greedy", "J"), fmt.head("Best", "J"),
                         "Evaluations", "Polish", "Cut"});
  table.set_title("nocmap bench --scale — portfolio anytime search");
  for (const core::ScaleBenchRow& r : report.rows) {
    table.add_row({std::to_string(r.mesh_width) + "x" +
                       std::to_string(r.mesh_height),
                   r.application, std::to_string(r.num_cores),
                   std::to_string(r.members), r.winner,
                   fmt.energy(r.initial_j), fmt.energy(r.best_j),
                   fmt.count(r.evaluations), fmt.count(r.polish_applied),
                   r.time_cut ? "yes" : "no"});
  }
  print_table(table, opts.csv);

  const std::string out_path = opts.out_path.value_or("BENCH_scale.json");
  std::ofstream out(out_path);
  if (!out) {
    throw std::runtime_error("cannot write " + out_path);
  }
  out << report.to_json();
  std::cerr << "wrote " << out_path << "\n";
  return 0;
}

int cmd_bench(const RunOptions& opts) {
  if (opts.perf && opts.scale) {
    throw UsageError("--perf and --scale are mutually exclusive");
  }
  if (opts.workload_set && !opts.scale) {
    throw UsageError("`nocmap bench` accepts --workload only with --scale "
                     "(the plain bench always runs the Table-1 suite)");
  }
  if (opts.perf) return cmd_bench_perf(opts);
  if (opts.scale) return cmd_bench_scale(opts);
  require_single_noc(opts, "bench");
  std::vector<workload::SuiteEntry> suite =
      opts.noc_filter ? workload::table1_suite_for(*opts.noc_filter)
                      : workload::table1_suite();
  energy::Technology tech = opts.tech ? *opts.tech : energy::technology_0_07u();

  Fmt fmt(opts.csv);
  util::TextTable table({"Application", "NoC", "Cores", "Packets", "Bits",
                         "Method", fmt.head("ETR", "pct"),
                         fmt.head("ECS", "pct")});
  // The historical title is kept byte-for-byte on the mesh path.
  const std::string& topology = opts.topologies.front();
  table.set_title("nocmap bench — Table-1 suite, " + tech.name +
                  (topology == "mesh" ? "" : ", " + topology));

  // Explore every application, in parallel when --threads allows: each entry
  // is an independent Explorer run with its own seed-derived randomness, so
  // the collected rows do not depend on the thread count. The worker budget
  // is spent at the application level; each Explorer runs its chains
  // serially (otherwise --threads would multiply into threads^2 workers).
  RunOptions per_app = opts;
  if (suite.size() > 1) per_app.threads = 1;
  std::vector<std::optional<core::Comparison>> comparisons(suite.size());
  parallel_for_index(opts.threads, suite.size(), [&](std::size_t i) {
    const workload::SuiteEntry& entry = suite[i];
    const std::unique_ptr<noc::Topology> topo = noc::make_topology(
        topology, entry.noc_width, entry.noc_height, topology_options(opts));
    core::Explorer explorer(entry.cdcg, *topo,
                            explorer_options(per_app, tech));
    comparisons[i] = explorer.compare();
  });

  std::string current_size;
  for (std::size_t i = 0; i < suite.size(); ++i) {
    const workload::SuiteEntry& entry = suite[i];
    const core::Comparison& cmp = *comparisons[i];
    if (!current_size.empty() && entry.noc_size_label() != current_size) {
      table.add_separator();
    }
    current_size = entry.noc_size_label();
    table.add_row({entry.name, entry.noc_size_label(),
                   std::to_string(entry.paper_cores),
                   std::to_string(entry.paper_packets),
                   fmt.count(entry.paper_bits), cmp.cdcm.method,
                   fmt.percent(cmp.execution_time_reduction()),
                   fmt.percent(cmp.energy_saving())});
  }
  print_table(table, opts.csv);
  return 0;
}

double parse_ratio(const std::string& flag, const std::string& value) {
  try {
    std::size_t pos = 0;
    const double v = std::stod(value, &pos);
    if (pos != value.size() || !(v >= 0.0) || !(v <= 1.0)) {
      throw std::invalid_argument(value);
    }
    return v;
  } catch (const std::exception&) {
    throw UsageError(flag + " expects a fraction in [0, 1], got '" + value +
                     "'");
  }
}

int cmd_serve_bench(int argc, char** argv) {
  serve::ServeBenchOptions options;
  options.serve.explorer.tech = energy::technology_0_07u();
  options.serve.explorer.method = core::SearchMethod::kSimulatedAnnealing;
  options.serve.objective = serve::Objective::kCwm;
  std::string out_path = "BENCH_serve.json";
  bool csv = false;

  auto value = [&](int& i, const std::string& flag) -> std::string {
    if (i + 1 >= argc) throw UsageError(flag + " expects a value");
    return argv[++i];
  };
  for (int i = 2; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "-h" || a == "--help") {
      std::cout << kServeBenchUsage;
      return 0;
    } else if (a == "--population") {
      options.population = value(i, a);
    } else if (a == "--requests") {
      options.requests =
          static_cast<std::uint32_t>(parse_u64(a, value(i, a)));
      if (options.requests == 0 || options.requests > 10'000'000) {
        throw UsageError("--requests must be in [1, 10,000,000]");
      }
    } else if (a == "--dup-ratio") {
      options.dup_ratio = parse_ratio(a, value(i, a));
    } else if (a == "--near-ratio") {
      options.near_ratio = parse_ratio(a, value(i, a));
    } else if (a == "--mesh") {
      const auto wh = parse_mesh(a, value(i, a));
      options.mesh_width = wh.first;
      options.mesh_height = wh.second;
    } else if (a == "--batch") {
      options.batch = static_cast<std::uint32_t>(parse_u64(a, value(i, a)));
      if (options.batch == 0 || options.batch > 1'000'000) {
        throw UsageError("--batch must be in [1, 1,000,000]");
      }
    } else if (a == "--threads") {
      const std::uint64_t t = parse_u64(a, value(i, a));
      if (t == 0 || t > 1024) throw UsageError("--threads must be in [1, 1024]");
      options.serve.threads = static_cast<std::uint32_t>(t);
    } else if (a == "--seed") {
      options.seed = parse_u64(a, value(i, a));
      options.serve.explorer.seed = options.seed;
    } else if (a == "--objective") {
      const std::string v = value(i, a);
      if (v == "cwm") {
        options.serve.objective = serve::Objective::kCwm;
      } else if (v == "cdcm") {
        options.serve.objective = serve::Objective::kCdcm;
      } else {
        throw UsageError("--objective expects cwm | cdcm, got '" + v + "'");
      }
    } else if (a == "--method") {
      options.serve.explorer.method = parse_method(value(i, a));
      if (options.serve.explorer.method == core::SearchMethod::kExhaustive) {
        throw UsageError(
            "serve-bench --method es is not supported: exhaustive search "
            "ignores warm starts");
      }
    } else if (a == "--ckpt-interval") {
      options.serve.explorer.cdcm_checkpoints = true;
      const std::uint64_t n = parse_u64(a, value(i, a));
      if (n > 1'000'000'000) {
        throw UsageError("--ckpt-interval must be at most 1,000,000,000");
      }
      options.serve.explorer.ckpt_interval = static_cast<std::uint32_t>(n);
    } else if (a == "--cache-capacity") {
      options.serve.cache_capacity =
          static_cast<std::size_t>(parse_u64(a, value(i, a)));
      if (options.serve.cache_capacity == 0) {
        throw UsageError("--cache-capacity must be >= 1");
      }
    } else if (a == "--bypass-cache") {
      options.serve.bypass_cache = true;
    } else if (a == "--out") {
      out_path = value(i, a);
    } else if (a == "--csv") {
      csv = true;
    } else {
      throw UsageError("option '" + a +
                       "' is not valid for `nocmap serve-bench`");
    }
  }
  if (options.dup_ratio + options.near_ratio > 1.0) {
    throw UsageError("--dup-ratio + --near-ratio must be at most 1");
  }

  const serve::ServeBenchReport report = serve::run_serve_bench(options);

  Fmt fmt(csv);
  util::TextTable table({"Metric", "Value"});
  table.set_title("nocmap serve-bench — " + report.population + " on " +
                  std::to_string(report.mesh_width) + "x" +
                  std::to_string(report.mesh_height) + ", " +
                  std::to_string(report.requests) + " requests");
  table.add_row({"cold solves", fmt.count(report.cold)});
  table.add_row({"exact hits", fmt.count(report.exact_hits)});
  table.add_row({"batch hits", fmt.count(report.batch_hits)});
  table.add_row({"warm starts", fmt.count(report.warm_starts)});
  table.add_row({"cache hit rate", fmt.percent(report.cache_hit_rate)});
  table.add_row({"warm-start rate", fmt.percent(report.warm_start_rate)});
  table.add_row({"p50 latency (ms)", util::format_fixed(report.p50_ms, 3)});
  table.add_row({"p95 latency (ms)", util::format_fixed(report.p95_ms, 3)});
  table.add_row({"p99 latency (ms)", util::format_fixed(report.p99_ms, 3)});
  table.add_row(
      {"throughput (req/s)", util::format_fixed(report.throughput_rps, 1)});
  table.add_row(
      {"warm-start speedup", util::format_fixed(report.warm_speedup, 2)});
  table.add_row({"results digest", std::to_string(report.results_digest)});
  print_table(table, csv);

  std::ofstream out(out_path);
  if (!out) throw std::runtime_error("cannot write " + out_path);
  out << report.to_json();
  std::cerr << "wrote " << out_path << "\n";
  return 0;
}

/// Prefix bare paths with "file:" so `workloads import apps.tgff` works
/// without spelling the scheme.
std::string as_source_spec(const std::string& arg) {
  if (workload::is_source_spec(arg)) return arg;
  return "file:" + arg;
}

int cmd_workloads_list(const std::string& spec, bool csv) {
  Fmt fmt(csv);
  if (spec.empty()) {
    // The historical listing: paper-example plus the Table-1 suite.
    util::TextTable table(
        {"Name", "NoC", "Cores", "Packets", "Bits", "ES feasible"});
    table.set_title("nocmap workloads — the Table-1 suite");
    {
      graph::Cdcg example = workload::paper_example_cdcg();
      table.add_row({"paper-example", "2 x 2",
                     std::to_string(example.num_cores()),
                     std::to_string(example.num_packets()),
                     fmt.count(example.total_bits()), "yes"});
      table.add_separator();
    }
    for (const workload::SuiteEntry& entry : workload::table1_suite()) {
      table.add_row({entry.name, entry.noc_size_label(),
                     std::to_string(entry.paper_cores),
                     std::to_string(entry.paper_packets),
                     fmt.count(entry.paper_bits),
                     workload::small_enough_for_exhaustive(entry.noc_width,
                                                           entry.noc_height)
                         ? "yes"
                         : "no"});
    }
    print_table(table, csv);
    std::cout << "source: "
              << workload::SuiteSource().provenance() << "\n";
    return 0;
  }
  const std::unique_ptr<workload::WorkloadSource> source = open_source(spec);
  util::TextTable table(
      {"Name", "NoC", "Cores", "Packets", "Bits", "Deps", "ES feasible"});
  table.set_title("nocmap workloads — " + source->name());
  for (std::size_t i = 0; i < source->size(); ++i) {
    const workload::WorkloadApp app = source->app(i);
    table.add_row({app.name, app.noc_size_label(),
                   std::to_string(app.cdcg.num_cores()),
                   std::to_string(app.cdcg.num_packets()),
                   fmt.count(app.cdcg.total_bits()),
                   std::to_string(app.cdcg.num_dependences()),
                   workload::small_enough_for_exhaustive(app.noc_width,
                                                         app.noc_height)
                       ? "yes"
                       : "no"});
  }
  print_table(table, csv);
  std::cout << "source: " << source->provenance() << "\n";
  return 0;
}

int cmd_workloads_export(const std::string& spec, const std::string& out) {
  const std::unique_ptr<workload::WorkloadSource> source = open_source(spec);
  const std::vector<workload::WorkloadApp> apps = source->all();
  if (out.empty()) {
    std::cout << workload::workloads_to_json(apps);
  } else {
    try {
      workload::write_workload_file(out, apps);
    } catch (const std::invalid_argument& e) {
      throw UsageError(e.what());
    }
    std::cerr << "wrote " << out << " (" << apps.size() << " workload"
              << (apps.size() == 1 ? "" : "s") << " from " << source->name()
              << ")\n";
  }
  return 0;
}

int cmd_workloads_validate(const std::string& spec) {
  const std::unique_ptr<workload::WorkloadSource> source = open_source(spec);
  std::cout << "source: " << source->name() << "\n"
            << "provenance: " << source->provenance() << "\n";
  const std::size_t n = source->size();
  for (std::size_t i = 0; i < n; ++i) {
    const workload::WorkloadApp app = source->app(i);
    // Every backend validates on ingest; re-check here so `validate` stays
    // an end-to-end proof even if a backend regresses.
    workload::validate_app(app, source->name(), i + 1);
    std::cout << "workload " << app.name << ": OK (" << app.cdcg.num_cores()
              << " cores, " << app.cdcg.num_packets() << " packets, "
              << app.cdcg.total_bits() << " bits, "
              << app.cdcg.num_dependences() << " deps, board "
              << app.noc_size_label() << ")\n";
  }
  std::cout << n << " workload" << (n == 1 ? "" : "s") << " OK\n";
  return 0;
}

int cmd_workloads(int argc, char** argv) {
  std::string verb = "list";
  std::vector<std::string> positional;
  std::string spec;
  std::string out;
  bool csv = false;
  int i = 2;
  if (i < argc && argv[i][0] != '-') verb = argv[i++];
  auto value = [&](const std::string& flag) -> std::string {
    if (i + 1 >= argc) throw UsageError(flag + " expects a value");
    return argv[++i];
  };
  for (; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "-h" || a == "--help") {
      std::cout << kWorkloadsUsage;
      return 0;
    } else if (a == "--csv") {
      csv = true;
    } else if (a == "--workload") {
      spec = value(a);
    } else if (a == "--out") {
      out = value(a);
    } else if (!a.empty() && a[0] == '-') {
      throw UsageError("option '" + a +
                       "' is not valid for `nocmap workloads`");
    } else {
      positional.push_back(a);
    }
  }
  if (positional.size() > 1) {
    throw UsageError("`nocmap workloads " + verb +
                     "` takes at most one positional argument");
  }
  if (!positional.empty()) {
    if (!spec.empty()) {
      throw UsageError("give the source either positionally or with "
                       "--workload, not both");
    }
    spec = positional.front();
  }

  if (verb == "list") {
    return cmd_workloads_list(spec.empty() ? "" : as_source_spec(spec), csv);
  }
  if (verb == "import") {
    if (spec.empty()) {
      throw UsageError("`nocmap workloads import` needs a file, e.g. "
                       "`nocmap workloads import apps.tgff --out apps.json`");
    }
    return cmd_workloads_export(as_source_spec(spec), out);
  }
  if (verb == "export") {
    if (spec.empty()) {
      throw UsageError("`nocmap workloads export` needs a source, e.g. "
                       "`nocmap workloads export suite --out suite.json`");
    }
    return cmd_workloads_export(as_source_spec(spec), out);
  }
  if (verb == "gen") {
    if (spec.empty()) {
      throw UsageError("`nocmap workloads gen` needs a population spec, "
                       "e.g. `nocmap workloads gen apps=200,seed=7`");
    }
    const std::string gen_spec =
        spec.rfind("gen:", 0) == 0 ? spec : "gen:" + spec;
    return cmd_workloads_export(gen_spec, out);
  }
  if (verb == "validate") {
    if (spec.empty()) {
      throw UsageError("`nocmap workloads validate` needs a source or file");
    }
    return cmd_workloads_validate(as_source_spec(spec));
  }
  throw UsageError("unknown `nocmap workloads` verb '" + verb +
                   "' (expected list, import, export, gen or validate)");
}

/// The historical single-(topology, routing) seed sweep; kept as its own
/// path so the mesh/XY output stays byte-identical to the pre-topology era.
int cmd_sweep_seeds(const RunOptions& opts) {
  BoundWorkload wl = resolve_workload(opts);
  Fmt fmt(opts.csv);

  util::TextTable table({"Seed", "Method", fmt.head("CWM Texec", "ns"),
                         fmt.head("CDCM Texec", "ns"), fmt.head("ETR", "pct"),
                         fmt.head("ECS", "pct")});
  table.set_title("nocmap sweep — " + wl.name + " on " + wl.topo->label() +
                  ", " + wl.tech.name + ", " +
                  std::to_string(opts.num_seeds) + " seeds");

  double etr_sum = 0.0, etr_min = 0.0, etr_max = 0.0;
  double ecs_sum = 0.0;
  for (std::uint64_t k = 0; k < opts.num_seeds; ++k) {
    RunOptions run = opts;
    run.seed = opts.seed + k;
    core::Explorer explorer(wl.cdcg, *wl.topo, explorer_options(run, wl.tech));
    core::Comparison cmp = explorer.compare();
    double etr = cmp.execution_time_reduction();
    double ecs = cmp.energy_saving();
    etr_sum += etr;
    ecs_sum += ecs;
    if (k == 0 || etr < etr_min) etr_min = etr;
    if (k == 0 || etr > etr_max) etr_max = etr;
    table.add_row({std::to_string(run.seed),
                   cmp.cdcm.method,
                   fmt.time(cmp.cwm.sim.texec_ns),
                   fmt.time(cmp.cdcm.sim.texec_ns), fmt.percent(etr),
                   fmt.percent(ecs)});
  }
  print_table(table, opts.csv);

  double n = static_cast<double>(opts.num_seeds);
  util::TextTable summary({"Metric", fmt.head("Value", "pct")});
  summary.add_row({"mean ETR", fmt.percent(etr_sum / n)});
  summary.add_row({"min ETR", fmt.percent(etr_min)});
  summary.add_row({"max ETR", fmt.percent(etr_max)});
  summary.add_row({"mean ECS", fmt.percent(ecs_sum / n)});
  print_table(summary, opts.csv);
  return 0;
}

int cmd_sweep(const RunOptions& opts) {
  // Any multi-application source ("suite", "file:apps.json", "gen:...")
  // sweeps every application it holds; a '#' fragment pins one application
  // and keeps the historical single-workload semantics.
  const auto [sweep_spec, sweep_fragment] = split_fragment(opts.workload);
  const bool multi_mode =
      workload::is_source_spec(sweep_spec) && sweep_fragment.empty();
  if (opts.noc_filter && !multi_mode) {
    throw UsageError(
        "sweep --noc filters a multi-application --workload source "
        "(suite, file:PATH or gen:SPEC)");
  }
  if (!multi_mode && opts.topologies.size() == 1 &&
      opts.routings.size() == 1) {
    return cmd_sweep_seeds(opts);
  }

  // --- Cross-topology sweep: (topology x routing x application x seed) ------
  // One workload entry (possibly a whole multi-application source), each
  // application on its own grid size rebuilt per topology kind.
  struct SweepApp {
    std::string name;
    const graph::Cdcg* cdcg = nullptr;
    std::uint32_t width = 0;
    std::uint32_t height = 0;
  };
  std::vector<workload::WorkloadApp> src_apps;
  std::optional<BoundWorkload> single;
  std::vector<SweepApp> apps;
  std::string title = opts.workload;
  energy::Technology tech =
      opts.tech ? *opts.tech : energy::technology_0_07u();
  if (multi_mode) {
    const std::unique_ptr<workload::WorkloadSource> source =
        open_source(sweep_spec);
    title = source->name();
    std::cerr << "workload source: " << source->provenance() << "\n";
    for (std::size_t i = 0; i < source->size(); ++i) {
      workload::WorkloadApp app = source->app(i);
      if (opts.noc_filter && app.noc_size_label() != *opts.noc_filter) {
        continue;
      }
      src_apps.push_back(std::move(app));
    }
    if (src_apps.empty()) {
      throw UsageError("source " + source->name() +
                       " has no workloads on NoC size " +
                       (opts.noc_filter ? *opts.noc_filter : "?"));
    }
    for (const workload::WorkloadApp& a : src_apps) {
      apps.push_back(SweepApp{a.name, &a.cdcg, a.noc_width, a.noc_height});
    }
  } else {
    single = resolve_workload(opts);
    tech = single->tech;
    title = single->name;
    apps.push_back(SweepApp{single->name, &single->cdcg,
                            single->topo->width(), single->topo->height()});
  }

  // A full source already multiplies out to many rows; default to a single
  // seed there unless the user asked for more.
  const std::uint64_t num_seeds =
      (multi_mode && !opts.seeds_set) ? 1 : opts.num_seeds;

  struct SweepRow {
    std::string topology;
    noc::RoutingAlgorithm routing{};
    std::size_t app = 0;
    std::uint64_t seed = 0;
    std::optional<core::Comparison> cmp;
  };
  std::vector<SweepRow> rows;
  for (const std::string& topology : opts.topologies) {
    for (const noc::RoutingAlgorithm routing : opts.routings) {
      for (std::size_t app = 0; app < apps.size(); ++app) {
        for (std::uint64_t k = 0; k < num_seeds; ++k) {
          rows.push_back(
              SweepRow{topology, routing, app, opts.seed + k, std::nullopt});
        }
      }
    }
  }

  // Like bench: spend the worker budget at the row level (each row derives
  // its randomness from its own seed, so the output is thread-invariant).
  RunOptions per_row = opts;
  if (rows.size() > 1) per_row.threads = 1;
  parallel_for_index(opts.threads, rows.size(), [&](std::size_t i) {
    SweepRow& row = rows[i];
    const SweepApp& app = apps[row.app];
    const std::unique_ptr<noc::Topology> topo = noc::make_topology(
        row.topology, app.width, app.height, topology_options(opts));
    RunOptions run = per_row;
    run.seed = row.seed;
    run.routings = {row.routing};
    core::Explorer explorer(*app.cdcg, *topo, explorer_options(run, tech));
    row.cmp = explorer.compare();
  });

  Fmt fmt(opts.csv);
  util::TextTable table({"Topology", "Routing", "Application", "Seed",
                         "Method", fmt.head("CWM Texec", "ns"),
                         fmt.head("CDCM Texec", "ns"), fmt.head("ETR", "pct"),
                         fmt.head("ECS", "pct")});
  table.set_title("nocmap sweep — " + title + ", " + tech.name);
  std::string current_combo;
  for (const SweepRow& row : rows) {
    const std::string combo =
        row.topology + "/" + noc::routing_algorithm_name(row.routing);
    if (!current_combo.empty() && combo != current_combo) {
      table.add_separator();
    }
    current_combo = combo;
    const core::Comparison& cmp = *row.cmp;
    table.add_row({row.topology, noc::routing_algorithm_name(row.routing),
                   apps[row.app].name, std::to_string(row.seed),
                   cmp.cdcm.method,
                   fmt.time(cmp.cwm.sim.texec_ns),
                   fmt.time(cmp.cdcm.sim.texec_ns),
                   fmt.percent(cmp.execution_time_reduction()),
                   fmt.percent(cmp.energy_saving())});
  }
  print_table(table, opts.csv);

  // Per-(topology, routing) aggregates, in row order.
  util::TextTable summary({"Topology", "Routing", "Rows",
                           fmt.head("mean ETR", "pct"),
                           fmt.head("mean ECS", "pct")});
  for (const std::string& topology : opts.topologies) {
    for (const noc::RoutingAlgorithm routing : opts.routings) {
      double etr_sum = 0.0, ecs_sum = 0.0;
      std::uint64_t n = 0;
      for (const SweepRow& row : rows) {
        if (row.topology != topology || row.routing != routing) continue;
        etr_sum += row.cmp->execution_time_reduction();
        ecs_sum += row.cmp->energy_saving();
        ++n;
      }
      summary.add_row({topology, noc::routing_algorithm_name(routing),
                       std::to_string(n),
                       fmt.percent(etr_sum / static_cast<double>(n)),
                       fmt.percent(ecs_sum / static_cast<double>(n))});
    }
  }
  print_table(summary, opts.csv);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::cerr << kTopUsage;
    return 2;
  }
  std::string sub = argv[1];
  try {
    if (sub == "-h" || sub == "--help" || sub == "help") {
      std::cout << kTopUsage;
      return 0;
    }
    if (sub == "--version") {
      std::cout << "nocmap 0.1.0 (Marcon et al., DATE 2005 reproduction)\n";
      return 0;
    }
    const std::vector<std::string> explore_flags = {
        "--workload", "--mesh",          "--tech",  "--method",  "--search",
        "--bnb-nodes", "--routing",      "--time-budget",
        "--topology", "--express-interval",
        "--seed",     "--no-seed-cdcm",  "--cores", "--packets", "--bits",
        "--threads",  "--chains",        "--cost",  "--hybrid-cadence",
        "--ckpt-interval",
        "--backend",  "--buffer-depth",  "--flow-control", "--switching"};
    if (sub == "explore") {
      std::vector<std::string> flags = explore_flags;
      flags.push_back("--seed-mapping");
      return cmd_explore(parse_run_options(argc, argv, kExploreUsage, flags));
    }
    if (sub == "serve-bench") {
      return cmd_serve_bench(argc, argv);
    }
    if (sub == "bench") {
      return cmd_bench(parse_run_options(
          argc, argv, kBenchUsage,
          {"--noc", "--workload", "--tech", "--method", "--search",
           "--bnb-nodes", "--routing", "--topology",
           "--express-interval", "--seed", "--threads", "--chains", "--perf",
           "--scale", "--time-budget",
           "--sizes", "--out", "--cost", "--hybrid-cadence", "--ckpt-interval",
           "--backend", "--buffer-depth", "--flow-control", "--switching"}));
    }
    if (sub == "workloads") {
      return cmd_workloads(argc, argv);
    }
    if (sub == "sweep") {
      std::vector<std::string> sweep_flags = explore_flags;
      sweep_flags.push_back("--seeds");
      sweep_flags.push_back("--noc");
      return cmd_sweep(
          parse_run_options(argc, argv, kSweepUsage, sweep_flags));
    }
    throw UsageError("unknown subcommand '" + sub + "'");
  } catch (const UsageError& e) {
    std::cerr << "nocmap: " << e.what() << "\n\n"
              << "Run `nocmap --help` for usage.\n";
    return 2;
  } catch (const std::exception& e) {
    std::cerr << "nocmap: error: " << e.what() << "\n";
    return 1;
  }
}
