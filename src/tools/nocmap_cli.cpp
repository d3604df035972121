/// \file nocmap_cli.cpp
/// The `nocmap` command-line driver.
///
/// One binary wrapping the FRW exploration flow (core::Explorer) and the
/// Table-1 workload suite behind five subcommands:
///
///   nocmap explore      optimize one workload under CWM and CDCM and compare
///   nocmap bench        run the Table-1 suite, print Table 2 beside the paper's
///   nocmap workloads    list the built-in workloads and their statistics
///   nocmap sweep        repeat explore over a seed range and aggregate
///   nocmap serve-bench  load-test the caching/warm-start serving engine
///
/// Each verb and mode declares its flags in one table (see "Flag tables"):
/// the parse loop, the prerequisite check and the --help text all read the
/// same entries, so a verb accepts exactly the flags it reads.
///
/// Every subcommand renders through util::TextTable and switches to CSV with
/// --csv, so results pipe straight into plotting scripts. Exit codes: 0 on
/// success, 1 on a runtime failure, 2 on a usage error.

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <initializer_list>
#include <iostream>
#include <limits>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "nocmap/nocmap.hpp"

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
  bench       Run the paper's 18-application Table-1 suite and print its
              ETR/ECS rows and per-size means beside the paper's Table 2;
              `bench --scale` runs the portfolio benchmark instead.
  workloads   List, convert, generate and validate workloads.
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
)";

constexpr const char* kSweepUsage =
    R"(Usage: nocmap sweep [options]

Run `explore` once per (topology, routing, seed) combination and aggregate
the ETR/ECS spread — the cheap way to separate model effects from search
noise, and the way to compare topologies on equal footing. With one
topology, one routing and a single-application workload the historical
per-seed table is printed; otherwise one row per (topology, routing,
application, seed) plus per-combination aggregates.
)";

constexpr const char* kBenchUsage =
    R"(Usage: nocmap bench [--scale] [options]

Run the full Table-1 suite (or one NoC size of it) through the Explorer and
print one ETR/ECS row per application, then the reproduction of Table 2:
the mean ETR and ECS (at --tech) of each NoC size beside the paper's ETR,
ECS 0.35u and ECS 0.07u, and an Average row that is the mean of the size
rows, as the paper's is. One mode runs a benchmark instead, with its own
options:

  --scale   the paper-scale portfolio benchmark (`nocmap bench --scale --help`)
)";

constexpr const char* kBenchScaleUsage =
    R"(Usage: nocmap bench --scale [options]

Race the search portfolio on the paper's large boards and write the anytime
best-cost-vs-moves curves as JSON (docs/bench-format.md). Every reported
column except wall_ms is identical for any --threads.
)";

constexpr const char* kServeBenchUsage =
    R"(Usage: nocmap serve-bench [options]

Load-test the mapping-as-a-service engine (docs/serving.md): synthesize a
randomized request stream from a gen:SPEC population with a controllable
mix of exact duplicates (relabeled cores) and near-duplicates (relabeled +
payload-perturbed), replay it in batches through the canonical-form result
cache with warm-started search, and report latency percentiles, throughput,
cache hit rates and the warm-start speedup. The JSON report is written to
--out (schema in docs/serving.md).

All report fields except wall-clock timings are deterministic in the
options: `results_digest` is byte-identical for any --threads, and — when
every request is unique or the cache is empty — identical between
--bypass-cache and the default cold path.
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

Verbs (`nocmap workloads VERB --help` lists the options of one):
  list [SRC]       List applications, statistics and the source provenance
                   (default verb; default source: the built-in suite).
  import PATH      Read PATH (any supported format) and re-emit it
                   canonically: JSON on stdout, or --out file.json/.csv.
  export SRC       Materialize any source as canonical JSON, or --out
                   file.json/.csv.
  gen SPEC         Shorthand for `export gen:SPEC`.
  validate SRC     Parse and validate, print one line per workload; exits
                   1 with a line/field diagnostic on the first error.
)";

// --- Value readers -----------------------------------------------------------
// A reader's message reads after the flag name ("expects ...", "must be
// ..."): the parse loop prefixes the flag as the user spelled it.

/// A decimal integer in [lo, hi], narrowed to T. Digits only: std::stoull
/// alone would wrap "-1" to UINT64_MAX.
template <class T = std::uint64_t>
T parse_uint(const std::string& value, std::uint64_t lo = 0,
             std::uint64_t hi = std::numeric_limits<T>::max()) {
  if (value.empty() ||
      value.find_first_not_of("0123456789") != std::string::npos) {
    throw UsageError("expects a non-negative integer, got '" + value + "'");
  }
  try {
    const std::uint64_t v = std::stoull(value);
    if (v >= lo && v <= hi) return static_cast<T>(v);
  } catch (const std::out_of_range&) {
  }
  throw UsageError("must be in [" + util::format_grouped(lo) + ", " +
                   util::format_grouped(hi) + "], got '" + value + "'");
}

/// "4x4", "4X4" or "4 x 4" -> (4, 4).
std::pair<std::uint32_t, std::uint32_t> parse_mesh(const std::string& value) {
  std::string s;
  for (char c : value) {
    if (c == ' ') continue;
    s.push_back(c == 'X' ? 'x' : c);
  }
  const std::size_t sep = s.find('x');
  if (sep == std::string::npos || sep == 0 || sep + 1 == s.size()) {
    throw UsageError("expects WxH (e.g. 4x4), got '" + value + "'");
  }
  const std::uint64_t w = parse_uint(s.substr(0, sep));
  const std::uint64_t h = parse_uint(s.substr(sep + 1));
  // Bound each dimension before any uint32 narrowing, and the tile count to
  // something a mapping search could conceivably handle.
  constexpr std::uint64_t kMaxTiles = 1'000'000;
  if (w > kMaxTiles || h > kMaxTiles || w * h > kMaxTiles) {
    throw UsageError("mesh too large (at most 1,000,000 tiles), got '" +
                     value + "'");
  }
  if (w == 0 || h == 0 || w * h < 2) {
    throw UsageError("needs at least two tiles, got '" + value + "'");
  }
  return {static_cast<std::uint32_t>(w), static_cast<std::uint32_t>(h)};
}

/// "a,b,c" -> {"a", "b", "c"}; empty items are usage errors.
std::vector<std::string> split_list(const std::string& value) {
  std::vector<std::string> items;
  std::string item;
  std::istringstream is(value);
  while (std::getline(is, item, ',')) {
    if (item.empty()) throw UsageError("has an empty list item");
    items.push_back(item);
  }
  if (items.empty()) throw UsageError("expects a value");
  return items;
}

/// "3x3,8x8" appended to `sizes`.
void append_sizes(std::vector<std::pair<std::uint32_t, std::uint32_t>>& sizes,
                  const std::string& value) {
  for (const std::string& item : split_list(value)) {
    sizes.push_back(parse_mesh(item));
  }
}

/// `value` looked up among `names`, aliases included; the error lists
/// `expected`, the canonical spellings.
template <class T>
T pick(const std::string& value, const char* expected,
       std::initializer_list<std::pair<const char*, T>> names) {
  for (const auto& [name, result] : names) {
    if (value == name) return result;
  }
  throw UsageError(std::string("expects ") + expected + ", got '" + value +
                   "'");
}

core::SearchMethod parse_method(const std::string& value) {
  using M = core::SearchMethod;
  return pick<M>(value, "auto | sa | es | bnb | portfolio",
                 {{"auto", M::kAuto},
                  {"sa", M::kSimulatedAnnealing},
                  {"es", M::kExhaustive},
                  {"bnb", M::kBranchAndBound},
                  {"portfolio", M::kPortfolio},
                  {"pf", M::kPortfolio}});
}

std::string parse_topology(const std::string& value) {
  const auto& known = noc::topology_kinds();
  if (std::find(known.begin(), known.end(), value) == known.end()) {
    throw UsageError("expects mesh | torus | xmesh, got '" + value + "'");
  }
  return value;
}

noc::RoutingAlgorithm parse_routing(const std::string& value) {
  try {
    return noc::routing_algorithm_from_name(value);
  } catch (const std::invalid_argument&) {
    throw UsageError("expects xy | yx | west-first | odd-even, got '" +
                     value + "'");
  }
}

double parse_ratio(const std::string& value) {
  try {
    std::size_t pos = 0;
    const double v = std::stod(value, &pos);
    if (pos == value.size() && v >= 0.0 && v <= 1.0) return v;
  } catch (const std::exception&) {
  }
  throw UsageError("expects a fraction in [0, 1], got '" + value + "'");
}

/// A --seed-mapping file: whitespace- or comma-separated tile ids, one per
/// core. Count/range/injectivity are validated by the Explorer, which knows
/// the application and topology.
std::vector<noc::TileId> load_seed_mapping(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw UsageError("cannot read '" + path + "'");
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
        if (!item.empty()) tiles.push_back(parse_uint<noc::TileId>(item));
      }
    }
  }
  if (tiles.empty()) throw UsageError("'" + path + "' holds no tile ids");
  return tiles;
}

// --- Flag tables -------------------------------------------------------------
// A verb or mode accepts exactly the entries of its table. An entry holds a
// flag's spelling, value name, help paragraph, setter and prerequisite; the
// parse loop, the prerequisite check and --help all read it.

constexpr unsigned kAllVerbs = ~0u;

/// A flag's value as its setter receives it ("" for a switch).
using Value = const std::string&;

template <class Args>
struct Flag {
  const char* name;        ///< "--mesh".
  const char* value_name;  ///< "WxH" in --help; "" for a switch.
  const char* help;        ///< One paragraph; print_option() wraps it.
  void (*set)(Args&, Value);
  unsigned verbs = kAllVerbs;   ///< The verbs of a shared table taking it.
  const char* needs = nullptr;  ///< Prerequisite, e.g. "--backend flit",
  bool (*needs_met)(const Args&) = nullptr;  ///< tested after parsing.
  const char* alias = nullptr;  ///< A second spelling.
};

/// One verb or mode: the entries of `table` whose verbs include `verb`.
template <class Args>
struct Command {
  std::string name;     ///< As messages spell it: "bench --scale".
  const char* summary;  ///< The hand-written head of its --help.
  const std::vector<Flag<Args>>& table;
  unsigned verb = kAllVerbs;
};

template <class Args>
Flag<Args> csv_flag(unsigned verbs = kAllVerbs) {
  return {"--csv", "", "Emit CSV instead of aligned text tables.",
          [](Args& a, Value) { a.csv = true; }, verbs};
}

/// "  LABEL" padded to column 20, then `help` word-wrapped at 78 columns.
void print_option(const std::string& label, const std::string& help) {
  constexpr std::size_t kColumn = 20;
  constexpr std::size_t kWidth = 78;
  std::string line = "  " + label;
  if (line.size() >= kColumn) {
    std::cout << line << "\n";
    line.clear();
  }
  line.resize(kColumn, ' ');
  std::istringstream words(help);
  for (std::string word; words >> word;) {
    if (line.size() > kColumn && line.size() + 1 + word.size() > kWidth) {
      std::cout << line << "\n";
      line.assign(kColumn, ' ');
    }
    if (line.size() > kColumn) line += ' ';
    line += word;
  }
  std::cout << line << "\n";
}

template <class Args>
void print_help(const Command<Args>& cmd) {
  std::cout << cmd.summary << "\nOptions of `nocmap " << cmd.name << "`:\n";
  for (const Flag<Args>& f : cmd.table) {
    if (!(f.verbs & cmd.verb)) continue;
    std::string label = f.name;
    if (f.alias) label = label + ", " + f.alias;
    if (*f.value_name) label = label + " " + f.value_name;
    std::string help = f.help;
    if (f.needs) help = help + " Requires " + f.needs + ".";
    print_option(label, help);
  }
  print_option("-h, --help", "Show this message.");
}

/// Parse argv[first..] against `cmd` into `args`. A non-flag argument goes
/// to `positional` when the verb takes one and is a usage error otherwise,
/// like any flag outside the table. -h/--help prints the help and exits 0.
template <class Args>
Args parse_flags(const Command<Args>& cmd, int argc, char** argv, int first,
                 Args args = Args(),
                 std::vector<std::string>* positional = nullptr) {
  std::vector<const Flag<Args>*> given;
  for (int i = first; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "-h" || a == "--help") {
      print_help(cmd);
      std::exit(0);
    }
    const auto flag = std::find_if(
        cmd.table.begin(), cmd.table.end(), [&](const Flag<Args>& f) {
          return (f.verbs & cmd.verb) &&
                 (a == f.name || (f.alias && a == f.alias));
        });
    if (flag == cmd.table.end()) {
      if (positional && (a.empty() || a[0] != '-')) {
        positional->push_back(a);
        continue;
      }
      throw UsageError("option '" + a + "' is not valid for `nocmap " +
                       cmd.name + "` (`nocmap " + cmd.name +
                       " --help` lists its options)");
    }
    std::string value;
    if (*flag->value_name) {
      if (i + 1 >= argc) throw UsageError(a + " expects a value");
      value = argv[++i];
    }
    try {
      flag->set(args, value);
    } catch (const UsageError& e) {
      throw UsageError(a + " " + e.what());
    }
    given.push_back(&*flag);
  }
  for (const Flag<Args>* f : given) {
    if (f->needs_met && !f->needs_met(args)) {
      throw UsageError(std::string(f->name) + " requires " + f->needs);
    }
  }
  return args;
}

// --- explore / sweep / bench -------------------------------------------------

/// The Explorer's options plus what only the CLI reads: the workload, its
/// board, and the topologies and routings to build.
struct RunArgs {
  core::ExplorerOptions explorer;
  std::string workload = "paper-example";
  workload::RandomCdcgParams random;  ///< --workload random.
  std::optional<std::pair<std::uint32_t, std::uint32_t>> mesh;
  /// Default: example for paper-example, 0.07u otherwise.
  std::optional<energy::Technology> tech;
  /// sweep runs every entry; explore and bench take one (require_single_noc).
  std::vector<std::string> topologies = {"mesh"};
  std::vector<noc::RoutingAlgorithm> routings = {noc::RoutingAlgorithm::kXY};
  noc::TopologyOptions topology_options;
  std::optional<std::string> noc_filter;  ///< "W x H", as Table 1 labels it.
  std::optional<std::uint64_t> seeds;     ///< sweep --seeds.
  bool csv = false;
};

enum RunVerb : unsigned { kExplore = 1, kSweep = 2, kBench = 4 };

bool random_workload(const RunArgs& a) { return a.workload == "random"; }
bool hybrid_cost(const RunArgs& a) {
  return a.explorer.timing_cost == core::TimingCostMode::kHybrid;
}
bool flit_backend(const RunArgs& a) {
  return a.explorer.sim_backend == sim::SimBackend::kFlit;
}
bool xmesh_topology(const RunArgs& a) {
  return std::count(a.topologies.begin(), a.topologies.end(), "xmesh") > 0;
}

const std::vector<Flag<RunArgs>> kRunFlags = {
    {"--workload", "NAME",
     "Workload to map (default: paper-example): \"paper-example\", any "
     "`nocmap workloads` suite name (e.g. romberg-v1, random-big-2), "
     "\"random\" for a fresh random CDCG (see --cores/--packets/--bits), or "
     "a workload source: suite, file:PATH (.json/.csv/.tgff) or gen:SPEC "
     "(see `nocmap workloads --help` and docs/workloads.md). explore picks "
     "one application of a multi-workload source with a '#NAME' or "
     "'#INDEX' fragment; sweep runs every application it holds, each on "
     "its own NoC size.",
     [](RunArgs& a, Value v) { a.workload = v; }, kExplore | kSweep},
    {"--mesh", "WxH",
     "Mesh size, e.g. 4x4 (default: the workload's own size; 2x2 for "
     "paper-example).",
     [](RunArgs& a, Value v) { a.mesh = parse_mesh(v); }, kExplore | kSweep},
    {"--noc", "WxH",
     "Only the applications of one NoC size (e.g. 3x2, 10x10): of the "
     "Table-1 suite for bench, of a multi-application --workload source "
     "for sweep.",
     [](RunArgs& a, Value v) {
       const auto [w, h] = parse_mesh(v);
       a.noc_filter = std::to_string(w) + " x " + std::to_string(h);
     },
     kSweep | kBench},
    {"--tech", "NAME",
     "Technology preset: example | 0.35u | 0.07u (default: example for "
     "paper-example, 0.07u otherwise).",
     [](RunArgs& a, Value v) {
       a.tech = pick<energy::Technology>(
           v, "example | 0.35u | 0.07u",
           {{"example", energy::example_technology()},
            {"0.35u", energy::technology_0_35u()},
            {"0.35", energy::technology_0_35u()},
            {"0.07u", energy::technology_0_07u()},
            {"0.07", energy::technology_0_07u()}});
     }},
    {"--method", "NAME",
     "Search method: auto | sa | es | bnb | portfolio (default: auto — ES "
     "when the symmetry-pruned space is small, SA otherwise). bnb is exact "
     "branch and bound: admissible lower-bound pruning with a "
     "greedy+SA-seeded incumbent; past --bnb-nodes it falls back to the "
     "incumbent (reported as BB/SA). portfolio races SA chains across "
     "cooling schedules and move sets (pairwise swaps and the "
     "large-neighbourhood catalogue) plus a budgeted B&B member, "
     "greedy-seeded, deterministic for any --threads. See docs/search.md.",
     [](RunArgs& a, Value v) { a.explorer.method = parse_method(v); },
     kAllVerbs, nullptr, nullptr, "--search"},
    {"--bnb-nodes", "N",
     "bnb: node budget (lower-bound tests) before falling back to SA "
     "quality (default: 20,000,000). Completed searches are byte-identical "
     "for any --threads; budget-truncated runs consume the budget in "
     "thread order and reproduce exactly only at --threads 1.",
     [](RunArgs& a, Value v) { a.explorer.bnb.max_nodes = parse_uint(v, 1); }},
    {"--time-budget", "MS",
     "Wall-clock budget per SA chain / portfolio member in milliseconds, "
     "honored at temperature-step boundaries (the cut is recorded as a "
     "move-count checkpoint, so the result stays reproducible). Default: "
     "none.",
     [](RunArgs& a, Value v) {
       a.explorer.time_budget_ms =
           static_cast<double>(parse_uint(v, 1, 86'400'000));
     }},
    {"--topology", "NAME",
     "NoC topology: mesh | torus | xmesh (default: mesh). torus adds "
     "wrap-around links on dimensions of size >= 3; xmesh adds express "
     "links every --express-interval tiles. sweep takes a comma-separated "
     "list.",
     [](RunArgs& a, Value v) {
       a.topologies.clear();
       for (const std::string& kind : split_list(v)) {
         a.topologies.push_back(parse_topology(kind));
       }
     }},
    {"--express-interval", "N",
     "xmesh express-link spacing, k >= 2 (default: 2).",
     [](RunArgs& a, Value v) {
       a.topology_options.express_interval =
           parse_uint<std::uint32_t>(v, 2, 1'000'000);
     },
     kAllVerbs, "--topology xmesh", xmesh_topology},
    {"--routing", "NAME",
     "Routing algorithm: xy | yx | west-first | odd-even (default: xy). "
     "sweep takes a comma-separated list.",
     [](RunArgs& a, Value v) {
       a.routings.clear();
       for (const std::string& name : split_list(v)) {
         a.routings.push_back(parse_routing(name));
       }
       a.explorer.routing = a.routings.front();
     }},
    {"--seed", "N",
     "RNG seed driving the SA runs and --workload random (default: 1); "
     "sweep's first seed.",
     [](RunArgs& a, Value v) { a.explorer.seed = parse_uint(v); }},
    {"--seeds", "N",
     "Number of seeds to run (default: 5; 1 for a multi-application "
     "source).",
     [](RunArgs& a, Value v) { a.seeds = parse_uint(v, 1); }, kSweep},
    {"--threads", "N",
     "Worker threads (default: 1): explore runs its SA chains, the "
     "exhaustive-search shards (CWM and CDCM), the branch-and-bound "
     "subtree tasks and the portfolio members on them, bench and sweep "
     "explore applications / rows in parallel. Purely a throughput knob: "
     "the output is identical for any N.",
     [](RunArgs& a, Value v) {
       a.explorer.threads = parse_uint<std::uint32_t>(v, 1, 1024);
     }},
    {"--chains", "N",
     "Independent SA chains per model, best-of-N (default: 1).",
     [](RunArgs& a, Value v) {
       a.explorer.sa_chains = parse_uint<std::uint32_t>(v, 1, 4096);
     }},
    {"--cost", "NAME",
     "Timing-aware objective: cdcm (default, Equation 10) or hybrid "
     "(CWM-delta prefilter proposes, CDCM verifies at --hybrid-cadence and "
     "at every temperature step).",
     [](RunArgs& a, Value v) {
       using C = core::TimingCostMode;
       a.explorer.timing_cost = pick<C>(
           v, "cdcm | hybrid", {{"cdcm", C::kCdcm}, {"hybrid", C::kHybrid}});
     }},
    {"--hybrid-cadence", "N",
     "Verify every Nth priced move with an exact CDCM delta (default: 8; "
     "1 = every move, 0 = step resyncs only).",
     [](RunArgs& a, Value v) {
       a.explorer.hybrid_cadence = parse_uint<std::uint32_t>(v, 0, 1'000'000);
     },
     kAllVerbs, "--cost hybrid", hybrid_cost},
    {"--ckpt-interval", "N",
     "Enable checkpointed incremental CDCM evaluation: move pricing "
     "restores the latest event-loop snapshot taken before the earliest "
     "instant the move can affect and replays only the suffix, "
     "bitwise-identical to a full resimulation. N is the snapshot cadence "
     "in event pops (0 = auto, scaled from the packet count). Ignored — "
     "with a full-resimulation fallback — for --backend flit.",
     [](RunArgs& a, Value v) {
       a.explorer.cdcm_checkpoints = true;
       a.explorer.ckpt_interval =
           parse_uint<std::uint32_t>(v, 0, 1'000'000'000);
     }},
    {"--no-seed-cdcm", "", "Do not seed the CDCM search with the CWM winner.",
     [](RunArgs& a, Value) { a.explorer.seed_cdcm_with_cwm = false; },
     kExplore | kSweep},
    {"--cores", "N", "Cores of the random CDCG (default: 8).",
     [](RunArgs& a, Value v) {
       a.random.num_cores = parse_uint<std::uint32_t>(v, 0, 1'000'000);
     },
     kExplore | kSweep, "--workload random", random_workload},
    {"--packets", "N", "Packets of the random CDCG (default: 32).",
     [](RunArgs& a, Value v) {
       a.random.num_packets = parse_uint<std::uint32_t>(v, 0, 1'000'000);
     },
     kExplore | kSweep, "--workload random", random_workload},
    {"--bits", "N", "Total bit volume of the random CDCG (default: 4096).",
     [](RunArgs& a, Value v) { a.random.total_bits = parse_uint(v); },
     kExplore | kSweep, "--workload random", random_workload},
    {"--backend", "NAME",
     "Evaluation backend: link (whole-link claims, the paper's model, "
     "default) or flit (flit-accurate: finite input buffers, flow control, "
     "backpressure). See docs/simulation.md.",
     [](RunArgs& a, Value v) {
       using B = sim::SimBackend;
       a.explorer.sim_backend = pick<B>(v, "link | flit",
                                        {{"link", B::kLinkClaim},
                                         {"link-claim", B::kLinkClaim},
                                         {"flit", B::kFlit}});
     }},
    {"--buffer-depth", "N", "Input-buffer flits per router port (default: 8).",
     [](RunArgs& a, Value v) {
       a.explorer.buffer_depth = parse_uint<std::uint32_t>(v, 1, 1u << 20);
     },
     kAllVerbs, "--backend flit", flit_backend},
    {"--flow-control", "NAME", "credit | onoff (default: credit).",
     [](RunArgs& a, Value v) {
       using F = sim::FlowControl;
       a.explorer.flow_control = pick<F>(v, "credit | onoff",
                                         {{"credit", F::kCredit},
                                          {"onoff", F::kOnOff},
                                          {"on-off", F::kOnOff}});
     },
     kAllVerbs, "--backend flit", flit_backend},
    {"--switching", "NAME",
     "wormhole | vct (default: wormhole; vct needs --buffer-depth >= the "
     "largest packet).",
     [](RunArgs& a, Value v) {
       using S = sim::Switching;
       a.explorer.switching =
           pick<S>(v, "wormhole | vct",
                   {{"wormhole", S::kWormhole},
                    {"vct", S::kVirtualCutThrough},
                    {"virtual-cut-through", S::kVirtualCutThrough}});
     },
     kAllVerbs, "--backend flit", flit_backend},
    {"--seed-mapping", "FILE",
     "Warm-start the search from the mapping in FILE: whitespace- or "
     "comma-separated tile ids (# starts a line comment), one per core "
     "(core i starts on the i-th tile listed). The ids must be distinct, "
     "in range, and exactly one per application core — anything else is "
     "rejected. Every method except es is seeded (es enumerates "
     "everything); the CDCM half is still reseeded with the CWM winner "
     "unless --no-seed-cdcm.",
     [](RunArgs& a, Value v) {
       a.explorer.seed_assignment = load_seed_mapping(v);
     },
     kExplore},
    csv_flag<RunArgs>(),
};

// --- bench --scale -----------------------------------------------------------

/// core::ScaleBenchOptions plus the workload source replacing its boards.
struct ScaleArgs {
  core::ScaleBenchOptions bench;
  std::optional<std::string> workload;
  std::string out = "BENCH_scale.json";
  bool csv = false;

  /// --sizes accumulates, so the default boards wait until after parsing
  /// (cmd_bench_scale()).
  ScaleArgs() { bench.sizes.clear(); }
};

const std::vector<Flag<ScaleArgs>> kScaleFlags = {
    {"--scale", "", "Select this mode.", [](ScaleArgs&, Value) {}},
    {"--sizes", "LIST",
     "Comma-separated board sizes WxH (default: 8x8,10x10,12x10).",
     [](ScaleArgs& a, Value v) { append_sizes(a.bench.sizes, v); }},
    {"--workload", "SRC",
     "Bench a workload source instead of the boards: suite, file:PATH or "
     "gen:SPEC (see `nocmap workloads --help`). Excludes --sizes.",
     [](ScaleArgs& a, Value v) { a.workload = v; }},
    {"--topology", "NAME",
     "Only mesh, the default: the scale boards are the paper's meshes.",
     [](ScaleArgs&, Value v) {
       if (parse_topology(v) != "mesh") {
         throw UsageError("must be mesh: bench --scale runs the paper's mesh "
                          "boards only");
       }
     }},
    {"--seed", "N", "Portfolio seed (default: 1).",
     [](ScaleArgs& a, Value v) { a.bench.seed = parse_uint(v); }},
    {"--threads", "N", "Workers racing the portfolio members (default: 1).",
     [](ScaleArgs& a, Value v) {
       a.bench.threads = parse_uint<std::uint32_t>(v, 1, 1024);
     }},
    {"--time-budget", "MS",
     "Per-member wall budget in milliseconds (see `nocmap explore --help`). "
     "Default: none.",
     [](ScaleArgs& a, Value v) {
       a.bench.time_budget_ms =
           static_cast<double>(parse_uint(v, 1, 86'400'000));
     }},
    {"--bnb-nodes", "N",
     "Node budget of the branch-and-bound member (default: 50,000).",
     [](ScaleArgs& a, Value v) { a.bench.bnb_nodes = parse_uint(v, 1); }},
    {"--out", "FILE", "Report path (default: BENCH_scale.json).",
     [](ScaleArgs& a, Value v) { a.out = v; }},
    csv_flag<ScaleArgs>(),
};

// --- serve-bench -------------------------------------------------------------

struct ServeArgs {
  serve::ServeBenchOptions bench;
  std::string out = "BENCH_serve.json";
  bool csv = false;

  ServeArgs() {
    bench.serve.explorer.tech = energy::technology_0_07u();
    bench.serve.explorer.method = core::SearchMethod::kSimulatedAnnealing;
    bench.serve.objective = serve::Objective::kCwm;
  }
};

const std::vector<Flag<ServeArgs>> kServeFlags = {
    {"--population", "SPEC",
     "Synthetic population supplying fresh applications (workload gen: "
     "grammar; default: apps=64,cores=8,seed=7). Cores must fit the mesh.",
     [](ServeArgs& a, Value v) { a.bench.population = v; }},
    {"--requests", "N", "Stream length (default: 1000).",
     [](ServeArgs& a, Value v) {
       a.bench.requests = parse_uint<std::uint32_t>(v, 1, 10'000'000);
     }},
    {"--dup-ratio", "X",
     "Fraction of requests that are relabeled duplicates of earlier ones "
     "(default: 0.35).",
     [](ServeArgs& a, Value v) { a.bench.dup_ratio = parse_ratio(v); }},
    {"--near-ratio", "X",
     "Fraction that are relabeled + payload-perturbed near-duplicates "
     "(default: 0.25). dup + near <= 1.",
     [](ServeArgs& a, Value v) { a.bench.near_ratio = parse_ratio(v); }},
    {"--mesh", "WxH", "Target NoC size (default: 3x3).",
     [](ServeArgs& a, Value v) {
       std::tie(a.bench.mesh_width, a.bench.mesh_height) = parse_mesh(v);
     }},
    {"--batch", "N", "Requests per serving batch (default: 16).",
     [](ServeArgs& a, Value v) {
       a.bench.batch = parse_uint<std::uint32_t>(v, 1, 1'000'000);
     }},
    {"--threads", "N",
     "Worker threads solving a batch's unique jobs (default: 1). Purely a "
     "throughput knob.",
     [](ServeArgs& a, Value v) {
       a.bench.serve.threads = parse_uint<std::uint32_t>(v, 1, 1024);
     }},
    {"--seed", "N", "Stream-synthesis and search seed (default: 1).",
     [](ServeArgs& a, Value v) {
       a.bench.seed = a.bench.serve.explorer.seed = parse_uint(v);
     }},
    {"--objective", "NAME",
     "cwm | cdcm (default: cwm — the cheap objective keeps the "
     "1000-request replay fast; cdcm load-tests the full "
     "wormhole-simulation path).",
     [](ServeArgs& a, Value v) {
       using O = serve::Objective;
       a.bench.serve.objective =
           pick<O>(v, "cwm | cdcm", {{"cwm", O::kCwm}, {"cdcm", O::kCdcm}});
     }},
    {"--method", "NAME",
     "auto | sa | bnb | portfolio (default: sa). es is rejected: exhaustive "
     "search ignores warm starts.",
     [](ServeArgs& a, Value v) {
       a.bench.serve.explorer.method = parse_method(v);
       if (a.bench.serve.explorer.method == core::SearchMethod::kExhaustive) {
         throw UsageError("es is not supported: exhaustive search ignores "
                          "warm starts");
       }
     }},
    {"--ckpt-interval", "N",
     "Checkpointed incremental CDCM evaluation for the solve paths (0 = "
     "auto cadence); results are bitwise-identical either way, so cache "
     "entries stay interchangeable.",
     [](ServeArgs& a, Value v) {
       a.bench.serve.explorer.cdcm_checkpoints = true;
       a.bench.serve.explorer.ckpt_interval =
           parse_uint<std::uint32_t>(v, 0, 1'000'000'000);
     }},
    {"--cache-capacity", "N", "LRU capacity in cached results (default: 4096).",
     [](ServeArgs& a, Value v) {
       a.bench.serve.cache_capacity = parse_uint<std::size_t>(v, 1);
     }},
    {"--bypass-cache", "",
     "Solve every request cold; the cache is neither read nor written (the "
     "byte-identity baseline the CI leg diffs against).",
     [](ServeArgs& a, Value) { a.bench.serve.bypass_cache = true; }},
    {"--out", "PATH", "Report path (default: BENCH_serve.json).",
     [](ServeArgs& a, Value v) { a.out = v; }},
    csv_flag<ServeArgs>(),
};

// --- workloads ---------------------------------------------------------------

struct WorkloadsArgs {
  std::string source;  ///< --workload, or the positional SRC.
  std::string out;     ///< Empty: JSON on stdout.
  bool csv = false;
};

enum WorkloadsVerb : unsigned {
  kList = 1,
  kImport = 2,
  kExport = 4,
  kGen = 8,
  kValidate = 16,
};

const std::vector<Flag<WorkloadsArgs>> kWorkloadsFlags = {
    {"--workload", "SRC", "The source, instead of the positional SRC.",
     [](WorkloadsArgs& a, Value v) { a.source = v; }},
    {"--out", "FILE", "Output file (.json or .csv); JSON on stdout without it.",
     [](WorkloadsArgs& a, Value v) { a.out = v; }, kImport | kExport | kGen},
    csv_flag<WorkloadsArgs>(kList),
};

// --- Workload resolution -----------------------------------------------------

/// Single-entry check for subcommands without sweep semantics.
void require_single_noc(const RunArgs& args, const char* sub) {
  if (args.topologies.size() != 1 || args.routings.size() != 1) {
    throw UsageError(std::string("`nocmap ") + sub +
                     "` takes a single --topology and --routing "
                     "(comma-separated lists are for `nocmap sweep`)");
  }
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

BoundWorkload resolve_workload(const RunArgs& args) {
  std::uint32_t width = 0;
  std::uint32_t height = 0;
  graph::Cdcg cdcg;
  std::string display_name = args.workload;
  energy::Technology default_tech = energy::technology_0_07u();
  const auto [source_spec, fragment] = split_fragment(args.workload);

  if (workload::is_source_spec(source_spec)) {
    const std::unique_ptr<workload::WorkloadSource> source =
        open_source(source_spec);
    std::size_t index = 0;
    if (!fragment.empty()) {
      if (fragment.find_first_not_of("0123456789") == std::string::npos) {
        index = source->size();
        try {
          index = parse_uint<std::size_t>(fragment);
        } catch (const UsageError&) {
        }
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
  } else if (args.workload == "paper-example") {
    cdcg = workload::paper_example_cdcg();
    width = 2;
    height = 2;
    default_tech = energy::example_technology();
  } else if (args.workload == "random") {
    util::Rng rng(args.explorer.seed);
    cdcg = workload::generate_random_cdcg(args.random, rng);
    std::tie(width, height) = workload::fit_board(args.random.num_cores);
  } else {
    std::vector<workload::SuiteEntry> suite = workload::table1_suite();
    const auto e = std::find_if(suite.begin(), suite.end(), [&](auto& s) {
      return s.name == args.workload;
    });
    if (e == suite.end()) {
      throw UsageError("unknown workload '" + args.workload +
                       "' (see `nocmap workloads`)");
    }
    cdcg = std::move(e->cdcg);
    width = e->noc_width;
    height = e->noc_height;
  }

  if (args.mesh) {
    width = args.mesh->first;
    height = args.mesh->second;
  }
  if (cdcg.num_cores() > static_cast<std::size_t>(width) * height) {
    throw UsageError("workload '" + args.workload + "' has " +
                     std::to_string(cdcg.num_cores()) +
                     " cores but the mesh only has " +
                     std::to_string(width * height) + " tiles");
  }
  return BoundWorkload{std::move(display_name), std::move(cdcg),
                       noc::make_topology(args.topologies.front(), width,
                                          height, args.topology_options),
                       args.tech.value_or(default_tech)};
}

void print_table(const util::TextTable& table, bool csv) {
  std::cout << (csv ? table.to_csv() : table.to_string());
}

/// Write `json` to `path`; the note goes to stderr, since stdout must stay
/// parseable under --csv.
void write_report(const std::string& path, const std::string& json) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write " + path);
  out << json;
  std::cerr << "wrote " << path << "\n";
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
  std::string percent(double fraction, int decimals = 1) const {
    return csv_ ? util::format_fixed(fraction * 100.0, 2)
                : util::format_percent(fraction, decimals);
  }

 private:
  bool csv_;
};

// --- Subcommands -------------------------------------------------------------

int cmd_explore(const RunArgs& args) {
  require_single_noc(args, "explore");
  BoundWorkload wl = resolve_workload(args);
  core::ExplorerOptions options = args.explorer;
  options.tech = wl.tech;
  core::Explorer explorer(wl.cdcg, *wl.topo, options);
  core::Comparison cmp = explorer.compare();
  Fmt fmt(args.csv);

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
  print_table(table, args.csv);

  util::TextTable summary({"Metric", fmt.head("Value", "pct")});
  summary.add_row({"ETR (execution-time reduction)",
                   fmt.percent(cmp.execution_time_reduction())});
  summary.add_row({"ECS (energy saving, " + wl.tech.name + ")",
                   fmt.percent(cmp.energy_saving())});
  print_table(summary, args.csv);

  if (options.method == core::SearchMethod::kBranchAndBound) {
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
    print_table(bnb, args.csv);
  }

  if (options.method == core::SearchMethod::kPortfolio) {
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
    print_table(pf, args.csv);
  }
  return 0;
}

int cmd_bench_scale(ScaleArgs args) {
  core::ScaleBenchOptions& options = args.bench;
  if (args.workload) {
    if (!options.sizes.empty()) {
      throw UsageError(
          "bench --scale takes either --workload or --sizes, not both");
    }
    const auto [spec, fragment] = split_fragment(*args.workload);
    if (!workload::is_source_spec(spec)) {
      throw UsageError("bench --scale --workload expects a source spec "
                       "(suite, file:PATH or gen:SPEC), got '" +
                       *args.workload + "'");
    }
    if (!fragment.empty()) {
      throw UsageError("bench --scale benches whole sources; drop the '#" +
                       fragment + "' fragment");
    }
    const std::unique_ptr<workload::WorkloadSource> source =
        open_source(spec);
    std::cerr << "workload source: " << source->provenance() << "\n";
    options.workloads = source->all();
  }
  if (options.sizes.empty()) options.sizes = core::ScaleBenchOptions().sizes;
  const core::ScaleBenchReport report = core::run_scale_bench(options);

  // Deterministic columns only (best_j, moves, winner — never wall clock),
  // so CI can diff this table across thread counts byte-for-byte.
  Fmt fmt(args.csv);
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
  print_table(table, args.csv);
  write_report(args.out, report.to_json());
  return 0;
}

int cmd_bench_suite(const RunArgs& args) {
  require_single_noc(args, "bench");
  std::vector<workload::SuiteEntry> suite =
      args.noc_filter ? workload::table1_suite_for(*args.noc_filter)
                      : workload::table1_suite();
  const energy::Technology tech =
      args.tech.value_or(energy::technology_0_07u());

  Fmt fmt(args.csv);
  util::TextTable table({"Application", "NoC", "Cores", "Packets", "Bits",
                         "Method", fmt.head("ETR", "pct"),
                         fmt.head("ECS", "pct")});
  // The historical title is kept byte-for-byte on the mesh path.
  const std::string& topology = args.topologies.front();
  const std::string setting =
      tech.name + (topology == "mesh" ? "" : ", " + topology);
  table.set_title("nocmap bench — Table-1 suite, " + setting);

  // Explore every application, in parallel when --threads allows: each entry
  // is an independent Explorer run with its own seed-derived randomness, so
  // the collected rows do not depend on the thread count. The worker budget
  // is spent at the application level; each Explorer runs its chains
  // serially (otherwise --threads would multiply into threads^2 workers).
  core::ExplorerOptions per_app = args.explorer;
  per_app.tech = tech;
  if (suite.size() > 1) per_app.threads = 1;
  std::vector<std::optional<core::Comparison>> comparisons(suite.size());
  util::parallel_for_index(args.explorer.threads, suite.size(),
                           [&](std::size_t, std::size_t i) {
    const workload::SuiteEntry& entry = suite[i];
    const std::unique_ptr<noc::Topology> topo = noc::make_topology(
        topology, entry.noc_width, entry.noc_height, args.topology_options);
    core::Explorer explorer(entry.cdcg, *topo, per_app);
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
                   std::to_string(entry.cdcg.num_cores()),
                   std::to_string(entry.cdcg.num_packets()),
                   fmt.count(entry.cdcg.total_bits()), cmp.cdcm.method,
                   fmt.percent(cmp.execution_time_reduction()),
                   fmt.percent(cmp.energy_saving())});
  }
  print_table(table, args.csv);

  // Table 2 proper: each NoC size's mean beside the paper's row, then an
  // Average row that is the mean of the size rows, as the paper's is. Our
  // means get two decimals, like the paper's ECS 0.35u; the paper's cells
  // keep its printed precision.
  util::TextTable means({"NoC", fmt.head("ETR", "pct"), fmt.head("ECS", "pct"),
                         fmt.head("Paper ETR", "pct"),
                         fmt.head("Paper ECS 0.35u", "pct"),
                         fmt.head("Paper ECS 0.07u", "pct")});
  means.set_title("Table 2 — mean per NoC size, " + setting +
                  ", beside the paper");
  const auto add_means = [&](double etr, double ecs,
                             const workload::PaperTable2Row& paper) {
    const auto cell = [&](double pct, int decimals) {
      return util::format_fixed(pct, decimals) + (args.csv ? "" : " %");
    };
    means.add_row({std::string(paper.noc_size), fmt.percent(etr, 2),
                   fmt.percent(ecs, 2), cell(paper.etr_pct, 0),
                   cell(paper.ecs_035u_pct, 2), cell(paper.ecs_007u_pct, 0)});
  };
  double etr_sum = 0.0, ecs_sum = 0.0;
  workload::PaperTable2Row paper_sum{"Average", 0.0, 0.0, 0.0};
  std::size_t sizes = 0;
  for (const workload::PaperTable2Row& paper : workload::kPaperTable2) {
    double etr = 0.0, ecs = 0.0;
    std::size_t apps = 0;
    for (std::size_t i = 0; i < suite.size(); ++i) {
      if (suite[i].noc_size_label() != paper.noc_size) continue;
      etr += comparisons[i]->execution_time_reduction();
      ecs += comparisons[i]->energy_saving();
      ++apps;
    }
    if (apps == 0) continue;
    add_means(etr / apps, ecs / apps, paper);
    etr_sum += etr / apps;
    ecs_sum += ecs / apps;
    paper_sum.etr_pct += paper.etr_pct;
    paper_sum.ecs_035u_pct += paper.ecs_035u_pct;
    paper_sum.ecs_007u_pct += paper.ecs_007u_pct;
    ++sizes;
  }
  paper_sum.etr_pct /= sizes;
  paper_sum.ecs_035u_pct /= sizes;
  paper_sum.ecs_007u_pct /= sizes;
  means.add_separator();
  add_means(etr_sum / sizes, ecs_sum / sizes, paper_sum);
  print_table(means, args.csv);
  return 0;
}

/// `bench` runs the suite; --scale selects the benchmark mode with its own
/// flag table.
int cmd_bench(int argc, char** argv) {
  if (std::find(argv + 2, argv + argc, std::string("--scale")) !=
      argv + argc) {
    return cmd_bench_scale(parse_flags(
        Command<ScaleArgs>{"bench --scale", kBenchScaleUsage, kScaleFlags},
        argc, argv, 2));
  }
  return cmd_bench_suite(parse_flags(
      Command<RunArgs>{"bench", kBenchUsage, kRunFlags, kBench}, argc, argv,
      2));
}

int cmd_serve_bench(const ServeArgs& args) {
  const serve::ServeBenchOptions& options = args.bench;
  if (options.dup_ratio + options.near_ratio > 1.0) {
    throw UsageError("--dup-ratio + --near-ratio must be at most 1");
  }

  const serve::ServeBenchReport report = serve::run_serve_bench(options);

  Fmt fmt(args.csv);
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
  print_table(table, args.csv);
  write_report(args.out, report.to_json());
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
                     std::to_string(entry.cdcg.num_cores()),
                     std::to_string(entry.cdcg.num_packets()),
                     fmt.count(entry.cdcg.total_bits()),
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
  int first = 2;
  const std::string verb =
      first < argc && argv[first][0] != '-' ? argv[first++] : "list";
  struct Verb {
    const char* name;
    unsigned bit;
    const char* example;  ///< Arguments of a usage example.
  };
  const Verb verbs[] = {{"list", kList, "suite"},
                        {"import", kImport, "apps.tgff --out apps.json"},
                        {"export", kExport, "suite --out suite.json"},
                        {"gen", kGen, "apps=200,seed=7"},
                        {"validate", kValidate, "file:apps.json"}};
  const auto it = std::find_if(std::begin(verbs), std::end(verbs),
                               [&](const Verb& v) { return verb == v.name; });
  if (it == std::end(verbs)) {
    throw UsageError("unknown `nocmap workloads` verb '" + verb +
                     "' (expected list, import, export, gen or validate)");
  }
  std::vector<std::string> positional;
  WorkloadsArgs args = parse_flags(
      Command<WorkloadsArgs>{"workloads " + verb, kWorkloadsUsage,
                             kWorkloadsFlags, it->bit},
      argc, argv, first, WorkloadsArgs(), &positional);
  if (positional.size() > 1) {
    throw UsageError("`nocmap workloads " + verb +
                     "` takes at most one positional argument");
  }
  if (!positional.empty()) {
    if (!args.source.empty()) {
      throw UsageError("give the source either positionally or with "
                       "--workload, not both");
    }
    args.source = positional.front();
  }
  const std::string& spec = args.source;
  if (it->bit == kList) {
    return cmd_workloads_list(spec.empty() ? "" : as_source_spec(spec),
                              args.csv);
  }
  if (spec.empty()) {
    throw UsageError("`nocmap workloads " + verb + "` needs a source, e.g. " +
                     "`nocmap workloads " + verb + " " + it->example + "`");
  }
  if (it->bit == kValidate) return cmd_workloads_validate(as_source_spec(spec));
  if (it->bit == kGen) {
    return cmd_workloads_export(
        spec.rfind("gen:", 0) == 0 ? spec : "gen:" + spec, args.out);
  }
  return cmd_workloads_export(as_source_spec(spec), args.out);
}

/// The historical single-(topology, routing) seed sweep; kept as its own
/// path so the mesh/XY output stays byte-identical to the pre-topology era.
int cmd_sweep_seeds(const RunArgs& args, std::uint64_t num_seeds) {
  BoundWorkload wl = resolve_workload(args);
  Fmt fmt(args.csv);

  util::TextTable table({"Seed", "Method", fmt.head("CWM Texec", "ns"),
                         fmt.head("CDCM Texec", "ns"), fmt.head("ETR", "pct"),
                         fmt.head("ECS", "pct")});
  table.set_title("nocmap sweep — " + wl.name + " on " + wl.topo->label() +
                  ", " + wl.tech.name + ", " + std::to_string(num_seeds) +
                  " seeds");

  double etr_sum = 0.0, etr_min = 0.0, etr_max = 0.0;
  double ecs_sum = 0.0;
  for (std::uint64_t k = 0; k < num_seeds; ++k) {
    core::ExplorerOptions run = args.explorer;
    run.tech = wl.tech;
    run.seed = args.explorer.seed + k;
    core::Explorer explorer(wl.cdcg, *wl.topo, run);
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
  print_table(table, args.csv);

  double n = static_cast<double>(num_seeds);
  util::TextTable summary({"Metric", fmt.head("Value", "pct")});
  summary.add_row({"mean ETR", fmt.percent(etr_sum / n)});
  summary.add_row({"min ETR", fmt.percent(etr_min)});
  summary.add_row({"max ETR", fmt.percent(etr_max)});
  summary.add_row({"mean ECS", fmt.percent(ecs_sum / n)});
  print_table(summary, args.csv);
  return 0;
}

int cmd_sweep(const RunArgs& args) {
  // Any multi-application source ("suite", "file:apps.json", "gen:...")
  // sweeps every application it holds; a '#' fragment pins one application
  // and keeps the historical single-workload semantics.
  const auto [sweep_spec, sweep_fragment] = split_fragment(args.workload);
  const bool multi_mode =
      workload::is_source_spec(sweep_spec) && sweep_fragment.empty();
  if (args.noc_filter && !multi_mode) {
    throw UsageError(
        "sweep --noc filters a multi-application --workload source "
        "(suite, file:PATH or gen:SPEC)");
  }
  // A full source already multiplies out to many rows; default to a single
  // seed there unless the user asked for more.
  const std::uint64_t num_seeds = args.seeds.value_or(multi_mode ? 1 : 5);
  if (!multi_mode && args.topologies.size() == 1 &&
      args.routings.size() == 1) {
    return cmd_sweep_seeds(args, num_seeds);
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
  std::string title = args.workload;
  energy::Technology tech = args.tech.value_or(energy::technology_0_07u());
  if (multi_mode) {
    const std::unique_ptr<workload::WorkloadSource> source =
        open_source(sweep_spec);
    title = source->name();
    std::cerr << "workload source: " << source->provenance() << "\n";
    for (std::size_t i = 0; i < source->size(); ++i) {
      workload::WorkloadApp app = source->app(i);
      if (args.noc_filter && app.noc_size_label() != *args.noc_filter) {
        continue;
      }
      src_apps.push_back(std::move(app));
    }
    if (src_apps.empty()) {
      throw UsageError("source " + source->name() +
                       " has no workloads on NoC size " +
                       args.noc_filter.value_or("?"));
    }
    for (const workload::WorkloadApp& a : src_apps) {
      apps.push_back(SweepApp{a.name, &a.cdcg, a.noc_width, a.noc_height});
    }
  } else {
    single = resolve_workload(args);
    tech = single->tech;
    title = single->name;
    apps.push_back(SweepApp{single->name, &single->cdcg,
                            single->topo->width(), single->topo->height()});
  }

  struct SweepRow {
    std::string topology;
    noc::RoutingAlgorithm routing{};
    std::size_t app = 0;
    std::uint64_t seed = 0;
    std::optional<core::Comparison> cmp;
  };
  std::vector<SweepRow> rows;
  for (const std::string& topology : args.topologies) {
    for (const noc::RoutingAlgorithm routing : args.routings) {
      for (std::size_t app = 0; app < apps.size(); ++app) {
        for (std::uint64_t k = 0; k < num_seeds; ++k) {
          rows.push_back(SweepRow{topology, routing, app,
                                  args.explorer.seed + k, std::nullopt});
        }
      }
    }
  }

  // Like bench: spend the worker budget at the row level (each row derives
  // its randomness from its own seed, so the output is thread-invariant).
  core::ExplorerOptions per_row = args.explorer;
  per_row.tech = tech;
  if (rows.size() > 1) per_row.threads = 1;
  util::parallel_for_index(args.explorer.threads, rows.size(),
                           [&](std::size_t, std::size_t i) {
    SweepRow& row = rows[i];
    const SweepApp& app = apps[row.app];
    const std::unique_ptr<noc::Topology> topo = noc::make_topology(
        row.topology, app.width, app.height, args.topology_options);
    core::ExplorerOptions run = per_row;
    run.seed = row.seed;
    run.routing = row.routing;
    core::Explorer explorer(*app.cdcg, *topo, run);
    row.cmp = explorer.compare();
  });

  Fmt fmt(args.csv);
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
  print_table(table, args.csv);

  // Per-(topology, routing) aggregates, in row order.
  util::TextTable summary({"Topology", "Routing", "Rows",
                           fmt.head("mean ETR", "pct"),
                           fmt.head("mean ECS", "pct")});
  for (const std::string& topology : args.topologies) {
    for (const noc::RoutingAlgorithm routing : args.routings) {
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
  print_table(summary, args.csv);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::cerr << kTopUsage;
    return 2;
  }
  const std::string sub = argv[1];
  try {
    if (sub == "-h" || sub == "--help" || sub == "help") {
      std::cout << kTopUsage;
      return 0;
    }
    if (sub == "--version") {
      std::cout << "nocmap 0.1.0 (Marcon et al., DATE 2005 reproduction)\n";
      return 0;
    }
    if (sub == "explore") {
      return cmd_explore(parse_flags(
          Command<RunArgs>{"explore", kExploreUsage, kRunFlags, kExplore},
          argc, argv, 2));
    }
    if (sub == "sweep") {
      return cmd_sweep(parse_flags(
          Command<RunArgs>{"sweep", kSweepUsage, kRunFlags, kSweep}, argc,
          argv, 2));
    }
    if (sub == "bench") return cmd_bench(argc, argv);
    if (sub == "serve-bench") {
      return cmd_serve_bench(parse_flags(
          Command<ServeArgs>{"serve-bench", kServeBenchUsage, kServeFlags},
          argc, argv, 2));
    }
    if (sub == "workloads") return cmd_workloads(argc, argv);
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
