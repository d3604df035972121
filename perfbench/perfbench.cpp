/// \file perfbench.cpp
/// The nocmap benchmark: the pipelines users run, end to end and per layer.
///
/// One process runs one workload through the library's public API.
/// WORKLOADS.md says why each workload exists and which end-to-end metric
/// each layer metric should move.
///
///   table2      `nocmap bench`: Explorer::compare() on the 18 Table-1 apps
///   scale       `nocmap bench --scale` on 8x8: the racing portfolio
///   serve       `nocmap serve-bench`: 1000 requests through a ServeEngine
///   congestion  the pinned flit-backend experiment of docs/experiments.md
///
///   perfbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
///             [--quick] [--report FILE]
///   perfbench --list-metrics
///
/// Untraced, the workload repeats until --seconds is spent, and the
/// end-to-end metrics are medians over those passes. With --trace 1,
/// untraced passes fill half the budget, then one traced pass times each
/// call into a layer from outside and yields the per-layer metrics. Every
/// pass, traced or not, must reproduce the first pass's results digest.
/// The last line of stdout is one JSON object {"correct", "attempted",
/// "failed", "metrics"}; the exit status is 0 only when every check passed.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <exception>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#if defined(__linux__)
#include <sched.h>
#endif
#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "nocmap/core/explorer.hpp"
#include "nocmap/energy/technology.hpp"
#include "nocmap/graph/cdcg.hpp"
#include "nocmap/graph/cwg.hpp"
#include "nocmap/mapping/cost.hpp"
#include "nocmap/mapping/mapping.hpp"
#include "nocmap/noc/mesh.hpp"
#include "nocmap/search/greedy.hpp"
#include "nocmap/search/portfolio.hpp"
#include "nocmap/serve/canonical.hpp"
#include "nocmap/serve/engine.hpp"
#include "nocmap/serve/serve_bench.hpp"
#include "nocmap/util/rng.hpp"
#include "nocmap/workload/paper_example.hpp"
#include "nocmap/workload/random_cdcg.hpp"
#include "nocmap/workload/suite.hpp"
#include "nocmap/workload/synthetic.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif

namespace {

namespace core = nocmap::core;
namespace energy = nocmap::energy;
namespace graph = nocmap::graph;
namespace mapping = nocmap::mapping;
namespace noc = nocmap::noc;
namespace search = nocmap::search;
namespace serve = nocmap::serve;
namespace sim = nocmap::sim;
namespace workload = nocmap::workload;

using Clock = std::chrono::steady_clock;
using Metrics = std::map<std::string, double>;
using Swap = std::pair<noc::TileId, noc::TileId>;

#if defined(__OPTIMIZE__)
constexpr bool kOptimized = true;
#else
constexpr bool kOptimized = false;
#endif

constexpr noc::RoutingAlgorithm kRouting = noc::RoutingAlgorithm::kXY;
// Set-up is timed in batches of back-to-back set-ups, each batch lasting at
// least kSetupBatchSeconds, so that a set-up of microseconds is timed over
// milliseconds. At least kSetupBatches batches run, for at least
// kSetupSeconds, and setup_s is the fastest batch's mean set-up. On a shared
// host a CPU can alternate, every few hundred milliseconds, between full
// speed and a state in which set-up, which mostly allocates, runs about 1.6
// times slower. A median follows whichever state fills more of the window;
// nearly every window of two seconds holds a batch at full speed.
constexpr std::size_t kSetupBatches = 15;
constexpr double kSetupBatchSeconds = 0.02;
constexpr double kSetupSeconds = 2.0;
constexpr std::size_t kMaxPasses = 100'000;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

std::uint64_t nanos_since(Clock::time_point t0) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - t0)
          .count());
}

double rate(double count, double seconds) {
  return seconds > 0.0 ? count / seconds : 0.0;
}

// --- Metric catalogue ---------------------------------------------------------

struct MetricDef {
  const char* name;
  const char* unit;
  const char* better;
  bool per_layer;
};

/// Every metric the benchmark reports, in report order. BENCHMARK.json lists
/// the same names, units and directions; `run.py --self-test` compares them.
constexpr MetricDef kMetrics[] = {
    {"setup_s", "s", "lower", false},
    {"wall_s", "s", "lower", false},
    {"quality_ratio", "ratio", "lower", false},
    {"texec_ratio", "ratio", "lower", false},
    {"latency_p50_ms", "ms", "lower", false},
    {"latency_p99_ms", "ms", "lower", false},
    {"workload.build_s", "s", "lower", true},
    {"core.cwm_s", "s", "lower", true},
    {"core.cdcm_s", "s", "lower", true},
    {"search.es_s", "s", "lower", true},
    {"search.es_evals", "count", "lower", true},
    {"search.sa_s", "s", "lower", true},
    {"search.sa_evals", "count", "lower", true},
    {"search.sa_seed_kept", "count", "lower", true},
    {"search.sa_worse_than_greedy", "count", "lower", true},
    {"search.portfolio_s", "s", "lower", true},
    {"search.bnb_s", "s", "lower", true},
    {"search.bnb_tests", "count", "lower", true},
    {"search.bnb_won", "count", "higher", true},
    {"search.polish_applied", "count", "lower", true},
    {"search.polish_capped", "count", "lower", true},
    {"mapping.cwm_evals_per_s", "1/s", "higher", true},
    {"mapping.cdcm_evals_per_s", "1/s", "higher", true},
    {"mapping.bound_tests_per_s", "1/s", "higher", true},
    {"sim.batch_evals_per_s", "1/s", "higher", true},
    {"sim.ground_truth_s", "s", "lower", true},
    {"serve.canonicalize_s", "s", "lower", true},
    {"serve.solve_s", "s", "lower", true},
    {"serve.overhead_s", "s", "lower", true},
    {"serve.hit_rate", "ratio", "higher", true},
    {"serve.warm_rate", "ratio", "higher", true},
    {"serve.warm_regret", "ratio", "lower", true},
    {"serve.warm_worse", "count", "lower", true},
    {"bench.trace_overhead_s", "s", "lower", true},
};

// --- Statistics, digests, JSON -------------------------------------------------

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank percentile, q in (0, 1].
double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank =
      static_cast<std::size_t>(std::ceil(q * static_cast<double>(v.size())));
  return v[std::min(v.size() - 1, rank == 0 ? 0 : rank - 1)];
}

/// Geometric mean of ratios.
class Geomean {
 public:
  void add(double ratio) {
    log_sum_ += std::log(ratio);
    ++count_;
  }
  double value() const {
    return count_ == 0 ? 0.0
                       : std::exp(log_sum_ / static_cast<double>(count_));
  }

 private:
  double log_sum_ = 0.0;
  std::size_t count_ = 0;
};

std::uint64_t mix(std::uint64_t z) {
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

/// The fold of serve/serve_bench.cpp: the serve workload's digest must equal
/// the results_digest of serve::run_serve_bench on the same stream.
std::uint64_t fold(std::uint64_t h, std::uint64_t v) {
  return mix(h ^ (v + 0x9E3779B97F4A7C15ULL + (h << 6) + (h >> 2)));
}

std::uint64_t bits_of(double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

bool same_bits(double a, double b) { return bits_of(a) == bits_of(b); }

std::vector<noc::TileId> assignment_of(const mapping::Mapping& m) {
  std::vector<noc::TileId> tiles(m.num_cores());
  for (std::size_t c = 0; c < tiles.size(); ++c) {
    tiles[c] = m.tile_of(static_cast<graph::CoreId>(c));
  }
  return tiles;
}

/// Fold one result into `h`: its objective bits, then its assignment.
std::uint64_t fold_result(std::uint64_t h, double objective,
                          const mapping::Mapping& m) {
  h = fold(h, bits_of(objective));
  h = fold(h, m.num_cores());
  for (const noc::TileId t : assignment_of(m)) h = fold(h, t);
  return h;
}

/// True when `m` puts each of the application's `cores` on its own tile of
/// `topo`.
bool valid_mapping(const mapping::Mapping& m, const noc::Topology& topo,
                   std::size_t cores) {
  if (m.num_cores() != cores || m.num_tiles() != topo.num_tiles() ||
      !m.is_valid()) {
    return false;
  }
  try {
    return mapping::Mapping::from_assignment(topo, assignment_of(m)) == m;
  } catch (const std::invalid_argument&) {
    return false;
  }
}

/// The simulator options an Explorer derives from `o` (Explorer::sim_options).
sim::SimOptions sim_options_of(const core::ExplorerOptions& o) {
  sim::SimOptions so;
  so.routing = o.routing;
  so.backend = o.sim_backend;
  so.buffer_depth = o.buffer_depth;
  so.flow_control = o.flow_control;
  so.switching = o.switching;
  so.checkpoints = o.cdcm_checkpoints;
  so.checkpoint_interval = o.ckpt_interval;
  return so;
}

std::string json_number(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

// --- Host record ---------------------------------------------------------------

/// The CPU brand string, read with cpuid so that the benchmark reads no file
/// outside its checkout.
std::string cpu_model() {
#if defined(__x86_64__) || defined(__i386__)
  if (__get_cpuid_max(0x80000000u, nullptr) >= 0x80000004u) {
    unsigned int regs[12] = {};
    for (unsigned int i = 0; i < 3; ++i) {
      __get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                  &regs[4 * i + 2], &regs[4 * i + 3]);
    }
    char brand[sizeof(regs) + 1] = {};
    std::memcpy(brand, regs, sizeof(regs));
    const std::string s(brand);
    const std::size_t first = s.find_first_not_of(' ');
    const std::size_t last = s.find_last_not_of(' ');
    if (first != std::string::npos) return s.substr(first, last - first + 1);
  }
#endif
  return "unknown";
}

/// CPUs this process may run on (what `nproc` prints).
unsigned usable_cpus() {
#if defined(__linux__)
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    return static_cast<unsigned>(CPU_COUNT(&set));
  }
#endif
  return std::thread::hardware_concurrency();
}

std::string host_json() {
  return "{\"cpu\": " + json_string(cpu_model()) +
         ", \"nproc\": " + std::to_string(usable_cpus()) +
         ", \"compiler\": " +
         json_string(std::string(PERFBENCH_COMPILER) + " (" + __VERSION__ +
                     ")") +
         ", \"build_type\": " + json_string(PERFBENCH_BUILD_TYPE) + "}";
}

// --- Spans ---------------------------------------------------------------------

/// In-memory spans (name, start, end, parent) around the benchmark's calls
/// into each layer, written to the run report at the end. Spans open and
/// close on the benchmark's own thread only.
class SpanRecorder {
 public:
  /// Run `body` inside a span named `name`; returns the span's seconds.
  template <typename Body>
  double run(const char* name, Body&& body) {
    const std::size_t index = spans_.size();
    const long parent = open_.empty() ? -1L : static_cast<long>(open_.back());
    spans_.push_back(Span{name, now(), 0.0, parent});
    open_.push_back(index);
    try {
      body();
    } catch (...) {
      close(index);
      throw;
    }
    close(index);
    return spans_[index].end_s - spans_[index].start_s;
  }

  /// Self time per span name: each span's length minus its children's.
  std::map<std::string, double> self_seconds() const {
    std::vector<double> children(spans_.size(), 0.0);
    for (const Span& s : spans_) {
      if (s.parent >= 0) {
        children[static_cast<std::size_t>(s.parent)] += s.end_s - s.start_s;
      }
    }
    std::map<std::string, double> self;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      self[spans_[i].name] += spans_[i].end_s - spans_[i].start_s - children[i];
    }
    return self;
  }

  void write_json(std::ostream& os) const {
    os << "[";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      os << (i == 0 ? "\n    " : ",\n    ") << "{\"name\": "
         << json_string(s.name) << ", \"start_s\": " << json_number(s.start_s)
         << ", \"end_s\": " << json_number(s.end_s)
         << ", \"parent\": " << s.parent << "}";
    }
    os << "\n  ]";
  }

 private:
  struct Span {
    std::string name;
    double start_s;
    double end_s;
    long parent;  ///< Index of the enclosing span, -1 at top level.
  };

  double now() const { return seconds_since(origin_); }
  void close(std::size_t index) {
    spans_[index].end_s = now();
    open_.pop_back();
  }

  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
  std::vector<std::size_t> open_;
};

// --- Cost-function wrappers that time the mapping layer ------------------------

/// Totals of every TimedCost of one run. Each wrapper keeps private totals
/// and adds them here when it is destroyed, so the search's worker threads
/// share nothing on the hot path.
struct PricingCounters {
  std::atomic<std::uint64_t> pricings{0};
  std::atomic<std::uint64_t> pricing_ns{0};
  std::atomic<std::uint64_t> bound_ns{0};
};

/// Times every call into a B&B member's lower-bound evaluator.
class TimedBound final : public mapping::CostFunction::LowerBound {
 public:
  TimedBound(std::unique_ptr<LowerBound> inner, PricingCounters& counters)
      : inner_(std::move(inner)), counters_(counters) {}
  ~TimedBound() override { counters_.bound_ns += ns_; }
  TimedBound(const TimedBound&) = delete;
  TimedBound& operator=(const TimedBound&) = delete;

  void reset() override { inner_->reset(); }
  void place(graph::CoreId core, noc::TileId tile) override {
    const Clock::time_point t0 = Clock::now();
    inner_->place(core, tile);
    ns_ += nanos_since(t0);
  }
  void unplace(graph::CoreId core, noc::TileId tile) override {
    const Clock::time_point t0 = Clock::now();
    inner_->unplace(core, tile);
    ns_ += nanos_since(t0);
  }
  double bound(double prune_above) const override {
    const Clock::time_point t0 = Clock::now();
    const double b = inner_->bound(prune_above);
    ns_ += nanos_since(t0);
    return b;
  }
  std::uint64_t core_traffic(graph::CoreId core) const override {
    return inner_->core_traffic(core);
  }

 private:
  std::unique_ptr<LowerBound> inner_;
  PricingCounters& counters_;
  mutable std::uint64_t ns_ = 0;
};

/// Forwards every call to an inner cost function, timing each pricing
/// (cost(), swap and move deltas, and each candidate of a batched
/// swap_deltas() call) and handing out TimedBounds. Every value is the inner
/// function's, bit for bit, so a search behaves exactly as without it.
class TimedCost final : public mapping::CostFunction {
 public:
  TimedCost(std::unique_ptr<mapping::CostFunction> inner,
            PricingCounters& counters)
      : inner_(std::move(inner)), counters_(counters) {}
  ~TimedCost() override {
    counters_.pricings += pricings_;
    counters_.pricing_ns += ns_;
  }
  TimedCost(const TimedCost&) = delete;
  TimedCost& operator=(const TimedCost&) = delete;

  double cost(const mapping::Mapping& m) const override {
    return timed(1, [&] { return inner_->cost(m); });
  }
  std::string name() const override { return inner_->name(); }
  std::size_t num_cores() const override { return inner_->num_cores(); }
  void begin_search() const override { inner_->begin_search(); }
  bool has_swap_delta() const override { return inner_->has_swap_delta(); }
  double swap_delta(const mapping::Mapping& m, noc::TileId a,
                    noc::TileId b) const override {
    return timed(1, [&] { return inner_->swap_delta(m, a, b); });
  }
  void apply_swap(mapping::Mapping& m, noc::TileId a,
                  noc::TileId b) const override {
    inner_->apply_swap(m, a, b);
  }
  double move_delta(mapping::Mapping& m, const Swap* swaps,
                    std::size_t count) const override {
    return timed(1, [&] { return inner_->move_delta(m, swaps, count); });
  }
  void apply_move(mapping::Mapping& m, const Swap* swaps,
                  std::size_t count) const override {
    inner_->apply_move(m, swaps, count);
  }
  bool has_batched_deltas() const override {
    return inner_->has_batched_deltas();
  }
  void swap_deltas(const mapping::Mapping& m, const Swap* cands,
                   std::size_t count, double* out) const override {
    timed(count, [&] {
      inner_->swap_deltas(m, cands, count, out);
      return 0.0;
    });
  }
  bool has_lower_bound() const override { return inner_->has_lower_bound(); }
  std::unique_ptr<LowerBound> make_lower_bound() const override {
    return std::make_unique<TimedBound>(inner_->make_lower_bound(), counters_);
  }
  bool symmetry_invariant() const override {
    return inner_->symmetry_invariant();
  }

 private:
  template <typename Price>
  double timed(std::uint64_t pricings, Price&& price) const {
    const Clock::time_point t0 = Clock::now();
    const double value = price();
    ns_ += nanos_since(t0);
    pricings_ += pricings;
    return value;
  }

  std::unique_ptr<mapping::CostFunction> inner_;
  PricingCounters& counters_;
  mutable std::uint64_t pricings_ = 0;
  mutable std::uint64_t ns_ = 0;
};

// --- Workloads -----------------------------------------------------------------

/// One pass through a workload: what the end-to-end metrics come from.
struct Pass {
  double wall_s = 0.0;
  std::size_t ops = 0;  ///< Operations attempted.
  /// Per request on serve; elsewhere one entry, the pass (one `nocmap
  /// bench`, one `bench --scale` run, one compare()).
  std::vector<double> latency_ms;
  /// Objective bits and assignment of every result, in order.
  std::uint64_t digest = 0;
  std::size_t failed = 0;  ///< Operations that threw.
};

/// The output checks of the latest pass, and the quality they measure.
struct Verdict {
  std::size_t failed = 0;
  double quality_ratio = 0.0;
  double texec_ratio = 0.0;
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// Build the inputs, topologies and engines. Returns the seconds spent
  /// generating the applications (the workload layer's share).
  virtual double setup() = 0;
  /// One untraced pass through the public API.
  virtual Pass run() = 0;
  /// Check every output of the latest pass.
  virtual Verdict check() = 0;
  /// One pass with a span around each call into a layer. Adds the
  /// per-layer metrics this workload produces to `layer`. Work done only to
  /// measure (re-evaluations, reference solves) runs after the pass's wall
  /// clock stops.
  virtual Pass run_traced(SpanRecorder& spans, Metrics& layer) = 0;

  std::vector<std::string> errors;  ///< Why operations failed.
};

// --- table2 and congestion: Explorer::compare() over a list of applications ---

struct App {
  std::string name;
  graph::Cdcg cdcg;
  std::uint32_t width = 0;
  std::uint32_t height = 0;
};

/// The 18 Table-1 applications in Table-1 order (--quick: the boards of at
/// most 12 tiles, which leaves out the three large SA boards).
std::vector<App> table2_apps(bool quick) {
  std::vector<App> apps;
  for (workload::SuiteEntry& e : workload::table1_suite()) {
    if (quick && e.noc_width * e.noc_height > 12) continue;
    apps.push_back(App{e.name, std::move(e.cdcg), e.noc_width, e.noc_height});
  }
  return apps;
}

/// The pinned congestion experiment of docs/experiments.md.
std::vector<App> congestion_apps() {
  workload::RandomCdcgParams params;
  params.num_cores = 8;
  params.num_packets = 40;
  params.total_bits = 81'920;
  nocmap::util::Rng rng(7);
  std::vector<App> apps;
  apps.push_back(App{"random-8c-40p-seed7",
                     workload::generate_random_cdcg(params, rng), 3, 3});
  return apps;
}

class CompareWorkload final : public Workload {
 public:
  CompareWorkload(std::function<std::vector<App>()> build,
                  core::ExplorerOptions options, bool pinned_zero_etr)
      : build_(std::move(build)),
        options_(std::move(options)),
        pinned_zero_etr_(pinned_zero_etr) {}

  double setup() override {
    explorers_.clear();
    meshes_.clear();
    const Clock::time_point t0 = Clock::now();
    apps_ = build_();
    const double build_s = seconds_since(t0);
    for (const App& app : apps_) {
      meshes_.push_back(std::make_unique<noc::Mesh>(app.width, app.height));
      explorers_.push_back(std::make_unique<core::Explorer>(
          app.cdcg, *meshes_.back(), options_));
    }
    return build_s;
  }

  Pass run() override {
    Pass pass;
    results_.assign(apps_.size(), std::nullopt);
    const Clock::time_point t0 = Clock::now();
    for (std::size_t i = 0; i < apps_.size(); ++i) {
      try {
        results_[i] = explorers_[i]->compare();
      } catch (const std::exception& e) {
        ++pass.failed;
        errors.push_back(apps_[i].name + ": compare() threw: " + e.what());
      }
    }
    pass.wall_s = seconds_since(t0);
    pass.ops = apps_.size();
    pass.latency_ms.push_back(1e3 * pass.wall_s);
    pass.digest = digest();
    return pass;
  }

  Verdict check() override {
    Verdict verdict;
    Geomean quality, texec;
    const sim::SimOptions so = sim_options_of(options_);
    for (std::size_t i = 0; i < apps_.size(); ++i) {
      if (!results_[i]) continue;  // Counted as failed when it threw.
      const App& app = apps_[i];
      const noc::Mesh& mesh = *meshes_[i];
      const core::Comparison& cmp = *results_[i];
      const graph::Cwg& cwg = explorers_[i]->cwg();
      const mapping::CwmCost cwm(cwg, mesh, options_.tech, options_.routing);
      const mapping::CdcmCost cdcm(app.cdcg, mesh, options_.tech,
                                   options_.routing, so);
      std::string why;
      if (!valid_mapping(cmp.cwm.mapping, mesh, app.cdcg.num_cores()) ||
          !valid_mapping(cmp.cdcm.mapping, mesh, app.cdcg.num_cores())) {
        why = "a returned mapping is invalid";
      } else if (!same_bits(cwm.cost(cmp.cwm.mapping), cmp.cwm.objective_j)) {
        why = "the CWM objective does not re-price bitwise";
      } else if (!same_bits(cdcm.cost(cmp.cdcm.mapping),
                            cmp.cdcm.objective_j)) {
        why = "the CDCM objective does not re-price bitwise";
      } else if (!same_bits(cdcm.evaluate(cmp.cdcm.mapping).texec_ns,
                            cmp.cdcm.sim.texec_ns)) {
        why = "the ground-truth Texec does not repeat";
      } else if (pinned_zero_etr_ &&
                 std::abs(cmp.execution_time_reduction()) >= 5e-5) {
        why = "ETR " + json_number(100.0 * cmp.execution_time_reduction()) +
              " % is not the pinned 0.00 %";
      }
      if (!why.empty()) {
        ++verdict.failed;
        errors.push_back(app.name + ": " + why);
        continue;
      }
      const mapping::Mapping greedy = search::greedy_mapping(cwg, mesh);
      quality.add(cmp.cwm.objective_j / cwm.cost(greedy));
      quality.add(cmp.cdcm.objective_j / cdcm.cost(greedy));
      texec.add(cmp.cdcm.sim.texec_ns / cdcm.evaluate(greedy).texec_ns);
    }
    verdict.quality_ratio = quality.value();
    verdict.texec_ratio = texec.value();
    return verdict;
  }

  /// compare() split into optimize_cwm() and a second Explorer, seeded with
  /// the CWM winner, that calls optimize_cdcm(): exactly what compare()
  /// does, with each half timed on its own.
  Pass run_traced(SpanRecorder& spans, Metrics& layer) override {
    Pass pass;
    results_.assign(apps_.size(), std::nullopt);
    std::vector<double> cwm_s(apps_.size(), 0.0), cdcm_s(apps_.size(), 0.0);
    const Clock::time_point t0 = Clock::now();
    for (std::size_t i = 0; i < apps_.size(); ++i) {
      try {
        spans.run("core.compare", [&] {
          std::optional<core::ModelOutcome> cwm, cdcm;
          cwm_s[i] = spans.run("core.optimize_cwm",
                               [&] { cwm = explorers_[i]->optimize_cwm(); });
          core::ExplorerOptions seeded = options_;
          seeded.seed_assignment = assignment_of(cwm->mapping);
          cdcm_s[i] = spans.run("core.optimize_cdcm", [&] {
            const core::Explorer second(apps_[i].cdcg, *meshes_[i],
                                        std::move(seeded));
            cdcm = second.optimize_cdcm();
          });
          results_[i] = core::Comparison{std::move(*cwm), std::move(*cdcm)};
        });
      } catch (const std::exception& e) {
        ++pass.failed;
        errors.push_back(apps_[i].name + ": traced compare threw: " +
                         e.what());
      }
    }
    pass.wall_s = seconds_since(t0);
    pass.ops = apps_.size();
    pass.latency_ms.push_back(1e3 * pass.wall_s);
    pass.digest = digest();

    // Each search ends with a ground-truth evaluate() of its winner inside
    // Explorer::run; timing it again on its own separates the simulator's
    // share from the search's.
    struct Totals {
      double seconds = 0.0;
      double search_s = 0.0;  ///< seconds minus the ground truth.
      std::uint64_t evals = 0;
      std::size_t calls = 0;
    };
    const auto tally = [](Totals& t, const core::ModelOutcome& o,
                          double seconds, double ground_truth) {
      t.seconds += seconds;
      t.search_s += std::max(0.0, seconds - ground_truth);
      t.evals += o.evaluations;
      ++t.calls;
    };
    Totals cwm_all, cdcm_all, es, sa, cwm_sa, cdcm_sa, cdcm_es;
    double ground_truth_s = 0.0;
    std::uint64_t seed_kept = 0, worse_than_greedy = 0;
    const sim::SimOptions so = sim_options_of(options_);
    for (std::size_t i = 0; i < apps_.size(); ++i) {
      if (!results_[i]) continue;
      const core::Comparison& cmp = *results_[i];
      const noc::Mesh& mesh = *meshes_[i];
      const auto ground_truth = [&](const mapping::Mapping& m) {
        return spans.run("sim.ground_truth", [&] {
          mapping::CdcmCost(apps_[i].cdcg, mesh, options_.tech,
                            options_.routing, so)
              .evaluate(m);
        });
      };
      const double cwm_gt = ground_truth(cmp.cwm.mapping);
      const double cdcm_gt = ground_truth(cmp.cdcm.mapping);
      ground_truth_s += cwm_gt + cdcm_gt;
      const bool cwm_es = cmp.cwm.method == "ES";
      const bool cdcm_is_es = cmp.cdcm.method == "ES";
      tally(cwm_all, cmp.cwm, cwm_s[i], cwm_gt);
      tally(cdcm_all, cmp.cdcm, cdcm_s[i], cdcm_gt);
      tally(cwm_es ? es : sa, cmp.cwm, cwm_s[i], cwm_gt);
      tally(cdcm_is_es ? es : sa, cmp.cdcm, cdcm_s[i], cdcm_gt);
      tally(cdcm_is_es ? cdcm_es : cdcm_sa, cmp.cdcm, cdcm_s[i], cdcm_gt);
      if (!cdcm_is_es && cmp.cdcm.mapping == cmp.cwm.mapping) ++seed_kept;
      if (!cwm_es) {
        tally(cwm_sa, cmp.cwm, cwm_s[i], cwm_gt);
        const graph::Cwg& cwg = explorers_[i]->cwg();
        const mapping::CwmCost price(cwg, mesh, options_.tech,
                                     options_.routing);
        if (cmp.cwm.objective_j >
            price.cost(search::greedy_mapping(cwg, mesh))) {
          ++worse_than_greedy;
        }
      }
    }

    layer["core.cwm_s"] = cwm_all.seconds;
    layer["core.cdcm_s"] = cdcm_all.seconds;
    layer["mapping.cwm_evals_per_s"] =
        rate(static_cast<double>(cwm_all.evals), cwm_all.search_s);
    layer["sim.ground_truth_s"] = ground_truth_s;
    if (es.calls != 0) {
      layer["search.es_s"] = es.seconds;
      layer["search.es_evals"] = static_cast<double>(es.evals);
    }
    if (sa.calls != 0) {
      layer["search.sa_s"] = sa.seconds;
      layer["search.sa_evals"] = static_cast<double>(sa.evals);
    }
    if (cwm_sa.calls != 0) {
      layer["search.sa_worse_than_greedy"] =
          static_cast<double>(worse_than_greedy);
    }
    if (cdcm_sa.calls != 0) {
      layer["search.sa_seed_kept"] = static_cast<double>(seed_kept);
      layer["mapping.cdcm_evals_per_s"] =
          rate(static_cast<double>(cdcm_sa.evals), cdcm_sa.search_s);
    }
    if (cdcm_es.calls != 0) {
      layer["sim.batch_evals_per_s"] =
          rate(static_cast<double>(cdcm_es.evals), cdcm_es.search_s);
    }
    return pass;
  }

 private:
  std::uint64_t digest() const {
    std::uint64_t h = fold(0x7ab1e2ULL, results_.size());
    for (const std::optional<core::Comparison>& r : results_) {
      if (!r) {
        h = fold(h, 0);
        continue;
      }
      h = fold_result(h, r->cwm.objective_j, r->cwm.mapping);
      h = fold_result(h, r->cdcm.objective_j, r->cdcm.mapping);
    }
    return h;
  }

  std::function<std::vector<App>()> build_;
  core::ExplorerOptions options_;
  bool pinned_zero_etr_;
  std::vector<App> apps_;
  std::vector<std::unique_ptr<noc::Mesh>> meshes_;
  std::vector<std::unique_ptr<core::Explorer>> explorers_;
  std::vector<std::optional<core::Comparison>> results_;
};

// --- scale: the racing portfolio on the 8x8 board ------------------------------

class ScaleWorkload final : public Workload {
 public:
  ScaleWorkload(std::uint64_t seed, bool quick) : seed_(seed), quick_(quick) {}

  double setup() override {
    const Clock::time_point t0 = Clock::now();
    std::vector<workload::SuiteEntry> board =
        workload::table1_suite_for("8 x 8");
    const double build_s = seconds_since(t0);
    if (board.size() != 1) {
      throw std::runtime_error("scale: the Table-1 suite has no single 8x8 app");
    }
    name_ = board.front().name;
    cdcg_ = std::move(board.front().cdcg);
    mesh_ = std::make_unique<noc::Mesh>(8, 8);
    cwg_ = cdcg_.to_cwg();
    greedy_ = search::greedy_mapping(cwg_, *mesh_);
    options_ = search::PortfolioOptions{};
    options_.sa_members = 4;
    options_.seed = seed_;
    options_.threads = 4;
    options_.initial = &*greedy_;
    options_.bnb_nodes = quick_ ? 1 : 50'000;
    return build_s;
  }

  Pass run() override {
    SpanRecorder untraced;  // Two spans per pass, then dropped.
    return pass(
        [this]() -> std::unique_ptr<mapping::CostFunction> {
          return std::make_unique<mapping::CwmCost>(cwg_, *mesh_, tech_,
                                                    kRouting);
        },
        untraced);
  }

  Verdict check() override {
    Verdict verdict;
    if (!result_) return verdict;  // Counted as failed when it threw.
    const search::SearchResult& best = result_->best;
    const mapping::CwmCost cwm(cwg_, *mesh_, tech_, kRouting);
    const mapping::CdcmCost cdcm(cdcg_, *mesh_, tech_, kRouting);
    std::string why;
    if (!valid_mapping(best.best, *mesh_, cdcg_.num_cores())) {
      why = "the returned mapping is invalid";
    } else if (!same_bits(cwm.cost(best.best), best.best_cost)) {
      why = "the CWM objective does not re-price bitwise";
    } else if (!same_bits(cdcm.evaluate(best.best).texec_ns, texec_ns_)) {
      why = "the ground-truth Texec does not repeat";
    }
    if (!why.empty()) {
      verdict.failed = 1;
      errors.push_back(name_ + ": " + why);
      return verdict;
    }
    verdict.quality_ratio = best.best_cost / cwm.cost(*greedy_);
    verdict.texec_ratio = texec_ns_ / cdcm.evaluate(*greedy_).texec_ns;
    return verdict;
  }

  /// The same portfolio, given a cost factory whose cost functions forward
  /// to CwmCost and time each pricing and each LowerBound call.
  Pass run_traced(SpanRecorder& spans, Metrics& layer) override {
    PricingCounters counters;
    const Pass traced = pass(
        [this, &counters]() -> std::unique_ptr<mapping::CostFunction> {
          return std::make_unique<TimedCost>(
              std::make_unique<mapping::CwmCost>(cwg_, *mesh_, tech_,
                                                 kRouting),
              counters);
        },
        spans);
    if (!result_) return traced;
    const search::PortfolioResult& pr = *result_;
    std::uint64_t bnb_tests = 0;
    for (const search::PortfolioMemberOutcome& member : pr.members) {
      if (member.label == "bnb") bnb_tests = member.result.nodes_tested;
    }
    // Does one more steepest-descent pass still improve the returned mapping?
    std::uint64_t improving = 0;
    spans.run("search.polish_probe", [&] {
      const mapping::CwmCost cwm(cwg_, *mesh_, tech_, kRouting);
      mapping::Mapping m = pr.best.best;
      double cost_j = pr.best.best_cost;
      improving =
          search::steepest_polish(cwm, m, cost_j, search::PolishOptions{1})
              .applied;
    });
    const double bnb_s = 1e-9 * static_cast<double>(counters.bound_ns.load());
    layer["search.portfolio_s"] = portfolio_s_;
    layer["search.bnb_s"] = bnb_s;
    layer["search.bnb_tests"] = static_cast<double>(bnb_tests);
    layer["search.bnb_won"] = pr.members[pr.winner].label == "bnb" ? 1.0 : 0.0;
    layer["search.polish_applied"] = static_cast<double>(pr.polish_applied);
    layer["search.polish_capped"] = improving != 0 ? 1.0 : 0.0;
    layer["mapping.cwm_evals_per_s"] =
        rate(static_cast<double>(counters.pricings.load()),
             1e-9 * static_cast<double>(counters.pricing_ns.load()));
    layer["mapping.bound_tests_per_s"] =
        rate(static_cast<double>(bnb_tests), bnb_s);
    layer["sim.ground_truth_s"] = ground_truth_s_;
    return traced;
  }

 private:
  /// One portfolio run plus the winner's ground truth, each in a span.
  Pass pass(const search::BnbCostFactory& make_cost, SpanRecorder& spans) {
    Pass p;
    result_.reset();
    const Clock::time_point t0 = Clock::now();
    try {
      portfolio_s_ = spans.run("search.portfolio", [&] {
        result_ =
            search::portfolio(make_cost, cwg_, *mesh_, kRouting, options_);
      });
      ground_truth_s_ = spans.run("sim.ground_truth", [&] {
        const mapping::CdcmCost gt(cdcg_, *mesh_, tech_, kRouting);
        texec_ns_ = gt.evaluate(result_->best.best).texec_ns;
      });
    } catch (const std::exception& e) {
      result_.reset();
      p.failed = 1;
      errors.push_back(name_ + ": portfolio run threw: " + e.what());
    }
    p.wall_s = seconds_since(t0);
    p.ops = 1;
    p.latency_ms.push_back(1e3 * p.wall_s);
    p.digest = fold(0x5ca1eULL, 1);
    if (result_) {
      p.digest = fold_result(p.digest, result_->best.best_cost,
                             result_->best.best);
    }
    return p;
  }

  std::uint64_t seed_;
  bool quick_;
  energy::Technology tech_ = energy::technology_0_07u();
  std::string name_;
  graph::Cdcg cdcg_;
  std::unique_ptr<noc::Mesh> mesh_;
  graph::Cwg cwg_;
  std::optional<mapping::Mapping> greedy_;
  search::PortfolioOptions options_;
  std::optional<search::PortfolioResult> result_;
  double texec_ns_ = 0.0;
  double portfolio_s_ = 0.0;     ///< Of the latest pass.
  double ground_truth_s_ = 0.0;  ///< Of the latest pass.
};

// --- serve: the serve-bench stream through one ServeEngine ---------------------

/// Rebuild `cdcg` with core c renamed to perm[c], packet and dependence order
/// kept: the equivalence the serving cache recognizes.
graph::Cdcg relabel(const graph::Cdcg& cdcg,
                    const std::vector<std::size_t>& perm) {
  graph::Cdcg out;
  for (std::size_t c = 0; c < cdcg.num_cores(); ++c) {
    out.add_core("r" + std::to_string(c));
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

/// Jitter every payload and computation time by up to +-25 %, keeping the
/// (src, dst) stream and the dependences: another instance of the family.
graph::Cdcg perturb(const graph::Cdcg& cdcg, nocmap::util::Rng& rng) {
  graph::Cdcg out;
  for (std::size_t c = 0; c < cdcg.num_cores(); ++c) {
    out.add_core("p" + std::to_string(c));
  }
  for (graph::PacketId id = 0; id < cdcg.num_packets(); ++id) {
    const graph::Packet& p = cdcg.packet(id);
    const double fb = 0.75 + 0.5 * rng.uniform01();
    const double fc = 0.75 + 0.5 * rng.uniform01();
    const std::uint64_t bits = std::max<std::uint64_t>(
        1, static_cast<std::uint64_t>(
               std::llround(static_cast<double>(p.bits) * fb)));
    const std::uint64_t comp = static_cast<std::uint64_t>(
        std::llround(static_cast<double>(p.comp_time) * fc));
    out.add_packet(p.src, p.dst, comp, bits);
  }
  for (graph::PacketId id = 0; id < cdcg.num_packets(); ++id) {
    for (const graph::PacketId s : cdcg.successors(id)) {
      out.add_dependence(id, s);
    }
  }
  return out;
}

class ServeWorkload final : public Workload {
 public:
  ServeWorkload(std::uint64_t seed, bool quick)
      : requests_(quick ? 200 : 1000) {
    options_.explorer.tech = energy::technology_0_07u();
    options_.explorer.method = core::SearchMethod::kSimulatedAnnealing;
    options_.explorer.seed = seed;
    options_.objective = serve::Objective::kCwm;
    options_.threads = 1;
  }

  double setup() override {
    engine_.reset();
    batches_.clear();
    const Clock::time_point t0 = Clock::now();
    stream_ = synthesize();
    const double build_s = seconds_since(t0);
    mesh_ = std::make_unique<noc::Mesh>(3, 3);
    for (std::size_t begin = 0; begin < stream_.size(); begin += kBatch) {
      std::vector<serve::MapRequest> batch(
          std::min(kBatch, stream_.size() - begin));
      for (std::size_t k = 0; k < batch.size(); ++k) {
        batch[k].cdcg = &stream_[begin + k];
      }
      batches_.push_back(std::move(batch));
    }
    engine_ = std::make_unique<serve::ServeEngine>(*mesh_, options_);
    return build_s;
  }

  /// A closed loop with one client: each batch is sent when the previous
  /// one returns, and each request's latency runs from the submission of its
  /// batch to the return of serve().
  Pass run() override {
    Pass pass;
    const std::unique_ptr<serve::ServeEngine> engine = take_engine();
    responses_.clear();
    const Clock::time_point t0 = Clock::now();
    for (const std::vector<serve::MapRequest>& batch : batches_) {
      const Clock::time_point sent = Clock::now();
      std::vector<serve::MapResponse> out = serve_batch(*engine, batch, pass);
      const double ms = 1e3 * seconds_since(sent);
      for (serve::MapResponse& r : out) {
        pass.latency_ms.push_back(ms);
        responses_.push_back(std::move(r));
      }
    }
    pass.wall_s = seconds_since(t0);
    pass.ops = responses_.size();
    stats_ = engine->stats();
    pass.digest = digest();
    return pass;
  }

  Verdict check() override {
    Verdict verdict;
    Geomean quality, texec;
    for (std::size_t i = 0; i < responses_.size(); ++i) {
      const graph::Cdcg& app = stream_[i];
      const serve::MapResponse& r = responses_[i];
      const graph::Cwg cwg = app.to_cwg();
      const mapping::CwmCost cwm(cwg, *mesh_, options_.explorer.tech,
                                 kRouting);
      const std::optional<mapping::Mapping> m = mapping_of(i);
      std::string why;
      if (!m) {
        why = "invalid mapping";
      } else if (!reprices(cwm.cost(*m), r)) {
        why = "the objective does not re-price";
      }
      if (!why.empty()) {
        ++verdict.failed;
        errors.push_back("request " + std::to_string(i) + " (" +
                         serve::served_name(r.served) + "): " + why);
        continue;
      }
      const mapping::Mapping greedy = search::greedy_mapping(cwg, *mesh_);
      const mapping::CdcmCost cdcm(app, *mesh_, options_.explorer.tech,
                                   kRouting);
      quality.add(r.cost_j / cwm.cost(greedy));
      texec.add(cdcm.evaluate(*m).texec_ns / cdcm.evaluate(greedy).texec_ns);
    }
    if (stats_.cold + stats_.exact_hits + stats_.batch_hits +
            stats_.warm_starts !=
        responses_.size()) {
      ++verdict.failed;
      errors.push_back(
          "serve: the engine's counters do not add up to the requests");
    }
    if (!matches_serve_bench()) {
      ++verdict.failed;
      errors.push_back(
          "serve: serve::run_serve_bench returns another results digest, so "
          "the stream synthesized here is no longer serve-bench's");
    }
    verdict.quality_ratio = quality.value();
    verdict.texec_ratio = texec.value();
    return verdict;
  }

  /// Times canonicalize() of every request on its own, then serves the
  /// stream with a span per batch; afterwards re-solves every warm-started
  /// request cold through a bypass_cache engine.
  Pass run_traced(SpanRecorder& spans, Metrics& layer) override {
    Pass pass;
    const std::unique_ptr<serve::ServeEngine> engine = take_engine();
    responses_.clear();
    std::vector<std::uint64_t> exact_hashes(stream_.size());
    double serve_s = 0.0;
    const Clock::time_point t0 = Clock::now();
    const double canonicalize_s = spans.run("serve.canonicalize", [&] {
      for (std::size_t i = 0; i < stream_.size(); ++i) {
        exact_hashes[i] = serve::canonicalize(stream_[i]).exact_hash;
      }
    });
    for (const std::vector<serve::MapRequest>& batch : batches_) {
      std::vector<serve::MapResponse> out;
      const double s = spans.run(
          "serve.serve", [&] { out = serve_batch(*engine, batch, pass); });
      serve_s += s;
      for (serve::MapResponse& r : out) {
        pass.latency_ms.push_back(1e3 * s);
        responses_.push_back(std::move(r));
      }
    }
    pass.wall_s = seconds_since(t0);
    pass.ops = responses_.size();
    stats_ = engine->stats();
    pass.digest = digest();

    serve::ServeOptions bypass = options_;
    bypass.bypass_cache = true;
    serve::ServeEngine cold(*mesh_, bypass);
    Geomean regret;
    std::uint64_t warm_worse = 0, worse_than_greedy = 0;
    double solve_s = 0.0;
    spans.run("serve.cold_resolve", [&] {
      for (std::size_t i = 0; i < responses_.size(); ++i) {
        const serve::MapResponse& r = responses_[i];
        solve_s += 1e-3 * r.solve_ms;
        if (r.served != serve::Served::kWarmStart) continue;
        const double cold_j = cold.serve_one(stream_[i]).cost_j;
        regret.add(r.cost_j / cold_j);
        if (r.cost_j > cold_j) ++warm_worse;
      }
    });
    const double ground_truth_s = spans.run("sim.ground_truth", [&] {
      for (std::size_t i = 0; i < responses_.size(); ++i) {
        if (const std::optional<mapping::Mapping> m = mapping_of(i)) {
          mapping::CdcmCost(stream_[i], *mesh_, options_.explorer.tech,
                            kRouting)
              .evaluate(*m);
        }
      }
    });
    for (std::size_t i = 0; i < responses_.size(); ++i) {
      const serve::MapResponse& r = responses_[i];
      if (exact_hashes[i] != r.exact_hash) {
        ++pass.failed;
        errors.push_back("request " + std::to_string(i) +
                         ": canonicalize() disagrees with the engine's hash");
      }
      if (r.served != serve::Served::kCold) continue;
      const graph::Cwg cwg = stream_[i].to_cwg();
      const mapping::CwmCost price(cwg, *mesh_, options_.explorer.tech,
                                   kRouting);
      if (r.cost_j > price.cost(search::greedy_mapping(cwg, *mesh_))) {
        ++worse_than_greedy;
      }
    }

    const double n = static_cast<double>(stream_.size());
    layer["serve.canonicalize_s"] = canonicalize_s;
    layer["serve.solve_s"] = solve_s;
    layer["serve.overhead_s"] = serve_s - solve_s;
    layer["serve.hit_rate"] =
        static_cast<double>(stats_.exact_hits + stats_.batch_hits) / n;
    layer["serve.warm_rate"] = static_cast<double>(stats_.warm_starts) / n;
    if (stats_.warm_starts != 0) {
      layer["serve.warm_regret"] = regret.value();
      layer["serve.warm_worse"] = static_cast<double>(warm_worse);
    }
    layer["search.sa_worse_than_greedy"] =
        static_cast<double>(worse_than_greedy);
    layer["sim.ground_truth_s"] = ground_truth_s;
    return pass;
  }

 private:
  static constexpr const char* kPopulation = "apps=64,cores=8,seed=7";
  // The tracked stream whatever --seed says (which seeds the searches):
  // other streams move p50 and p99 latency by a sixth to a third, more than
  // any regression bound could absorb.
  static constexpr std::uint64_t kStreamSeed = 1;
  static constexpr double kDupRatio = 0.35;
  static constexpr double kNearRatio = 0.25;
  static constexpr std::size_t kBatch = 16;

  /// The serve-bench request stream (serve/serve_bench.cpp), a pure function
  /// of the seed: relabeled duplicates, perturbed near-duplicates and fresh
  /// applications of the population.
  std::vector<graph::Cdcg> synthesize() const {
    const workload::SyntheticPopulation population(
        workload::SyntheticSpec::parse(kPopulation));
    const std::size_t tiles = 9;
    nocmap::util::Rng rng(kStreamSeed);
    std::vector<graph::Cdcg> out;
    out.reserve(requests_);  // `base` references below must stay valid.
    std::vector<std::size_t> bases;  // Indices of fresh requests.
    std::size_t cursor = 0;
    const auto next_fresh = [&]() -> graph::Cdcg {
      for (std::size_t scanned = 0; scanned < population.size(); ++scanned) {
        workload::WorkloadApp app =
            population.app(cursor++ % population.size());
        if (app.cdcg.num_cores() >= 2 && app.cdcg.num_cores() <= tiles &&
            app.cdcg.num_packets() > 0) {
          return std::move(app.cdcg);
        }
      }
      throw std::runtime_error("serve: no application fits the 3x3 mesh");
    };
    for (std::size_t r = 0; r < requests_; ++r) {
      const double u = rng.uniform01();
      if (!bases.empty() && u < kDupRatio) {
        const graph::Cdcg& base = out[bases[rng.index(bases.size())]];
        out.push_back(relabel(base, rng.permutation(base.num_cores())));
      } else if (!bases.empty() && u < kDupRatio + kNearRatio) {
        const graph::Cdcg& base = out[bases[rng.index(bases.size())]];
        const graph::Cdcg twin =
            relabel(base, rng.permutation(base.num_cores()));
        out.push_back(perturb(twin, rng));
      } else {
        bases.push_back(out.size());
        out.push_back(next_fresh());
      }
    }
    return out;
  }

  /// Serves the same stream with the same options through
  /// serve::run_serve_bench, the harness of `nocmap serve-bench`, and
  /// compares results digests: synthesize() copies that harness's stream
  /// synthesis, and this keeps the copy faithful.
  bool matches_serve_bench() {
    serve::ServeBenchOptions bench;
    bench.population = kPopulation;
    bench.requests = static_cast<std::uint32_t>(requests_);
    bench.dup_ratio = kDupRatio;
    bench.near_ratio = kNearRatio;
    bench.mesh_width = mesh_->width();
    bench.mesh_height = mesh_->height();
    bench.batch = static_cast<std::uint32_t>(kBatch);
    bench.seed = kStreamSeed;
    bench.serve = options_;
    try {
      return serve::run_serve_bench(bench).results_digest == digest();
    } catch (const std::exception& e) {
      errors.push_back(std::string("serve: run_serve_bench threw: ") +
                       e.what());
      return false;
    }
  }

  /// The engine of the next pass: the one set-up built, else a new one, so
  /// that every pass starts from an empty cache.
  std::unique_ptr<serve::ServeEngine> take_engine() {
    if (!engine_) return std::make_unique<serve::ServeEngine>(*mesh_, options_);
    return std::move(engine_);
  }

  std::vector<serve::MapResponse> serve_batch(
      serve::ServeEngine& engine, const std::vector<serve::MapRequest>& batch,
      Pass& pass) {
    try {
      return engine.serve(batch);
    } catch (const std::exception& e) {
      pass.failed += batch.size();
      errors.push_back(std::string("serve() threw: ") + e.what());
      return std::vector<serve::MapResponse>(batch.size());
    }
  }

  /// Response i's assignment as a mapping, or nullopt when it is invalid.
  std::optional<mapping::Mapping> mapping_of(std::size_t i) const {
    const std::vector<noc::TileId>& tiles = responses_[i].assignment;
    if (tiles.size() != stream_[i].num_cores()) return std::nullopt;
    try {
      mapping::Mapping m = mapping::Mapping::from_assignment(*mesh_, tiles);
      if (m.is_valid()) return m;
    } catch (const std::invalid_argument&) {
    }
    return std::nullopt;
  }

  /// Solved responses re-price bitwise. A response copied from the cache was
  /// priced on another labeling of the same instance, and CwmCost sums its
  /// edges in (src, dst) order, so it may differ in the last bits.
  static bool reprices(double repriced, const serve::MapResponse& r) {
    if (r.served == serve::Served::kCold ||
        r.served == serve::Served::kWarmStart) {
      return same_bits(repriced, r.cost_j);
    }
    return std::abs(repriced - r.cost_j) <= 1e-12 * std::abs(r.cost_j);
  }

  /// serve_bench's results_digest: cost bits, Served label and assignment of
  /// every response, in request order.
  std::uint64_t digest() const {
    std::uint64_t h = fold(0x5e12e0ULL, responses_.size());
    for (const serve::MapResponse& r : responses_) {
      h = fold(h, bits_of(r.cost_j));
      h = fold(h, static_cast<std::uint64_t>(r.served));
      h = fold(h, r.assignment.size());
      for (const noc::TileId t : r.assignment) h = fold(h, t);
    }
    return h;
  }

  std::size_t requests_;
  serve::ServeOptions options_;
  std::vector<graph::Cdcg> stream_;
  std::unique_ptr<noc::Mesh> mesh_;
  std::vector<std::vector<serve::MapRequest>> batches_;
  std::unique_ptr<serve::ServeEngine> engine_;
  std::vector<serve::MapResponse> responses_;
  serve::EngineStats stats_;
};

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed, bool quick) {
  core::ExplorerOptions options;
  options.tech = energy::technology_0_07u();
  options.seed = seed;
  options.threads = 1;
  if (name == "table2") {
    // The Table-2 pipeline at search seed 1 whatever --seed says: its wall
    // time follows the SA chains' lengths, which differ by a third between
    // search seeds, more than any regression bound could absorb.
    options.seed = 1;
    return std::make_unique<CompareWorkload>(
        [quick] { return table2_apps(quick); }, options, false);
  }
  if (name == "congestion") {
    options.method = core::SearchMethod::kExhaustive;
    options.sim_backend = sim::SimBackend::kFlit;
    options.buffer_depth = 1;
    return std::make_unique<CompareWorkload>(congestion_apps, options, true);
  }
  if (name == "scale") return std::make_unique<ScaleWorkload>(seed, quick);
  return std::make_unique<ServeWorkload>(seed, quick);
}

/// The paper's worked example (Sections 3-4): the CWM mapping runs in
/// 100 ns, the CDCM one in 90 ns, an ETR of 11.1 %.
bool paper_example_holds(std::vector<std::string>& errors) {
  try {
    const graph::Cdcg cdcg = workload::paper_example_cdcg();
    const noc::Mesh mesh = workload::paper_example_mesh();
    core::ExplorerOptions options;
    options.tech = energy::example_technology();
    const core::Comparison cmp = core::Explorer(cdcg, mesh, options).compare();
    const double cwm_ns = cmp.cwm.sim.texec_ns;
    const double cdcm_ns = cmp.cdcm.sim.texec_ns;
    const double etr_pct = 100.0 * cmp.execution_time_reduction();
    if (std::abs(cwm_ns - 100.0) < 1e-9 && std::abs(cdcm_ns - 90.0) < 1e-9 &&
        std::abs(etr_pct - 11.1) < 0.05) {
      return true;
    }
    errors.push_back("paper example: " + json_number(cwm_ns) + " ns vs " +
                     json_number(cdcm_ns) + " ns, ETR " + json_number(etr_pct) +
                     " %; the paper reports 100 ns vs 90 ns, ETR 11.1 %");
  } catch (const std::exception& e) {
    errors.push_back(std::string("paper example threw: ") + e.what());
  }
  return false;
}

// --- Command line --------------------------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 20.0;
  bool trace = false;
  bool quick = false;
  std::string report;  ///< Where to write the run report; empty: nowhere.
  bool list_metrics = false;
};

constexpr const char* kUsage =
    "usage: perfbench --workload table2|scale|serve|congestion [--seed N]\n"
    "                 [--seconds S] [--trace 0|1] [--quick] [--report FILE]\n"
    "       perfbench --list-metrics\n";

std::uint64_t parse_count(const std::string& flag, const std::string& text) {
  if (text.empty() || text.size() > 19 ||
      text.find_first_not_of("0123456789") != std::string::npos) {
    throw std::invalid_argument(flag + " expects a non-negative integer, got '" +
                                text + "'");
  }
  return std::stoull(text);
}

Args parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument(a + " expects a value");
      return argv[++i];
    };
    if (a == "--workload") {
      args.workload = value();
      if (args.workload != "table2" && args.workload != "scale" &&
          args.workload != "serve" && args.workload != "congestion") {
        throw std::invalid_argument("unknown workload '" + args.workload +
                                    "'");
      }
    } else if (a == "--seed") {
      args.seed = parse_count(a, value());
    } else if (a == "--seconds") {
      const std::uint64_t s = parse_count(a, value());
      if (s < 1 || s > 3600) {
        throw std::invalid_argument("--seconds must be in [1, 3600]");
      }
      args.seconds = static_cast<double>(s);
    } else if (a == "--trace") {
      const std::string t = value();
      if (t != "0" && t != "1") {
        throw std::invalid_argument("--trace expects 0 or 1, got '" + t + "'");
      }
      args.trace = t == "1";
    } else if (a == "--quick") {
      args.quick = true;
    } else if (a == "--report") {
      args.report = value();
    } else if (a == "--list-metrics") {
      args.list_metrics = true;
    } else {
      throw std::invalid_argument("unknown option '" + a + "'");
    }
  }
  if (!args.list_metrics && args.workload.empty()) {
    throw std::invalid_argument("--workload is required");
  }
  return args;
}

void print_catalogue() {
  std::cout << "[";
  bool first = true;
  for (const MetricDef& m : kMetrics) {
    std::cout << (first ? "" : ", ") << "{\"name\": \"" << m.name
              << "\", \"unit\": \"" << m.unit << "\", \"better\": \""
              << m.better << "\", \"kind\": \""
              << (m.per_layer ? "per_layer" : "end_to_end") << "\"}";
    first = false;
  }
  std::cout << "]\n";
}

/// A metrics object: the metrics of one kind that `values` holds. With
/// `fill_missing`, as on the result line, which carries every metric of the
/// reported kind on every workload, a layer the workload never called reads
/// 0; the report omits it.
std::string metrics_json(const Metrics& values, bool per_layer,
                         bool fill_missing) {
  std::string out = "{";
  bool first = true;
  for (const MetricDef& m : kMetrics) {
    if (m.per_layer != per_layer) continue;
    const auto it = values.find(m.name);
    if (it == values.end() && !fill_missing) continue;
    out += std::string(first ? "" : ", ") + "\"" + m.name +
           "\": {\"value\": " +
           json_number(it == values.end() ? 0.0 : it->second) +
           ", \"unit\": \"" + m.unit + "\"}";
    first = false;
  }
  return out + "}";
}

int run_benchmark(const Args& args) {
  const std::unique_ptr<Workload> wl =
      make_workload(args.workload, args.seed, args.quick);
  std::vector<std::string> errors;
  std::size_t attempted = 1;  // The start-up check is one compare().
  std::size_t failed = paper_example_holds(errors) ? 0 : 1;

  // Per batch: the mean seconds of a set-up, and of its application build.
  std::vector<double> setup_s, build_s;
  const Clock::time_point s0 = Clock::now();
  while (setup_s.size() < kSetupBatches || seconds_since(s0) < kSetupSeconds) {
    double built = 0.0;
    std::size_t n = 0;
    const Clock::time_point t0 = Clock::now();
    do {
      built += wl->setup();
      ++n;
    } while (seconds_since(t0) < kSetupBatchSeconds);
    setup_s.push_back(seconds_since(t0) / static_cast<double>(n));
    build_s.push_back(built / static_cast<double>(n));
  }

  // Untraced passes fill the budget, or half of it when a traced pass follows.
  const double budget = args.trace ? 0.5 * args.seconds : args.seconds;
  // Latency percentiles are taken within each pass and reported as medians
  // over the passes, like wall_s, so a burst of host load during a few
  // passes does not land in the tail.
  std::vector<double> walls, p50s, p99s;
  std::uint64_t digest = 0;
  const Clock::time_point p0 = Clock::now();
  do {
    const Pass pass = wl->run();
    attempted += pass.ops;
    failed += pass.failed;
    if (walls.empty()) {
      digest = pass.digest;
    } else if (pass.digest != digest) {
      failed += pass.ops;
      errors.push_back("pass " + std::to_string(walls.size() + 1) +
                       " does not reproduce the first pass's results digest");
    }
    walls.push_back(pass.wall_s);
    p50s.push_back(percentile(pass.latency_ms, 0.50));
    p99s.push_back(percentile(pass.latency_ms, 0.99));
  } while (walls.size() < kMaxPasses &&
           seconds_since(p0) + median(walls) <= budget);
  const Verdict verdict = wl->check();
  failed += verdict.failed;

  const Metrics e2e = {
      {"setup_s", *std::min_element(setup_s.begin(), setup_s.end())},
      {"wall_s", median(walls)},
      {"quality_ratio", verdict.quality_ratio},
      {"texec_ratio", verdict.texec_ratio},
      {"latency_p50_ms", median(p50s)},
      {"latency_p99_ms", median(p99s)},
  };
  Metrics layer;
  SpanRecorder spans;
  if (args.trace) {
    const Pass traced = wl->run_traced(spans, layer);
    attempted += traced.ops;
    failed += traced.failed;
    if (traced.digest != digest) {
      failed += traced.ops;
      errors.push_back(
          "the traced pass does not reproduce the untraced results digest");
    }
    layer["workload.build_s"] =
        *std::min_element(build_s.begin(), build_s.end());
    layer["bench.trace_overhead_s"] = traced.wall_s - median(walls);
  }
  errors.insert(errors.end(), wl->errors.begin(), wl->errors.end());
  failed = std::min(failed, attempted);

  const Metrics& reported = args.trace ? layer : e2e;
  bool finite = true;
  for (const auto& [name, value] : reported) {
    if (!std::isfinite(value)) {
      finite = false;
      errors.push_back("metric " + name + " is not finite");
    }
  }
  const bool correct = failed == 0 && finite;
  for (const std::string& e : errors) std::cerr << "perfbench: " << e << "\n";

  char digest_hex[17];
  std::snprintf(digest_hex, sizeof(digest_hex), "%016llx",
                static_cast<unsigned long long>(digest));
  const std::string host = host_json();
  std::cout << "# perfbench " << args.workload << (args.quick ? " (quick)" : "")
            << ", seed " << args.seed << ": " << walls.size()
            << " untraced pass(es)" << (args.trace ? " + 1 traced" : "")
            << ", results digest " << digest_hex << "\n"
            << "# host " << host << "\n"
            << "# operations: " << attempted << " attempted, " << failed
            << " failed, fail_frac "
            << json_number(static_cast<double>(failed) /
                           static_cast<double>(attempted))
            << "\n";
  for (const MetricDef& m : kMetrics) {
    const Metrics& source = m.per_layer ? layer : e2e;
    const auto it = source.find(m.name);
    if (it == source.end()) continue;
    char line[160];
    std::snprintf(line, sizeof(line), "# %-30s %18.9g %-6s %s\n", m.name,
                  it->second, m.unit, m.better);
    std::cout << line;
  }

  if (!args.report.empty()) {
    const std::string& path = args.report;
    std::ofstream report(path);
    report << "{\n  \"workload\": " << json_string(args.workload)
           << ",\n  \"seed\": " << args.seed
           << ",\n  \"quick\": " << (args.quick ? "true" : "false")
           << ",\n  \"host\": " << host
           << ",\n  \"untraced_passes\": " << walls.size()
           << ",\n  \"results_digest\": \"" << digest_hex << "\""
           << ",\n  \"attempted\": " << attempted
           << ",\n  \"failed\": " << failed << ",\n  \"errors\": [";
    for (std::size_t i = 0; i < errors.size(); ++i) {
      report << (i == 0 ? "" : ", ") << json_string(errors[i]);
    }
    report << "],\n  \"end_to_end\": " << metrics_json(e2e, false, false);
    if (args.trace) {
      report << ",\n  \"per_layer\": " << metrics_json(layer, true, false)
             << ",\n  \"self_s\": {";
      bool first = true;
      for (const auto& [name, seconds] : spans.self_seconds()) {
        report << (first ? "" : ", ") << json_string(name) << ": "
               << json_number(seconds);
        first = false;
      }
      report << "},\n  \"spans\": ";
      spans.write_json(report);
    }
    report << "\n}\n";
    if (!report) std::cerr << "perfbench: cannot write " << path << "\n";
  }

  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << attempted << ", \"failed\": " << failed
            << ", \"metrics\": " << metrics_json(reported, args.trace, true)
            << "}"
            << std::endl;
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  try {
    args = parse_args(argc, argv);
  } catch (const std::invalid_argument& e) {
    std::cerr << "perfbench: " << e.what() << "\n" << kUsage;
    return 2;
  }
  if (args.list_metrics) {
    print_catalogue();
    return 0;
  }
  if (!kOptimized) {
    std::cerr << "perfbench: refusing to report from an unoptimized build "
                 "(build type '" PERFBENCH_BUILD_TYPE
                 "'); configure with -DCMAKE_BUILD_TYPE=Release\n";
    return 2;
  }
  try {
    return run_benchmark(args);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
}
