#include "nocmap/serve/engine.hpp"

#include <algorithm>
#include <chrono>
#include <sstream>
#include <stdexcept>
#include <unordered_map>
#include <utility>

#include "nocmap/util/parallel.hpp"

namespace nocmap::serve {

namespace {

const char* routing_name(noc::RoutingAlgorithm r) {
  switch (r) {
    case noc::RoutingAlgorithm::kXY: return "xy";
    case noc::RoutingAlgorithm::kYX: return "yx";
    case noc::RoutingAlgorithm::kWestFirst: return "wf";
    case noc::RoutingAlgorithm::kOddEven: return "oe";
  }
  return "?";
}

/// Translate a canonical-label assignment into `form`'s original labels.
std::vector<noc::TileId> to_request_labels(
    const CanonicalForm& form, const std::vector<noc::TileId>& canon) {
  std::vector<noc::TileId> out(form.canon_of_core.size());
  for (std::size_t c = 0; c < out.size(); ++c) {
    out[c] = canon[form.canon_of_core[c]];
  }
  return out;
}

/// Translate an original-label assignment into canonical labels.
std::vector<noc::TileId> to_canon_labels(const CanonicalForm& form,
                                         const std::vector<noc::TileId>& orig) {
  std::vector<noc::TileId> out(form.core_of_canon.size());
  for (std::size_t k = 0; k < out.size(); ++k) {
    out[k] = orig[form.core_of_canon[k]];
  }
  return out;
}

}  // namespace

const char* served_name(Served s) {
  switch (s) {
    case Served::kCold: return "cold";
    case Served::kExactHit: return "exact_hit";
    case Served::kBatchHit: return "batch_hit";
    case Served::kWarmStart: return "warm_start";
  }
  return "?";
}

/// One unique solve of a batch. Inputs are fixed during classify (phase 2),
/// outputs written by exactly one worker (phase 3), read in phase 4.
struct ServeEngine::Job {
  const graph::Cdcg* cdcg = nullptr;
  const CanonicalForm* form = nullptr;
  std::vector<noc::TileId> seed;  ///< Request labels; empty = cold start.
  bool warm = false;              ///< Apply the shortened warm schedule.
  std::vector<noc::TileId> canon_assignment;  ///< Result, canonical labels.
  double cost_j = 0.0;
  double solve_ms = 0.0;  ///< Wall clock; reporting only, never diffed.
};

ServeEngine::ServeEngine(const noc::Topology& topo, ServeOptions options)
    : topo_(topo), options_(std::move(options)), cache_(options_.cache_capacity) {
  // The context key: everything besides the application that determines the
  // result. Two engines with equal context strings produce interchangeable
  // cache entries (docs/serving.md documents each field).
  const core::ExplorerOptions& x = options_.explorer;
  std::ostringstream ctx;
  ctx << "v1|topo=" << topo_.kind() << ':' << topo_.label()
      << "|routing=" << routing_name(x.routing)
      << "|objective=" << (options_.objective == Objective::kCwm ? "cwm" : "cdcm")
      << "|method=" << static_cast<int>(x.method)
      << "|tech=" << x.tech.name
      << "|timing_cost=" << static_cast<int>(x.timing_cost)
      << "|hybrid_cadence=" << x.hybrid_cadence
      << "|backend=" << static_cast<int>(x.sim_backend)
      << "|buffer_depth=" << x.buffer_depth
      << "|flow_control=" << static_cast<int>(x.flow_control)
      << "|switching=" << static_cast<int>(x.switching)
      << "|seed=" << x.seed << "|sa_chains=" << x.sa_chains
      << "|sa=" << x.sa.moves_per_tile << ',' << x.sa.cooling << ','
      << x.sa.max_steps << ',' << x.sa.max_stale_steps
      << "|es_threshold=" << x.es_auto_threshold
      << "|warm=" << options_.warm_max_steps << ',' << options_.warm_max_stale;
  // cdcm_checkpoints / ckpt_interval are deliberately absent: checkpointed
  // evaluation is bitwise-identical to full resimulation, so entries cached
  // with and without it are interchangeable.
  context_ = ctx.str();
}

void ServeEngine::solve_job(Job& job) const {
  const auto start = std::chrono::steady_clock::now();
  core::ExplorerOptions opts = options_.explorer;
  opts.threads = 1;  // Parallelism lives across jobs (see header).
  opts.cancel = options_.cancel;
  opts.seed_assignment = job.seed;
  if (job.warm) {
    opts.sa.max_steps = options_.warm_max_steps;
    opts.sa.max_stale_steps = options_.warm_max_stale;
  }
  const core::Explorer explorer(*job.cdcg, topo_, std::move(opts));
  const core::ModelOutcome outcome = options_.objective == Objective::kCwm
                                         ? explorer.optimize_cwm()
                                         : explorer.optimize_cdcm();
  const std::size_t cores = job.cdcg->num_cores();
  std::vector<noc::TileId> assignment(cores);
  for (graph::CoreId c = 0; c < cores; ++c) {
    assignment[c] = outcome.mapping.tile_of(c);
  }
  job.canon_assignment = to_canon_labels(*job.form, assignment);
  job.cost_j = outcome.objective_j;
  job.solve_ms = std::chrono::duration<double, std::milli>(
                     std::chrono::steady_clock::now() - start)
                     .count();
}

std::vector<MapResponse> ServeEngine::serve(
    const std::vector<MapRequest>& batch) {
  const std::size_t n = batch.size();
  for (const MapRequest& r : batch) {
    if (r.cdcg == nullptr) {
      throw std::invalid_argument("ServeEngine: request without a CDCG");
    }
  }

  // --- Phase 1: canonicalize (pure per-request function) -------------------
  std::vector<CanonicalForm> forms;
  forms.reserve(n);
  for (const MapRequest& r : batch) forms.push_back(canonicalize(*r.cdcg));

  // --- Phase 2: classify, sequentially in request order --------------------
  // All cache probes and the within-batch dedup happen here, so the cache's
  // LRU order and counters — and therefore every future batch — are
  // independent of solver timing and thread count.
  struct Pending {
    Served served = Served::kCold;
    std::size_t job = 0;          ///< Index into jobs (when not an exact hit).
    bool from_job = false;        ///< False: `cached` already holds the result.
    CachedResult cached;
  };
  std::vector<Pending> pending(n);
  std::vector<Job> jobs;
  jobs.reserve(n);
  // exact_hash -> job indices with that hash (verified before reuse).
  std::unordered_map<std::uint64_t, std::vector<std::size_t>> batch_index;

  for (std::size_t i = 0; i < n; ++i) {
    Pending& p = pending[i];
    if (!options_.bypass_cache) {
      if (std::optional<CachedResult> hit =
              cache_.find_exact(forms[i], context_)) {
        p.served = Served::kExactHit;
        p.cached = std::move(*hit);
        continue;
      }
      bool dup = false;
      for (const std::size_t j : batch_index[forms[i].exact_hash]) {
        if (canonical_equal(jobs[j].form->canonical, forms[i].canonical)) {
          p.served = Served::kBatchHit;
          p.job = j;
          p.from_job = true;
          dup = true;
          break;
        }
      }
      if (dup) continue;
    }

    Job job;
    job.cdcg = batch[i].cdcg;
    job.form = &forms[i];
    if (!options_.bypass_cache && options_.warm_start) {
      if (std::optional<CachedResult> fam =
              cache_.find_family(forms[i], context_)) {
        // Family members share canonical labels (canonical.hpp), so the
        // member's assignment translates exactly into this request's labels.
        job.seed = to_request_labels(forms[i], fam->canon_assignment);
        job.warm = true;
      }
    }
    if (job.seed.empty() && !batch[i].seed_assignment.empty()) {
      job.seed = batch[i].seed_assignment;
      job.warm = true;
    }
    p.served = job.warm ? Served::kWarmStart : Served::kCold;
    p.job = jobs.size();
    p.from_job = true;
    if (!options_.bypass_cache) {
      batch_index[forms[i].exact_hash].push_back(jobs.size());
    }
    jobs.push_back(std::move(job));
  }

  // --- Phase 3: solve unique jobs on the worker pool -----------------------
  util::parallel_for_index(
      options_.threads, jobs.size(),
      [&](std::size_t, std::size_t j) { solve_job(jobs[j]); });

  // --- Phase 4: publish, sequentially in request order ---------------------
  std::vector<MapResponse> responses(n);
  std::vector<bool> inserted(jobs.size(), false);
  for (std::size_t i = 0; i < n; ++i) {
    const Pending& p = pending[i];
    MapResponse& out = responses[i];
    out.served = p.served;
    out.exact_hash = forms[i].exact_hash;
    out.family_hash = forms[i].family_hash;
    if (p.from_job) {
      const Job& job = jobs[p.job];
      out.assignment = to_request_labels(forms[i], job.canon_assignment);
      out.cost_j = job.cost_j;
      if (p.served != Served::kBatchHit) out.solve_ms = job.solve_ms;
      if (!options_.bypass_cache && !inserted[p.job]) {
        cache_.insert(*job.form, context_, job.canon_assignment, job.cost_j);
        inserted[p.job] = true;
      }
    } else {
      out.assignment = to_request_labels(forms[i], p.cached.canon_assignment);
      out.cost_j = p.cached.cost_j;
    }
    ++stats_.requests;
    switch (p.served) {
      case Served::kCold: ++stats_.cold; break;
      case Served::kExactHit: ++stats_.exact_hits; break;
      case Served::kBatchHit: ++stats_.batch_hits; break;
      case Served::kWarmStart: ++stats_.warm_starts; break;
    }
  }
  return responses;
}

MapResponse ServeEngine::serve_one(const graph::Cdcg& cdcg) {
  MapRequest request;
  request.cdcg = &cdcg;
  return serve({request}).front();
}

}  // namespace nocmap::serve
