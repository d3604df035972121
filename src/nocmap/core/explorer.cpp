#include "nocmap/core/explorer.hpp"

#include "nocmap/search/greedy.hpp"
#include "nocmap/search/portfolio.hpp"
#include "nocmap/util/parallel.hpp"

#include <algorithm>
#include <cstddef>
#include <optional>
#include <stdexcept>
#include <vector>

namespace nocmap::core {

Explorer::Explorer(const graph::Cdcg& cdcg, const noc::Topology& topo,
                   ExplorerOptions options)
    : cdcg_(cdcg),
      topo_(topo),
      cwg_(cdcg.to_cwg()),
      options_(std::move(options)) {
  options_.tech.validate();
  cdcg_.validate(/*require_connected=*/false);
  if (cdcg_.num_cores() > topo_.num_tiles()) {
    throw std::invalid_argument("Explorer: more cores than tiles");
  }
  if (!options_.seed_assignment.empty()) {
    if (options_.seed_assignment.size() != cdcg_.num_cores()) {
      throw std::invalid_argument(
          "Explorer: seed mapping names " +
          std::to_string(options_.seed_assignment.size()) +
          " tiles but the application has " +
          std::to_string(cdcg_.num_cores()) + " cores");
    }
    // from_assignment rejects out-of-range tiles and double occupancy.
    seed_map_ = mapping::Mapping::from_assignment(topo_,
                                                  options_.seed_assignment);
  }
}

bool Explorer::would_use_exhaustive() const {
  const std::uint64_t placements = search::placement_count(
      topo_.num_tiles(), static_cast<std::uint32_t>(cdcg_.num_cores()));
  // The estimate divides by the topology's group size capped at
  // num_tiles, the most a first-tile collapse alone can prune (on a torus
  // the ring rotations already collapse the first tile). Every ES/SA
  // decision has been made by this rule, and it is kept so that no
  // application switches engines. ES itself prices one placement per orbit
  // of the objective's own group, so the space it enumerates differs from
  // this estimate by the ratio of the two group sizes.
  const std::uint64_t group = std::min<std::uint64_t>(
      topo_.symmetry_maps().size(), topo_.num_tiles());
  return placements / group <= options_.es_auto_threshold;
}

search::SearchResult Explorer::run_sa_chains(
    const CostFactory& make_cost, const mapping::Mapping* sa_initial) const {
  const std::uint32_t chains = std::max<std::uint32_t>(1, options_.sa_chains);
  std::vector<std::optional<search::SearchResult>> results(chains);

  search::SaOptions sa = options_.sa;
  if (options_.time_budget_ms > 0.0) {
    sa.time_budget_ms = options_.time_budget_ms;  // Per chain.
  }
  if (options_.cancel) sa.cancel = options_.cancel;
  // Each *worker* builds one cost function on its first chain and reuses it
  // for every chain it claims (anneal() calls begin_search(), and cost
  // values are pure functions of the mapping, so a reused object is
  // indistinguishable from a fresh one). This amortizes the
  // arena/route-table construction of CdcmCost across chains instead of
  // paying it per chain.
  std::vector<std::unique_ptr<mapping::CostFunction>> costs(
      util::worker_count(options_.threads, chains));
  util::parallel_for_index(
      options_.threads, chains, [&](std::size_t worker, std::size_t chain) {
        if (!costs[worker]) costs[worker] = make_cost();
        util::Rng rng = search::chain_rng(
            options_.seed, static_cast<std::uint32_t>(chain));
        results[chain] =
            search::anneal(*costs[worker], topo_, rng, sa, sa_initial);
      });

  // Best of N; ties break to the lowest chain index, so the winner depends
  // only on (seed, chains). Evaluations aggregate the whole ensemble's work.
  std::size_t winner = 0;
  std::uint64_t total_evaluations = 0;
  for (std::size_t chain = 0; chain < chains; ++chain) {
    total_evaluations += results[chain]->evaluations;
    if (results[chain]->best_cost < results[winner]->best_cost) {
      winner = chain;
    }
  }
  search::SearchResult best = std::move(*results[winner]);
  best.evaluations = total_evaluations;
  return best;
}

search::SearchResult Explorer::run_branch_and_bound(
    const CostFactory& make_cost, const mapping::Mapping* incumbent) const {
  search::BnbOptions bo = options_.bnb;
  bo.threads = options_.threads;
  bo.seed = options_.seed;
  bo.sa = options_.sa;
  // The paper's greedy construction seeds the SA chain, whose winner seeds
  // the tree walk — so pruning bites from the first node. A caller-provided
  // incumbent (the CWM winner, under seed_cdcm_with_cwm) is better still.
  const mapping::Mapping greedy = search::greedy_mapping(cwg_, topo_);
  bo.incumbent = incumbent ? incumbent : &greedy;
  bo.use_symmetry = bo.use_symmetry && options_.es.use_symmetry;
  if (options_.cancel) bo.cancel = options_.cancel;
  return search::branch_and_bound(make_cost, topo_, bo);
}

search::SearchResult Explorer::run_portfolio(const CostFactory& make_cost,
                                             const mapping::Mapping* initial,
                                             PortfolioSummary& summary) const {
  // The default roster and budgets; the fields below come from options_.
  search::PortfolioOptions po;
  po.sa = options_.sa;
  po.bnb = options_.bnb;
  po.seed = options_.seed;
  po.threads = std::max<std::uint32_t>(1, options_.threads);
  if (options_.time_budget_ms > 0.0) po.time_budget_ms = options_.time_budget_ms;
  // Greedy construction as the shared starting incumbent (a caller-provided
  // mapping — the CWM winner under seed_cdcm_with_cwm — is better still):
  // every member starts from a sane placement instead of a random one, and
  // the B&B member prunes from the first node.
  const mapping::Mapping greedy = search::greedy_mapping(cwg_, topo_);
  po.initial = initial ? initial : &greedy;
  if (options_.cancel) po.cancel = options_.cancel;
  search::PortfolioResult pr =
      search::portfolio(make_cost, cwg_, topo_, options_.routing, po);
  summary.winner = pr.members[pr.winner].label;
  summary.members = static_cast<std::uint32_t>(pr.members.size());
  summary.polish = pr.polish_applied;
  summary.cut = pr.budget_cut;
  return std::move(pr.best);
}

ModelOutcome Explorer::run(const CostFactory& make_cost,
                           const std::string& model,
                           const mapping::Mapping* sa_initial) const {
  // An explicit per-call incumbent (the CWM winner under seed_cdcm_with_cwm)
  // outranks the options-level seed mapping; both flow through the same
  // initial-state plumbing of every engine.
  if (!sa_initial && seed_map_) sa_initial = &*seed_map_;
  const bool bnb = options_.method == SearchMethod::kBranchAndBound;
  const bool pf = options_.method == SearchMethod::kPortfolio;
  const bool exhaustive =
      !bnb && !pf &&
      (options_.method == SearchMethod::kExhaustive ||
       (options_.method == SearchMethod::kAuto && would_use_exhaustive()));

  PortfolioSummary pf_info;  // Collected before `outcome` exists.
  search::SearchResult sr = [&] {
    if (bnb) return run_branch_and_bound(make_cost, sa_initial);
    if (pf) return run_portfolio(make_cost, sa_initial, pf_info);
    if (exhaustive) {
      search::EsOptions es = options_.es;
      es.threads = options_.threads;
      return search::exhaustive_search(make_cost, topo_, es);
    }
    return run_sa_chains(make_cost, sa_initial);
  }();

  ModelOutcome outcome{model, sr.best, sr.best_cost, {}, sr.evaluations,
                       exhaustive};
  if (bnb) {
    outcome.method = sr.exhausted ? "BB" : "BB/SA";
    outcome.bnb_nodes_visited = sr.nodes_visited;
    outcome.bnb_nodes_pruned = sr.nodes_pruned;
    outcome.bnb_nodes_tested = sr.nodes_tested;
    outcome.bnb_node_budget = sr.node_budget;
    outcome.bnb_complete = sr.exhausted;
  } else if (pf) {
    outcome.method = "PF";
    outcome.portfolio_winner = pf_info.winner;
    outcome.portfolio_members = pf_info.members;
    outcome.portfolio_polish = pf_info.polish;
    outcome.portfolio_cut = pf_info.cut;
  } else {
    outcome.method = exhaustive ? "ES" : "SA";
  }
  // Ground truth: full CDCM simulation of the winner, traces included,
  // under the selected backend.
  const mapping::CdcmCost evaluator(cdcg_, topo_, options_.tech,
                                    options_.routing, sim_options());
  outcome.sim = evaluator.evaluate(sr.best);
  return outcome;
}

sim::SimOptions Explorer::sim_options() const {
  sim::SimOptions so;
  so.routing = options_.routing;
  so.backend = options_.sim_backend;
  so.buffer_depth = options_.buffer_depth;
  so.flow_control = options_.flow_control;
  so.switching = options_.switching;
  so.checkpoints = options_.cdcm_checkpoints;
  so.checkpoint_interval = options_.ckpt_interval;
  return so;
}

std::string Explorer::timing_model_name() const {
  return options_.timing_cost == TimingCostMode::kHybrid ? "HYBRID" : "CDCM";
}

ModelOutcome Explorer::optimize_cwm() const {
  return run(
      [this] {
        return std::make_unique<mapping::CwmCost>(cwg_, topo_, options_.tech,
                                                  options_.routing);
      },
      "CWM");
}

ModelOutcome Explorer::optimize_cdcm() const {
  return run(timing_cost_factory(), timing_model_name());
}

Explorer::CostFactory Explorer::timing_cost_factory() const {
  if (options_.timing_cost == TimingCostMode::kHybrid) {
    return [this]() -> std::unique_ptr<mapping::CostFunction> {
      return std::make_unique<mapping::HybridCost>(
          cdcg_, topo_, options_.tech, options_.routing,
          options_.hybrid_cadence, sim_options());
    };
  }
  return [this]() -> std::unique_ptr<mapping::CostFunction> {
    return std::make_unique<mapping::CdcmCost>(cdcg_, topo_, options_.tech,
                                               options_.routing,
                                               sim_options());
  };
}

Comparison Explorer::compare() const {
  ModelOutcome cwm = optimize_cwm();
  if (!options_.seed_cdcm_with_cwm) {
    return Comparison{std::move(cwm), optimize_cdcm()};
  }
  ModelOutcome cdcm =
      run(timing_cost_factory(), timing_model_name(), &cwm.mapping);
  return Comparison{std::move(cwm), std::move(cdcm)};
}

}  // namespace nocmap::core
