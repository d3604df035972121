#pragma once
/// \file explorer.hpp
/// The FRW framework facade — the paper's experimental flow in one object.
///
/// Bind an application (CDCG), a topology and a technology; the Explorer
/// then
///  1. projects the CDCG to a CWG and optimizes the CWM objective
///     (Equation 3),
///  2. optimizes the CDCM objective (Equation 10),
///  3. evaluates *both* winning mappings with the CDCM wormhole simulator —
///     the ground-truth timing/energy model — and reports the execution-time
///     reduction (ETR) and energy-consumption saving (ECS) of CDCM over CWM.
///
/// Search uses exhaustive enumeration when the (symmetry-pruned) placement
/// space is small and simulated annealing otherwise, exactly as in Section 5
/// ("For both models exhaustive search (ES) and simulated annealing (SA)
/// were applied, depending on the NoC size").

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "nocmap/energy/technology.hpp"
#include "nocmap/graph/cdcg.hpp"
#include "nocmap/mapping/cost.hpp"
#include "nocmap/noc/topology.hpp"
#include "nocmap/search/branch_and_bound.hpp"
#include "nocmap/search/exhaustive.hpp"
#include "nocmap/search/simulated_annealing.hpp"
#include "nocmap/sim/schedule.hpp"

namespace nocmap::core {

enum class SearchMethod {
  kAuto,                ///< ES if the pruned space fits the budget, else SA.
  kSimulatedAnnealing,
  kExhaustive,
  /// Branch and bound: exact optimum with admissible lower-bound pruning,
  /// incumbent seeded by greedy+SA. Falls back to the seeded incumbent
  /// (annealing quality) when the node budget runs out.
  kBranchAndBound,
  /// Racing portfolio (search::portfolio): SA chains x cooling schedules x
  /// move sets plus a budgeted B&B member, all greedy-seeded. The
  /// paper-scale engine for boards too large for exact search. Runs the
  /// default search::PortfolioOptions roster; the sa, bnb, seed, threads
  /// and time-budget fields come from ExplorerOptions. Deterministic for
  /// any thread count.
  kPortfolio,
};

/// Which objective drives the timing-aware half of the comparison.
enum class TimingCostMode {
  kCdcm,    ///< Pure Equation-10 search: every move is a wormhole sim.
  kHybrid,  ///< mapping::HybridCost: CWM-delta prefilter proposes, CDCM
            ///< verifies every hybrid_cadence-th move and every
            ///< temperature step.
};

struct ExplorerOptions {
  energy::Technology tech = energy::technology_0_07u();
  noc::RoutingAlgorithm routing = noc::RoutingAlgorithm::kXY;
  SearchMethod method = SearchMethod::kAuto;
  search::SaOptions sa;
  /// Exhaustive search: symmetry pruning and budget. The threads field is
  /// filled in per run from `threads`.
  search::EsOptions es;
  /// kBranchAndBound: node budget, shard depth, symmetry collapse. The
  /// seed/threads/sa fields and the incumbent are filled in per run (the
  /// incumbent is the greedy construction, or the CWM winner when
  /// seed_cdcm_with_cwm provides one).
  search::BnbOptions bnb;
  /// Wall-clock budget in ms for SA-based searches (plain SA chains and
  /// every portfolio SA member), 0 = none. The budget is honored at
  /// temperature-step boundaries only, and the cut checkpoint is recorded,
  /// so any time-budgeted result is reproducible exactly by rerunning with
  /// the corresponding move budget (SaOptions::max_moves).
  double time_budget_ms = 0.0;
  /// kAuto picks ES when placements / |symmetry group| is at most this.
  std::uint64_t es_auto_threshold = 500'000;
  /// In compare(), seed the CDCM annealing run with the CWM winner: the
  /// CDCM search space contains the CWM solution, so the timing-aware model
  /// can only refine it (and the reported ECS cannot go negative due to
  /// search noise alone). Disable for fully independent random starts.
  bool seed_cdcm_with_cwm = true;
  std::uint64_t seed = 1;  ///< Drives the SA runs (initial mapping + moves).
  /// Independent SA chains per model (best-of-N restarts). Chain 0 draws
  /// from Rng(seed) — so sa_chains == 1 reproduces the single-chain
  /// behaviour exactly — and chain i > 0 from a stream hashed out of
  /// (seed, i). The lowest-cost chain wins, ties broken by chain index, so
  /// the outcome depends only on (seed, sa_chains), never on `threads`.
  std::uint32_t sa_chains = 1;
  /// Worker threads (util::parallel_for_index) running the SA chains, the
  /// exhaustive-search shards (CWM, CDCM and hybrid), the branch-and-bound
  /// subtree tasks and the portfolio members, and available to callers like
  /// the CLI bench for application-level parallelism. Each worker owns its
  /// cost function, so no evaluation state is shared. Purely a throughput
  /// knob: results are identical for any value. 0 is treated as 1.
  std::uint32_t threads = 1;
  /// Objective for optimize_cdcm(): pure CDCM (the default, the paper's
  /// flow) or the hybrid CWM->CDCM mode.
  TimingCostMode timing_cost = TimingCostMode::kCdcm;
  /// kHybrid: every Nth priced move is verified with an exact CDCM delta
  /// (1 = every move, i.e. pure CDCM pricing; 0 = never, step resyncs
  /// only).
  std::uint32_t hybrid_cadence = 8;
  /// Evaluation backend for the timing-aware model and the ground-truth
  /// comparison (docs/simulation.md): the link-claim model (the paper's,
  /// the default) or the flit-accurate model with finite buffers. The CWM
  /// *search* is timing-blind either way; its winner is still judged by
  /// the selected backend.
  sim::SimBackend sim_backend = sim::SimBackend::kLinkClaim;
  std::uint32_t buffer_depth = 8;  ///< kFlit: flits per router input port.
  sim::FlowControl flow_control = sim::FlowControl::kCredit;  ///< kFlit.
  sim::Switching switching = sim::Switching::kWormhole;       ///< kFlit.
  /// Checkpointed incremental CDCM evaluation (SimOptions::checkpoints):
  /// scalar link-claim move pricing restores the latest snapshot before the
  /// earliest affected instant and replays only the suffix, bitwise equal
  /// to a full resimulation. Flit-backend / traced runs fall back to full
  /// resimulation automatically.
  bool cdcm_checkpoints = false;
  /// Snapshot cadence in event pops; 0 = auto (scaled from packet count).
  std::uint32_t ckpt_interval = 0;
  /// Optional starting mapping: core i begins on tile seed_assignment[i].
  /// Validated at Explorer construction (must name one tile per application
  /// core, injectively, within the topology — std::invalid_argument
  /// otherwise). Every search method is seeded the same way a caller-side
  /// incumbent would be: SA chains and portfolio members start from it
  /// instead of random mappings, and branch and bound adopts it as the
  /// initial upper bound. compare() still overrides it with the CWM winner
  /// for the CDCM half when seed_cdcm_with_cwm is set. Exhaustive search
  /// ignores seeds (it enumerates everything regardless). Empty = no seed.
  /// This is the warm-start hook the serving layer (serve/engine.hpp) and
  /// `explore --seed-mapping FILE` use.
  std::vector<noc::TileId> seed_assignment;
  /// Cooperative cancellation for every search this Explorer runs, polled
  /// at SA temperature-step and B&B node-test boundaries (exhaustive
  /// enumeration is not cancellable — kAuto only picks it when the pruned
  /// space is small). A cancelled run returns the incumbent at the last
  /// completed step. Not owned; may be nullptr; must outlive the Explorer.
  const search::CancelToken* cancel = nullptr;
};

/// The outcome of optimizing one model.
struct ModelOutcome {
  std::string model;            ///< "CWM" or "CDCM".
  mapping::Mapping mapping;     ///< Best mapping under that model's cost.
  double objective_j = 0.0;     ///< The model's own cost of that mapping.
  sim::SimulationResult sim;    ///< Ground-truth CDCM evaluation of it.
  std::uint64_t evaluations = 0;
  bool used_exhaustive = false;
  /// "ES", "SA", "BB" (branch and bound, proved optimal) or "BB/SA"
  /// (branch and bound hit its node budget and fell back to the seeded
  /// incumbent — annealing quality, no optimality proof).
  std::string method = "SA";
  // Branch-and-bound counters (see search::SearchResult); zero otherwise.
  std::uint64_t bnb_nodes_visited = 0;
  std::uint64_t bnb_nodes_pruned = 0;
  std::uint64_t bnb_nodes_tested = 0;
  std::uint64_t bnb_node_budget = 0;
  bool bnb_complete = false;
  // Portfolio summary (method == "PF"); empty/zero otherwise. All fields
  // are deterministic (no wall-clock values) so reports may diff them.
  std::string portfolio_winner{};        ///< Winning member's label.
  std::uint32_t portfolio_members = 0;   ///< Roster size actually raced.
  std::uint64_t portfolio_polish = 0;    ///< Final-descent swaps applied.
  bool portfolio_cut = false;            ///< Any member was budget-cut.
};

/// CWM-best vs CDCM-best, both judged by the ground-truth simulator.
struct Comparison {
  ModelOutcome cwm;
  ModelOutcome cdcm;

  /// ETR: execution-time reduction of the CDCM mapping vs the CWM mapping.
  /// The paper normalizes by the *CDCM* value (Section 4.1 reports
  /// 100 ns -> 90 ns as 11.1%), so ETR = t_cwm / t_cdcm - 1.
  double execution_time_reduction() const {
    return cwm.sim.texec_ns / cdcm.sim.texec_ns - 1.0;
  }
  /// ECS: energy-consumption saving at the bound technology, same
  /// normalization as ETR.
  double energy_saving() const {
    return cwm.sim.energy.total_j() / cdcm.sim.energy.total_j() - 1.0;
  }
};

class Explorer {
 public:
  /// The CDCG and topology must outlive the Explorer.
  Explorer(const graph::Cdcg& cdcg, const noc::Topology& topo,
           ExplorerOptions options = {});

  /// Optimize the CWM objective (Equation 3) and ground-truth-evaluate.
  ModelOutcome optimize_cwm() const;
  /// Optimize the CDCM objective (Equation 10) and ground-truth-evaluate.
  ModelOutcome optimize_cdcm() const;
  /// Both of the above.
  Comparison compare() const;

  /// True if kAuto would use exhaustive search on this instance.
  bool would_use_exhaustive() const;

  const graph::Cwg& cwg() const { return cwg_; }

 private:
  using CostFactory = search::CostFactory;

  ModelOutcome run(const CostFactory& make_cost, const std::string& model,
                   const mapping::Mapping* sa_initial = nullptr) const;
  /// Deterministic digest of a portfolio run, copied into ModelOutcome.
  struct PortfolioSummary {
    std::string winner;
    std::uint32_t members = 0;
    std::uint64_t polish = 0;
    bool cut = false;
  };
  /// Racing portfolio; fills `summary` for the portfolio_* outcome fields.
  search::SearchResult run_portfolio(const CostFactory& make_cost,
                                     const mapping::Mapping* initial,
                                     PortfolioSummary& summary) const;
  search::SearchResult run_sa_chains(const CostFactory& make_cost,
                                     const mapping::Mapping* sa_initial) const;
  /// Branch and bound with a greedy (or `incumbent`-provided) + SA seed.
  search::SearchResult run_branch_and_bound(
      const CostFactory& make_cost, const mapping::Mapping* incumbent) const;
  std::string timing_model_name() const;
  CostFactory timing_cost_factory() const;
  /// The SimOptions implied by options_ (backend, buffers, routing).
  sim::SimOptions sim_options() const;

  const graph::Cdcg& cdcg_;
  const noc::Topology& topo_;
  graph::Cwg cwg_;
  ExplorerOptions options_;
  /// Validated form of options_.seed_assignment; nullopt when unseeded.
  std::optional<mapping::Mapping> seed_map_;
};

}  // namespace nocmap::core
