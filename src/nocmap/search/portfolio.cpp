#include "nocmap/search/portfolio.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <limits>
#include <memory>
#include <utility>

#include "nocmap/util/parallel.hpp"

namespace nocmap::search {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

double elapsed_ms(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

std::string sa_label(std::uint32_t member, double cooling, bool lns) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "sa%u c=%.3f %s", member, cooling,
                lns ? "lns" : "swap");
  return buf;
}

}  // namespace

PolishOutcome steepest_polish(const mapping::CostFunction& cost,
                              mapping::Mapping& m, double& cost_j,
                              const PolishOptions& options) {
  PolishOutcome out;
  const std::uint32_t tiles = m.num_tiles();
  std::vector<std::pair<noc::TileId, noc::TileId>> cands;
  cands.reserve(static_cast<std::size_t>(tiles) * (tiles - 1) / 2);
  for (noc::TileId a = 0; a < tiles; ++a) {
    for (noc::TileId b = a + 1; b < tiles; ++b) cands.emplace_back(a, b);
  }
  if (cands.empty()) return out;
  std::vector<double> deltas(cands.size());
  for (std::uint32_t pass = 0; pass < options.max_passes; ++pass) {
    cost.swap_deltas(m, cands.data(), cands.size(), deltas.data());
    out.evaluations += cands.size();
    std::size_t best = 0;
    for (std::size_t i = 1; i < deltas.size(); ++i) {
      if (deltas[i] < deltas[best]) best = i;  // Ties: lowest index.
    }
    if (!(deltas[best] < 0.0)) break;  // Local optimum of the neighbourhood.
    cost.apply_swap(m, cands[best].first, cands[best].second);
    cost_j += deltas[best];
    ++out.applied;
  }
  return out;
}

PortfolioResult portfolio(const CostFactory& make_cost,
                          const graph::Cwg& cwg, const noc::Topology& topo,
                          noc::RoutingAlgorithm routing,
                          const PortfolioOptions& options) {
  const std::uint32_t sa_members = std::max<std::uint32_t>(1, options.sa_members);

  // One probe instance decides feature support and serves the final
  // (post-join, single-threaded) polish and pinning evaluations.
  const std::unique_ptr<mapping::CostFunction> probe = make_cost();
  const bool with_bnb = options.include_bnb && probe->has_lower_bound();
  const std::uint32_t num_members = sa_members + (with_bnb ? 1 : 0);

  const std::vector<double> ladder =
      options.coolings.empty()
          ? std::vector<double>{options.sa.cooling, 0.99, 0.90, 0.97, 0.85}
          : options.coolings;

  std::vector<std::unique_ptr<PortfolioMemberOutcome>> outcomes(num_members);

  auto run_sa_member = [&](std::uint32_t i) {
    const auto start = std::chrono::steady_clock::now();
    util::Rng rng = chain_rng(options.seed, i);
    const std::unique_ptr<mapping::CostFunction> cost = make_cost();
    const bool use_lns = options.lns && (i % 2 == 1);
    std::unique_ptr<MoveGenerator> gen;
    if (use_lns) {
      gen = std::make_unique<LargeNeighborhoodMoves>(cwg, topo, routing,
                                                     options.lns_options);
    }
    SaOptions so = options.sa;
    so.cooling = ladder[i % ladder.size()];
    so.max_moves = options.max_moves;
    so.time_budget_ms = options.time_budget_ms;
    if (options.cancel) so.cancel = options.cancel;

    SaChain chain(*cost, topo, rng, so, options.initial, gen.get());
    std::vector<AnytimeSample> samples;
    const std::uint64_t quantum = options.checkpoint_moves;
    std::uint64_t next_cp = quantum;
    double last_sampled = kInf;
    while (chain.step()) {
      // Sample at the fixed move-count quanta AND on every improvement of
      // this member's own incumbent, so the anytime curve records the exact
      // step each improvement landed instead of the next checkpoint after
      // it. Improvement samples are deterministic (a pure function of the
      // member's chain).
      const bool improved = chain.result().best_cost < last_sampled;
      const bool at_checkpoint =
          quantum == 0 || chain.moves_priced() >= next_cp || chain.done();
      if (!at_checkpoint && !improved) continue;
      while (quantum != 0 && next_cp <= chain.moves_priced()) {
        next_cp += quantum;
      }
      samples.push_back(AnytimeSample{chain.moves_priced(),
                                      chain.result().best_cost,
                                      elapsed_ms(start)});
      last_sampled = chain.result().best_cost;
    }
    const bool cut = chain.budget_cut();
    SearchResult result = chain.take_result();
    if (samples.empty() || samples.back().moves != chain.moves_priced() ||
        samples.back().best_j != result.best_cost) {
      // Guarantee a terminal sample: the loop's last sample predates the
      // final step's pinning.
      samples.push_back(AnytimeSample{chain.moves_priced(), result.best_cost,
                                      elapsed_ms(start)});
    }
    outcomes[i] = std::make_unique<PortfolioMemberOutcome>(
        PortfolioMemberOutcome{sa_label(i, so.cooling, use_lns),
                               std::move(result), std::move(samples), cut});
  };

  auto run_bnb_member = [&](std::uint32_t i) {
    const auto start = std::chrono::steady_clock::now();
    BnbOptions bo = options.bnb;
    bo.max_nodes = options.bnb_nodes;
    bo.threads = 1;      // One worker: a truncated DFS is still deterministic.
    bo.seed = options.seed;
    bo.seed_with_sa = false;  // The SA members *are* the seeds.
    if (options.cancel) bo.cancel = options.cancel;
    bo.incumbent = options.initial;
    SearchResult result = branch_and_bound(make_cost, topo, bo);
    std::vector<AnytimeSample> samples{AnytimeSample{
        result.nodes_tested, result.best_cost, elapsed_ms(start)}};
    outcomes[i] = std::make_unique<PortfolioMemberOutcome>(
        PortfolioMemberOutcome{"bnb", std::move(result), std::move(samples),
                               !result.exhausted});
  };

  auto run_member = [&](std::uint32_t i) {
    if (i < sa_members) {
      run_sa_member(i);
    } else {
      run_bnb_member(i);
    }
  };

  util::parallel_for_index(
      options.threads, num_members, [&](std::size_t, std::size_t i) {
        run_member(static_cast<std::uint32_t>(i));
      });

  // --- Deterministic reduction: lowest cost, ties by member index ----------
  std::size_t winner = 0;
  std::uint64_t total_evals = 0;
  bool any_cut = false;
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    total_evals += outcomes[i]->result.evaluations;
    any_cut = any_cut || outcomes[i]->budget_cut;
    if (outcomes[i]->result.best_cost < outcomes[winner]->result.best_cost) {
      winner = i;
    }
  }
  SearchResult best = outcomes[winner]->result;

  // --- Final descent over the batched-pricing neighbourhood ----------------
  std::uint64_t polish_applied = 0;
  if (options.polish && probe->has_batched_deltas() && best.best_cost < kInf) {
    double cj = best.best_cost;
    const PolishOutcome po = steepest_polish(*probe, best.best, cj);
    total_evals += po.evaluations;
    polish_applied = po.applied;
    if (po.applied != 0) {
      // Deltas are exact but accumulated; pin the reported cost fresh.
      best.best_cost = probe->cost(best.best);
      ++total_evals;
    }
  }
  best.evaluations = total_evals;

  // --- Merged anytime curve: running min over the union of SA samples -----
  // Improvement-driven sampling gives members different sample counts, so
  // the merge is event-based instead of checkpoint-index-aligned: every SA
  // sample ordered by its priced-move count (stable — ties keep member
  // order, so the result is a pure function of the members' deterministic
  // sample lists), folded through a running minimum, one curve point per
  // distinct move count. Monotone nonincreasing in best_j and nondecreasing
  // in moves by construction.
  PortfolioResult out{std::move(best),
                      winner,
                      {},
                      {},
                      any_cut,
                      polish_applied};
  out.members.reserve(outcomes.size());
  for (std::unique_ptr<PortfolioMemberOutcome>& o : outcomes) {
    out.members.push_back(std::move(*o));
  }
  std::vector<AnytimeSample> events;
  for (std::uint32_t i = 0; i < sa_members; ++i) {
    const std::vector<AnytimeSample>& s = out.members[i].samples;
    events.insert(events.end(), s.begin(), s.end());
  }
  std::stable_sort(events.begin(), events.end(),
                   [](const AnytimeSample& a, const AnytimeSample& b) {
                     return a.moves < b.moves;
                   });
  double running = kInf;
  double wall = 0.0;
  for (const AnytimeSample& s : events) {
    running = std::min(running, s.best_j);
    wall = std::max(wall, s.wall_ms);
    if (!out.curve.empty() && out.curve.back().moves == s.moves) {
      out.curve.back().best_j = running;
      out.curve.back().wall_ms = wall;
    } else {
      out.curve.push_back(AnytimeSample{s.moves, running, wall});
    }
  }
  // Terminal point: fold in the B&B member and the polish. Its moves stay
  // the SA members' count (the B&B member's sample counts bound tests, not
  // priced moves); its wall time covers every member.
  AnytimeSample final_point;
  final_point.moves = out.curve.empty() ? 0 : out.curve.back().moves;
  final_point.best_j = std::min(running, out.best.best_cost);
  for (const PortfolioMemberOutcome& o : out.members) {
    for (const AnytimeSample& s : o.samples) {
      final_point.wall_ms = std::max(final_point.wall_ms, s.wall_ms);
    }
  }
  out.curve.push_back(final_point);
  return out;
}

}  // namespace nocmap::search
