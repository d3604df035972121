#include "nocmap/search/simulated_annealing.hpp"

#include <cmath>
#include <stdexcept>
#include <utility>
#include <vector>

namespace nocmap::search {

namespace {

/// Validate, reset pacing state and build the starting mapping — factored
/// out so SaChain's member initializers run it before anything draws from
/// the RNG (preserving the historical draw order exactly).
mapping::Mapping sa_initial_state(const mapping::CostFunction& cost,
                                  const noc::Topology& topo, util::Rng& rng,
                                  const SaOptions& options,
                                  const mapping::Mapping* initial) {
  if (options.cooling <= 0.0 || options.cooling >= 1.0) {
    throw std::invalid_argument("anneal: cooling must be in (0, 1)");
  }
  if (options.initial_acceptance <= 0.0 || options.initial_acceptance >= 1.0) {
    throw std::invalid_argument("anneal: initial_acceptance must be in (0,1)");
  }
  if (topo.num_tiles() < 2) {
    // The swap move needs two distinct tiles; with one tile the proposal
    // loop could never terminate.
    throw std::invalid_argument(
        "anneal: the topology must have at least 2 tiles");
  }
  if (initial && (initial->num_cores() != cost.num_cores() ||
                  initial->num_tiles() != topo.num_tiles())) {
    throw std::invalid_argument("anneal: initial mapping does not fit");
  }

  // Reset any pacing state (e.g. HybridCost's verification cadence) so a
  // pooled cost object behaves exactly like a fresh one.
  cost.begin_search();

  return initial ? *initial
                 : mapping::Mapping::random(topo, cost.num_cores(), rng);
}

}  // namespace

SaChain::SaChain(const mapping::CostFunction& cost, const noc::Topology& topo,
                 util::Rng& rng, const SaOptions& options,
                 const mapping::Mapping* initial, MoveGenerator* moves)
    : cost_(cost),
      rng_(rng),
      options_(options),
      moves_(moves),
      num_tiles_(topo.num_tiles()),
      moves_per_step_(static_cast<std::uint64_t>(options.moves_per_tile) *
                      topo.num_tiles()),
      current_(sa_initial_state(cost, topo, rng, options, initial)),
      current_cost_(cost.cost(current_)),
      walk_best_(current_cost_),
      result_{current_, current_cost_, current_cost_, 1, false},
      start_(std::chrono::steady_clock::now()) {
  // Incremental move pricing when the objective supports it: a move costs
  // O(affected edges) instead of a full re-evaluation, and rejected moves
  // never touch the mapping at all. CwmCost prices a swap in O(deg);
  // CdcmCost re-simulates but rebinds only the affected routes and caches
  // the probe, so a move costs one arena run instead of two. Composite
  // moves go through the same protocol (CostFunction::move_delta).
  use_delta_ = options_.use_swap_delta && cost_.has_swap_delta();
  if (moves_) moves_->reset();

  // --- Calibrate the initial temperature -----------------------------------
  // Sample random moves from the initial state and pick T0 so that the mean
  // uphill step is accepted with probability `initial_acceptance`.
  double uphill_sum = 0.0;
  std::uint32_t uphill_count = 0;
  for (std::uint32_t i = 0; i < options_.calibration_samples; ++i) {
    propose(move_);
    const double delta = price(move_);
    if (delta > 0) {
      uphill_sum += delta;
      ++uphill_count;
    }
    if (!use_delta_) undo_uncommitted(move_);  // price() applied the move.
  }
  const double mean_uphill =
      uphill_count ? uphill_sum / uphill_count : current_cost_ * 0.1;
  // exp(-mean_uphill / T0) == initial_acceptance.
  temperature_ = mean_uphill > 0
                     ? -mean_uphill / std::log(options_.initial_acceptance)
                     : 1.0;
}

void SaChain::propose(Move& out) {
  if (moves_) {
    moves_->propose(current_, rng_, out);
    return;
  }
  // The built-in neighbourhood: swap two distinct random tiles, drawn in
  // the historical order (first tile, then the second until distinct).
  out.kind = MoveKind::kSwap;
  out.swaps.clear();
  const auto a = static_cast<noc::TileId>(rng_.index(num_tiles_));
  noc::TileId b;
  do {
    b = static_cast<noc::TileId>(rng_.index(num_tiles_));
  } while (b == a);
  out.swaps.emplace_back(a, b);
}

// Price `mv` without committing it. On the full-recompute path the move is
// left applied (the accept branch keeps it, the reject branch calls
// undo_uncommitted), reproducing the original engine exactly.
double SaChain::price(Move& mv) {
  ++result_.evaluations;
  if (use_delta_) {
    if (!moves_) {
      return cost_.swap_delta(current_, mv.swaps[0].first, mv.swaps[0].second);
    }
    return cost_.move_delta(current_, mv.swaps.data(), mv.swaps.size());
  }
  for (const auto& s : mv.swaps) current_.swap_tiles(s.first, s.second);
  candidate_cost_ = cost_.cost(current_);
  return candidate_cost_ - current_cost_;
}

void SaChain::undo_uncommitted(const Move& mv) {
  for (std::size_t i = mv.swaps.size(); i-- > 0;) {
    current_.swap_tiles(mv.swaps[i].first, mv.swaps[i].second);
  }
}

void SaChain::maybe_finish_by_budget() {
  if (done_) return;
  if (options_.cancel && options_.cancel->cancelled()) {
    done_ = true;
    budget_cut_ = true;
    return;
  }
  if (options_.max_moves != 0 && moves_priced_ >= options_.max_moves) {
    done_ = true;
    budget_cut_ = true;
    return;
  }
  if (options_.time_budget_ms > 0.0) {
    const double elapsed_ms =
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - start_)
            .count();
    if (elapsed_ms >= options_.time_budget_ms) {
      done_ = true;
      budget_cut_ = true;
    }
  }
}

bool SaChain::step() {
  if (done_) return false;
  bool improved = false;
  accepted_swaps_.clear();
  accepted_ends_.clear();
  std::size_t best_at = 0;  // 1-based index into accepted_ends_; 0 = none.
  for (std::uint64_t move = 0; move < moves_per_step_; ++move) {
    propose(move_);
    const double delta = price(move_);
    ++moves_priced_;
    if (delta <= 0 || rng_.uniform01() < std::exp(-delta / temperature_)) {
      if (use_delta_) {
        if (moves_) {
          cost_.apply_move(current_, move_.swaps.data(), move_.swaps.size());
        } else {
          cost_.apply_swap(current_, move_.swaps[0].first,
                           move_.swaps[0].second);
        }
        current_cost_ += delta;
      } else {
        current_cost_ = candidate_cost_;  // Already applied by price().
      }
      accepted_swaps_.insert(accepted_swaps_.end(), move_.swaps.begin(),
                             move_.swaps.end());
      accepted_ends_.push_back(accepted_swaps_.size());
      if (moves_) moves_->on_accept(current_, move_);
      if (current_cost_ < walk_best_) {
        walk_best_ = current_cost_;
        best_at = accepted_ends_.size();
        improved = true;
      }
    } else if (!use_delta_) {
      undo_uncommitted(move_);  // Reject.
    }
  }
  if (best_at != 0) {
    // Materialize the step's best: every elementary swap is an involution,
    // so undoing the accepted suffix in reverse (across moves and within
    // each composite) recovers the state at the best point.
    mapping::Mapping snapshot = current_;
    for (std::size_t i = accepted_swaps_.size();
         i > accepted_ends_[best_at - 1]; --i) {
      snapshot.swap_tiles(accepted_swaps_[i - 1].first,
                          accepted_swaps_[i - 1].second);
    }
    if (use_delta_) {
      // The running cost accumulated deltas; pin the step's best to a fresh
      // full evaluation.
      walk_best_ = cost_.cost(snapshot);
      ++result_.evaluations;
    }
    // Deltas that under-report a move's cost (HybridCost's CWM prefilter)
    // can make a worse mapping look like an improvement, so the reported
    // best never takes a mapping whose exact cost is above it. A tie, which
    // rounding drift in the running cost produces, takes the step's best.
    if (walk_best_ <= result_.best_cost) {
      result_.best = std::move(snapshot);
      result_.best_cost = walk_best_;
    }
  }
  if (use_delta_) {
    // Bound floating-point drift of the accumulated running cost.
    current_cost_ = cost_.cost(current_);
    ++result_.evaluations;
  }
  stale_steps_ = improved ? 0 : stale_steps_ + 1;
  temperature_ *= options_.cooling;
  ++steps_done_;
  if (steps_done_ >= options_.max_steps ||
      stale_steps_ >= options_.max_stale_steps) {
    done_ = true;
  }
  maybe_finish_by_budget();
  return true;
}

SearchResult anneal(const mapping::CostFunction& cost,
                    const noc::Topology& topo, util::Rng& rng,
                    const SaOptions& options, const mapping::Mapping* initial,
                    MoveGenerator* moves) {
  SaChain chain(cost, topo, rng, options, initial, moves);
  while (chain.step()) {
  }
  return std::move(chain.take_result());
}

util::Rng chain_rng(std::uint64_t seed, std::uint32_t chain) {
  if (chain == 0) return util::Rng(seed);
  util::Rng outer(seed);
  util::Rng inner(outer() + chain);
  return inner.split();
}

}  // namespace nocmap::search
