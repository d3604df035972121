#pragma once
/// \file timeline.hpp
/// Text renderings of a simulation result:
///
///  * render_annotations() — the per-resource occupancy lists of Figure 3:
///    every router/link/local-link with its "bits(src->dst):[start,end]"
///    entries, contended worms marked with '*'.
///  * render_timeline() — the per-packet Gantt chart of Figures 4 and 5:
///    computation ('='), routing ('r'), payload ('#') and contention ('!')
///    segments on a shared time axis.

#include <string>

#include "nocmap/graph/cdcg.hpp"
#include "nocmap/noc/topology.hpp"
#include "nocmap/sim/schedule.hpp"

namespace nocmap::sim {

/// Figure-3-style resource annotations. Only resources with at least one
/// occupancy entry are listed. Requires a traced result (sim::simulate() or
/// Simulator::run_traced()); a scalar Simulator::run() result carries no
/// occupancy lists and throws std::logic_error.
std::string render_annotations(const SimulationResult& result,
                               const graph::Cdcg& cdcg,
                               const noc::Topology& topo);

/// Figure-4/5-style timing diagram, one lane per packet.
/// `columns` is the width of the plotting area in characters.
std::string render_timeline(const SimulationResult& result,
                            const graph::Cdcg& cdcg,
                            const energy::Technology& tech,
                            std::size_t columns = 100);

}  // namespace nocmap::sim
