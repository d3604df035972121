#pragma once
/// \file romberg.hpp
/// Distributed Romberg integration — one of the paper's four embedded
/// applications (Table 1).
///
/// Structure (a reconstruction: PAPER.md, documented deviation 4): a master
/// core scatters interval descriptors; the workers then iterate refinement
/// rounds in which each worker (a) passes its sub-interval boundary values
/// to its ring neighbour — a small, latency-critical packet that gates the
/// neighbour's next round — and (b) uploads a bulk partial-sum column to the
/// master. After the last round each worker uploads its final tableau row
/// and the master exchanges Richardson-extrapolation rows with worker 0.
///
/// The bulk star (workers -> master) carries nearly all volume; the small
/// ring carries the critical path. A volume-only (CWM) mapping optimizes the
/// star and leaves the ring arbitrary; the timing-aware (CDCM) mapping must
/// balance both — which is exactly the effect the paper measures.
///
/// Packet count: workers * (2 * rounds + 2) + extrapolation_packets.

#include <cstdint>

#include "nocmap/graph/cdcg.hpp"

namespace nocmap::workload {

struct RombergParams {
  std::uint32_t workers = 4;   ///< Cores = workers + 1 (master).
  std::uint32_t rounds = 4;    ///< Full task/reply refinement rounds.
  std::uint32_t extrapolation_packets = 3;  ///< Tableau exchanges after the
                                            ///< final gather (master <->
                                            ///< worker 0 chain).
  std::uint64_t total_bits = 78817;  ///< Exact application volume.
};

graph::Cdcg romberg_app(const RombergParams& params);

}  // namespace nocmap::workload
