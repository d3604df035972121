#pragma once
/// \file random_cdcg.hpp
/// TGFF-like random CDCG benchmark generator.
///
/// The paper's random benchmarks come from "a proprietary system, similar to
/// TGFF; however, the system describes benchmarks through CDCGs, representing
/// message dependence and bit volume of each message". This generator is our
/// substitute (PAPER.md, documented deviation 1). It emits graphs with the two
/// traffic populations typical of embedded MPSoC workloads — and necessary
/// for the CWM-vs-CDCM comparison to be meaningful:
///
///  * **control chains**: a few concurrent receive-compute-send chains of
///    small packets. They form the application's critical path, so their
///    per-hop routing latency and their mutual contention dominate execution
///    time — yet they carry almost no volume, making the volume-only CWM
///    objective blind to them;
///  * **bulk transfers**: a minority of packets (DMA-like payloads to a few
///    hub cores) that carry nearly all of the bit volume. They dominate the
///    CWM objective and, being serialization-bound, gain little from
///    placement.
///
/// Core count, packet count and total bits are exact (Table-1 rows match to
/// the bit). Fully deterministic given the seed.

#include <cstdint>

#include "nocmap/graph/cdcg.hpp"
#include "nocmap/util/rng.hpp"

namespace nocmap::workload {

struct RandomCdcgParams {
  std::uint32_t num_cores = 8;
  std::uint32_t num_packets = 32;   ///< Must be >= num_cores.
  std::uint64_t total_bits = 4096;  ///< Must be >= num_packets.
  /// Number of concurrent control chains (and the branching of the initial
  /// distribution tree). More chains = more packets in flight = more
  /// potential contention.
  double parallelism = 4.0;
  /// Mean source-computation time per control packet, in cycles. Small
  /// values keep the critical path communication-dominated.
  double mean_comp_cycles = 3.0;
  /// Fraction of packet destinations drawn from a small set of hub cores
  /// (memory-controller-like traffic concentration).
  double hotspot_fraction = 0.3;
  /// Fraction of packets that are bulk transfers.
  double bulk_fraction = 0.25;
  /// Expected size ratio between a bulk transfer and a control packet.
  double bulk_weight_ratio = 64.0;
};

/// Generate a CDCG with the exact core/packet/bit statistics of `params`.
/// Throws std::invalid_argument on inconsistent parameters.
graph::Cdcg generate_random_cdcg(const RandomCdcgParams& params,
                                 util::Rng& rng);

}  // namespace nocmap::workload
