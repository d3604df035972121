#pragma once
/// \file suite.hpp
/// The paper's 18-application benchmark suite (Table 1).
///
/// Eight embedded applications (distributed Romberg integration, 8-point
/// FFT, object recognition and image encoding — each in two variants) plus
/// ten randomly generated CDCG benchmarks, mapped onto eight NoC sizes from
/// 3x2 to 12x10. Core counts, packet counts and total bit volumes match
/// Table 1 exactly, with one documented deviation: the paper lists a 14-core
/// application on the 12-tile 3x4 NoC, which cannot be a one-core-per-tile
/// mapping; we build it with 12 cores (PAPER.md, documented deviation 3).
///
/// The paper's Table 2 (its per-size ETR/ECS averages) lives here too, so
/// `nocmap bench` can print its own averages beside the published ones.

#include <array>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "nocmap/graph/cdcg.hpp"

namespace nocmap::workload {

struct SuiteEntry {
  std::string name;          ///< e.g. "romberg-v1", "random-big-2".
  std::uint32_t noc_width;
  std::uint32_t noc_height;
  graph::Cdcg cdcg;
  std::uint32_t paper_cores;    ///< The Table-1 "number of cores" cell.
  std::uint32_t paper_packets;  ///< The Table-1 "number of packets" cell.
  std::uint64_t paper_bits;     ///< The Table-1 "total volume of bits" cell.

  std::string noc_size_label() const {
    return std::to_string(noc_width) + " x " + std::to_string(noc_height);
  }
};

/// Build all 18 applications. Deterministic (fixed internal seeds).
std::vector<SuiteEntry> table1_suite();

/// The subset of table1_suite() on a given NoC size label (e.g. "3 x 2").
std::vector<SuiteEntry> table1_suite_for(const std::string& noc_size_label);

/// The eight NoC size labels in Table-1/Table-2 order.
std::vector<std::string> table1_noc_sizes();

/// True for the NoC sizes the paper solves with exhaustive search as well as
/// SA ("up to 3x4 or 2x5").
bool small_enough_for_exhaustive(std::uint32_t width, std::uint32_t height);

/// One row of the paper's Table 2: the average reductions of the CDCM mapping
/// over the CWM one on one NoC size, in percent as printed.
struct PaperTable2Row {
  std::string_view noc_size;  ///< A table1_noc_sizes() label, e.g. "3 x 2".
  double etr_pct;
  double ecs_035u_pct;
  double ecs_007u_pct;
};

/// The paper's Table 2 in table1_noc_sizes() order. Its printed Average row
/// (40 %, 0.65 %, 20 %) is the mean of these eight rows, rounded.
extern const std::array<PaperTable2Row, 8> kPaperTable2;

}  // namespace nocmap::workload
