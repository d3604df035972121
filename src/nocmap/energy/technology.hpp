#pragma once
/// \file technology.hpp
/// Technology / NoC parameter bundle.
///
/// Groups everything the energy and timing models need about the target
/// silicon and router microarchitecture: per-bit dynamic energies (the EBit
/// decomposition of Ye et al., used in Equations 1-4 of the paper), per-router
/// static power (Equation 5), and the wormhole timing parameters tr, tl,
/// lambda and flit width (Equations 6-8).
///
/// The paper derives its numbers from electrical simulation of the authors'
/// router in 0.35u and from published scaling projections for 0.07u (Duarte
/// et al., ICCD 2002). We do not have those netlists, so the presets below
/// are *calibrated substitutes*: magnitudes are chosen from published
/// per-bit energy ranges for on-chip wires/buffers, and the static/dynamic
/// ratio is tuned so that the static share of NoC energy is negligible at
/// 0.35u and of the order the paper reports for 0.07u (leakage "reaching up
/// to 20%" of total consumption and dominating the ECS difference). This
/// substitution is PAPER.md's documented deviation 2; it preserves the
/// relative CWM-vs-CDCM comparison, which is what Table 2 reports.

#include <cstdint>
#include <string>

namespace nocmap::energy {

/// All technology- and router-dependent constants.
///
/// Energies are Joule per bit; static power is Joule per nanosecond (W * 1e-9)
/// so that energy = power * time[ns] without conversion factors; time
/// parameters are in clock cycles, the clock period in nanoseconds.
struct Technology {
  std::string name;

  // --- Dynamic energy (Equation 1): EBit = ERbit + ELbit + ECbit ----------
  double e_rbit_j = 0.0;  ///< Router traversal energy per bit (buffers,
                          ///< crossbar, control), Joule/bit.
  double e_lbit_j = 0.0;  ///< Inter-tile link energy per bit, Joule/bit.
                          ///< Square tiles: horizontal == vertical (ELHbit ==
                          ///< ELVbit == ELbit).
  double e_cbit_j = 0.0;  ///< Core<->router local link energy per bit.
                          ///< Negligible for large tiles (Equation 2 drops
                          ///< it); kept for completeness.

  // --- Static power (Equation 5) ------------------------------------------
  double p_srouter_j_per_ns = 0.0;  ///< Leakage power of one router.

  // --- Wormhole timing (Equations 6-8) -------------------------------------
  std::uint32_t tr_cycles = 2;      ///< Cycles per routing decision.
  std::uint32_t tl_cycles = 1;      ///< Cycles to move one flit over a link.
  double clock_period_ns = 1.0;     ///< lambda.
  std::uint32_t flit_width_bits = 32;  ///< Link width; flits = ceil(bits/w).

  /// Number of flits of a packet of `bits` bits (n_abq in the paper).
  std::uint64_t flits(std::uint64_t bits) const {
    return (bits + flit_width_bits - 1) / flit_width_bits;
  }

  /// Throws std::invalid_argument if any parameter is out of range
  /// (non-positive period/flit width, negative energies, tl == 0).
  void validate() const;
};

/// The parameter set of the paper's worked example (Section 4.1):
/// ERbit = ELbit = 1 pJ/bit, ECbit = 0, tr = 2, tl = 1, lambda = 1 ns,
/// one-bit flits, and PstNoC = 0.1 pJ/ns for the whole 2x2 NoC
/// (so PSRouter = 0.025 pJ/ns).
Technology example_technology();

/// Calibrated 0.35 micron preset (leakage negligible: ECS column "ECS0.35").
Technology technology_0_35u();

/// Calibrated 0.07 micron preset (deep sub-micron: leakage a significant
/// fraction of NoC energy, ECS column "ECS0.07").
Technology technology_0_07u();

}  // namespace nocmap::energy
