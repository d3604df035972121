#include "nocmap/energy/technology.hpp"

#include <stdexcept>

namespace nocmap::energy {

void Technology::validate() const {
  if (e_rbit_j < 0 || e_lbit_j < 0 || e_cbit_j < 0) {
    throw std::invalid_argument("Technology: negative per-bit energy");
  }
  if (p_srouter_j_per_ns < 0) {
    throw std::invalid_argument("Technology: negative static power");
  }
  if (clock_period_ns <= 0) {
    throw std::invalid_argument("Technology: clock period must be positive");
  }
  if (flit_width_bits == 0) {
    throw std::invalid_argument("Technology: flit width must be positive");
  }
  if (tl_cycles == 0) {
    throw std::invalid_argument(
        "Technology: link traversal must take at least one cycle");
  }
}

Technology example_technology() {
  Technology t;
  t.name = "paper-example";
  t.e_rbit_j = 1e-12;
  t.e_lbit_j = 1e-12;
  t.e_cbit_j = 0.0;
  // PstNoC = 0.1 pJ/ns for the whole 2x2 example NoC -> 0.025 pJ/ns per
  // router (Equation 5 with n = 4).
  t.p_srouter_j_per_ns = 0.025e-12;
  t.tr_cycles = 2;
  t.tl_cycles = 1;
  t.clock_period_ns = 1.0;
  t.flit_width_bits = 1;
  return t;
}

Technology technology_0_35u() {
  Technology t;
  t.name = "0.35u";
  // 3.3 V, ~2 mm square tiles. Router buffer write+read per bit ~1 pJ class,
  // 2 mm wire at ~0.2 fF/um switching half the time ~2 pJ class.
  t.e_rbit_j = 1.1e-12;
  t.e_lbit_j = 2.0e-12;
  t.e_cbit_j = 0.0;
  // Calibrated so the static share of NoC energy stays in the ~1-3% band
  // across the Table-1 suite. Under the paper's normalization
  // ECS = ETR * static_share, which puts the ECS0.35 column in its
  // 0.4%-0.9% range for ETR around 40%.
  t.p_srouter_j_per_ns = 90e-15;
  t.tr_cycles = 2;
  t.tl_cycles = 1;
  t.clock_period_ns = 5.0;  // 200 MHz class.
  t.flit_width_bits = 32;
  return t;
}

Technology technology_0_07u() {
  Technology t;
  t.name = "0.07u";
  // ~0.9 V, ~1 mm tiles: an order of magnitude less switching energy per
  // bit than 0.35u.
  t.e_rbit_j = 0.10e-12;
  t.e_lbit_j = 0.16e-12;
  t.e_cbit_j = 0.0;
  // Deep sub-micron leakage (Duarte et al. scaling): calibrated so static
  // energy is roughly half of a mapped application's NoC energy across the
  // Table-1 suite. Under the paper's normalization ECS = ETR * static_share,
  // which makes ECS0.07 track about half of ETR as in Table 2 (ETR ~40%,
  // ECS0.07 ~20%). The absolute value (~3 mW per router) is high compared
  // to published 70 nm router leakage; it is chosen to reproduce the
  // paper's *relative* static/dynamic balance, not absolute power
  // (PAPER.md, documented deviation 2).
  t.p_srouter_j_per_ns = 3.0e-12;
  t.tr_cycles = 2;
  t.tl_cycles = 1;
  t.clock_period_ns = 1.0;  // 1 GHz class.
  t.flit_width_bits = 64;
  return t;
}

}  // namespace nocmap::energy
