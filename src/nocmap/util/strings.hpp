#pragma once
/// \file strings.hpp
/// Small formatting helpers shared by the table writer, the examples and the
/// benchmark harnesses.

#include <cstdint>
#include <string>

namespace nocmap::util {

/// Format with a fixed number of decimals, e.g. format_fixed(1.2345, 2) ==
/// "1.23".
std::string format_fixed(double value, int decimals);

/// Format as a percentage with `decimals` digits, e.g. "40.0 %".
std::string format_percent(double fraction, int decimals = 1);

/// Group digits by thousands: 680006120 -> "680,006,120".
std::string format_grouped(std::uint64_t value);

/// Engineering notation for energies in Joule, e.g. 3.9e-10 -> "390.000 pJ".
std::string format_energy_j(double joule);

/// Time in nanoseconds with unit scaling, e.g. 1500 -> "1.500 us".
std::string format_time_ns(double ns);

/// 17 significant digits, enough to round-trip any double, e.g. 0.1 ->
/// "0.10000000000000001": the number format of the tracked BENCH JSON files.
std::string format_precise(double value);

}  // namespace nocmap::util
