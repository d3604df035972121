#include "nocmap/util/strings.hpp"

#include <array>
#include <cmath>
#include <cstdio>
#include <sstream>

namespace nocmap::util {

std::string format_fixed(double value, int decimals) {
  std::array<char, 64> buf{};
  std::snprintf(buf.data(), buf.size(), "%.*f", decimals, value);
  return std::string(buf.data());
}

std::string format_percent(double fraction, int decimals) {
  return format_fixed(fraction * 100.0, decimals) + " %";
}

std::string format_grouped(std::uint64_t value) {
  std::string digits = std::to_string(value);
  std::string out;
  out.reserve(digits.size() + digits.size() / 3);
  int count = 0;
  for (auto it = digits.rbegin(); it != digits.rend(); ++it) {
    if (count != 0 && count % 3 == 0) out.push_back(',');
    out.push_back(*it);
    ++count;
  }
  return std::string(out.rbegin(), out.rend());
}

namespace {

struct Scale {
  double factor;
  const char* unit;
};

std::string scaled(double value, const Scale* scales, std::size_t n) {
  // Pick the largest unit whose scaled magnitude is >= 1 (or the smallest).
  for (std::size_t i = 0; i < n; ++i) {
    const double v = value / scales[i].factor;
    if (std::fabs(v) >= 1.0 || i + 1 == n) {
      return format_fixed(v, 3) + " " + scales[i].unit;
    }
  }
  return format_fixed(value, 3);
}

}  // namespace

std::string format_energy_j(double joule) {
  static constexpr Scale kScales[] = {
      {1.0, "J"},     {1e-3, "mJ"}, {1e-6, "uJ"},
      {1e-9, "nJ"},   {1e-12, "pJ"}, {1e-15, "fJ"},
  };
  if (joule == 0.0) return "0.000 pJ";
  return scaled(joule, kScales, std::size(kScales));
}

std::string format_time_ns(double ns) {
  static constexpr Scale kScales[] = {
      {1e9, "s"}, {1e6, "ms"}, {1e3, "us"}, {1.0, "ns"},
  };
  if (ns == 0.0) return "0.000 ns";
  return scaled(ns, kScales, std::size(kScales));
}

std::string format_precise(double value) {
  std::ostringstream os;
  os.precision(17);
  os << value;
  return os.str();
}

}  // namespace nocmap::util
