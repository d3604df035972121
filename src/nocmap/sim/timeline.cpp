#include "nocmap/sim/timeline.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <stdexcept>

#include "nocmap/util/strings.hpp"

namespace nocmap::sim {

namespace {

std::string packet_label(const graph::Cdcg& cdcg, graph::PacketId p) {
  const graph::Packet& pk = cdcg.packet(p);
  return std::to_string(pk.bits) + "(" + cdcg.core_name(pk.src) + "->" +
         cdcg.core_name(pk.dst) + ")";
}

}  // namespace

std::string render_annotations(const SimulationResult& result,
                               const graph::Cdcg& cdcg,
                               const noc::Topology& topo) {
  if (result.occupancy.empty() && cdcg.num_packets() != 0) {
    throw std::logic_error(
        "render_annotations: the result carries no traces (a scalar run)");
  }
  std::ostringstream os;
  for (noc::ResourceId r = 0; r < result.occupancy.size(); ++r) {
    const auto& list = result.occupancy[r];
    if (list.empty()) continue;
    os << topo.resource_name(r) << ":\n";
    for (const Occupancy& occ : list) {
      os << "  " << (occ.contended ? "*" : " ")
         << packet_label(cdcg, occ.packet) << ":[" << occ.start_ns << ","
         << occ.end_ns << "]\n";
    }
  }
  return os.str();
}

std::string render_timeline(const SimulationResult& result,
                            const graph::Cdcg& cdcg,
                            const energy::Technology& tech,
                            std::size_t columns) {
  if (columns < 10) columns = 10;
  const double t_end = result.texec_ns;
  if (t_end <= 0) return "(empty timeline)\n";
  const double scale = static_cast<double>(columns) / t_end;
  const double lambda = tech.clock_period_ns;
  const double tl = static_cast<double>(tech.tl_cycles) * lambda;

  std::size_t label_width = 0;
  for (graph::PacketId p = 0; p < cdcg.num_packets(); ++p) {
    label_width = std::max(label_width, packet_label(cdcg, p).size());
  }

  auto col = [&](double t) {
    return std::min(columns - 1,
                    static_cast<std::size_t>(std::floor(t * scale)));
  };

  std::ostringstream os;
  for (graph::PacketId p = 0; p < cdcg.num_packets(); ++p) {
    const PacketTrace& tr = result.packets[p];
    std::string lane(columns, ' ');
    auto paint = [&](double from, double to, char ch) {
      if (to <= from) return;
      for (std::size_t c = col(from); c <= col(to - 1e-9); ++c) {
        lane[c] = ch;
      }
    };
    // Segments: computation, then the network part. Within the network part
    // the contention-free prefix of Equation 8 is drawn as routing ('r') +
    // payload ('#'); any excess over Equation 8 is contention ('!').
    const graph::Packet& pk = cdcg.packet(p);
    const double n_flits = static_cast<double>(tech.flits(pk.bits));
    const double routing =
        energy::routing_delay_ns(tech, tr.num_routers);
    const double payload = tl * (n_flits - 1.0);
    paint(tr.ready_ns, tr.inject_ns, '=');
    paint(tr.inject_ns, tr.inject_ns + routing, 'r');
    paint(tr.inject_ns + routing, tr.inject_ns + routing + payload, '#');
    paint(tr.inject_ns + routing + payload, tr.delivered_ns, '!');

    std::string label = packet_label(cdcg, p);
    os << label << std::string(label_width - label.size(), ' ') << " |" << lane
       << "|\n";
  }
  os << std::string(label_width, ' ') << " 0" << std::string(columns - 1, ' ')
     << util::format_fixed(t_end, 0) << " ns\n";
  os << "legend: '=' computation  'r' routing delay  '#' packet delay  "
        "'!' contention\n";
  return os.str();
}

}  // namespace nocmap::sim
