#include "nocmap/serve/canonical.hpp"

#include <algorithm>
#include <limits>
#include <string>

#include "nocmap/util/rng.hpp"

namespace nocmap::serve {

namespace {

constexpr graph::CoreId kUnassigned =
    std::numeric_limits<graph::CoreId>::max();

using util::fold;

}  // namespace

std::uint64_t cwg_refinement_hash(const graph::Cwg& cwg, bool weighted,
                                  std::uint32_t rounds) {
  const std::size_t n = cwg.num_cores();
  const std::vector<graph::CwgEdge> edges = cwg.edges();

  // Initial colors: (out-degree, in-degree[, out-volume, in-volume]).
  std::vector<std::uint64_t> out_deg(n, 0), in_deg(n, 0);
  std::vector<std::uint64_t> out_vol(n, 0), in_vol(n, 0);
  for (const graph::CwgEdge& e : edges) {
    ++out_deg[e.src];
    ++in_deg[e.dst];
    out_vol[e.src] += e.bits;
    in_vol[e.dst] += e.bits;
  }
  std::vector<std::uint64_t> color(n);
  for (std::size_t c = 0; c < n; ++c) {
    std::uint64_t h = fold(0x5ca1ab1eULL, out_deg[c]);
    h = fold(h, in_deg[c]);
    if (weighted) {
      h = fold(h, out_vol[c]);
      h = fold(h, in_vol[c]);
    }
    color[c] = h;
  }

  // Refinement rounds: each core absorbs the sorted multiset of its
  // (direction, weight, neighbor color) signatures. Sorting makes the
  // update independent of edge enumeration order, hence of core labels.
  std::vector<std::vector<std::uint64_t>> sigs(n);
  std::vector<std::uint64_t> next(n);
  for (std::uint32_t round = 0; round < rounds; ++round) {
    for (std::size_t c = 0; c < n; ++c) sigs[c].clear();
    for (const graph::CwgEdge& e : edges) {
      const std::uint64_t w = weighted ? e.bits : 1;
      sigs[e.src].push_back(fold(fold(1, w), color[e.dst]));
      sigs[e.dst].push_back(fold(fold(2, w), color[e.src]));
    }
    for (std::size_t c = 0; c < n; ++c) {
      std::sort(sigs[c].begin(), sigs[c].end());
      std::uint64_t h = fold(color[c], sigs[c].size());
      for (const std::uint64_t s : sigs[c]) h = fold(h, s);
      next[c] = h;
    }
    color.swap(next);
  }

  // Digest: the sorted multiset of final colors (label-independent).
  std::sort(color.begin(), color.end());
  std::uint64_t digest = fold(0xd16e57ULL, n);
  digest = fold(digest, weighted ? 1 : 0);
  for (const std::uint64_t c : color) digest = fold(digest, c);
  return digest;
}

CanonicalForm canonicalize(const graph::Cdcg& cdcg) {
  CanonicalForm form;
  const std::size_t n = cdcg.num_cores();
  const std::size_t p = cdcg.num_packets();
  form.canon_of_core.assign(n, kUnassigned);
  form.core_of_canon.reserve(n);

  // First-appearance order over the packet stream (src before dst). A core
  // relabeling rewrites the ids inside packets but not the packet order, so
  // this pass assigns the *same* canonical id to corresponding cores of any
  // relabeling — and only inspects (src, dst), so every member of a family
  // (same structure, different comp/bits) gets the same labels too.
  graph::CoreId next = 0;
  const auto assign = [&](graph::CoreId c) {
    if (form.canon_of_core[c] == kUnassigned) {
      form.canon_of_core[c] = next++;
      form.core_of_canon.push_back(c);
    }
  };
  for (graph::PacketId id = 0; id < p; ++id) {
    const graph::Packet& pk = cdcg.packet(id);
    assign(pk.src);
    assign(pk.dst);
  }
  // Traffic-free cores: interchangeable (no packets reference them, and
  // computation time lives on packets), appended in index order.
  for (graph::CoreId c = 0; c < n; ++c) assign(c);

  // The relabeled graph. Packet and dependence order is preserved — it is
  // part of the instance's identity (the CDCM schedule breaks ties by
  // packet id).
  for (graph::CoreId k = 0; k < n; ++k) {
    form.canonical.add_core("c" + std::to_string(k));
  }
  for (graph::PacketId id = 0; id < p; ++id) {
    const graph::Packet& pk = cdcg.packet(id);
    form.canonical.add_packet(form.canon_of_core[pk.src],
                              form.canon_of_core[pk.dst], pk.comp_time,
                              pk.bits);
  }
  for (graph::PacketId id = 0; id < p; ++id) {
    for (const graph::PacketId s : cdcg.successors(id)) {
      form.canonical.add_dependence(id, s);
    }
  }

  // Hashes over the canonical form (already label-independent), fortified
  // with the refinement digests of the projected CWG.
  std::uint64_t exact = fold(0xe87cUL, n);
  std::uint64_t family = fold(0xfa31ULL, n);
  exact = fold(exact, p);
  family = fold(family, p);
  for (graph::PacketId id = 0; id < p; ++id) {
    const graph::Packet& pk = form.canonical.packet(id);
    exact = fold(fold(exact, pk.src), pk.dst);
    exact = fold(fold(exact, pk.comp_time), pk.bits);
    family = fold(fold(family, pk.src), pk.dst);
  }
  for (graph::PacketId id = 0; id < p; ++id) {
    const std::vector<graph::PacketId>& succ = form.canonical.successors(id);
    exact = fold(exact, succ.size());
    family = fold(family, succ.size());
    for (const graph::PacketId s : succ) {
      exact = fold(exact, s);
      family = fold(family, s);
    }
  }
  const graph::Cwg cwg = cdcg.to_cwg();
  exact = fold(exact, cwg_refinement_hash(cwg, /*weighted=*/true));
  family = fold(family, cwg_refinement_hash(cwg, /*weighted=*/false));
  form.exact_hash = exact;
  form.family_hash = family;
  return form;
}

namespace {

bool equal_impl(const graph::Cdcg& a, const graph::Cdcg& b,
                bool compare_payloads) {
  if (a.num_cores() != b.num_cores() || a.num_packets() != b.num_packets() ||
      a.num_dependences() != b.num_dependences()) {
    return false;
  }
  const std::size_t p = a.num_packets();
  for (graph::PacketId id = 0; id < p; ++id) {
    const graph::Packet& pa = a.packet(id);
    const graph::Packet& pb = b.packet(id);
    if (pa.src != pb.src || pa.dst != pb.dst) return false;
    if (compare_payloads &&
        (pa.comp_time != pb.comp_time || pa.bits != pb.bits)) {
      return false;
    }
  }
  for (graph::PacketId id = 0; id < p; ++id) {
    if (a.successors(id) != b.successors(id)) return false;
  }
  return true;
}

}  // namespace

bool canonical_equal(const graph::Cdcg& a, const graph::Cdcg& b) {
  return equal_impl(a, b, /*compare_payloads=*/true);
}

bool family_equal(const graph::Cdcg& a, const graph::Cdcg& b) {
  return equal_impl(a, b, /*compare_payloads=*/false);
}

}  // namespace nocmap::serve
