#include "core/verify.h"

#include <algorithm>

#include "engine/query_engine.h"
#include "spath/bfs.h"
#include "util/rng.h"

namespace ftbfs {
namespace {

// Shared machinery: compares dist(s,·) in G∖F vs H∖F for one fault set. Both
// sides are FaultQueryEngines — the identity engine serves ground truth from
// G, the structure engine owns the g→H translation — so the verifier carries
// no masked-BFS or translation scratch of its own, only one lease per engine.
class Comparator {
 public:
  Comparator(const Graph& g, std::span<const EdgeId> h_edges)
      : g_(g),
        g_engine_(g),
        h_engine_(g, h_edges),
        g_lease_(g_engine_.acquire_scratch()),
        h_lease_(h_engine_.acquire_scratch()) {}

  // Returns a violation for fault set `faults` (host ids), if any. The
  // violation's `faults` field is filled by the caller (it knows whether ids
  // are edges or vertices).
  std::optional<Violation> check(std::span<const Vertex> sources,
                                 const FaultSpec& faults) {
    for (const Vertex s : sources) {
      const std::vector<std::uint32_t>& dg =
          g_engine_.all_distances(g_lease_, s, faults);
      const std::vector<std::uint32_t>& dh =
          h_engine_.all_distances(h_lease_, s, faults);
      for (Vertex v = 0; v < g_.num_vertices(); ++v) {
        if (dg[v] != dh[v]) {
          Violation viol;
          viol.source = s;
          viol.v = v;
          viol.dist_g = dg[v];
          viol.dist_h = dh[v];
          return viol;
        }
      }
    }
    return std::nullopt;
  }

  // Ground-truth BFS tree in G ∖ faults, on the comparator's G lease.
  const BfsResult& truth_tree(Vertex source, const FaultSpec& faults) {
    return g_engine_.query(g_lease_, source, faults);
  }

  [[nodiscard]] const Graph& g() const { return g_; }

 private:
  const Graph& g_;
  FaultQueryEngine g_engine_;
  FaultQueryEngine h_engine_;
  FaultQueryEngine::ScratchLease g_lease_;
  FaultQueryEngine::ScratchLease h_lease_;
};

std::optional<Violation> enumerate_faults(Comparator& cmp,
                                          std::span<const Vertex> sources,
                                          std::vector<EdgeId>& faults,
                                          EdgeId next, unsigned remaining) {
  if (auto v = cmp.check(sources, edge_faults(faults))) {
    v->faults = faults;
    return v;
  }
  if (remaining == 0) return std::nullopt;
  for (EdgeId e = next; e < cmp.g().num_edges(); ++e) {
    faults.push_back(e);
    if (auto v = enumerate_faults(cmp, sources, faults, e + 1, remaining - 1)) {
      return v;
    }
    faults.pop_back();
  }
  return std::nullopt;
}

std::optional<Violation> enumerate_vertex_faults(
    Comparator& cmp, std::span<const Vertex> sources,
    std::vector<Vertex>& faults, Vertex next, unsigned remaining) {
  if (auto v = cmp.check(sources, vertex_faults(faults))) {
    v->faults = faults;
    v->fault_model = FaultModel::kVertex;
    return v;
  }
  if (remaining == 0) return std::nullopt;
  for (Vertex u = next; u < cmp.g().num_vertices(); ++u) {
    faults.push_back(u);
    if (auto v = enumerate_vertex_faults(cmp, sources, faults, u + 1,
                                         remaining - 1)) {
      return v;
    }
    faults.pop_back();
  }
  return std::nullopt;
}

}  // namespace

std::optional<Violation> verify_exhaustive_vertex(
    const Graph& g, std::span<const EdgeId> h_edges,
    std::span<const Vertex> sources, unsigned f) {
  FTBFS_EXPECTS(f <= 3);
  Comparator cmp(g, h_edges);
  std::vector<Vertex> faults;
  return enumerate_vertex_faults(cmp, sources, faults, 0, f);
}

std::string Violation::describe(const Graph& g) const {
  std::string out = "FT-MBFS violation: source " + std::to_string(source) +
                    " -> " + std::to_string(v) + " " + to_string(fault_model) +
                    " faults {";
  for (std::size_t i = 0; i < faults.size(); ++i) {
    if (i > 0) out += ", ";
    if (fault_model == FaultModel::kVertex) {
      out += std::to_string(faults[i]);
    } else {
      const Edge& e = g.edge(faults[i]);
      out += "(" + std::to_string(e.u) + "," + std::to_string(e.v) + ")";
    }
  }
  out += "} dist_G=" +
         (dist_g == kInfHops ? std::string("inf") : std::to_string(dist_g)) +
         " dist_H=" +
         (dist_h == kInfHops ? std::string("inf") : std::to_string(dist_h));
  return out;
}

std::optional<Violation> verify_exhaustive(const Graph& g,
                                           std::span<const EdgeId> h_edges,
                                           std::span<const Vertex> sources,
                                           unsigned f) {
  FTBFS_EXPECTS(f <= 3);
  Comparator cmp(g, h_edges);
  std::vector<EdgeId> faults;
  return enumerate_faults(cmp, sources, faults, 0, f);
}

std::optional<Violation> verify_sampled(const Graph& g,
                                        std::span<const EdgeId> h_edges,
                                        std::span<const Vertex> sources,
                                        unsigned f, std::uint64_t samples,
                                        std::uint64_t seed) {
  FTBFS_EXPECTS(f >= 1);
  Comparator cmp(g, h_edges);
  Rng rng(derive_seed(seed, 0x7E51F1));

  // The fault-free case is always checked.
  if (auto v = cmp.check(sources, {})) return v;

  for (std::uint64_t it = 0; it < samples; ++it) {
    std::vector<EdgeId> faults;
    if (it % 2 == 0) {
      // Uniform distinct edges.
      while (faults.size() < f) {
        const EdgeId e = static_cast<EdgeId>(rng.next_below(g.num_edges()));
        if (std::find(faults.begin(), faults.end(), e) == faults.end()) {
          faults.push_back(e);
        }
      }
    } else {
      // Adversarial chain: each successive fault lies on the replacement path
      // of the previous ones (queried through the ground-truth engine).
      const Vertex s =
          sources[static_cast<std::size_t>(rng.next_below(sources.size()))];
      const Vertex v = static_cast<Vertex>(rng.next_below(g.num_vertices()));
      for (unsigned step = 0; step < f; ++step) {
        const BfsResult& r = cmp.truth_tree(s, edge_faults(faults));
        if (r.hops[v] == kInfHops || r.hops[v] == 0) break;
        // Walk parent pointers; pick a uniformly random edge of the path.
        std::vector<EdgeId> path_edges;
        for (Vertex cur = v; r.parent[cur] != kInvalidVertex;
             cur = r.parent[cur]) {
          path_edges.push_back(r.parent_edge[cur]);
        }
        faults.push_back(path_edges[static_cast<std::size_t>(
            rng.next_below(path_edges.size()))]);
      }
      while (faults.size() < f) {  // pad with uniform edges if chain ended
        const EdgeId e = static_cast<EdgeId>(rng.next_below(g.num_edges()));
        if (std::find(faults.begin(), faults.end(), e) == faults.end()) {
          faults.push_back(e);
        }
      }
    }
    if (auto viol = cmp.check(sources, edge_faults(faults))) {
      viol->faults = faults;
      return viol;
    }
  }
  return std::nullopt;
}

}  // namespace ftbfs
