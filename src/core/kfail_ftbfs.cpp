#include "core/kfail_ftbfs.h"

#include <algorithm>
#include <optional>
#include <type_traits>
#include <unordered_set>
#include <vector>

#include "core/selector.h"
#include "spath/path.h"
#include "spath/weights.h"

namespace ftbfs {
namespace {

// Order-insensitive hash of a small sorted fault set.
struct FaultSetHash {
  std::size_t operator()(const std::vector<EdgeId>& f) const {
    std::size_t h = 0x9e3779b97f4a7c15ULL;
    for (const EdgeId e : f) {
      h ^= (h << 13);
      h += 0x100000001b3ULL * (e + 1);
    }
    return h;
  }
};

// Enumerates the fault chains of one target v. Each successive fault lies on
// the current replacement path: any of its edges for edge faults, any of its
// *interior* vertices for vertex faults (s and the target are never faulted —
// the FT property is vacuous when the target itself fails).
template <bool kVertexFaults>
class ChainEnumerator {
 public:
  using Fault = std::conditional_t<kVertexFaults, Vertex, EdgeId>;

  ChainEnumerator(PathSelector& sel, Vertex s, Vertex v, unsigned f,
                  std::uint64_t cap, std::vector<bool>& in_h,
                  FtBfsStats& stats, KFailStats& kstats)
      : sel_(sel),
        s_(s),
        v_(v),
        f_(f),
        cap_(cap),
        in_h_(in_h),
        stats_(stats),
        kstats_(kstats) {}

  std::uint64_t run() {
    std::vector<Fault> empty;
    recurse(empty, 0);
    if (truncated_) ++kstats_.chain_cap_hits;
    return new_edges_;
  }

 private:
  void recurse(std::vector<Fault>& faults, unsigned depth) {
    if (truncated_) return;
    if (budget_used_ >= cap_) {
      truncated_ = true;
      return;
    }
    ++budget_used_;
    ++kstats_.chains_enumerated;
    ++stats_.fault_pairs_considered;

    // Deduplicate fault sets reachable through different chain orders.
    std::vector<Fault> key = faults;
    std::sort(key.begin(), key.end());
    if (!seen_.insert(std::move(key)).second) return;

    GraphMask& mask = sel_.mask();
    mask.clear();
    if constexpr (kVertexFaults) {
      for (const Vertex u : faults) mask.block_vertex(u);
    } else {
      block_edges(mask, faults);
    }
    const std::optional<RPath> rp = sel_.w_path(s_, v_);
    if (!rp) return;  // v disconnected under these faults: nothing to keep
    const Graph& g = sel_.graph();
    const EdgeId le = last_edge(g, rp->verts);
    if (!in_h_[le]) {
      in_h_[le] = true;
      ++stats_.new_edges;
      ++new_edges_;
    }
    if (depth == f_) return;

    const auto branch = [&](Fault x) {
      faults.push_back(x);
      recurse(faults, depth + 1);
      faults.pop_back();
    };
    if constexpr (kVertexFaults) {
      for (std::size_t i = 1; i + 1 < rp->verts.size(); ++i) {
        branch(rp->verts[i]);
      }
    } else {
      for (const EdgeId e : edges_of(g, rp->verts)) branch(e);
    }
  }

  PathSelector& sel_;
  Vertex s_;
  Vertex v_;
  unsigned f_;
  std::uint64_t cap_;
  std::vector<bool>& in_h_;
  FtBfsStats& stats_;
  KFailStats& kstats_;

  std::unordered_set<std::vector<Fault>, FaultSetHash> seen_;
  std::uint64_t budget_used_ = 0;
  std::uint64_t new_edges_ = 0;
  bool truncated_ = false;
};

template <bool kVertexFaults>
KFailResult build_kfail_generic(const Graph& g, Vertex s, unsigned f,
                                const KFailOptions& opt) {
  FTBFS_EXPECTS(s < g.num_vertices());
  const WeightAssignment w(g, opt.weight_seed);
  PathSelector sel(g, w);

  KFailResult out;
  std::vector<bool> in_h(g.num_edges(), false);

  sel.mask().clear();
  const SpResult tree = sel.w_sssp(s);
  for (Vertex v = 0; v < g.num_vertices(); ++v) {
    if (v != s && tree.reached(v) && !in_h[tree.parent_edge[v]]) {
      in_h[tree.parent_edge[v]] = true;
      ++out.structure.stats.tree_edges;
    }
  }

  for (Vertex v = 0; v < g.num_vertices(); ++v) {
    if (v == s || !tree.reached(v)) continue;
    ChainEnumerator<kVertexFaults> chain(sel, s, v, f,
                                         opt.max_chains_per_vertex, in_h,
                                         out.structure.stats, out.kstats);
    const std::uint64_t new_here = chain.run();
    out.structure.stats.max_new_per_vertex =
        std::max(out.structure.stats.max_new_per_vertex, new_here);
  }

  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    if (in_h[e]) out.structure.edges.push_back(e);
  }
  out.structure.stats.dijkstra_runs = sel.dijkstra_runs();
  return out;
}

}  // namespace

KFailResult build_kfail_ftbfs_vertex(const Graph& g, Vertex s, unsigned f,
                                     const KFailOptions& opt) {
  return build_kfail_generic<true>(g, s, f, opt);
}

KFailResult build_kfail_ftbfs(const Graph& g, Vertex s, unsigned f,
                              const KFailOptions& opt) {
  return build_kfail_generic<false>(g, s, f, opt);
}

}  // namespace ftbfs
