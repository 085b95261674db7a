#include "core/kfail_ftbfs.h"

#include <algorithm>
#include <optional>
#include <type_traits>
#include <unordered_set>
#include <utility>
#include <vector>

#include "core/selector.h"
#include "spath/path.h"

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

// What one target's chains contribute.
struct ChainOutcome {
  std::vector<EdgeId> last_edges;  // distinct last edges of the chains' paths
  std::uint64_t chains = 0;
  bool truncated = false;  // the chain cap stopped the enumeration
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
                  std::uint64_t cap)
      : sel_(sel), s_(s), v_(v), f_(f), cap_(cap) {}

  ChainOutcome run() {
    std::vector<Fault> empty;
    recurse(empty, 0);
    return std::move(out_);
  }

 private:
  void recurse(std::vector<Fault>& faults, unsigned depth) {
    if (out_.truncated) return;
    if (out_.chains >= cap_) {
      out_.truncated = true;
      return;
    }
    ++out_.chains;

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
    // Last edges are v-incident, so the list stays within v's degree.
    const EdgeId le = last_edge(g, rp->verts);
    if (std::find(out_.last_edges.begin(), out_.last_edges.end(), le) ==
        out_.last_edges.end()) {
      out_.last_edges.push_back(le);
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

  std::unordered_set<std::vector<Fault>, FaultSetHash> seen_;
  ChainOutcome out_;
};

template <bool kVertexFaults>
KFailResult build_kfail_generic(const Graph& g, Vertex s, unsigned f,
                                const KFailOptions& opt) {
  TargetBuild build(g, s, opt);
  KFailResult out;
  out.structure = build.run(
      [&](TargetWorkspace& ws, Vertex v) {
        return ChainEnumerator<kVertexFaults>(ws.sel, s, v, f,
                                              opt.max_chains_per_vertex)
            .run();
      },
      [&](Vertex, ChainOutcome&& chain) {
        std::uint64_t added = 0;
        for (const EdgeId le : chain.last_edges) added += build.keep(le);
        build.stats().fault_pairs_considered += chain.chains;
        out.kstats.chains_enumerated += chain.chains;
        out.kstats.chain_cap_hits += chain.truncated;
        return added;
      });
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
