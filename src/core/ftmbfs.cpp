#include "core/ftmbfs.h"

#include <algorithm>

#include "core/cons2ftbfs.h"
#include "core/single_ftbfs.h"

namespace ftbfs {
namespace {

// The union of per-source cons2ftbfs (`dual`) or single_ftbfs structures.
FtMbfsResult build_union(const Graph& g, std::span<const Vertex> sources,
                         const FtMbfsOptions& opt, bool dual) {
  FTBFS_EXPECTS(!sources.empty());
  Cons2Options one;  // cons2's options extend single's
  one.weight_seed = opt.weight_seed;
  one.jobs = opt.jobs;
  one.classify_paths = false;
  ParallelBuildReport inner;
  one.parallel_report = &inner;
  ParallelBuildReport agg;
  FtMbfsResult out;
  std::vector<bool> in_h(g.num_edges(), false);
  for (const Vertex s : sources) {
    const FtStructure h =
        dual ? build_cons2ftbfs(g, s, one) : build_single_ftbfs(g, s, one);
    out.per_source_size.push_back(h.edges.size());
    for (const EdgeId e : h.edges) in_h[e] = true;
    // Aggregate stats: sums are meaningful across sources; maxima are maxed.
    FtBfsStats& stats = out.structure.stats;
    stats.new_edges += h.stats.new_edges;
    stats.tree_edges += h.stats.tree_edges;
    stats.fault_pairs_considered += h.stats.fault_pairs_considered;
    stats.dijkstra_runs += h.stats.dijkstra_runs;
    stats.divergence_fallbacks += h.stats.divergence_fallbacks;
    stats.max_new_per_vertex =
        std::max(stats.max_new_per_vertex, h.stats.max_new_per_vertex);
    agg.workers = std::max(agg.workers, inner.workers);
    agg.blocks += inner.blocks;
    agg.conflicts += inner.conflicts;
  }
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    if (in_h[e]) out.structure.edges.push_back(e);
  }
  if (opt.parallel_report != nullptr) *opt.parallel_report = agg;
  return out;
}

}  // namespace

FtMbfsResult build_cons2ftmbfs(const Graph& g,
                               std::span<const Vertex> sources,
                               const FtMbfsOptions& opt) {
  return build_union(g, sources, opt, /*dual=*/true);
}

FtMbfsResult build_single_ftmbfs(const Graph& g,
                                 std::span<const Vertex> sources,
                                 const FtMbfsOptions& opt) {
  return build_union(g, sources, opt, /*dual=*/false);
}

}  // namespace ftbfs
