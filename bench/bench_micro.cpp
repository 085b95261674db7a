// Micro-benchmarks (google-benchmark): throughput of the substrate operations
// the constructions are built from, end-to-end construction costs, and the
// delta-vs-full query sweep that documents where the repair-path fallback
// threshold should sit.
#include <benchmark/benchmark.h>

#include <algorithm>

#include "core/cons2ftbfs.h"
#include "core/selector.h"
#include "core/sensitivity_oracle.h"
#include "core/single_ftbfs.h"
#include "core/swap_ftbfs.h"
#include "core/verify.h"
#include "engine/query_engine.h"
#include "engine/registry.h"
#include "graph/generators.h"
#include "graph/mask.h"
#include "service/shard.h"
#include "spath/bfs.h"
#include "spath/dijkstra.h"
#include "spath/tree_index.h"
#include "util/rng.h"

namespace {

using namespace ftbfs;

void BM_Bfs(benchmark::State& state) {
  const Vertex n = static_cast<Vertex>(state.range(0));
  const Graph g = random_connected(n, 3 * n, 1);
  Bfs bfs(g);
  for (auto _ : state) {
    benchmark::DoNotOptimize(bfs.run(0).hops.data());
  }
  state.SetItemsProcessed(state.iterations() * g.num_edges());
}
BENCHMARK(BM_Bfs)->Arg(256)->Arg(1024)->Arg(4096);

void BM_BfsMasked(benchmark::State& state) {
  const Vertex n = static_cast<Vertex>(state.range(0));
  const Graph g = random_connected(n, 3 * n, 1);
  Bfs bfs(g);
  GraphMask mask(g);
  mask.block_edge(0);
  mask.block_edge(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(bfs.run(0, &mask).hops.data());
  }
}
BENCHMARK(BM_BfsMasked)->Arg(1024);

void BM_TieBrokenDijkstra(benchmark::State& state) {
  const Vertex n = static_cast<Vertex>(state.range(0));
  const Graph g = random_connected(n, 3 * n, 1);
  const WeightAssignment w(g, 1);
  Dijkstra dij(g, w);
  for (auto _ : state) {
    benchmark::DoNotOptimize(dij.run(0).dist.data());
  }
}
BENCHMARK(BM_TieBrokenDijkstra)->Arg(256)->Arg(1024)->Arg(4096);

void BM_ReplacementPath(benchmark::State& state) {
  const Vertex n = static_cast<Vertex>(state.range(0));
  const Graph g = random_connected(n, 3 * n, 1);
  const WeightAssignment w(g, 1);
  PathSelector sel(g, w);
  const std::vector<EdgeId> faults = {0, 5};
  for (auto _ : state) {
    sel.mask().clear();
    block_edges(sel.mask(), faults);
    benchmark::DoNotOptimize(sel.w_path(0, n - 1));
  }
}
BENCHMARK(BM_ReplacementPath)->Arg(256)->Arg(1024);

void BM_SingleFtbfs(benchmark::State& state) {
  const Vertex n = static_cast<Vertex>(state.range(0));
  const Graph g = random_connected(n, 3 * n, 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(build_single_ftbfs(g, 0).edges.size());
  }
}
BENCHMARK(BM_SingleFtbfs)->Arg(128)->Arg(256)->Unit(benchmark::kMillisecond);

void BM_Cons2Ftbfs(benchmark::State& state) {
  const Vertex n = static_cast<Vertex>(state.range(0));
  const Graph g = random_connected(n, 3 * n, 1);
  Cons2Options opt;
  opt.classify_paths = false;
  for (auto _ : state) {
    benchmark::DoNotOptimize(build_cons2ftbfs(g, 0, opt).edges.size());
  }
}
BENCHMARK(BM_Cons2Ftbfs)->Arg(64)->Arg(128)->Arg(256)
    ->Unit(benchmark::kMillisecond);

void BM_Cons2FtbfsClassified(benchmark::State& state) {
  const Vertex n = static_cast<Vertex>(state.range(0));
  const Graph g = random_connected(n, 3 * n, 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(build_cons2ftbfs(g, 0).edges.size());
  }
}
BENCHMARK(BM_Cons2FtbfsClassified)->Arg(128)->Unit(benchmark::kMillisecond);

void BM_SensitivityOracleBuild(benchmark::State& state) {
  const Vertex n = static_cast<Vertex>(state.range(0));
  const Graph g = random_connected(n, 3 * n, 1);
  for (auto _ : state) {
    const SingleFaultOracle oracle(g, 0);
    benchmark::DoNotOptimize(oracle.table_entries());
  }
}
BENCHMARK(BM_SensitivityOracleBuild)->Arg(256)->Arg(512)
    ->Unit(benchmark::kMillisecond);

void BM_SensitivityOracleQuery(benchmark::State& state) {
  const Vertex n = static_cast<Vertex>(state.range(0));
  const Graph g = random_connected(n, 3 * n, 1);
  const SingleFaultOracle oracle(g, 0);
  Vertex v = 1;
  EdgeId e = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(oracle.distance_avoiding(v, e));
    v = (v + 97) % n;
    if (v == 0) v = 1;
    e = (e + 61) % g.num_edges();
  }
}
BENCHMARK(BM_SensitivityOracleQuery)->Arg(1024);

void BM_SwapFtbfs(benchmark::State& state) {
  const Vertex n = static_cast<Vertex>(state.range(0));
  const Graph g = random_connected(n, 3 * n, 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(build_swap_ftbfs(g, 0).structure.edges.size());
  }
}
BENCHMARK(BM_SwapFtbfs)->Arg(1024)->Unit(benchmark::kMillisecond);

// One dual-fault all-distances query on the engine of the registry's default
// f=2 structure.
void BM_StructureAllDistances(benchmark::State& state) {
  const Vertex n = static_cast<Vertex>(state.range(0));
  const Graph g = random_connected(n, 3 * n, 1);
  BuildRequest req;
  req.graph = &g;
  req.sources = {0};
  req.fault_budget = 2;
  const BuildResult h = BuilderRegistry::instance().build(
      BuilderRegistry::default_builder(2), req);
  FaultQueryEngine engine(g, h.structure);
  auto lease = engine.acquire_scratch();
  const std::vector<EdgeId> faults = {1, 7};
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        engine.all_distances(lease, 0, edge_faults(faults)).data());
  }
}
BENCHMARK(BM_StructureAllDistances)->Arg(1024);

// --- delta-vs-full query sweep ----------------------------------------------
//
// Two axes drive the two-tier query path's profit (docs/perf.md): how many
// faults a query carries (classification cost + number of damaged subtrees)
// and how large a fraction of the tree one cut disconnects (repair volume).
// BM_QueryFull / BM_QueryDelta sweep the first with uniformly random fault
// sets; BM_RepairVsFullBySubtree sweeps the second with a single tree-edge
// fault whose subtree is closest to the requested percentage of n — where
// the delta/full ratio crosses 1 is where DeltaOptions::max_affected_fraction
// belongs (measurements motivate the 0.5 default).

// One all-distances query per iteration over k uniformly random edge faults.
void query_sweep(benchmark::State& state, bool delta) {
  const Vertex n = 2048;
  const Graph g = random_connected(n, 3 * n, 1);
  FaultQueryEngine engine(g);
  engine.set_delta_options({.enabled = delta});
  auto lease = engine.acquire_scratch();
  const std::size_t k = static_cast<std::size_t>(state.range(0));
  Rng rng(7);
  std::vector<EdgeId> faults(k);
  for (auto _ : state) {
    for (std::size_t i = 0; i < k; ++i) {
      faults[i] = static_cast<EdgeId>(rng.next_below(g.num_edges()));
    }
    benchmark::DoNotOptimize(
        engine.all_distances(lease, 0, edge_faults(faults)).data());
  }
  const FaultQueryEngine::PathStats stats = engine.path_stats();
  state.counters["fast"] = static_cast<double>(stats.fast_path_hits);
  state.counters["repair"] = static_cast<double>(stats.repair_bfs);
  state.counters["full"] = static_cast<double>(stats.full_bfs);
}
void BM_QueryFull(benchmark::State& state) { query_sweep(state, false); }
void BM_QueryDelta(benchmark::State& state) { query_sweep(state, true); }
BENCHMARK(BM_QueryFull)->Arg(0)->Arg(1)->Arg(2)->Arg(4)->Arg(8);
BENCHMARK(BM_QueryDelta)->Arg(0)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

// One all-distances query per iteration with a single tree-edge fault whose
// subtree is as close as possible to range(0) percent of the vertices; the
// paired BM_..._FullBfs runs the identical fault with the delta disabled.
EdgeId tree_edge_with_subtree_fraction(const Graph& g, double fraction) {
  Bfs bfs(g);
  const BfsResult tree = bfs.run(0);
  const TreeIndex index(g, tree, 0);
  const double want = fraction * g.num_vertices();
  EdgeId best = kInvalidEdge;
  double best_gap = 1e18;
  for (Vertex v = 0; v < g.num_vertices(); ++v) {
    if (tree.parent_edge[v] == kInvalidEdge) continue;
    const double gap =
        std::abs(static_cast<double>(index.subtree_size(v)) - want);
    if (gap < best_gap) {
      best_gap = gap;
      best = tree.parent_edge[v];
    }
  }
  return best;
}

void repair_by_subtree(benchmark::State& state, bool delta) {
  const Vertex n = 2048;
  // Deep tree (path plus chords): subtrees of every size exist, so the
  // requested fraction is actually attainable.
  const Graph g = path_with_chords(n, n / 4, 3);
  FaultQueryEngine engine(g);
  engine.set_delta_options({.enabled = delta, .max_affected_fraction = 1.0});
  auto lease = engine.acquire_scratch();
  const EdgeId fault = tree_edge_with_subtree_fraction(
      g, static_cast<double>(state.range(0)) / 100.0);
  const EdgeId faults[1] = {fault};
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        engine.all_distances(lease, 0, edge_faults(faults)).data());
  }
  state.SetLabel("subtree ~" + std::to_string(state.range(0)) + "% of n");
}
void BM_RepairVsFullBySubtree(benchmark::State& state) {
  repair_by_subtree(state, true);
}
void BM_RepairVsFullBySubtree_FullBfs(benchmark::State& state) {
  repair_by_subtree(state, false);
}
BENCHMARK(BM_RepairVsFullBySubtree)
    ->Arg(1)->Arg(5)->Arg(10)->Arg(25)->Arg(50)->Arg(75)->Arg(90);
BENCHMARK(BM_RepairVsFullBySubtree_FullBfs)
    ->Arg(1)->Arg(5)->Arg(10)->Arg(25)->Arg(50)->Arg(75)->Arg(90);

// --- parent-carrying repair vs the full-BFS fallback -------------------------
//
// shortest_path under a single tree-edge fault whose subtree is ~range(0)%
// of n: the parent-exposing call that fell back to a full masked BFS before
// the repair BFS carried parents. The paired _FullBfs run is the pre-PR
// behavior (delta disabled ⇒ every damaged parent query is a full BFS).
void parent_query_by_subtree(benchmark::State& state, bool delta) {
  const Vertex n = 2048;
  const Graph g = path_with_chords(n, n / 4, 3);
  FaultQueryEngine engine(g);
  engine.set_delta_options({.enabled = delta, .max_affected_fraction = 1.0});
  auto lease = engine.acquire_scratch();
  const EdgeId fault = tree_edge_with_subtree_fraction(
      g, static_cast<double>(state.range(0)) / 100.0);
  const EdgeId faults[1] = {fault};
  Vertex target = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        engine.shortest_path(lease, 0, target, edge_faults(faults)));
    target = 1 + (target + 97) % (n - 1);
  }
  state.SetLabel("subtree ~" + std::to_string(state.range(0)) + "% of n");
}
void BM_ParentQueryRepair(benchmark::State& state) {
  parent_query_by_subtree(state, true);
}
void BM_ParentQueryRepair_FullBfs(benchmark::State& state) {
  parent_query_by_subtree(state, false);
}
BENCHMARK(BM_ParentQueryRepair)->Arg(1)->Arg(10)->Arg(50);
BENCHMARK(BM_ParentQueryRepair_FullBfs)->Arg(1)->Arg(10)->Arg(50);

// --- delta-compressed cache lines: overlay read vs full-vector copy ----------
//
// Serving an all-distances response from a delta line costs one baseline
// copy plus an O(diff) overlay (ShardedScenarioCache::materialize); from a
// full line it costs the straight O(n) vector copy. range(0) is the diff
// size in percent of n — the overlay's extra cost stays in the noise while
// resident bytes shrink by n/diff.
void BM_CacheLineMaterialize(benchmark::State& state) {
  const Vertex n = 4096;
  std::vector<std::uint32_t> baseline(n);
  for (Vertex v = 0; v < n; ++v) baseline[v] = v % 97;
  ShardedScenarioCache::Line line;
  if (state.range(0) < 0) {
    // Sentinel: full-vector line (the escape hatch / pre-PR representation).
    ShardedScenarioCache::fill(line, baseline);
  } else {
    const std::size_t diff_size = n * state.range(0) / 100;
    std::vector<std::uint64_t> diff;
    for (std::size_t i = 0; i < diff_size; ++i) {
      const Vertex v = static_cast<Vertex>(i * (n / std::max<std::size_t>(
                                                        1, diff_size)));
      diff.push_back((static_cast<std::uint64_t>(v) << 32) | 7u);
    }
    ShardedScenarioCache::fill_delta(line, &baseline, std::move(diff));
  }
  std::vector<std::uint32_t> out(n);
  for (auto _ : state) {
    ShardedScenarioCache::materialize(line, out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetLabel(state.range(0) < 0
                     ? "full-vector line"
                     : "delta line, diff=" +
                           std::to_string(state.range(0)) + "% of n");
}
BENCHMARK(BM_CacheLineMaterialize)->Arg(-1)->Arg(1)->Arg(10)->Arg(25);

void BM_VerifySampled(benchmark::State& state) {
  const Vertex n = static_cast<Vertex>(state.range(0));
  const Graph g = random_connected(n, 3 * n, 1);
  Cons2Options opt;
  opt.classify_paths = false;
  const FtStructure h = build_cons2ftbfs(g, 0, opt);
  const std::vector<Vertex> sources = {0};
  std::uint64_t seed = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        verify_sampled(g, h.edges, sources, 2, 50, ++seed));
  }
  state.SetLabel("50 fault sets / iteration");
}
BENCHMARK(BM_VerifySampled)->Arg(128)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
