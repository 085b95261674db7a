// The fault-delta query path (docs/perf.md) must be *observationally
// equivalent* to the pre-delta full-masked-BFS path: bit-identical distances
// from every hops-reading API, and — for the parent-exposing APIs, which now
// route through the parent-carrying repair BFS — a valid shortest-path tree
// with the same hop counts (the specific parent among equal-hop candidates
// is tie-break-dependent: BFS parentage depends on queue order, which a
// bounded repair cannot reproduce; docs/perf.md "Parent repair"). These
// tests pit a delta-enabled engine against a delta-disabled twin over
// randomized graphs × fault sets × budgets — including the threshold-
// fallback boundary at fractions 0 (always fall back) and 1 (never) — check
// every repair-path parent tree and path for validity, check serve responses
// against the delta-disabled engine's G∖F distances and against an uncached
// service, pin which cache lines are stored as diffs, and pin down the
// fast/repair/full counter accounting the serving stats surface.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "engine/query_engine.h"
#include "engine/registry.h"
#include "graph/generators.h"
#include "service/oracle_service.h"
#include "service/protocol.h"
#include "service_truth.h"
#include "util/rng.h"

namespace ftbfs {
namespace {

FaultQueryEngine::DeltaOptions delta_off() {
  return {.enabled = false, .max_affected_fraction = 0.5};
}

// A fault set biased toward tree damage: half the edges are drawn from the
// baseline tree of `h_edges`' structure (parent edges of random vertices in
// g — most survive into H), half uniformly; optional vertex faults.
struct FaultDraw {
  std::vector<EdgeId> edges;
  std::vector<Vertex> vertices;
  [[nodiscard]] FaultSpec spec() const { return FaultSpec{edges, vertices}; }
};

FaultDraw draw_faults(Rng& rng, const Graph& g, const BfsResult& tree,
                      std::size_t max_edges, std::size_t max_vertices) {
  FaultDraw out;
  const std::size_t ne = rng.next_below(max_edges + 1);
  for (std::size_t i = 0; i < ne; ++i) {
    if (rng.next_below(2) == 0) {
      const Vertex v = static_cast<Vertex>(rng.next_below(g.num_vertices()));
      if (tree.parent_edge[v] != kInvalidEdge) {
        out.edges.push_back(tree.parent_edge[v]);
        continue;
      }
    }
    out.edges.push_back(static_cast<EdgeId>(rng.next_below(g.num_edges())));
  }
  for (std::size_t i = 0; i < rng.next_below(max_vertices + 1); ++i) {
    out.vertices.push_back(
        static_cast<Vertex>(rng.next_below(g.num_vertices())));
  }
  return out;
}

// True iff the canonical fault set hits g-edge `ge` / vertex `v`.
bool edge_faulted(const CanonicalFaultSet& canon, EdgeId ge) {
  return std::binary_search(canon.edges().begin(), canon.edges().end(), ge);
}
bool vertex_faulted(const CanonicalFaultSet& canon, Vertex v) {
  return std::binary_search(canon.vertices().begin(), canon.vertices().end(),
                            v);
}

// `r` must be a valid shortest-path tree of H ∖ F with hops bit-identical to
// the full masked BFS (`truth`): every reached non-source vertex hangs off a
// usable H edge to a parent exactly one hop closer; the source and the
// unreachable carry sentinel parents. `h` is the engine's structure graph
// (H edge ids), faults are host-graph ids.
void expect_valid_tree(const Graph& g, const Graph& h, Vertex source,
                       const FaultSpec& faults, const BfsResult& r,
                       const BfsResult& truth) {
  const CanonicalFaultSet canon = faults.canonicalize();
  ASSERT_EQ(r.hops, truth.hops);
  for (Vertex v = 0; v < h.num_vertices(); ++v) {
    SCOPED_TRACE("vertex " + std::to_string(v));
    if (v == source && r.hops[v] == 0) {
      EXPECT_EQ(r.parent[v], kInvalidVertex);
      EXPECT_EQ(r.parent_edge[v], kInvalidEdge);
      continue;
    }
    if (r.hops[v] == kInfHops) {
      EXPECT_EQ(r.parent[v], kInvalidVertex);
      EXPECT_EQ(r.parent_edge[v], kInvalidEdge);
      continue;
    }
    const Vertex p = r.parent[v];
    const EdgeId he = r.parent_edge[v];
    ASSERT_NE(p, kInvalidVertex);
    ASSERT_NE(he, kInvalidEdge);
    ASSERT_LT(he, h.num_edges());
    const Edge& edge = h.edge(he);
    EXPECT_TRUE((edge.u == p && edge.v == v) || (edge.u == v && edge.v == p));
    EXPECT_EQ(r.hops[p] + 1, r.hops[v]);
    // The parent edge must be usable under the fault set (host ids).
    const EdgeId ge = g.find_edge(edge.u, edge.v);
    ASSERT_NE(ge, kInvalidEdge);
    EXPECT_FALSE(edge_faulted(canon, ge));
    EXPECT_FALSE(vertex_faulted(canon, p));
    EXPECT_FALSE(vertex_faulted(canon, v));
  }
}

// `path`, if present, must be a real shortest path: right endpoints, length
// matching the full-BFS distance, consecutive hops along usable H edges.
void expect_valid_path(const Graph& g, const Graph& h, Vertex source,
                       Vertex target, const FaultSpec& faults,
                       std::uint32_t true_hops,
                       const std::optional<Path>& path) {
  const CanonicalFaultSet canon = faults.canonicalize();
  ASSERT_EQ(path.has_value(), true_hops != kInfHops);
  if (!path.has_value()) return;
  ASSERT_FALSE(path->empty());
  EXPECT_EQ(path->front(), source);
  EXPECT_EQ(path->back(), target);
  ASSERT_EQ(path->size(), static_cast<std::size_t>(true_hops) + 1);
  for (std::size_t i = 0; i + 1 < path->size(); ++i) {
    const EdgeId he = h.find_edge((*path)[i], (*path)[i + 1]);
    ASSERT_NE(he, kInvalidEdge)
        << "step " << (*path)[i] << "->" << (*path)[i + 1] << " not in H";
    const EdgeId ge = g.find_edge((*path)[i], (*path)[i + 1]);
    EXPECT_FALSE(edge_faulted(canon, ge));
  }
  for (const Vertex v : *path) EXPECT_FALSE(vertex_faulted(canon, v));
}

// One engine pair (delta on / off) over the same structure; every
// hops-reading API must agree exactly, and the parent-exposing APIs must
// produce valid shortest-path trees/paths with the full-BFS hop counts.
void expect_engines_agree(const Graph& g, std::span<const EdgeId> h_edges,
                          Vertex source, std::uint64_t seed, int rounds,
                          double fraction) {
  FaultQueryEngine delta(g, h_edges);
  delta.set_delta_options({.enabled = true, .max_affected_fraction = fraction});
  FaultQueryEngine full(g, h_edges);
  full.set_delta_options(delta_off());

  // The baseline tree of G guides the tree-damage bias (H's own tree differs,
  // but parent edges of G frequently land on H tree edges too).
  Bfs bfs(g);
  const BfsResult g_tree = bfs.run(source);

  Rng rng(seed);
  std::vector<FaultDraw> draws;
  std::vector<FaultSpec> specs;
  for (int r = 0; r < rounds; ++r) {
    draws.push_back(draw_faults(rng, g, g_tree, 4, 1));
  }
  for (const FaultDraw& d : draws) specs.push_back(d.spec());

  const Vertex n = g.num_vertices();
  std::vector<Vertex> targets = {0, static_cast<Vertex>(n / 3),
                                 static_cast<Vertex>(n / 2),
                                 static_cast<Vertex>(n - 1)};
  for (std::size_t r = 0; r < draws.size(); ++r) {
    const FaultSpec spec = specs[r];
    SCOPED_TRACE("round " + std::to_string(r));

    // all_distances: the full vector, every vertex.
    EXPECT_EQ(delta.all_distances(source, spec), full.all_distances(source, spec));

    // distance: single-target early-exit path.
    const Vertex t = targets[r % targets.size()];
    EXPECT_EQ(delta.distance(source, t, spec), full.distance(source, t, spec));

    // query: the parent-exposing primitive. Hops bit-identical; parents a
    // valid shortest-path tree (repair parents may pick a different
    // equal-hop candidate than the full BFS's queue order did).
    const BfsResult& fr = full.query(source, spec);
    const BfsResult& dr = delta.query(source, spec);
    expect_valid_tree(g, delta.structure_graph(), source, spec, dr, fr);

    // shortest_path: a real shortest path of the exact full-BFS length.
    const std::optional<Path> dp = delta.shortest_path(source, t, spec);
    expect_valid_path(g, delta.structure_graph(), source, t, spec,
                      fr.hops[t], dp);
  }

  // batch: whole matrix in one call.
  EXPECT_EQ(delta.batch(source, specs, targets),
            full.batch(source, specs, targets));
}

TEST(DeltaPath, MatchesFullBfsOnRandomGraphs) {
  for (const std::uint64_t seed : {1u, 7u, 23u}) {
    const Graph g = erdos_renyi(64, 0.1, seed);
    BuildRequest req;
    req.graph = &g;
    req.sources = {0};
    req.fault_budget = 2;
    const BuildResult built =
        BuilderRegistry::instance().build("cons2ftbfs", req);
    expect_engines_agree(g, built.structure.edges, 0, seed * 101, 40, 0.5);
  }
}

TEST(DeltaPath, MatchesFullBfsOnIdentityEngine) {
  const Graph g = erdos_renyi(80, 0.08, 3);
  std::vector<EdgeId> all(g.num_edges());
  for (EdgeId e = 0; e < g.num_edges(); ++e) all[e] = e;
  expect_engines_agree(g, all, 5, 99, 40, 0.5);
}

TEST(DeltaPath, MatchesFullBfsOnSparseTreelikeGraph) {
  // Tree-heavy host: almost every fault is a tree fault, subtrees are large,
  // so the threshold fallback triggers regularly at fraction 0.25.
  const Graph g = path_with_chords(96, 10, 5);
  std::vector<EdgeId> all(g.num_edges());
  for (EdgeId e = 0; e < g.num_edges(); ++e) all[e] = e;
  expect_engines_agree(g, all, 0, 55, 40, 0.25);
}

TEST(DeltaPath, ThresholdBoundaryFractions) {
  const Graph g = erdos_renyi(48, 0.12, 13);
  std::vector<EdgeId> all(g.num_edges());
  for (EdgeId e = 0; e < g.num_edges(); ++e) all[e] = e;
  // fraction 0: every damaged query must fall back to the full BFS (answers
  // still exact); fraction 1: the repair never falls back.
  expect_engines_agree(g, all, 0, 77, 30, 0.0);
  expect_engines_agree(g, all, 0, 78, 30, 1.0);

  FaultQueryEngine never_repair(g);
  never_repair.set_delta_options(
      {.enabled = true, .max_affected_fraction = 0.0});
  Bfs bfs(g);
  const BfsResult tree = bfs.run(0);
  EdgeId tree_edge = kInvalidEdge;  // any tree edge (the graph may leave
                                    // high-numbered vertices unreached)
  for (Vertex v = g.num_vertices(); v-- > 0 && tree_edge == kInvalidEdge;) {
    tree_edge = tree.parent_edge[v];
  }
  ASSERT_NE(tree_edge, kInvalidEdge);
  const EdgeId faults[1] = {tree_edge};
  (void)never_repair.all_distances(0, edge_faults(faults));
  const FaultQueryEngine::PathStats stats = never_repair.path_stats();
  EXPECT_EQ(stats.repair_bfs, 0u);
  EXPECT_EQ(stats.full_bfs, 1u);
}

TEST(DeltaPath, CountersClassifyQueries) {
  const Graph g = cycle_graph(32);  // every edge is either tree or the one
                                    // cross edge closing the cycle
  FaultQueryEngine engine(g);
  Bfs bfs(g);
  const BfsResult tree = bfs.run(0);

  // Fault a non-tree edge: fast path, answers straight from the baseline.
  EdgeId non_tree = kInvalidEdge;
  std::vector<bool> is_tree(g.num_edges(), false);
  for (Vertex v = 0; v < g.num_vertices(); ++v) {
    if (tree.parent_edge[v] != kInvalidEdge) is_tree[tree.parent_edge[v]] = true;
  }
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    if (!is_tree[e]) non_tree = e;
  }
  ASSERT_NE(non_tree, kInvalidEdge);
  const EdgeId nt_faults[1] = {non_tree};
  (void)engine.all_distances(0, edge_faults(nt_faults));
  FaultQueryEngine::PathStats stats = engine.path_stats();
  EXPECT_EQ(stats.fast_path_hits, 1u);
  EXPECT_EQ(stats.repair_bfs, 0u);
  EXPECT_EQ(stats.full_bfs, 0u);

  // Fault the tree edge above the BFS tree's deepest leaf: a one-vertex
  // subtree, repaired via the other side of the cycle.
  const EdgeId leaf_edge = tree.parent_edge[16];
  ASSERT_NE(leaf_edge, kInvalidEdge);
  const EdgeId tr_faults[1] = {leaf_edge};
  (void)engine.all_distances(0, edge_faults(tr_faults));
  stats = engine.path_stats();
  EXPECT_EQ(stats.fast_path_hits, 1u);
  EXPECT_EQ(stats.repair_bfs, 1u);
  EXPECT_EQ(stats.full_bfs, 0u);

  // Single-target distance whose target sits outside the damage: answered
  // from the baseline without running the repair.
  const std::uint32_t d = engine.distance(0, 8, edge_faults(tr_faults));
  EXPECT_EQ(d, 8u);
  stats = engine.path_stats();
  EXPECT_EQ(stats.fast_path_hits, 2u);
  EXPECT_EQ(stats.repair_bfs, 1u);

  // Faulted source: full BFS reports the all-unreachable result.
  const Vertex src_fault[1] = {0};
  const auto& hops = engine.all_distances(0, vertex_faults(src_fault));
  for (Vertex v = 0; v < g.num_vertices(); ++v) EXPECT_EQ(hops[v], kInfHops);
  stats = engine.path_stats();
  EXPECT_EQ(stats.full_bfs, 1u);

  // Every query is accounted to exactly one path.
  EXPECT_EQ(stats.fast_path_hits + stats.repair_bfs + stats.full_bfs,
            engine.queries_answered());
}

TEST(DeltaPath, RepairHandlesDisconnection) {
  // Cutting the path graph's edge (k-1, k) disconnects the whole tail; the
  // repair must report every tail vertex unreachable.
  const Graph g = path_graph(20);
  FaultQueryEngine engine(g);
  engine.set_delta_options({.enabled = true, .max_affected_fraction = 1.0});
  const EdgeId cut[1] = {g.find_edge(9, 10)};
  const auto& hops = engine.all_distances(0, edge_faults(cut));
  for (Vertex v = 0; v < 10; ++v) EXPECT_EQ(hops[v], v);
  for (Vertex v = 10; v < 20; ++v) EXPECT_EQ(hops[v], kInfHops);
  EXPECT_EQ(engine.path_stats().repair_bfs, 1u);
}

TEST(DeltaPath, RepairReroutesAroundDamage) {
  // Grid: cutting one tree edge leaves plenty of detours; repaired distances
  // must match a fresh ground-truth engine with the delta disabled.
  const Graph g = grid_graph(8, 8);
  FaultQueryEngine delta(g);
  delta.set_delta_options({.enabled = true, .max_affected_fraction = 1.0});
  FaultQueryEngine full(g);
  full.set_delta_options(delta_off());
  Bfs bfs(g);
  const BfsResult tree = bfs.run(0);
  for (Vertex v : {static_cast<Vertex>(9), static_cast<Vertex>(27),
                   static_cast<Vertex>(63)}) {
    const EdgeId faults[1] = {tree.parent_edge[v]};
    EXPECT_EQ(delta.all_distances(0, edge_faults(faults)),
              full.all_distances(0, edge_faults(faults)));
  }
  EXPECT_GT(delta.path_stats().repair_bfs, 0u);
}

// Small-damage parent-exposing queries must take the repair path — the full
// BFS counter stays put. This is the PR's headline behavior change: before
// the parent-carrying repair, any damaged query()/shortest_path() fell back
// to the full masked BFS.
TEST(DeltaPath, ParentQueriesTakeRepairPath) {
  const Graph g = grid_graph(8, 8);
  FaultQueryEngine engine(g);
  FaultQueryEngine full(g);
  full.set_delta_options(delta_off());
  Bfs bfs(g);
  const BfsResult tree = bfs.run(0);
  const EdgeId faults[1] = {tree.parent_edge[27]};  // interior tree edge
  const FaultSpec spec = edge_faults(faults);

  // query: repaired tree, not a full BFS.
  const BfsResult& fr = full.query(0, spec);
  const BfsResult& dr = engine.query(0, spec);
  expect_valid_tree(g, engine.structure_graph(), 0, spec, dr, fr);
  FaultQueryEngine::PathStats stats = engine.path_stats();
  EXPECT_EQ(stats.repair_bfs, 1u);
  EXPECT_EQ(stats.full_bfs, 0u);

  // shortest_path to a vertex inside the damaged subtree: repair again.
  const std::optional<Path> into = engine.shortest_path(0, 27, spec);
  expect_valid_path(g, engine.structure_graph(), 0, 27, spec, fr.hops[27],
                    into);
  stats = engine.path_stats();
  EXPECT_EQ(stats.repair_bfs, 2u);
  EXPECT_EQ(stats.full_bfs, 0u);

  // shortest_path to an unaffected vertex: the baseline tree answers without
  // even running the repair.
  const std::optional<Path> outside = engine.shortest_path(0, 8, spec);
  expect_valid_path(g, engine.structure_graph(), 0, 8, spec, fr.hops[8],
                    outside);
  stats = engine.path_stats();
  EXPECT_EQ(stats.fast_path_hits, 1u);
  EXPECT_EQ(stats.repair_bfs, 2u);
  EXPECT_EQ(stats.full_bfs, 0u);
}

// --- through the service ----------------------------------------------------

std::vector<QueryRequest> service_workload(const Graph& g, int count,
                                           std::uint64_t seed) {
  Rng rng(seed);
  Bfs bfs(g);
  const BfsResult tree = bfs.run(0);
  std::vector<QueryRequest> out;
  for (int i = 0; i < count; ++i) {
    QueryRequest req;
    req.id = i;
    req.source = 0;
    const FaultDraw d = draw_faults(rng, g, tree, 3, 1);
    req.fault_edges = d.edges;
    req.fault_vertices = d.vertices;
    switch (rng.next_below(4)) {
      case 0:
        req.kind = QueryKind::kAllDistances;
        break;
      case 1:
        req.kind = QueryKind::kPath;
        req.targets = {static_cast<Vertex>(rng.next_below(g.num_vertices()))};
        break;
      case 2:
        req.kind = QueryKind::kReachability;
        req.targets = {static_cast<Vertex>(rng.next_below(g.num_vertices())),
                       static_cast<Vertex>(rng.next_below(g.num_vertices()))};
        break;
      default:
        req.kind = QueryKind::kDistance;
        req.targets = {static_cast<Vertex>(rng.next_below(g.num_vertices()))};
        break;
    }
    req.consistency =
        rng.next_below(4) == 0 ? Consistency::kBestEffort
                               : Consistency::kExactOrRefuse;
    out.push_back(std::move(req));
  }
  return out;
}

TEST(DeltaPath, ServeMatchesFullBfsTruth) {
  // Every served payload of a default (delta-on) service equals the G∖F
  // distances of a delta-off engine over G; path responses are valid
  // fault-avoiding paths of that length (their tie-break is free).
  const Graph g = erdos_renyi(60, 0.1, 21);
  OracleService service(g);
  ServiceTruth truth(g);
  const std::vector<QueryRequest> requests = service_workload(g, 250, 31);
  std::size_t served = 0;
  for (const QueryRequest& req : requests) {
    if (truth.expect_matches(req, service.serve(req))) ++served;
  }
  EXPECT_GT(served, requests.size() / 2);
  // The service actually used its fast/repair tiers (not everything fell
  // back to a full BFS).
  const ServiceStats stats = service.stats();
  EXPECT_GT(stats.fast_path_hits + stats.repair_bfs, 0u);
}

// The delta-compressed scenario cache is a representation change only: the
// response stream must be exact and byte-identical to an uncached twin's
// (cache_hit attribution aside), whichever form each line took.
TEST(DeltaPath, ServeBytesIdenticalToUncachedService) {
  const Graph g = erdos_renyi(60, 0.1, 77);
  ServiceConfig uncached;
  uncached.cache_capacity = 0;
  OracleService s_default(g);
  OracleService s_uncached(g, uncached);
  ServiceTruth truth(g);
  const std::vector<QueryRequest> requests = service_workload(g, 300, 93);
  for (const QueryRequest& req : requests) {
    QueryResponse cached = s_default.serve(req);
    QueryResponse raw = s_uncached.serve(req);
    truth.expect_matches(req, cached);
    cached.cache_hit = false;
    EXPECT_EQ(format_response_line(cached), format_response_line(raw))
        << "request " << req.id;
  }
  const ServiceStats stats = s_default.stats();
  EXPECT_GT(stats.cache_hits, 0u);
  ASSERT_GT(stats.cache_lines, 0u);
  // Compressed lines hold a fraction of a full n-word vector.
  EXPECT_LT(stats.cache_bytes_per_line(),
            static_cast<double>(g.num_vertices() * sizeof(std::uint32_t)));
}

// A line is a diff against the entry's baseline while at most a quarter of
// the vertices moved, and the full vector past that. On a 24-cycle from
// source 0 the baseline splits at the antipode 12: cutting the edge next to
// the source reroutes half the cycle (full line, exactly 4·n bytes), while a
// cut two or three edges short of the antipode moves only the vertices
// between the cut and the antipode (8 bytes per (vertex, hop) diff entry).
TEST(DeltaPath, LineFormFollowsTheDiffSize) {
  const Graph g = cycle_graph(24);
  const Vertex n = g.num_vertices();
  ServiceConfig config;
  config.lazy_build = false;  // identity entry only: H = G, one baseline
  OracleService service(g, config);
  ServiceTruth truth(g);
  QueryRequest req;
  req.source = 0;
  req.kind = QueryKind::kAllDistances;
  req.consistency = Consistency::kBestEffort;
  const std::vector<std::uint32_t> base = service.serve(req).distances;
  std::uint64_t bytes = service.stats().cache_resident_bytes;
  EXPECT_EQ(bytes, 0u);  // fault-free: an empty diff

  const auto grow_for = [&](Vertex a, Vertex b, std::size_t& changed) {
    req.fault_edges = {g.find_edge(a, b)};
    const QueryResponse resp = service.serve(req);
    truth.expect_matches(req, resp);
    const std::vector<std::uint32_t>& d = resp.distances;
    changed = 0;
    for (Vertex v = 0; v < n; ++v) changed += d[v] != base[v] ? 1 : 0;
    const std::uint64_t now = service.stats().cache_resident_bytes;
    const std::uint64_t grew = now - bytes;
    bytes = now;
    return grew;
  };
  std::size_t changed = 0;
  EXPECT_EQ(grow_for(0, 1, changed), 4u * n);  // full line
  EXPECT_GT(changed, n / 4);
  for (const Vertex cut : {Vertex{9}, Vertex{10}}) {  // 3 and 2 short of 12
    const std::uint64_t grew = grow_for(cut, cut + 1, changed);
    EXPECT_GT(changed, 0u);
    EXPECT_LE(changed, n / 4);
    EXPECT_EQ(grew, 8u * changed) << "cut " << cut;
    EXPECT_LT(grew, 4u * n);
  }
  EXPECT_EQ(service.stats().cache_lines, 4u);
}

TEST(DeltaPath, ServiceStatsExposeQueryPathCounters) {
  const Graph g = erdos_renyi(40, 0.15, 5);
  ServiceConfig config;
  config.cache_capacity = 0;  // every request reaches an engine
  OracleService service(g, config);
  const std::vector<QueryRequest> requests = service_workload(g, 100, 77);
  std::uint64_t engine_served = 0;
  for (const QueryRequest& req : requests) {
    const QueryResponse resp = service.serve(req);
    if (resp.status == StatusCode::kOk ||
        resp.status == StatusCode::kDisconnected) {
      ++engine_served;
    }
  }
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.fast_path_hits + stats.repair_bfs + stats.full_bfs,
            engine_served);
  EXPECT_GT(stats.fast_path_hits, 0u);
}

}  // namespace
}  // namespace ftbfs
