// Distance, path and all-distances answers from one eagerly built FT-BFS
// structure, served through OracleService: the structure is built with the
// registry's default builder for the budget f, lazy builds are off, and every
// request is pinned to the entry at exact-or-refuse consistency, so each
// answer below comes from H ∖ F and must equal dist(s, v, G ∖ F).
#include <gtest/gtest.h>

#include "graph/generators.h"
#include "graph/mask.h"
#include "service/oracle_service.h"
#include "spath/bfs.h"
#include "spath/path.h"
#include "util/rng.h"

namespace ftbfs {
namespace {

constexpr char kEntry[] = "h";

// A service holding only the identity engine and the entry built below.
ServiceConfig pinned_config() {
  ServiceConfig config;
  config.lazy_build = false;
  return config;
}

QueryRequest pinned(QueryKind kind, std::vector<Vertex> targets,
                    std::vector<EdgeId> faults) {
  QueryRequest req;
  req.source = 0;
  req.targets = std::move(targets);
  req.fault_edges = std::move(faults);
  req.kind = kind;
  req.structure = kEntry;
  return req;
}

// Serves a pinned request that the entry must answer exactly.
QueryResponse serve_exact(OracleService& service, const QueryRequest& req) {
  QueryResponse resp = service.serve(req);
  EXPECT_TRUE(resp.status == StatusCode::kOk ||
              resp.status == StatusCode::kDisconnected)
      << to_string(resp.status) << ": " << resp.error;
  EXPECT_TRUE(resp.exact);
  EXPECT_EQ(resp.served_by, kEntry);
  return resp;
}

std::uint32_t distance(OracleService& service, Vertex v,
                       std::vector<EdgeId> faults) {
  return serve_exact(service,
                     pinned(QueryKind::kDistance, {v}, std::move(faults)))
      .distances.at(0);
}

// The shortest path to v, empty if v is unreachable.
Path shortest_path(OracleService& service, Vertex v,
                   std::vector<EdgeId> faults) {
  return serve_exact(service, pinned(QueryKind::kPath, {v}, std::move(faults)))
      .paths.at(0);
}

TEST(Oracle, FaultFreeMatchesBfs) {
  const Graph g = erdos_renyi(60, 0.1, 3);
  OracleService service(g, pinned_config());
  service.build_structure(kEntry, 0, 2, FaultModel::kEdge);
  Bfs bfs(g);
  const BfsResult& r = bfs.run(0);
  for (Vertex v = 0; v < g.num_vertices(); ++v) {
    EXPECT_EQ(distance(service, v, {}), r.hops[v]);
  }
}

TEST(Oracle, SingleFaultMatchesGroundTruth) {
  const Graph g = erdos_renyi(50, 0.12, 7);
  OracleService service(g, pinned_config());
  service.build_structure(kEntry, 0, 1, FaultModel::kEdge);
  Bfs bfs(g);
  GraphMask mask(g);
  for (EdgeId e = 0; e < g.num_edges(); e += 3) {
    mask.clear();
    mask.block_edge(e);
    const BfsResult& truth = bfs.run(0, &mask);
    const QueryResponse answer =
        serve_exact(service, pinned(QueryKind::kAllDistances, {}, {e}));
    ASSERT_EQ(answer.distances.size(), g.num_vertices());
    for (Vertex v = 0; v < g.num_vertices(); ++v) {
      ASSERT_EQ(answer.distances[v], truth.hops[v])
          << "edge " << e << " target " << v;
    }
  }
}

TEST(Oracle, DualFaultRandomProbes) {
  const Graph g = erdos_renyi(40, 0.15, 11);
  OracleService service(g, pinned_config());
  service.build_structure(kEntry, 0, 2, FaultModel::kEdge);
  Bfs bfs(g);
  GraphMask mask(g);
  Rng rng(5);
  for (int probe = 0; probe < 200; ++probe) {
    const EdgeId e1 = static_cast<EdgeId>(rng.next_below(g.num_edges()));
    const EdgeId e2 = static_cast<EdgeId>(rng.next_below(g.num_edges()));
    if (e1 == e2) continue;
    mask.clear();
    mask.block_edge(e1);
    mask.block_edge(e2);
    const BfsResult& truth = bfs.run(0, &mask);
    const Vertex v = static_cast<Vertex>(rng.next_below(g.num_vertices()));
    EXPECT_EQ(distance(service, v, {e1, e2}), truth.hops[v]);
  }
}

TEST(Oracle, ShortestPathValidAndOptimal) {
  const Graph g = erdos_renyi(40, 0.15, 13);
  OracleService service(g, pinned_config());
  service.build_structure(kEntry, 0, 2, FaultModel::kEdge);
  const std::vector<EdgeId> faults = {2, 9};
  for (Vertex v = 1; v < g.num_vertices(); v += 4) {
    const Path p = shortest_path(service, v, faults);
    const std::uint32_t d = distance(service, v, faults);
    if (d == kInfHops) {
      EXPECT_TRUE(p.empty());
      continue;
    }
    ASSERT_FALSE(p.empty());
    EXPECT_EQ(p.size() - 1, d);
    EXPECT_EQ(p.front(), 0u);
    EXPECT_EQ(p.back(), v);
    EXPECT_TRUE(is_simple_path_in(g, p));
    for (const EdgeId f : faults) {
      EXPECT_FALSE(contains_edge(g, p, f));
    }
  }
}

TEST(Oracle, DisconnectionReported) {
  const Graph g = path_graph(6);
  OracleService service(g, pinned_config());
  service.build_structure(kEntry, 0, 1, FaultModel::kEdge);
  const std::vector<EdgeId> faults = {g.find_edge(2, 3)};
  const QueryResponse resp =
      serve_exact(service, pinned(QueryKind::kDistance, {5}, faults));
  EXPECT_EQ(resp.status, StatusCode::kDisconnected);
  EXPECT_EQ(resp.distances.at(0), kInfHops);
  EXPECT_TRUE(shortest_path(service, 5, faults).empty());
}

TEST(Oracle, FZeroIsPlainTree) {
  const Graph g = erdos_renyi(30, 0.2, 17);
  OracleService service(g, pinned_config());
  const std::size_t entry = service.build_structure(kEntry, 0, 0,
                                                    FaultModel::kEdge);
  EXPECT_EQ(service.entry_edges(entry), g.num_vertices() - 1);
  // Budget 0: one fault is already outside the entry's guarantee.
  EXPECT_EQ(service.serve(pinned(QueryKind::kDistance, {7}, {0})).status,
            StatusCode::kBudgetExceeded);
  EXPECT_EQ(distance(service, 7, {}), bfs_distance(g, 0, 7));
}

TEST(Oracle, StructureSmallerThanGraph) {
  const Graph g = erdos_renyi(60, 0.3, 19);
  OracleService service(g, pinned_config());
  const std::size_t entry = service.build_structure(kEntry, 0, 2,
                                                    FaultModel::kEdge);
  EXPECT_LT(service.entry_edges(entry), g.num_edges());
  // The entry is pinned to source 0.
  QueryRequest other = pinned(QueryKind::kDistance, {7}, {});
  other.source = 1;
  EXPECT_EQ(service.serve(other).status, StatusCode::kUnknownSource);
}

TEST(Oracle, QueryCounter) {
  const Graph g = cycle_graph(8);
  OracleService service(g, pinned_config());
  service.build_structure(kEntry, 0, 1, FaultModel::kEdge);
  EXPECT_EQ(service.stats().requests, 0u);
  (void)distance(service, 3, {});
  (void)shortest_path(service, 4, {});
  EXPECT_EQ(service.stats().requests, 2u);
}

TEST(Oracle, WrapsExternallyBuiltStructure) {
  const Graph g = cycle_graph(10);
  // The whole graph is trivially a valid structure.
  std::vector<EdgeId> h;
  for (EdgeId e = 0; e < g.num_edges(); ++e) h.push_back(e);
  OracleService service(g, pinned_config());
  service.add_structure(kEntry, 0, 2, FaultModel::kEdge, h);
  Bfs bfs(g);
  GraphMask mask(g);
  mask.block_edge(0);
  EXPECT_EQ(distance(service, 5, {0}), bfs.run(0, &mask).hops[5]);
}

}  // namespace
}  // namespace ftbfs
