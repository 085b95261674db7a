// Tests for the engine layer: the BuilderRegistry contract (every registered
// builder × every generator family yields a structure that verifies at its
// declared fault budget) and the FaultQueryEngine (translation, identity
// mode, vertex faults, shortest paths, tier counters).
#include <gtest/gtest.h>

#include <algorithm>

#include "core/verify.h"
#include "engine/query_engine.h"
#include "engine/registry.h"
#include "graph/generators.h"
#include "util/rng.h"

namespace ftbfs {
namespace {

// Small generator families for the registry-wide property sweep. Sizes are
// tiny because exact builders are verified exhaustively (O(m^f) BFS pairs).
struct TestFamily {
  const char* name;
  Graph (*make)();
};

const TestFamily kFamilies[] = {
    {"er", [] { return erdos_renyi(18, 0.25, 5); }},
    {"cycle", [] { return cycle_graph(12); }},
    {"grid", [] { return grid_graph(4, 4); }},
    {"chorded-path", [] { return path_with_chords(16, 8, 7); }},
    {"barbell", [] { return barbell_graph(12, 2); }},
};

// Picks a budget the builder supports, preferring 2 (the paper's regime).
unsigned budget_for(const BuilderTraits& t) {
  return std::clamp(2u, t.min_fault_budget, t.max_fault_budget);
}

TEST(Registry, ListsAllLibraryBuilders) {
  const std::vector<std::string> names = BuilderRegistry::instance().names();
  for (const char* expected :
       {"single_ftbfs", "cons2ftbfs", "kfail_ftbfs", "ftmbfs", "approx_ftmbfs",
        "swap_ftbfs"}) {
    EXPECT_NE(std::find(names.begin(), names.end(), expected), names.end())
        << expected;
  }
}

TEST(Registry, FindResolvesAliases) {
  const BuilderRegistry& reg = BuilderRegistry::instance();
  EXPECT_EQ(reg.find("cons2"), reg.find("cons2ftbfs"));
  EXPECT_EQ(reg.find("greedy"), reg.find("approx_ftmbfs"));
  EXPECT_EQ(reg.find("no-such-builder"), nullptr);
}

TEST(Registry, UnsupportedRequestsAreExplained) {
  const Graph g = cycle_graph(8);
  const BuilderRegistry& reg = BuilderRegistry::instance();
  BuildRequest req;
  req.graph = &g;
  req.sources = {0};
  req.fault_budget = 1;
  EXPECT_EQ(reg.unsupported_reason("single_ftbfs", req), "");
  req.fault_budget = 2;
  EXPECT_NE(reg.unsupported_reason("single_ftbfs", req), "");
  req.fault_budget = 2;
  req.sources = {0, 3};
  EXPECT_NE(reg.unsupported_reason("cons2ftbfs", req), "");  // single-source
  EXPECT_EQ(reg.unsupported_reason("ftmbfs", req), "");
  req.sources = {0};
  req.fault_model = FaultModel::kVertex;
  EXPECT_NE(reg.unsupported_reason("cons2ftbfs", req), "");  // edge-only
  EXPECT_EQ(reg.unsupported_reason("kfail_ftbfs", req), "");
  req.fault_model = FaultModel::kEdge;
  req.sources = {99};
  EXPECT_NE(reg.unsupported_reason("cons2ftbfs", req), "");  // out of range
}

// The registry-wide property: every exact builder × every family verifies at
// its declared budget (edge model; vertex model covered separately below).
TEST(Registry, EveryExactBuilderVerifiesOnEveryFamily) {
  const BuilderRegistry& reg = BuilderRegistry::instance();
  for (const TestFamily& family : kFamilies) {
    const Graph g = family.make();
    for (const BuilderTraits& t : reg.traits()) {
      if (!t.exact) continue;
      BuildRequest req;
      req.graph = &g;
      req.sources = t.multi_source ? std::vector<Vertex>{0, 1}
                                   : std::vector<Vertex>{0};
      req.fault_budget = budget_for(t);
      ASSERT_EQ(reg.unsupported_reason(t.name, req), "") << t.name;
      const BuildResult r = reg.build(t.name, req);
      EXPECT_EQ(r.algorithm, t.name);
      const auto violation = verify_exhaustive(g, r.structure.edges,
                                               req.sources, req.fault_budget);
      EXPECT_FALSE(violation.has_value())
          << t.name << " on " << family.name << ": "
          << violation->describe(g);
    }
  }
}

TEST(Registry, VertexFaultBuildersVerifyUnderVertexFaults) {
  const BuilderRegistry& reg = BuilderRegistry::instance();
  const Graph g = erdos_renyi(16, 0.3, 9);
  for (const BuilderTraits& t : reg.traits()) {
    if (!t.exact || !t.vertex_faults) continue;
    BuildRequest req;
    req.graph = &g;
    req.sources = {0};
    req.fault_budget = std::clamp(2u, t.min_fault_budget, t.max_fault_budget);
    req.fault_model = FaultModel::kVertex;
    const BuildResult r = reg.build(t.name, req);
    const auto violation = verify_exhaustive_vertex(
        g, r.structure.edges, req.sources, req.fault_budget);
    EXPECT_FALSE(violation.has_value())
        << t.name << ": " << violation->describe(g);
  }
}

TEST(Registry, DefaultBuilderCoversEveryBudget) {
  const BuilderRegistry& reg = BuilderRegistry::instance();
  const Graph g = erdos_renyi(14, 0.3, 3);
  for (const unsigned f : {0u, 1u, 2u, 3u}) {
    BuildRequest req;
    req.graph = &g;
    req.sources = {0};
    req.fault_budget = f;
    const std::string name = BuilderRegistry::default_builder(f);
    ASSERT_EQ(reg.unsupported_reason(name, req), "") << "f=" << f;
    const BuildResult r = reg.build(name, req);
    EXPECT_FALSE(
        verify_exhaustive(g, r.structure.edges, req.sources, std::min(f, 3u))
            .has_value())
        << "f=" << f;
  }
}

// --- FaultQueryEngine ------------------------------------------------------

TEST(QueryEngine, IdentityEngineMatchesBfs) {
  const Graph g = erdos_renyi(40, 0.15, 11);
  FaultQueryEngine engine(g);
  EXPECT_EQ(&engine.structure_graph(), &g);
  auto lease = engine.acquire_scratch();
  Bfs bfs(g);
  const BfsResult& r = bfs.run(0);
  for (Vertex v = 0; v < g.num_vertices(); ++v) {
    EXPECT_EQ(engine.distance(lease, 0, v, {}), r.hops[v]);
  }
}

TEST(QueryEngine, TranslatesHostEdgeIdsOntoStructure) {
  const Graph g = erdos_renyi(30, 0.2, 17);
  BuildRequest req;
  req.graph = &g;
  req.sources = {0};
  req.fault_budget = 2;
  const BuildResult r = BuilderRegistry::instance().build("cons2ftbfs", req);
  FaultQueryEngine engine(g, r.structure);
  FaultQueryEngine truth(g);
  auto lease = engine.acquire_scratch();
  auto truth_lease = truth.acquire_scratch();
  Rng rng(23);
  for (int probe = 0; probe < 200; ++probe) {
    const EdgeId e1 = static_cast<EdgeId>(rng.next_below(g.num_edges()));
    const EdgeId e2 = static_cast<EdgeId>(rng.next_below(g.num_edges()));
    if (e1 == e2) continue;
    const std::vector<EdgeId> faults = {e1, e2};
    const Vertex v = static_cast<Vertex>(rng.next_below(g.num_vertices()));
    EXPECT_EQ(engine.distance(lease, 0, v, edge_faults(faults)),
              truth.distance(truth_lease, 0, v, edge_faults(faults)));
  }
}

TEST(QueryEngine, VertexFaultsMatchGroundTruth) {
  const Graph g = erdos_renyi(24, 0.25, 29);
  BuildRequest req;
  req.graph = &g;
  req.sources = {0};
  req.fault_budget = 1;
  req.fault_model = FaultModel::kVertex;
  const BuildResult r = BuilderRegistry::instance().build("kfail_ftbfs", req);
  FaultQueryEngine engine(g, r.structure);
  FaultQueryEngine truth(g);
  auto lease = engine.acquire_scratch();
  auto truth_lease = truth.acquire_scratch();
  for (Vertex u = 1; u < g.num_vertices(); ++u) {
    const std::vector<Vertex> faults = {u};
    for (Vertex v = 0; v < g.num_vertices(); ++v) {
      if (v == u) continue;
      EXPECT_EQ(engine.distance(lease, 0, v, vertex_faults(faults)),
                truth.distance(truth_lease, 0, v, vertex_faults(faults)))
          << "fault " << u << " target " << v;
    }
  }
}

TEST(QueryEngine, ShortestPathAvoidsFaultsAndIsOptimal) {
  const Graph g = erdos_renyi(40, 0.15, 13);
  BuildRequest req;
  req.graph = &g;
  req.sources = {0};
  req.fault_budget = 2;
  const BuildResult r = BuilderRegistry::instance().build("cons2ftbfs", req);
  FaultQueryEngine engine(g, r.structure);
  auto lease = engine.acquire_scratch();
  const std::vector<EdgeId> faults = {2, 9};
  for (Vertex v = 1; v < g.num_vertices(); v += 4) {
    const auto p = engine.shortest_path(lease, 0, v, edge_faults(faults));
    const std::uint32_t d = engine.distance(lease, 0, v, edge_faults(faults));
    if (d == kInfHops) {
      EXPECT_FALSE(p.has_value());
      continue;
    }
    ASSERT_TRUE(p.has_value());
    EXPECT_EQ(p->size() - 1, d);
    EXPECT_EQ(p->front(), 0u);
    EXPECT_EQ(p->back(), v);
    EXPECT_TRUE(is_simple_path_in(g, *p));
    for (const EdgeId e : faults) {
      EXPECT_FALSE(contains_edge(g, *p, e));
    }
  }
}

// Every query bumps exactly one tier counter, so their sum counts queries.
TEST(QueryEngine, CountsQueries) {
  const Graph g = cycle_graph(8);
  FaultQueryEngine engine(g);
  const auto answered = [&] {
    const FaultQueryEngine::PathStats ps = engine.path_stats();
    return ps.fast_path_hits + ps.repair_bfs + ps.full_bfs;
  };
  EXPECT_EQ(answered(), 0u);
  auto lease = engine.acquire_scratch();
  (void)engine.distance(lease, 0, 3, {});
  (void)engine.shortest_path(lease, 0, 4, {});
  const std::vector<EdgeId> cut = {0};
  for (Vertex t = 1; t <= 5; ++t) {
    (void)engine.distance(lease, 0, t, edge_faults(cut));
  }
  EXPECT_EQ(answered(), 7u);
}

}  // namespace
}  // namespace ftbfs
