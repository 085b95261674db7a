// Differential tests for the bidirectional pair search (spath/bidir.h): its
// hop distance must equal the full masked BFS, and its W-path and key must
// equal the tie-broken Dijkstra, under every kind of restriction the
// construction algorithms build — blocked vertices, blocked edges, one
// restricted vertex with a whitelist, blocked endpoints, s == t, and pairs the
// mask (or the graph itself) disconnects. Every family runs thousands of
// queries through one instance, so stale epoch-stamped scratch would show.
#include "spath/bidir.h"

#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <vector>

#include "graph/generators.h"
#include "graph/mask.h"
#include "spath/bfs.h"
#include "spath/dijkstra.h"
#include "util/rng.h"

namespace ftbfs {
namespace {

struct Family {
  const char* name;
  std::function<Graph()> make;
};

const Family kFamilies[] = {
    {"er", [] { return erdos_renyi(120, 0.05, 3); }},
    // No spine: many pairs are disconnected before any mask is applied.
    {"er-disconnected", [] { return erdos_renyi(120, 0.012, 4, false); }},
    {"sparse", [] { return random_connected(150, 300, 5); }},
    {"path", [] { return path_graph(40); }},
    {"cycle", [] { return cycle_graph(41); }},
    {"complete", [] { return complete_graph(16); }},
    {"bipartite", [] { return complete_bipartite(7, 9); }},
    {"grid", [] { return grid_graph(9, 11); }},
    {"hypercube", [] { return hypercube_graph(6); }},
    {"chorded-path", [] { return path_with_chords(100, 30, 6); }},
    {"barbell", [] { return barbell_graph(30, 2); }},
};

// One random restriction of the kinds the construction algorithms use.
void random_mask(const Graph& g, Rng& rng, GraphMask& mask, Vertex s,
                 Vertex t) {
  mask.clear();
  const Vertex n = g.num_vertices();
  const EdgeId m = g.num_edges();
  switch (rng.next_below(6)) {
    case 0:  // G itself
      break;
    case 1:  // G ∖ F, |F| small (the fault sets)
      for (std::uint64_t k = 1 + rng.next_below(3); k-- > 0;) {
        mask.block_edge(static_cast<EdgeId>(rng.next_below(m)));
      }
      break;
    case 2:  // removed vertices (the π / detour segments of Eqs. 3-4)
      for (std::uint64_t k = 1 + rng.next_below(n / 4 + 1); k-- > 0;) {
        const Vertex x = static_cast<Vertex>(rng.next_below(n));
        if (x != s && x != t) mask.block_vertex(x);
      }
      [[fallthrough]];
    case 3:  // plus a couple of faults
      for (std::uint64_t k = rng.next_below(3); k-- > 0;) {
        mask.block_edge(static_cast<EdgeId>(rng.next_below(m)));
      }
      break;
    case 4: {  // G_{τ−1}(v): one endpoint's incident edges whitelisted
      const Vertex r = rng.next_below(2) == 0 ? t : s;
      mask.restrict_incident_edges(r);
      for (const Arc& arc : g.neighbors(r)) {
        if (rng.next_below(3) == 0) mask.allow_edge(arc.id);
      }
      mask.block_edge(static_cast<EdgeId>(rng.next_below(m)));
      // Occasionally the restricted vertex is an interior one instead.
      if (rng.next_below(4) == 0) {
        const Vertex x = static_cast<Vertex>(rng.next_below(n));
        mask.clear();
        mask.restrict_incident_edges(x);
        for (const Arc& arc : g.neighbors(x)) {
          if (rng.next_below(2) == 0) mask.allow_edge(arc.id);
        }
      }
      break;
    }
    case 5:  // a blocked endpoint
      mask.block_vertex(rng.next_below(2) == 0 ? s : t);
      break;
  }
}

TEST(BidirectionalBfs, AgreesWithBfsAndDijkstraOnEveryFamily) {
  constexpr int kQueries = 2500;
  for (const Family& family : kFamilies) {
    const Graph g = family.make();
    const WeightAssignment w(g, 17);
    BidirectionalBfs pair(g, w);
    Bfs bfs(g);
    Dijkstra dijkstra(g, w);
    GraphMask mask(g);
    Rng rng(99);
    const Vertex n = g.num_vertices();
    int reached = 0, cut = 0;
    for (int q = 0; q < kQueries; ++q) {
      const Vertex s = static_cast<Vertex>(rng.next_below(n));
      const Vertex t = rng.next_below(20) == 0
                           ? s
                           : static_cast<Vertex>(rng.next_below(n));
      random_mask(g, rng, mask, s, t);
      const std::string label = std::string(family.name) +
                                " q=" + std::to_string(q) +
                                " s=" + std::to_string(s) +
                                " t=" + std::to_string(t);

      const std::uint32_t want_hops = bfs.run(s, &mask).hops[t];
      ASSERT_EQ(pair.hops(s, t, &mask), want_hops) << label;

      const SpResult& ref = dijkstra.run(s, &mask, t);
      const std::optional<RPath> got = pair.w_path(s, t, &mask);
      ASSERT_EQ(got.has_value(), ref.reached(t)) << label;
      if (!got) {
        ++cut;
        continue;
      }
      ++reached;
      ASSERT_EQ(got->key, ref.dist[t]) << label;
      ASSERT_EQ(got->verts, extract_path(ref, t)) << label;
      ASSERT_EQ(got->key.hops, want_hops) << label;
    }
    // The mix must exercise both outcomes on every family.
    EXPECT_GT(reached, kQueries / 4) << family.name;
    EXPECT_GT(cut, 0) << family.name;
  }
}

TEST(BidirectionalBfs, UnmaskedMatchesFullSearch) {
  const Graph g = random_connected(200, 500, 8);
  const WeightAssignment w(g, 8);
  BidirectionalBfs pair(g, w);
  Dijkstra dijkstra(g, w);
  const SpResult& ref = dijkstra.run(0);
  // Two passes: the second asks every pair again on warm scratch, so the
  // W-path must come back identical across calls.
  for (int pass = 0; pass < 2; ++pass) {
    for (Vertex t = 0; t < g.num_vertices(); ++t) {
      EXPECT_EQ(pair.hops(0, t, nullptr), ref.hops(t)) << t;
      const std::optional<RPath> got = pair.w_path(0, t, nullptr);
      ASSERT_TRUE(got.has_value()) << t;
      EXPECT_EQ(got->key, ref.dist[t]) << t;
      EXPECT_EQ(got->verts, extract_path(ref, t)) << t;
    }
  }
}

TEST(BidirectionalBfs, EndpointCases) {
  const Graph g = cycle_graph(6);
  const WeightAssignment w(g, 2);
  BidirectionalBfs pair(g, w);
  GraphMask mask(g);

  // s == t: the empty path, unless the vertex itself is blocked.
  EXPECT_EQ(pair.hops(2, 2, &mask), 0u);
  const std::optional<RPath> self = pair.w_path(2, 2, &mask);
  ASSERT_TRUE(self.has_value());
  EXPECT_EQ(self->verts, Path{2});
  EXPECT_EQ(self->key, (DistKey{0, 0}));
  mask.block_vertex(2);
  EXPECT_EQ(pair.hops(2, 2, &mask), kInfHops);
  EXPECT_FALSE(pair.w_path(2, 2, &mask).has_value());

  // A blocked endpoint cuts the pair even when adjacent.
  EXPECT_EQ(pair.hops(1, 2, &mask), kInfHops);
  EXPECT_EQ(pair.hops(2, 3, &mask), kInfHops);

  // Two faults on a cycle disconnect the arc between them.
  mask.clear();
  mask.block_edge(g.find_edge(0, 1));
  mask.block_edge(g.find_edge(3, 4));
  EXPECT_EQ(pair.hops(0, 2, &mask), kInfHops);
  EXPECT_FALSE(pair.w_path(0, 2, &mask).has_value());
  EXPECT_EQ(pair.hops(1, 3, &mask), 2u);

  // A fault on the edge between adjacent endpoints forces the long way round.
  mask.clear();
  mask.block_edge(g.find_edge(0, 1));
  const std::optional<RPath> round = pair.w_path(0, 1, &mask);
  ASSERT_TRUE(round.has_value());
  EXPECT_EQ(round->key.hops, 5u);
  EXPECT_EQ(round->verts, (Path{0, 5, 4, 3, 2, 1}));

  // Whitelist at the target: only the allowed incident edge may be used.
  mask.clear();
  mask.restrict_incident_edges(3);
  mask.allow_edge(g.find_edge(3, 4));
  const std::optional<RPath> p = pair.w_path(0, 3, &mask);
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(p->verts, (Path{0, 5, 4, 3}));
  EXPECT_EQ(pair.hops(2, 3, &mask), 5u);
}

}  // namespace
}  // namespace ftbfs
