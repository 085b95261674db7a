// Bidirectional level-synchronous s→t search under a GraphMask.
//
// The construction algorithms ask single-pair questions only — "what is
// dist(s, v, G')?" and "which is the W-unique shortest s→v path in G'?" for a
// restricted graph G' (Eqs. 3 and 4, step 3's G_{τ−1}(v)). A full BFS or
// Dijkstra answers them by labelling the whole graph; growing one ball from
// each end and stopping where they meet touches only the two balls.
//
// Each step expands one full level of the smaller frontier. Level-synchrony
// makes the answer exact: while the two labelled sets are disjoint, every
// s→t path is longer than the sum of the two levels, so the first level that
// reaches the other side fixes the distance, and every shortest path crosses
// exactly one arc of that level's expansion. For the W-path each side also
// keeps, per labelled vertex, the smallest perturbation sum over shortest
// paths from its root (relaxed over every same-level predecessor); the
// meeting arc (u, w) minimising pf(u) + W(u,w) + pb(w) then yields the path
// and DistKey Dijkstra's lexicographic (hops, pert) keys select whenever W is
// unique. On an exact perturbation tie the first arc found wins, so the result
// is a deterministic function of (mask, s, t).
//
// The mask's usability test is symmetric in the arc's endpoints, so the
// backward side applies it unchanged, including the incident-edge whitelist.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "graph/graph.h"
#include "graph/mask.h"
#include "spath/bfs.h"
#include "spath/path.h"
#include "spath/weights.h"

namespace ftbfs {

// A selected path and its W-key.
struct RPath {
  Path verts;
  DistKey key;
};

// Reusable engine; scratch is epoch-stamped, so a run costs only the vertices
// it labels, never an O(n) reset.
class BidirectionalBfs {
 public:
  BidirectionalBfs(const Graph& g, const WeightAssignment& w);

  // Exact hop distance s→t under `mask` (may be null); kInfHops if t is cut
  // off from s, or either endpoint is blocked.
  [[nodiscard]] std::uint32_t hops(Vertex s, Vertex t, const GraphMask* mask);

  // The W-unique shortest s→t path under `mask` and its key; nullopt when
  // hops() would be kInfHops.
  [[nodiscard]] std::optional<RPath> w_path(Vertex s, Vertex t,
                                            const GraphMask* mask);

 private:
  struct Meeting {
    std::uint32_t hops = kInfHops;
    Vertex u = kInvalidVertex;  // forward-side endpoint of the meeting arc
    Vertex w = kInvalidVertex;  // backward-side endpoint
    std::uint64_t pert = 0;
  };

  template <bool kWeighted>
  Meeting search(Vertex s, Vertex t, const GraphMask* mask);

  const Graph* graph_;
  const WeightAssignment* weights_;
  // Side labels: mark_[v] == epoch_ (forward) or epoch_ + 1 (backward).
  std::uint32_t epoch_ = 0;
  std::vector<std::uint32_t> mark_;
  // Valid only for labelled vertices, and filled only by the weighted search.
  std::vector<std::uint32_t> level_;  // hops from the vertex's own root
  std::vector<std::uint64_t> pert_;   // min pert sum over those shortest paths
  std::vector<Vertex> parent_;        // next vertex toward the own root
  std::vector<Vertex> frontier_[2];   // current level, per side
  std::vector<Vertex> next_;
};

}  // namespace ftbfs
