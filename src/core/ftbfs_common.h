// Shared result types for the fault-tolerant structure constructions.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/graph.h"

namespace ftbfs {

// Which kind of component a fault set removes. The paper's constructions are
// stated for edge faults; the kfail chain construction also supports the
// vertex-fault FT-MBFS definition of [10].
enum class FaultModel { kEdge, kVertex };

[[nodiscard]] constexpr const char* to_string(FaultModel m) {
  return m == FaultModel::kEdge ? "edge" : "vertex";
}

// Per-class counts of the new-ending replacement paths, following the paper's
// classification (Fig. 7):
//   A  — (π,π) paths (two faults on π(s,v)),
//   B  — (π,D) paths that do not intersect their detour (P_nodet),
//   C  — independent (π,D) paths (P_indep),
//   D  — π-interfering paths (I_π),
//   E  — D-interfering paths (I_D).
// `single` counts new last edges from single-fault replacement paths (E1(π)).
struct PathClassCounts {
  std::uint64_t single = 0;
  std::uint64_t a_pi_pi = 0;
  std::uint64_t b_nodet = 0;
  std::uint64_t c_indep = 0;
  std::uint64_t d_pi_interf = 0;
  std::uint64_t e_d_interf = 0;

  [[nodiscard]] std::uint64_t total() const {
    return single + a_pi_pi + b_nodet + c_indep + d_pi_interf + e_d_interf;
  }
};

struct FtBfsStats {
  std::uint64_t tree_edges = 0;        // |E(T0)|
  std::uint64_t new_edges = 0;         // |E(H)| - |E(T0)|
  std::uint64_t max_new_per_vertex = 0;  // max_v |New(v)|
  std::uint64_t fault_pairs_considered = 0;
  // W-path selections (one bidirectional pair search each, spath/bidir.h)
  // plus the one W-SSSP tree per source. The name predates the pair search,
  // when every selection was a Dijkstra run; it stays so `--stats json`
  // output keeps its schema.
  std::uint64_t dijkstra_runs = 0;
  std::uint64_t divergence_fallbacks = 0;  // defensive-path fallbacks (expect 0)
  PathClassCounts classes;             // filled when instrumentation is on
  // Per-vertex maxima of each class (the quantities the per-class O(√n) and
  // O(n^{2/3}) lemmas bound); filled when instrumentation is on.
  PathClassCounts max_classes_per_vertex;
};

// A fault-tolerant BFS structure: a set of edge ids of the host graph.
struct FtStructure {
  std::vector<EdgeId> edges;  // sorted, unique
  FtBfsStats stats;

  [[nodiscard]] std::uint64_t size() const { return edges.size(); }
};

// Materializes the structure as a standalone Graph (same vertex set).
[[nodiscard]] inline Graph materialize(const Graph& g, const FtStructure& h) {
  return subgraph_from_edges(g, h.edges);
}

}  // namespace ftbfs
