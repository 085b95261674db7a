// Single-failure FT-BFS structure of Parter & Peleg (ESA'13) — reference [10]
// of the paper and the baseline the dual-failure result is measured against.
//
// Construction: the BFS tree T0(s) plus, for every vertex v and every edge e_i
// on π(s,v), the last edge of the replacement path P_{s,v,{e_i}} chosen with
// the earliest possible divergence point from π(s,v) (the same preference rule
// step (1) of Cons2FTBFS uses). Size: O(n^{3/2}), tight in the worst case.
#pragma once

#include "core/build_parallel.h"
#include "core/ftbfs_common.h"
#include "graph/graph.h"

namespace ftbfs {

// Seed of W, jobs, progress and report (build_parallel.h). The candidate last
// edges never depend on H, so the ordered commit replays the sequential
// membership decisions exactly and no target is ever re-run.
using SingleFtbfsOptions = TargetBuildOptions;

// Builds a single-edge-failure FT-BFS structure rooted at s.
// Requires s < g.num_vertices(). Unreachable vertices are simply not covered
// (they have no BFS path to preserve).
[[nodiscard]] FtStructure build_single_ftbfs(const Graph& g, Vertex s,
                                             const SingleFtbfsOptions& opt = {});

}  // namespace ftbfs
