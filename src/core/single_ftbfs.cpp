#include "core/single_ftbfs.h"

#include <vector>

#include "core/selector.h"
#include "spath/path.h"

namespace ftbfs {
namespace {

// Everything one target contributes. The candidate last edges of single-fault
// replacement paths are independent of H (select_single_fault never reads
// it), so which candidates are *new* is decided at commit time, in target
// order.
struct SingleOutcome {
  std::vector<EdgeId> candidates;  // selected last edges, in π-position order
  std::uint64_t fault_pairs = 0;
};

SingleOutcome run_target(const Graph& g, const SpResult& tree,
                         TargetWorkspace& ws, Vertex v) {
  SingleOutcome out;
  const Path pi = extract_path(tree, v);
  ws.pi_pos.bind(pi);
  for (std::size_t i = 0; i + 1 < pi.size(); ++i) {
    ++out.fault_pairs;
    const auto selection = select_single_fault(ws.sel, pi, ws.pi_pos, i);
    if (!selection) continue;  // e_i disconnects v: nothing to preserve
    out.candidates.push_back(last_edge(g, selection->path));
  }
  return out;
}

}  // namespace

FtStructure build_single_ftbfs(const Graph& g, Vertex s,
                               const SingleFtbfsOptions& opt) {
  TargetBuild build(g, s, opt);
  return build.run(
      [&](TargetWorkspace& ws, Vertex v) {
        return run_target(g, build.tree(), ws, v);
      },
      [&](Vertex, SingleOutcome&& out) {
        std::uint64_t added = 0;
        for (const EdgeId le : out.candidates) added += build.keep(le);
        build.stats().classes.single += added;
        build.stats().fault_pairs_considered += out.fault_pairs;
        return added;
      });
}

}  // namespace ftbfs
