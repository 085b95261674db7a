#include "spath/bidir.h"

#include <algorithm>
#include <limits>
#include <utility>

namespace ftbfs {

BidirectionalBfs::BidirectionalBfs(const Graph& g, const WeightAssignment& w)
    : graph_(&g),
      weights_(&w),
      mark_(g.num_vertices(), 0),
      level_(g.num_vertices(), 0),
      pert_(g.num_vertices(), 0),
      parent_(g.num_vertices(), kInvalidVertex) {}

template <bool kWeighted>
BidirectionalBfs::Meeting BidirectionalBfs::search(Vertex s, Vertex t,
                                                   const GraphMask* mask) {
  const Graph& g = *graph_;
  FTBFS_EXPECTS(s < g.num_vertices() && t < g.num_vertices());
  Meeting meet;
  if (mask != nullptr &&
      (mask->vertex_blocked(s) || mask->vertex_blocked(t))) {
    return meet;
  }
  if (s == t) {
    meet.hops = 0;
    meet.u = meet.w = s;
    return meet;
  }
  // Two fresh marks per run; on wrap, forget every stale stamp.
  if (epoch_ >= std::numeric_limits<std::uint32_t>::max() - 2) {
    std::fill(mark_.begin(), mark_.end(), 0);
    epoch_ = 0;
  }
  epoch_ += 2;
  const std::uint32_t marks[2] = {epoch_, epoch_ + 1};
  const Vertex roots[2] = {s, t};
  std::uint32_t depth[2] = {0, 0};
  for (int side = 0; side < 2; ++side) {
    const Vertex r = roots[side];
    mark_[r] = marks[side];
    if constexpr (kWeighted) {
      level_[r] = 0;
      pert_[r] = 0;
      parent_[r] = kInvalidVertex;
    }
    frontier_[side].assign(1, r);
  }
  const bool restricted = mask != nullptr && mask->has_restriction();
  auto blocked = [&](const Arc& arc, Vertex from) {
    return mask != nullptr &&
           (restricted ? !mask->edge_usable(arc.id, from, arc.to)
                       : mask->arc_blocked_unrestricted(arc.id, arc.to));
  };

  while (!frontier_[0].empty() && !frontier_[1].empty()) {
    const int side = frontier_[0].size() <= frontier_[1].size() ? 0 : 1;
    const std::uint32_t own = marks[side];
    const std::uint32_t other = marks[1 - side];
    const std::uint32_t next_level = depth[side] + 1;
    // Any arc into the other side closes a path of exactly this length.
    const std::uint32_t meet_hops = depth[0] + depth[1] + 1;
    next_.clear();
    for (const Vertex u : frontier_[side]) {
      for (const Arc& arc : g.neighbors(u)) {
        const Vertex x = arc.to;
        const std::uint32_t m = mark_[x];
        if (m == own && (!kWeighted || level_[x] != next_level)) continue;
        if (blocked(arc, u)) continue;
        if constexpr (!kWeighted) {
          if (m == other) {
            meet.hops = meet_hops;
            return meet;
          }
          mark_[x] = own;
          next_.push_back(x);
        } else {
          const std::uint64_t cand =
              pert_[u] + weights_->perturbation(arc.id);
          if (m == other) {
            const std::uint64_t total = cand + pert_[x];
            if (meet.hops == kInfHops || total < meet.pert) {
              meet.hops = meet_hops;
              meet.pert = total;
              meet.u = side == 0 ? u : x;
              meet.w = side == 0 ? x : u;
            }
          } else if (m == own) {  // same-level predecessor of a new vertex
            if (cand < pert_[x]) {
              pert_[x] = cand;
              parent_[x] = u;
            }
          } else {
            mark_[x] = own;
            level_[x] = next_level;
            pert_[x] = cand;
            parent_[x] = u;
            next_.push_back(x);
          }
        }
      }
    }
    // The whole level has been scanned, so every meeting arc was weighed.
    if (meet.hops != kInfHops) return meet;
    std::swap(frontier_[side], next_);
    depth[side] = next_level;
  }
  return meet;
}

std::uint32_t BidirectionalBfs::hops(Vertex s, Vertex t,
                                     const GraphMask* mask) {
  return search<false>(s, t, mask).hops;
}

std::optional<RPath> BidirectionalBfs::w_path(Vertex s, Vertex t,
                                              const GraphMask* mask) {
  const Meeting meet = search<true>(s, t, mask);
  if (meet.hops == kInfHops) return std::nullopt;
  RPath out;
  out.key = DistKey{meet.hops, meet.pert};
  out.verts.reserve(meet.hops + 1);
  if (s == t) {
    out.verts.push_back(s);
    return out;
  }
  for (Vertex x = meet.u; x != kInvalidVertex; x = parent_[x]) {
    out.verts.push_back(x);
  }
  std::reverse(out.verts.begin(), out.verts.end());
  for (Vertex x = meet.w; x != kInvalidVertex; x = parent_[x]) {
    out.verts.push_back(x);
  }
  FTBFS_ENSURES(out.verts.size() == meet.hops + std::size_t{1});
  return out;
}

}  // namespace ftbfs
