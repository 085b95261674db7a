#include "engine/query_engine.h"

#include <algorithm>
#include <limits>
#include <utility>

namespace ftbfs {

CanonicalFaultSet FaultSpec::canonicalize() const {
  CanonicalFaultSet canon;
  canon.assign(*this);
  return canon;
}

void CanonicalFaultSet::assign(const FaultSpec& faults) {
  edges_.assign(faults.edges.begin(), faults.edges.end());
  std::sort(edges_.begin(), edges_.end());
  edges_.erase(std::unique(edges_.begin(), edges_.end()), edges_.end());
  vertices_.assign(faults.vertices.begin(), faults.vertices.end());
  std::sort(vertices_.begin(), vertices_.end());
  vertices_.erase(std::unique(vertices_.begin(), vertices_.end()),
                  vertices_.end());
}

FaultQueryEngine::FaultQueryEngine(const Graph& g,
                                   std::span<const EdgeId> h_edges)
    : g_(&g),
      h_owned_(std::make_unique<Graph>(subgraph_from_edges(g, h_edges))),
      h_(h_owned_.get()),
      g_to_h_(g.num_edges(), kInvalidEdge),
      shared_(std::make_unique<Shared>()) {
  // subgraph_from_edges assigns H edge ids in the order of h_edges.
  for (EdgeId i = 0; i < h_edges.size(); ++i) {
    g_to_h_[h_edges[i]] = i;
  }
}

FaultQueryEngine::FaultQueryEngine(const Graph& g)
    : g_(&g), h_(&g), shared_(std::make_unique<Shared>()) {}

FaultQueryEngine::Baseline::Baseline(const Graph& h, BfsResult t,
                                     std::span<const Vertex> visit_order,
                                     Vertex source)
    : tree(std::move(t)),
      index(h, tree, source),
      tree_child(h.num_edges(), kInvalidVertex),
      rank(h.num_vertices(), static_cast<std::uint32_t>(-1)) {
  for (Vertex v = 0; v < h.num_vertices(); ++v) {
    if (v == source || tree.hops[v] == kInfHops) continue;
    tree_child[tree.parent_edge[v]] = v;
  }
  for (std::uint32_t i = 0; i < visit_order.size(); ++i) {
    rank[visit_order[i]] = i;
  }
}

void FaultQueryEngine::apply_faults(Scratch& s, const FaultSpec& faults) const {
  s.canon.assign(faults);
  s.mask.clear();
  for (const EdgeId e : s.canon.edges()) {
    FTBFS_EXPECTS(e < g_->num_edges());
    const EdgeId he = g_to_h_.empty() ? e : g_to_h_[e];
    if (he != kInvalidEdge) s.mask.block_edge(he);
  }
  for (const Vertex v : s.canon.vertices()) {
    FTBFS_EXPECTS(v < g_->num_vertices());
    s.mask.block_vertex(v);  // vertex ids are shared between g and H
  }
}

const FaultQueryEngine::Baseline* FaultQueryEngine::baseline_for(
    Vertex source) {
  if (!delta_.enabled) return nullptr;
  BaselineStore& store = shared_->baselines;
  const auto find = [&](Vertex s) -> const Baseline* {
    const auto it = std::lower_bound(
        store.entries.begin(), store.entries.end(), s,
        [](const auto& entry, Vertex v) { return entry.first < v; });
    if (it != store.entries.end() && it->first == s) return it->second.get();
    return nullptr;
  };
  {
    const std::shared_lock lock(store.mutex);
    if (const Baseline* base = find(source)) return base;
    if (store.entries.size() >= kMaxBaselines) return nullptr;
  }
  // Build outside the lock (one fault-free BFS over H); racing builders for
  // the same source waste one BFS and the first insert wins.
  Bfs bfs(*h_);
  BfsResult tree = bfs.run(source);  // copy; visit_order() reads the queue
  auto built = std::make_unique<Baseline>(*h_, std::move(tree),
                                          bfs.visit_order(), source);
  {
    const std::unique_lock lock(store.mutex);
    if (const Baseline* base = find(source)) return base;
    if (store.entries.size() >= kMaxBaselines) return nullptr;
    const auto it = std::lower_bound(
        store.entries.begin(), store.entries.end(), source,
        [](const auto& entry, Vertex v) { return entry.first < v; });
    return store.entries.emplace(it, source, std::move(built))
        ->second.get();
  }
}

const std::vector<std::uint32_t>* FaultQueryEngine::baseline_hops(
    Vertex source) {
  const Baseline* base = baseline_for(source);
  return base == nullptr ? nullptr : &base->tree.hops;
}

FaultQueryEngine::Damage FaultQueryEngine::classify(Scratch& s,
                                                    const Baseline& base,
                                                    Vertex source) const {
  s.impacts.clear();
  for (const EdgeId e : s.canon.edges()) {
    const EdgeId he = g_to_h_.empty() ? e : g_to_h_[e];
    if (he == kInvalidEdge) continue;  // absent from H: cannot matter
    const Vertex c = base.tree_child[he];
    if (c != kInvalidVertex) s.impacts.push_back(c);
  }
  for (const Vertex v : s.canon.vertices()) {
    if (v == source) return Damage::kSourceBlocked;
    // A faulted vertex the baseline never reached has no reached neighbors
    // either (they would have discovered it), so masking it changes nothing.
    if (base.tree.hops[v] != kInfHops) s.impacts.push_back(v);
  }
  return s.impacts.empty() ? Damage::kNone : Damage::kSubtrees;
}

const BfsResult* FaultQueryEngine::repair(Scratch& s, const Baseline& base,
                                          std::span<const Vertex> targets,
                                          bool* from_baseline) {
  const Graph& h = *h_;
  *from_baseline = false;

  // Mark the affected region: the union of the cut points' subtrees, each a
  // contiguous preorder slice. Nested subtrees dedupe on the epoch stamp (a
  // cut point already marked is interior to an earlier slice — skip it
  // whole). Bail to the full BFS once the region exceeds the threshold: the
  // marking cost spent so far is itself bounded by the threshold.
  const std::uint64_t epoch = ++s.affected_clock;
  const auto marked = [&](Vertex v) { return s.affected_epoch[v] == epoch; };
  // fraction 0 ⇒ limit 0 ⇒ any damage at all falls back to the full BFS.
  const std::size_t limit =
      static_cast<std::size_t>(delta_.max_affected_fraction *
                               static_cast<double>(h.num_vertices()));
  s.affected.clear();
  for (const Vertex c : s.impacts) {
    if (marked(c)) continue;
    for (const Vertex w : base.index.subtree_span(c)) {
      if (marked(w)) continue;
      s.affected_epoch[w] = epoch;
      s.affected.push_back(w);
      if (s.affected.size() > limit) return nullptr;
    }
  }

  // Every requested target outside the affected region keeps its baseline
  // distance — and its baseline root path: the ancestors of an unaffected
  // vertex are all unaffected (affected sets are subtree-closed), so the
  // whole baseline tree answers without running the repair.
  if (!targets.empty()) {
    bool any_affected = false;
    for (const Vertex t : targets) any_affected |= marked(t);
    if (!any_affected) {
      *from_baseline = true;
      return &base.tree;
    }
  }

  // Sync the output tree with the baseline: a full copy the first time (or
  // after a baseline switch), then only the entries the previous repair on
  // this scratch dirtied. Copy-assign reuses capacity, so steady state pays
  // O(prev affected), not O(n), and allocates nothing.
  if (s.repair_synced != &base) {
    s.repair = base.tree;
    s.repair_synced = &base;
  } else {
    for (const Vertex w : s.prev_affected) {
      s.repair.hops[w] = base.tree.hops[w];
      s.repair.parent[w] = base.tree.parent[w];
      s.repair.parent_edge[w] = base.tree.parent_edge[w];
    }
  }

  // Seed the repair: an affected vertex enters any shortest path through an
  // unaffected usable neighbor u, whose masked distance equals its baseline
  // distance. Seeds are upper bounds (the true path may run through other
  // affected vertices first); the Dial pass below relaxes them properly.
  // Parents are carried along: the seeding/relaxing neighbor becomes the
  // parent, ties broken toward the lowest baseline discovery rank — the
  // neighbor the full masked BFS would usually scan first.
  for (const Vertex w : s.affected) {
    s.repair.hops[w] = kInfHops;
    s.repair.parent[w] = kInvalidVertex;
    s.repair.parent_edge[w] = kInvalidEdge;
  }
  std::uint32_t dmin = kInfHops;
  const auto push_bucket = [&](Vertex v, std::uint32_t d) {
    if (s.buckets.size() <= d) s.buckets.resize(d + 1);
    s.buckets[d].push_back(v);
  };
  for (const Vertex w : s.affected) {
    if (s.mask.vertex_blocked(w)) continue;
    std::uint32_t best = kInfHops;
    std::uint32_t best_rank = static_cast<std::uint32_t>(-1);
    Vertex best_parent = kInvalidVertex;
    EdgeId best_edge = kInvalidEdge;
    for (const Arc& arc : h.neighbors(w)) {
      if (marked(arc.to)) continue;
      const std::uint32_t du = base.tree.hops[arc.to];
      if (du == kInfHops || du + 1 > best) continue;
      if (du + 1 == best && base.rank[arc.to] >= best_rank) continue;
      if (s.mask.arc_blocked_unrestricted(arc.id, arc.to)) continue;
      best = du + 1;
      best_rank = base.rank[arc.to];
      best_parent = arc.to;
      best_edge = arc.id;
    }
    if (best != kInfHops) {
      s.repair.hops[w] = best;
      s.repair.parent[w] = best_parent;
      s.repair.parent_edge[w] = best_edge;
      push_bucket(w, best);
      dmin = std::min(dmin, best);
    }
  }

  // Dial's pass over the affected region only: unit edges, buckets keyed by
  // absolute hop count, stale entries skipped. Bounded by the volume of the
  // region (vertices + incident arcs), never by |H|. The first relaxer at
  // d + 1 becomes the parent (seeds — unaffected, hence queue-earlier in the
  // full BFS — are never displaced by an equal-distance relaxation).
  if (dmin != kInfHops) {
    for (std::uint32_t d = dmin;
         d < static_cast<std::uint32_t>(s.buckets.size()); ++d) {
      // Index, don't hold a reference: push_bucket(x, d + 1) may grow the
      // outer bucket vector and would invalidate it.
      for (std::size_t i = 0; i < s.buckets[d].size(); ++i) {
        const Vertex w = s.buckets[d][i];
        if (s.repair.hops[w] != d) continue;  // superseded by a better seed
        for (const Arc& arc : h.neighbors(w)) {
          const Vertex x = arc.to;
          if (!marked(x) || s.repair.hops[x] <= d + 1) continue;
          if (s.mask.arc_blocked_unrestricted(arc.id, x)) continue;
          s.repair.hops[x] = d + 1;
          s.repair.parent[x] = w;
          s.repair.parent_edge[x] = arc.id;
          push_bucket(x, d + 1);
        }
      }
      s.buckets[d].clear();
    }
  }
  std::swap(s.prev_affected, s.affected);
  return &s.repair;
}

// When no fault touches the baseline tree the masked BFS would retrace the
// fault-free BFS move for move (a blocked non-tree edge is only ever scanned
// toward an already-discovered vertex, a blocked unreached vertex has no
// reached neighbors), so the baseline result — parents and parent_edges
// included — IS the full-BFS result, bit for bit. Tree damage runs the
// parent-carrying repair: hops stay bit-identical to the full BFS, parents
// form a valid shortest-path tree of H ∖ F (unaffected vertices keep baseline
// parents, affected ones get their repair parents). An unaffected target
// keeps its whole baseline root path (ancestors of unaffected vertices are
// unaffected), so with `targets` given and none of them affected the baseline
// tree answers as a fast-path hit; with no targets that exit never fires and
// every full run labels the whole reachable set.
const BfsResult& FaultQueryEngine::resolve(Scratch& s, Vertex source,
                                           const FaultSpec& faults,
                                           std::span<const Vertex> targets) {
  apply_faults(s, faults);
  Counters& c = shared_->counters;
  if (const Baseline* base = baseline_for(source)) {
    switch (classify(s, *base, source)) {
      case Damage::kNone:
        c.fast_path_hits.fetch_add(1, std::memory_order_relaxed);
        return base->tree;
      case Damage::kSubtrees: {
        bool from_baseline = false;
        if (const BfsResult* r = repair(s, *base, targets, &from_baseline)) {
          (from_baseline ? c.fast_path_hits : c.repair_bfs)
              .fetch_add(1, std::memory_order_relaxed);
          return *r;
        }
        break;  // affected region above threshold: full BFS
      }
      case Damage::kSourceBlocked:
        break;  // everything unreachable; let the full BFS report it
    }
  }
  c.full_bfs.fetch_add(1, std::memory_order_relaxed);
  return s.bfs.run_until(source, targets, &s.mask);
}

FaultQueryEngine::ScratchLease FaultQueryEngine::acquire_scratch() {
  ScratchPool& pool = shared_->pool;
  const std::lock_guard lock(pool.mutex);
  if (pool.free_list.empty()) {
    pool.slots.push_back(std::make_unique<Scratch>(*h_));
    return ScratchLease(&pool, pool.slots.back().get());
  }
  Scratch* s = pool.free_list.back();
  pool.free_list.pop_back();
  return ScratchLease(&pool, s);
}

FaultQueryEngine::ScratchLease::~ScratchLease() {
  if (pool_ == nullptr) return;
  const std::lock_guard lock(pool_->mutex);
  pool_->free_list.push_back(scratch_);
}

const BfsResult& FaultQueryEngine::query(ScratchLease& lease, Vertex source,
                                         const FaultSpec& faults) {
  return resolve(*lease.scratch_, source, faults, {});
}

std::uint32_t FaultQueryEngine::distance(ScratchLease& lease, Vertex source,
                                         Vertex target,
                                         const FaultSpec& faults) {
  const Vertex targets[1] = {target};
  return resolve(*lease.scratch_, source, faults, targets).hops[target];
}

std::optional<Path> FaultQueryEngine::shortest_path(ScratchLease& lease,
                                                    Vertex source,
                                                    Vertex target,
                                                    const FaultSpec& faults) {
  const Vertex targets[1] = {target};
  const BfsResult& r = resolve(*lease.scratch_, source, faults, targets);
  if (r.hops[target] == kInfHops) return std::nullopt;
  Path p;
  for (Vertex cur = target; cur != kInvalidVertex; cur = r.parent[cur]) {
    p.push_back(cur);
  }
  std::reverse(p.begin(), p.end());
  return p;
}

const std::vector<std::uint32_t>& FaultQueryEngine::all_distances(
    ScratchLease& lease, Vertex source, const FaultSpec& faults) {
  return resolve(*lease.scratch_, source, faults, {}).hops;
}

}  // namespace ftbfs
