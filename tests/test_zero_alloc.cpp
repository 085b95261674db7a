// Steady-state serving must not allocate on the query hot path: after one
// warm-up pass (which creates the scratch slot and sizes the canon buffers,
// the repair scratch — parents included — the Dial buckets, and the BFS
// target stamps), every further engine query — lease checkout and return,
// fast path, repair path, and full-BFS fallback alike — runs on reused
// buffers; the scenario cache's probe/read path is equally clean
// (packed keys into a reused word buffer, hits read through at()). This
// binary overrides the global allocator with a counting shim and asserts
// the per-query count is exactly zero across a mixed workload.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <new>
#include <vector>

#include "engine/query_engine.h"
#include "graph/generators.h"
#include "service/shard.h"
#include "spath/bfs.h"
#include "util/rng.h"

namespace {

std::atomic<std::size_t> g_allocations{0};

void* counted_alloc(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

// Over-aligned forms too, so an aligned container sneaking onto the query
// path cannot allocate past the counter unnoticed.
void* operator new(std::size_t size, std::align_val_t align) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  const std::size_t a = static_cast<std::size_t>(align);
  const std::size_t rounded = (std::max<std::size_t>(size, 1) + a - 1) / a * a;
  if (void* p = std::aligned_alloc(a, rounded)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return operator new(size, align);
}
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace ftbfs {
namespace {

// Allocation count across a callable, kept EXPECT-free inside the window so
// gtest's own bookkeeping never pollutes the measurement.
template <typename Fn>
std::size_t allocations_during(Fn&& fn) {
  const std::size_t before = g_allocations.load(std::memory_order_relaxed);
  fn();
  return g_allocations.load(std::memory_order_relaxed) - before;
}

TEST(ZeroAlloc, CanonicalFaultSetAssignReusesBuffers) {
  std::vector<EdgeId> edges = {9, 3, 3, 7, 1};
  std::vector<Vertex> vertices = {4, 4, 2};
  CanonicalFaultSet canon;
  canon.assign(FaultSpec{edges, vertices});  // warm-up sizes the buffers
  const std::size_t count = allocations_during([&] {
    for (int i = 0; i < 100; ++i) {
      edges[0] = static_cast<EdgeId>(i % 11);
      canon.assign(FaultSpec{edges, vertices});
    }
  });
  EXPECT_EQ(count, 0u);
}

TEST(ZeroAlloc, EngineQueriesAreAllocationFreeWhenWarm) {
  const Graph g = erdos_renyi(96, 0.08, 11);
  FaultQueryEngine engine(g);
  Bfs bfs(g);
  const BfsResult tree = bfs.run(0);

  // A workload that exercises all three tiers: non-tree faults (fast path),
  // tree faults (repair), and a damaged parent-exposing query (full BFS).
  Rng rng(5);
  std::vector<std::vector<EdgeId>> fault_pool(16);
  for (auto& faults : fault_pool) {
    for (std::uint64_t k = rng.next_below(3); k > 0; --k) {
      if (rng.next_below(2) == 0) {
        const Vertex v = static_cast<Vertex>(rng.next_below(g.num_vertices()));
        if (tree.parent_edge[v] != kInvalidEdge) {
          faults.push_back(tree.parent_edge[v]);
          continue;
        }
      }
      faults.push_back(static_cast<EdgeId>(rng.next_below(g.num_edges())));
    }
  }
  // A faulted source is the one guaranteed full-BFS customer left now that
  // damaged parent-exposing queries repair instead of falling back.
  const Vertex source_fault[1] = {0};
  // One lease per query, acquired and released as OracleService takes it,
  // so the pool's checkout and return run inside the counting window too.
  const auto run_workload = [&] {
    for (std::size_t i = 0; i < fault_pool.size(); ++i) {
      const FaultSpec spec = edge_faults(fault_pool[i]);
      {
        auto lease = engine.acquire_scratch();
        (void)engine.all_distances(lease, 0, spec);
      }
      {
        auto lease = engine.acquire_scratch();
        (void)engine.distance(lease, 0, static_cast<Vertex>(1 + i % 90), spec);
      }
      {
        auto lease = engine.acquire_scratch();
        (void)engine.query(lease, 0, spec);
      }
    }
    auto lease = engine.acquire_scratch();
    (void)engine.all_distances(lease, 0, vertex_faults(source_fault));
  };
  run_workload();  // warm-up: slot, baselines, repair scratch, Dial buckets
  const std::size_t count = allocations_during(run_workload);
  EXPECT_EQ(count, 0u);
  // The workload genuinely crossed all three tiers.
  const FaultQueryEngine::PathStats stats = engine.path_stats();
  EXPECT_GT(stats.fast_path_hits, 0u);
  EXPECT_GT(stats.repair_bfs, 0u);
  EXPECT_GT(stats.full_bfs, 0u);
}

TEST(ZeroAlloc, CacheProbeAndReadPathAreAllocationFree) {
  ShardedScenarioCache cache(64, 4);
  // One full line and one delta line, both warm.
  std::vector<std::uint32_t> words = {1, 0, 2, 7, 9};
  const auto key_of = [&](std::uint32_t entry) {
    words[0] = entry;
    return ScenarioKeyView{scenario_fingerprint(words), words};
  };
  const std::vector<std::uint32_t> baseline(128, 3);
  {
    auto full = cache.probe(key_of(1), true);
    ASSERT_TRUE(full.owner);
    ShardedScenarioCache::fill(*full.line, baseline);
    auto delta = cache.probe(key_of(2), true);
    ASSERT_TRUE(delta.owner);
    ShardedScenarioCache::fill_delta(*delta.line, &baseline,
                                     {(std::uint64_t{5} << 32) | 8u});
  }
  std::vector<std::uint32_t> out(128, 0);  // pre-sized materialize target
  const std::size_t count = allocations_during([&] {
    for (int i = 0; i < 100; ++i) {
      // Hit path: fingerprint + probe + per-target reads, no owner work.
      auto full = cache.probe(key_of(1), false);
      auto delta = cache.probe(key_of(2), false);
      if (!full.hit || !delta.hit) return;  // EXPECT after the window
      ShardedScenarioCache::wait(*full.line);
      ShardedScenarioCache::wait(*delta.line);
      if (ShardedScenarioCache::at(*full.line, 5) +
              ShardedScenarioCache::at(*delta.line, 5) !=
          3u + 8u) {
        return;
      }
      ShardedScenarioCache::materialize(*delta.line, out);
    }
  });
  EXPECT_EQ(count, 0u);
  EXPECT_EQ(out[5], 8u);
  EXPECT_EQ(out[0], 3u);
}

}  // namespace
}  // namespace ftbfs
