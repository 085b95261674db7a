// Concurrency tests for the serving substrate: N threads hammering one
// OracleService produce the same answers as a sequential replay, a pool key
// is lazily built exactly once no matter how many requests race for it,
// batched ordered admission is *byte-identical* (formatted wire lines
// included) to sequential serving at any batch size, the relaxed mode emits
// a correlatable permutation of the same lines, engine scratch leases never
// cross-talk, and the work queue preserves FIFO order. These are the tests
// the TSan CI job runs — every assertion doubles as a data-race probe under
// -fsanitize=thread.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "engine/registry.h"
#include "graph/generators.h"
#include "service/oracle_service.h"
#include "service/protocol.h"
#include "service/shard.h"
#include "service/work_queue.h"
#include "service_truth.h"
#include "util/rng.h"

namespace ftbfs {
namespace {

constexpr unsigned kThreads = 8;

// The payload fields that must be interleaving-independent. cache_hit is
// deliberately absent: in the unsequenced mode, which of two racing requests
// for one scenario runs the BFS is the scheduler's choice.
struct PayloadKey {
  StatusCode status;
  bool exact;
  std::string served_by;
  std::vector<std::uint32_t> distances;
  std::vector<bool> reachable;

  bool operator==(const PayloadKey&) const = default;
};

PayloadKey payload_of(const QueryResponse& resp) {
  return PayloadKey{resp.status, resp.exact, resp.served_by, resp.distances,
                    resp.reachable};
}

// A mixed workload over two sources: cache hits (scenarios from a small
// pool), misses, single-target fast paths, all-distances sweeps, refusals
// (over budget, exact), and best-effort identity fallbacks.
std::vector<QueryRequest> mixed_workload(const Graph& g, int count) {
  Rng rng(4242);
  std::vector<std::vector<EdgeId>> scenario_pool(8);
  for (auto& faults : scenario_pool) {
    for (std::uint64_t i = rng.next_below(3); i > 0; --i) {
      faults.push_back(static_cast<EdgeId>(rng.next_below(g.num_edges())));
    }
  }
  std::vector<QueryRequest> out;
  out.reserve(count);
  for (int i = 0; i < count; ++i) {
    QueryRequest req;
    req.id = i;
    req.source = rng.next_below(2) == 0 ? 0 : 1;
    switch (rng.next_below(4)) {
      case 0:
        req.kind = QueryKind::kAllDistances;
        break;
      case 1:
        req.kind = QueryKind::kReachability;
        req.targets = {static_cast<Vertex>(rng.next_below(g.num_vertices()))};
        break;
      case 2:  // single-target distance: the cache-bypassing fast path
        req.kind = QueryKind::kDistance;
        req.targets = {static_cast<Vertex>(rng.next_below(g.num_vertices()))};
        break;
      default:
        req.kind = QueryKind::kDistance;
        req.targets = {static_cast<Vertex>(rng.next_below(g.num_vertices())),
                       static_cast<Vertex>(rng.next_below(g.num_vertices()))};
        break;
    }
    req.fault_edges = scenario_pool[rng.next_below(scenario_pool.size())];
    if (rng.next_below(8) == 0) {
      // Over every lazy budget: a refusal, or an identity answer when the
      // request asks for best effort.
      req.fault_edges = {0, 1, 2, 3, 4};
      req.consistency = rng.next_below(2) == 0 ? Consistency::kBestEffort
                                               : Consistency::kExactOrRefuse;
    }
    out.push_back(std::move(req));
  }
  return out;
}

TEST(ConcurrentService, HammerMatchesSequentialBaseline) {
  const Graph g = erdos_renyi(60, 0.12, 5);
  const std::vector<QueryRequest> requests = mixed_workload(g, 400);

  // Sequential baseline on its own service instance.
  OracleService baseline(g);
  std::vector<PayloadKey> expected;
  expected.reserve(requests.size());
  for (const QueryRequest& req : requests) {
    expected.push_back(payload_of(baseline.serve(req)));
  }

  OracleService service(g);
  std::vector<PayloadKey> got(requests.size());
  std::vector<std::thread> crew;
  for (unsigned w = 0; w < kThreads; ++w) {
    crew.emplace_back([&, w] {
      for (std::size_t i = w; i < requests.size(); i += kThreads) {
        got[i] = payload_of(service.serve(requests[i]));
      }
    });
  }
  for (std::thread& t : crew) t.join();

  for (std::size_t i = 0; i < requests.size(); ++i) {
    EXPECT_EQ(got[i], expected[i]) << "request " << i;
  }
  // Both services converged to the same pool (same lazy keys built).
  EXPECT_EQ(service.pool_size(), baseline.pool_size());
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.requests, requests.size());
  EXPECT_EQ(stats.served + stats.refused, stats.requests);
}

TEST(ConcurrentService, DeltaRepairHammerMatchesFullBfsTruth) {
  // The fault-delta tiers under concurrency: every served payload of the
  // hammered (default, delta-on) service must equal the G∖F distances of a
  // full-masked-BFS engine over G — which simultaneously proves thread-safety
  // of the shared per-source baselines (lazily built under racing queries)
  // and delta==full equivalence. The workload is biased toward tree-edge
  // faults so the repair BFS, not just the fast path, is on the hot path of
  // every worker.
  const Graph g = erdos_renyi(60, 0.12, 19);
  std::vector<QueryRequest> requests = mixed_workload(g, 400);
  Bfs bfs(g);
  const BfsResult tree = bfs.run(0);
  Rng rng(333);
  for (std::size_t i = 0; i < requests.size(); i += 2) {
    if (requests[i].fault_edges.size() >= 2) continue;
    const Vertex v = static_cast<Vertex>(rng.next_below(g.num_vertices()));
    if (tree.parent_edge[v] != kInvalidEdge) {
      requests[i].fault_edges.push_back(tree.parent_edge[v]);
    }
  }

  OracleService service(g);
  std::vector<QueryResponse> got(requests.size());
  std::vector<std::thread> crew;
  for (unsigned w = 0; w < kThreads; ++w) {
    crew.emplace_back([&, w] {
      for (std::size_t i = w; i < requests.size(); i += kThreads) {
        got[i] = service.serve(requests[i]);
      }
    });
  }
  for (std::thread& t : crew) t.join();
  ServiceTruth truth(g);
  std::size_t served = 0;
  for (std::size_t i = 0; i < requests.size(); ++i) {
    if (truth.expect_matches(requests[i], got[i])) ++served;
  }
  EXPECT_GT(served, requests.size() / 2);
  const ServiceStats stats = service.stats();
  EXPECT_GT(stats.repair_bfs, 0u);       // the repair tier really ran
  EXPECT_GT(stats.fast_path_hits, 0u);   // and the baseline tier
}

TEST(ConcurrentService, BuildsEachPoolKeyExactlyOnce) {
  const Graph g = erdos_renyi(50, 0.15, 9);
  OracleService service(g);
  // Two lazy keys — (source 0, budget 2) and (source 1, budget 2) — hammered
  // by every thread at once. The build-in-progress latch must collapse the
  // race to one build per key.
  std::atomic<int> start{0};
  std::vector<std::thread> crew;
  for (unsigned w = 0; w < kThreads; ++w) {
    crew.emplace_back([&] {
      start.fetch_add(1);
      while (start.load() < static_cast<int>(kThreads)) {
      }  // line up for maximum contention
      for (int i = 0; i < 20; ++i) {
        QueryRequest req;
        req.source = i % 2 == 0 ? 0 : 1;
        req.targets = {5, 9};
        req.fault_edges = {static_cast<EdgeId>(i % 3),
                           static_cast<EdgeId>(7 + i % 3)};
        const QueryResponse resp = service.serve(req);
        EXPECT_EQ(resp.status, StatusCode::kOk);
        EXPECT_TRUE(resp.exact);
      }
    });
  }
  for (std::thread& t : crew) t.join();
  EXPECT_EQ(service.stats().structures_built, 2u);
  EXPECT_EQ(service.pool_size(), 3u);  // identity + one entry per key
}

// NetServer's ordered batched admission: workers pull dense runs of `batch`
// consecutive tickets, admit the whole run under one sequencer turn
// (wait_for(first) … advance_n(count)), and execute out of order. Returns the
// formatted lines by ticket.
std::vector<std::string> serve_batched(OracleService& service,
                                       const std::vector<QueryRequest>& requests,
                                       std::size_t batch) {
  RequestSequencer order;
  std::vector<std::string> got(requests.size());
  std::atomic<std::size_t> next{0};
  std::vector<std::thread> crew;
  for (unsigned w = 0; w < kThreads; ++w) {
    crew.emplace_back([&] {
      std::vector<OracleService::Admission> admitted;
      for (;;) {
        const std::size_t first = next.fetch_add(batch);
        if (first >= requests.size()) return;
        const std::size_t count = std::min(batch, requests.size() - first);
        admitted.clear();
        order.wait_for(first);
        for (std::size_t i = 0; i < count; ++i) {
          admitted.push_back(service.admit(requests[first + i]));
        }
        order.advance_n(count);
        for (std::size_t i = 0; i < count; ++i) {
          got[first + i] =
              format_response_line(service.execute(std::move(admitted[i])));
        }
      }
    });
  }
  for (std::thread& t : crew) t.join();
  return got;
}

TEST(ConcurrentService, BatchedAdmissionIsByteIdenticalToSequential) {
  // The formatted lines — cache_hit flags and eviction effects included —
  // must match the sequential replay byte for byte at batch size 1 (one
  // ticket per turn) and 5. Three inputs: the mixed workload at the default
  // capacity and at capacity 3 (the CLOCK keeps sweeping over the
  // 8-scenario pool), and a cycle graph whose 24 single-fault scenarios
  // churn a 3-line cache constantly (3 lines over 8 shards caps each shard at
  // one line, so at most 8 of the 24 stay resident).
  struct Workload {
    const char* name;
    Graph g;
    std::vector<QueryRequest> requests;
    std::size_t capacity;
  };
  std::vector<Workload> workloads;
  {
    Graph g = erdos_renyi(60, 0.12, 7);
    std::vector<QueryRequest> requests = mixed_workload(g, 300);
    workloads.push_back({"mixed", g, requests, ServiceConfig{}.cache_capacity});
    workloads.push_back({"mixed-evicting", std::move(g), std::move(requests),
                         3});
  }
  {
    Graph g = cycle_graph(24);
    std::vector<QueryRequest> requests;
    Rng rng(17);
    for (int i = 0; i < 200; ++i) {
      QueryRequest req;
      req.source = 0;
      req.kind = QueryKind::kAllDistances;
      req.fault_edges = {static_cast<EdgeId>(rng.next_below(g.num_edges()))};
      requests.push_back(std::move(req));
    }
    workloads.push_back({"cycle-evicting", std::move(g), std::move(requests),
                         3});
  }

  for (const Workload& w : workloads) {
    ServiceConfig config;
    config.cache_capacity = w.capacity;
    OracleService baseline(w.g, config);
    std::vector<std::string> expected;
    expected.reserve(w.requests.size());
    for (const QueryRequest& req : w.requests) {
      expected.push_back(format_response_line(baseline.serve(req)));
    }
    const ServiceStats want = baseline.stats();
    if (w.capacity == 3) {
      EXPECT_GT(want.cache_evictions, 0u) << w.name;
    }

    for (const std::size_t batch : {std::size_t{1}, std::size_t{5}}) {
      OracleService service(w.g, config);
      const std::vector<std::string> got =
          serve_batched(service, w.requests, batch);
      for (std::size_t i = 0; i < w.requests.size(); ++i) {
        EXPECT_EQ(got[i], expected[i])
            << w.name << " batch " << batch << " request " << i;
      }
      const ServiceStats stats = service.stats();
      EXPECT_EQ(stats.cache_hits, want.cache_hits) << w.name << " " << batch;
      EXPECT_EQ(stats.cache_misses, want.cache_misses) << w.name;
      EXPECT_EQ(stats.cache_evictions, want.cache_evictions) << w.name;
    }
  }
}

TEST(ConcurrentService, RelaxedServeIsPermutationWithPerIdByteIdentity) {
  // The relaxed wire contract: the output stream is a permutation of the
  // sequential stream, every id-bearing response is byte-identical to its
  // sequential counterpart, and id-less responses carry the input line
  // number as "seq". Scenarios are all-distinct so each request is
  // deterministically a cache miss — the hit/miss flag (which IS on the
  // wire) cannot depend on the interleaving.
  const Graph g = erdos_renyi(60, 0.12, 23);
  constexpr int kCount = 150;
  ASSERT_GT(g.num_edges(), static_cast<EdgeId>(kCount));
  std::vector<QueryRequest> requests;
  for (int i = 0; i < kCount; ++i) {
    QueryRequest req;
    req.id = i % 3 == 0 ? -1 : i;  // a third of the stream has no id
    req.source = 0;
    req.kind = QueryKind::kAllDistances;
    // Single-edge fault set {i}, pinned to the identity entry: cache keys
    // project faults onto the routed structure (absent edges drop out and
    // scenarios collide), but the identity entry keeps every edge, so these
    // keys are provably distinct and each request is a miss no matter which
    // worker gets there first.
    req.structure = "identity";
    req.fault_edges = {static_cast<EdgeId>(i)};
    if (i % 17 == 0) {  // sprinkle refusals into the stream
      req.structure.clear();
      req.fault_edges = {0, 1, 2, 3, 4};
      req.consistency = Consistency::kExactOrRefuse;
    }
    requests.push_back(std::move(req));
  }

  const auto line_for = [](QueryResponse resp, std::size_t seq,
                           std::int64_t id) {
    if (id < 0) resp.seq = static_cast<std::int64_t>(seq);
    return format_response_line(resp);
  };
  OracleService baseline(g);
  std::vector<std::string> expected;
  for (std::size_t i = 0; i < requests.size(); ++i) {
    expected.push_back(line_for(baseline.serve(requests[i]), i,
                                requests[i].id));
  }

  // The relaxed loop: no sequencer, workers emit to the shared stream in
  // completion order under the output mutex.
  OracleService service(g);
  std::vector<std::string> stream;
  std::mutex out_mutex;
  std::vector<std::thread> crew;
  for (unsigned w = 0; w < kThreads; ++w) {
    crew.emplace_back([&, w] {
      for (std::size_t i = w; i < requests.size(); i += kThreads) {
        std::string line = line_for(service.serve(requests[i]), i,
                                    requests[i].id);
        const std::lock_guard lock(out_mutex);
        stream.push_back(std::move(line));
      }
    });
  }
  for (std::thread& t : crew) t.join();

  ASSERT_EQ(stream.size(), expected.size());
  std::vector<std::string> sorted_stream = stream;
  std::vector<std::string> sorted_expected = expected;
  std::sort(sorted_stream.begin(), sorted_stream.end());
  std::sort(sorted_expected.begin(), sorted_expected.end());
  EXPECT_EQ(sorted_stream, sorted_expected);  // permutation, nothing dropped
  // Per-id (and per-seq) byte identity: every line of the relaxed stream is
  // literally one of the sequential lines, and since ids/seqs are unique the
  // sorted comparison above already matched them one-to-one. Spot-check the
  // correlation fields are present.
  for (const std::string& line : stream) {
    EXPECT_TRUE(line.find("\"id\":") != std::string::npos ||
                line.find("\"seq\":") != std::string::npos)
        << line;
  }
}

TEST(ConcurrentService, RelaxedHammerUnderEvictionPressure) {
  // TSan workhorse for the relaxed mode: unsequenced workers race a cache
  // whose capacity is far under the scenario pool, so CLOCK sweeps (exclusive
  // lock) interleave with hit probes (shared lock, reference-bit stores) and
  // compute-once latches constantly. Payloads must still match the
  // sequential replay — cache_hit excluded, which of two racers owns a line
  // is the scheduler's choice.
  const Graph g = erdos_renyi(60, 0.12, 41);
  const std::vector<QueryRequest> requests = mixed_workload(g, 400);
  ServiceConfig config;
  config.cache_capacity = 4;

  OracleService baseline(g, config);
  std::vector<PayloadKey> expected;
  expected.reserve(requests.size());
  for (const QueryRequest& req : requests) {
    expected.push_back(payload_of(baseline.serve(req)));
  }

  OracleService service(g, config);
  std::vector<PayloadKey> got(requests.size());
  std::vector<std::thread> crew;
  for (unsigned w = 0; w < kThreads; ++w) {
    crew.emplace_back([&, w] {
      for (std::size_t i = w; i < requests.size(); i += kThreads) {
        got[i] = payload_of(service.serve(requests[i]));
      }
    });
  }
  for (std::thread& t : crew) t.join();
  for (std::size_t i = 0; i < requests.size(); ++i) {
    EXPECT_EQ(got[i], expected[i]) << "request " << i;
  }
  EXPECT_GT(service.stats().cache_evictions, 0u);
}

TEST(ConcurrentService, StatsAreConsistentUnderLoad) {
  const Graph g = erdos_renyi(40, 0.2, 11);
  OracleService service(g);
  const std::vector<QueryRequest> requests = mixed_workload(g, 300);
  std::vector<std::thread> crew;
  for (unsigned w = 0; w < kThreads; ++w) {
    crew.emplace_back([&, w] {
      for (std::size_t i = w; i < requests.size(); i += kThreads) {
        (void)service.serve(requests[i]);
      }
    });
  }
  for (std::thread& t : crew) t.join();
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.requests, requests.size());
  EXPECT_EQ(stats.served + stats.refused, stats.requests);
  EXPECT_LE(stats.cache_hits + stats.cache_misses, stats.requests);
  EXPECT_LE(stats.cache_evictions, stats.cache_misses);
}

TEST(ConcurrentEngine, LeasedQueriesMatchSerial) {
  const Graph g = erdos_renyi(50, 0.15, 3);
  BuildRequest req;
  req.graph = &g;
  req.sources = {0};
  req.fault_budget = 2;
  const BuildResult built = BuilderRegistry::instance().build("cons2ftbfs", req);
  FaultQueryEngine serial(g, built.structure);
  FaultQueryEngine engine(g, built.structure);

  // Probe matrix computed serially first.
  auto serial_lease = serial.acquire_scratch();
  std::vector<EdgeId> faults(2);
  std::vector<std::uint32_t> expected(g.num_vertices() * 4);
  for (Vertex v = 0; v < g.num_vertices(); ++v) {
    for (std::uint32_t k = 0; k < 4; ++k) {
      faults = {static_cast<EdgeId>(k), static_cast<EdgeId>(3 * k + 1)};
      expected[v * 4 + k] =
          serial.distance(serial_lease, 0, v, edge_faults(faults));
    }
  }
  std::vector<std::uint32_t> got(expected.size());
  std::vector<std::thread> crew;
  for (unsigned w = 0; w < kThreads; ++w) {
    crew.emplace_back([&, w] {
      FaultQueryEngine::ScratchLease lease = engine.acquire_scratch();
      std::vector<EdgeId> mine(2);
      for (std::size_t i = w; i < got.size(); i += kThreads) {
        const Vertex v = static_cast<Vertex>(i / 4);
        const std::uint32_t k = static_cast<std::uint32_t>(i % 4);
        mine = {static_cast<EdgeId>(k), static_cast<EdgeId>(3 * k + 1)};
        got[i] = engine.distance(lease, 0, v, edge_faults(mine));
      }
    });
  }
  for (std::thread& t : crew) t.join();
  EXPECT_EQ(got, expected);
  const FaultQueryEngine::PathStats ps = engine.path_stats();
  EXPECT_EQ(ps.fast_path_hits + ps.repair_bfs + ps.full_bfs, got.size());
}

// --- plumbing --------------------------------------------------------------

TEST(WorkQueue, FifoOrderAndCloseSemantics) {
  BoundedQueue<int> queue(4);
  for (int i = 0; i < 4; ++i) {
    int item = i;
    EXPECT_TRUE(queue.try_push(item));
  }
  int extra = 9;
  EXPECT_FALSE(queue.try_push(extra));  // full: refused, item untouched
  EXPECT_EQ(extra, 9);
  std::vector<int> batch;
  ASSERT_EQ(queue.pop_batch(batch, 3), 3u);
  // FIFO: a batch is a dense run of the oldest items — NetServer's ordered
  // admission depends on it.
  EXPECT_EQ(batch, (std::vector<int>{0, 1, 2}));
  int seven = 7;
  EXPECT_TRUE(queue.try_push(seven));
  queue.close();
  int eight = 8;
  EXPECT_FALSE(queue.try_push(eight));  // refused after close
  ASSERT_EQ(queue.pop_batch(batch, 8), 2u);  // drains before reporting 0
  EXPECT_EQ(batch, (std::vector<int>{3, 7}));
  EXPECT_EQ(queue.pop_batch(batch, 8), 0u);
  EXPECT_TRUE(batch.empty());
}

TEST(WorkQueue, RetryingProducersAndBlockingConsumers) {
  // A capacity-2 queue under two producers keeps refusing try_push; each
  // producer retries (yielding) until its item fits, as NetServer's event
  // loop re-offers a parked line. Every item must arrive exactly once.
  BoundedQueue<int> queue(2);
  std::atomic<int> sum{0};
  std::vector<std::thread> consumers;
  for (int c = 0; c < 3; ++c) {
    consumers.emplace_back([&] {
      std::vector<int> batch;
      while (queue.pop_batch(batch, 2) > 0) {
        for (const int item : batch) sum.fetch_add(item);
      }
    });
  }
  std::vector<std::thread> producers;
  for (int p = 0; p < 2; ++p) {
    producers.emplace_back([&, p] {
      for (int i = 0; i < 50; ++i) {
        int item = p * 50 + i;
        while (!queue.try_push(item)) std::this_thread::yield();
      }
    });
  }
  for (std::thread& t : producers) t.join();
  queue.close();
  for (std::thread& t : consumers) t.join();
  EXPECT_EQ(sum.load(), 99 * 100 / 2);
}

// One-word scenario keys for the unit tests; each word buffer must outlive
// the probe it backs (the view is non-owning).
ScenarioKeyView test_key(const std::uint32_t& word) {
  return ScenarioKeyView{scenario_fingerprint({&word, 1}), {&word, 1}};
}

TEST(ShardedCache, ComputeOnceLatchAndEviction) {
  // One shard so the CLOCK behavior is exact: capacity 2 means the shard's
  // slice is 2 and the third insert must evict within it.
  const std::uint32_t ka = 1, kb = 2, kc = 3;
  ShardedScenarioCache cache(2, 1);
  auto first = cache.probe(test_key(ka), true);
  EXPECT_FALSE(first.hit);
  EXPECT_TRUE(first.owner);
  // A second prober for the same key becomes a waiter, not a second owner.
  std::atomic<bool> waited{false};
  std::thread waiter([&] {
    auto racer = cache.probe(test_key(ka), true);
    EXPECT_TRUE(racer.hit);
    EXPECT_FALSE(racer.owner);
    ShardedScenarioCache::wait(*racer.line);
    waited.store(true);
    EXPECT_EQ(racer.line->hops, (std::vector<std::uint32_t>{1, 2, 3}));
  });
  ShardedScenarioCache::fill(*first.line, {1, 2, 3});
  waiter.join();
  EXPECT_TRUE(waited.load());
  // Second-chance eviction: a's reference bit is set (it was hit above), b's
  // never was, so inserting c sweeps past a (clearing its bit) and evicts b.
  (void)cache.probe(test_key(kb), true);
  (void)cache.probe(test_key(ka), false);  // touch a — b stays unreferenced
  auto c = cache.probe(test_key(kc), true);
  ShardedScenarioCache::fill(*c.line, {9});
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_TRUE(cache.probe(test_key(ka), false).hit);
  EXPECT_FALSE(cache.probe(test_key(kb), false).hit);
  EXPECT_EQ(cache.total_evictions(), 1u);
}

TEST(ShardedCache, ClockEvictionRespectsPerShardCapacity) {
  // 8 lines over 4 shards: each shard caps at 2 residents no matter how the
  // keys distribute, so the resident total never exceeds capacity + rounding
  // and every shard's over-capacity insert evicts inside that shard alone.
  ShardedScenarioCache cache(8, 4);
  std::vector<std::uint32_t> words(64);
  for (std::uint32_t i = 0; i < 64; ++i) {
    words[i] = i;
    auto probe = cache.probe(test_key(words[i]), true);
    ASSERT_TRUE(probe.owner);
    ShardedScenarioCache::fill(*probe.line, {i});
  }
  EXPECT_LE(cache.size(), 8u);
  EXPECT_EQ(cache.total_evictions() + cache.size(), 64u);
  EXPECT_EQ(cache.total_misses(), 64u);
}

TEST(ShardedCache, ClockSecondChanceKeepsHotLineUnderChurn) {
  // A single hot key re-touched between cold inserts keeps its reference bit
  // set, so every sweep passes over it and evicts a cold line instead.
  ShardedScenarioCache cache(4, 1);
  const std::uint32_t hot = 1000;
  auto hot_probe = cache.probe(test_key(hot), true);
  ASSERT_TRUE(hot_probe.owner);
  ShardedScenarioCache::fill(*hot_probe.line, {1});
  std::vector<std::uint32_t> words(32);
  for (std::uint32_t i = 0; i < 32; ++i) {
    words[i] = i;
    auto cold = cache.probe(test_key(words[i]), true);
    ASSERT_TRUE(cold.owner);
    ShardedScenarioCache::fill(*cold.line, {i});
    EXPECT_TRUE(cache.probe(test_key(hot), false).hit)
        << "hot line evicted after cold insert " << i;
  }
}

TEST(ShardedCache, HitMissAccountingIsShardCountIndependent) {
  // The same probe sequence, run at 1 / 4 / 16 shards with capacity ample
  // enough that nothing evicts, must produce identical hit/miss totals —
  // sharding redistributes lines, it does not change what is resident.
  std::vector<std::uint32_t> words(48);
  for (std::uint32_t i = 0; i < 48; ++i) words[i] = i;
  const auto run = [&](unsigned shards) {
    ShardedScenarioCache cache(256, shards);
    for (int round = 0; round < 3; ++round) {
      for (std::uint32_t i = 0; i < 48; ++i) {
        auto probe = cache.probe(test_key(words[i]), true);
        if (probe.owner) ShardedScenarioCache::fill(*probe.line, {i});
      }
    }
    return std::pair{cache.total_hits(), cache.total_misses()};
  };
  const auto one = run(1);
  EXPECT_EQ(run(4), one);
  EXPECT_EQ(run(16), one);
  EXPECT_EQ(one.first, 2u * 48u);
  EXPECT_EQ(one.second, 48u);
}

TEST(ShardedCache, DeltaLinesOverlayTheirBaseline) {
  const std::uint32_t kd = 4;
  const std::vector<std::uint32_t> baseline = {0, 1, 2, 3, 4, 5};
  ShardedScenarioCache cache(4, 2);
  auto probe = cache.probe(test_key(kd), true);
  ASSERT_TRUE(probe.owner);
  // Vertices 2 and 4 diverge from the baseline (4 to unreachable).
  ShardedScenarioCache::fill_delta(
      *probe.line, &baseline,
      {(std::uint64_t{2} << 32) | 7u,
       (std::uint64_t{4} << 32) | kInfHops});
  ShardedScenarioCache::wait(*probe.line);
  EXPECT_FALSE(ShardedScenarioCache::poisoned(*probe.line));
  EXPECT_EQ(ShardedScenarioCache::at(*probe.line, 0), 0u);
  EXPECT_EQ(ShardedScenarioCache::at(*probe.line, 2), 7u);
  EXPECT_EQ(ShardedScenarioCache::at(*probe.line, 3), 3u);
  EXPECT_EQ(ShardedScenarioCache::at(*probe.line, 4), kInfHops);
  std::vector<std::uint32_t> out;
  ShardedScenarioCache::materialize(*probe.line, out);
  EXPECT_EQ(out, (std::vector<std::uint32_t>{0, 1, 7, 3, kInfHops, 5}));
  // Resident bytes count the diff (2 packed words), not the full vector.
  EXPECT_EQ(ShardedScenarioCache::payload_bytes(*probe.line),
            2 * sizeof(std::uint64_t));
  EXPECT_EQ(cache.total_resident_bytes(), 2 * sizeof(std::uint64_t));
}

}  // namespace
}  // namespace ftbfs
