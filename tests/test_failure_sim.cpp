#include "sim/failure_sim.h"

#include <gtest/gtest.h>

#include <numeric>

#include "core/cons2ftbfs.h"
#include "core/kfail_ftbfs.h"
#include "core/single_ftbfs.h"
#include "graph/generators.h"

namespace ftbfs {
namespace {

std::vector<EdgeId> all_edges(const Graph& g) {
  std::vector<EdgeId> ids(g.num_edges());
  std::iota(ids.begin(), ids.end(), 0);
  return ids;
}

TEST(FailureSim, FullGraphOverlayAlwaysExact) {
  const Graph g = erdos_renyi(40, 0.15, 3);
  SimConfig cfg;
  cfg.ticks = 200;
  cfg.max_concurrent_faults = 3;
  FailureSimulator sim(g, 0, cfg);
  sim.add_overlay("full", all_edges(g), 3);
  const auto metrics = sim.run();
  ASSERT_EQ(metrics.size(), 1u);
  EXPECT_EQ(metrics[0].exact, metrics[0].routed);
  EXPECT_EQ(metrics[0].stretched, 0u);
  EXPECT_EQ(metrics[0].disconnected, 0u);
}

TEST(FailureSim, DualStructureExactWithinBudget) {
  const Graph g = erdos_renyi(60, 0.1, 7);
  Cons2Options opt;
  opt.classify_paths = false;
  const FtStructure h = build_cons2ftbfs(g, 0, opt);
  SimConfig cfg;
  cfg.ticks = 300;
  cfg.max_concurrent_faults = 2;  // never beyond the dual budget
  FailureSimulator sim(g, 0, cfg);
  sim.add_overlay("dual", h.edges, 2);
  const auto metrics = sim.run();
  // Inside the budget the FT guarantee is exactness — always.
  EXPECT_EQ(metrics[0].non_exact_in_budget, 0u);
  EXPECT_EQ(metrics[0].routed_in_budget, metrics[0].routed);
  EXPECT_EQ(metrics[0].exact, metrics[0].routed);
}

TEST(FailureSim, SingleStructureExactOnlyWithinItsBudget) {
  const Graph g = erdos_renyi(60, 0.1, 9);
  const FtStructure h1 = build_single_ftbfs(g, 0);
  SimConfig cfg;
  cfg.ticks = 400;
  cfg.failure_probability = 0.01;
  cfg.max_concurrent_faults = 2;  // can exceed the single-failure budget
  FailureSimulator sim(g, 0, cfg);
  sim.add_overlay("single", h1.edges, 1);
  const auto metrics = sim.run();
  EXPECT_EQ(metrics[0].non_exact_in_budget, 0u);  // guarantee holds for |F|<=1
  // Some two-fault ticks occurred (histogram sanity).
  EXPECT_GT(sim.fault_histogram()[2], 0u);
}

TEST(FailureSim, TreeOverlayDegradesBeyondZeroFaults) {
  const Graph g = erdos_renyi(50, 0.15, 11);
  const KFailResult tree = build_kfail_ftbfs(g, 0, 0);
  SimConfig cfg;
  cfg.ticks = 300;
  cfg.failure_probability = 0.02;
  FailureSimulator sim(g, 0, cfg);
  sim.add_overlay("tree", tree.structure.edges, 0);
  const auto metrics = sim.run();
  EXPECT_EQ(metrics[0].non_exact_in_budget, 0u);  // fault-free ticks fine
  EXPECT_GT(metrics[0].disconnected + metrics[0].stretched, 0u);
}

TEST(FailureSim, DeterministicPerSeed) {
  const Graph g = erdos_renyi(30, 0.2, 13);
  auto run_once = [&] {
    SimConfig cfg;
    cfg.ticks = 100;
    cfg.seed = 77;
    FailureSimulator sim(g, 0, cfg);
    sim.add_overlay("full", all_edges(g), 2);
    return sim.run()[0].exact;
  };
  EXPECT_EQ(run_once(), run_once());
}

TEST(FailureSim, UncachedTicksAreServedByTheDeltaTiers) {
  // The simulator's drifting tick-states are the repair path's home turf:
  // with caching disabled, cache-missing ticks must be answered from the
  // baseline/repair tiers instead of full BFS, and the exact overlay stays
  // exact inside its budget. The sparse host and the 2000 ticks are what it
  // takes for a repair that drops one affected vertex to show up as
  // non-exact in-budget rows (about twenty of them).
  const Graph g = erdos_renyi(60, 0.1, 5);
  const FtStructure h = build_cons2ftbfs(g, 0);
  SimConfig cfg;
  cfg.ticks = 2000;
  cfg.seed = 9;
  cfg.failure_probability = 0.01;
  cfg.cache_capacity = 0;  // every tick row reaches an engine
  FailureSimulator sim(g, 0, cfg);
  sim.add_overlay("cons2", h.edges, 2);
  const auto metrics = sim.run();
  ASSERT_EQ(metrics.size(), 1u);
  EXPECT_GT(metrics[0].routed_in_budget, 0u);
  EXPECT_EQ(metrics[0].non_exact_in_budget, 0u);
  const ServiceStats stats = sim.service_stats();
  EXPECT_GT(stats.fast_path_hits + stats.repair_bfs, 0u);
}

TEST(FailureSim, DeltaCacheDoesNotChangeMetricsAndShrinksLines) {
  // The scenario cache is invisible to the metrics: a run with the default
  // (delta-compressed) cache must match an uncached run exactly, while the
  // cached tick-states hold a fraction of a full n-word vector per line.
  // Same host and ticks as above, so a wrong repair breaks exactness here too.
  const Graph g = erdos_renyi(60, 0.1, 5);
  const FtStructure h = build_cons2ftbfs(g, 0);
  auto run_once = [&](std::size_t cache_capacity) {
    SimConfig cfg;
    cfg.ticks = 2000;
    cfg.seed = 9;
    cfg.failure_probability = 0.01;
    cfg.cache_capacity = cache_capacity;
    FailureSimulator sim(g, 0, cfg);
    sim.add_overlay("cons2", h.edges, 2);
    const auto metrics = sim.run();
    return std::pair(metrics, sim.service_stats());
  };
  const auto [cached, cached_stats] = run_once(SimConfig{}.cache_capacity);
  const auto [uncached, uncached_stats] = run_once(0);
  ASSERT_EQ(cached.size(), uncached.size());
  for (std::size_t i = 0; i < cached.size(); ++i) {
    EXPECT_EQ(cached[i].routed, uncached[i].routed);
    EXPECT_EQ(cached[i].exact, uncached[i].exact);
    EXPECT_EQ(cached[i].stretched, uncached[i].stretched);
    EXPECT_EQ(cached[i].disconnected, uncached[i].disconnected);
    EXPECT_EQ(cached[i].extra_hops, uncached[i].extra_hops);
    EXPECT_EQ(cached[i].non_exact_in_budget, uncached[i].non_exact_in_budget);
  }
  EXPECT_EQ(cached[0].non_exact_in_budget, 0u);  // cons2 is an exact overlay
  EXPECT_GT(cached_stats.cache_hits, 0u);
  EXPECT_EQ(uncached_stats.cache_lines, 0u);
  ASSERT_GT(cached_stats.cache_lines, 0u);
  EXPECT_LT(cached_stats.cache_bytes_per_line(),
            static_cast<double>(g.num_vertices() * sizeof(std::uint32_t)));
}

TEST(FailureSim, CapRespected) {
  const Graph g = erdos_renyi(40, 0.2, 17);
  SimConfig cfg;
  cfg.ticks = 300;
  cfg.failure_probability = 0.5;  // aggressive
  cfg.repair_probability = 0.05;
  cfg.max_concurrent_faults = 2;
  FailureSimulator sim(g, 0, cfg);
  sim.add_overlay("full", all_edges(g), 2);
  (void)sim.run();
  const auto& hist = sim.fault_histogram();
  for (std::size_t k = 3; k < hist.size(); ++k) {
    EXPECT_EQ(hist[k], 0u);
  }
}

TEST(FailureSim, ZeroFailureProbabilityNeverFails) {
  const Graph g = cycle_graph(12);
  SimConfig cfg;
  cfg.ticks = 50;
  cfg.failure_probability = 0.0;
  FailureSimulator sim(g, 0, cfg);
  sim.add_overlay("full", all_edges(g), 2);
  const auto metrics = sim.run();
  EXPECT_EQ(metrics[0].exact, metrics[0].routed);
  EXPECT_EQ(sim.fault_histogram()[0], 50u);
}

TEST(FailureSim, MultipleOverlaysComparedOnSameTrace) {
  const Graph g = erdos_renyi(50, 0.12, 19);
  Cons2Options opt;
  opt.classify_paths = false;
  const FtStructure dual = build_cons2ftbfs(g, 0, opt);
  const KFailResult tree = build_kfail_ftbfs(g, 0, 0);
  SimConfig cfg;
  cfg.ticks = 200;
  FailureSimulator sim(g, 0, cfg);
  sim.add_overlay("dual", dual.edges, 2);
  sim.add_overlay("tree", tree.structure.edges, 0);
  const auto metrics = sim.run();
  ASSERT_EQ(metrics.size(), 2u);
  EXPECT_EQ(metrics[0].routed, metrics[1].routed);  // same trace
  EXPECT_GE(metrics[0].exact, metrics[1].exact);    // dual dominates tree
}

}  // namespace
}  // namespace ftbfs
