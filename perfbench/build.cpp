// The build_cons2 workload: BuilderRegistry::build("cons2ftbfs") at a fixed
// job count on a new host graph of the family each time, for the run's
// duration; each built structure is spot-checked against BFS over G∖F.
#include <algorithm>
#include <string>

#include "bench.h"
#include "engine/registry.h"
#include "graph/mask.h"
#include "spath/bfs.h"
#include "util/rng.h"

namespace perfbench {
namespace {

using ftbfs::EdgeId;

// jobs=4 spread ±13% across runs on a 4-thread box, against ±3–6% at 2.
constexpr unsigned kBuildJobs = 2;
constexpr int kSetupRepeats = 2;
constexpr int kMinBuilds = 3;
constexpr int kMaxBuilds = 16;
constexpr int kSpotChecks = 300;

std::uint64_t counter(const ftbfs::BuildResult& b, std::string_view name) {
  for (const auto& [key, value] : b.counters) {
    if (key == name) return value;
  }
  return 0;
}

// Fault sets of size 0, 1, 2 (the first fault from H, where it can matter);
// returns how many give a different BFS over H∖F than over G∖F.
std::uint64_t spot_check(const ftbfs::Graph& g,
                         const std::vector<EdgeId>& h_edges,
                         std::uint64_t seed) {
  ftbfs::Rng rng(seed * 0x9E3779B97F4A7C15ull + 3);
  std::vector<bool> in_h(g.num_edges(), false);
  for (const EdgeId e : h_edges) in_h[e] = true;
  ftbfs::GraphMask g_mask(g);
  ftbfs::GraphMask h_mask(g);
  ftbfs::Bfs g_bfs(g);
  ftbfs::Bfs h_bfs(g);
  std::uint64_t mismatches = 0;
  for (int c = 0; c < kSpotChecks; ++c) {
    std::vector<EdgeId> faults;
    if (c % 3 >= 1 && !h_edges.empty()) {
      faults.push_back(h_edges[rng.next_below(h_edges.size())]);
    }
    if (c % 3 == 2) {
      faults.push_back(static_cast<EdgeId>(rng.next_below(g.num_edges())));
    }
    g_mask.clear();
    h_mask.clear();
    ftbfs::block_edges(g_mask, faults);
    ftbfs::block_edges(h_mask, faults);
    for (EdgeId e = 0; e < g.num_edges(); ++e) {
      if (!in_h[e]) h_mask.block_edge(e);
    }
    if (g_bfs.run(kSource, &g_mask).hops != h_bfs.run(kSource, &h_mask).hops) {
      ++mismatches;
    }
  }
  return mismatches;
}

}  // namespace

void run_build(const Options& opt, Result& r) {
  r.idle_layers = {"net", "protocol", "service", "cache", "engine", "persist",
                   "client", "trace"};
  // Graph k of this run; several graphs per run average out how much the
  // build cost depends on the particular graph a seed draws.
  const auto graph_seed = [&](int k) {
    return opt.seed * kMaxBuilds + static_cast<std::uint64_t>(k);
  };
  // setup_s: generating a host graph. Its cost depends on the seed (the
  // random spanning tree), so every graph seed the run may use is timed.
  std::vector<double> setup;
  for (int k = 0; k < kMaxBuilds; ++k) {
    for (int rep = 0; rep < kSetupRepeats; ++rep) {
      const Clock::time_point t0 = Clock::now();
      const ftbfs::Graph probe = host_graph(opt.n, graph_seed(k));
      setup.push_back(seconds_between(t0, Clock::now()));
    }
  }

  const ftbfs::BuilderRegistry& registry = ftbfs::BuilderRegistry::instance();
  const double rss_before = current_rss_mb();
  std::vector<double> wall;
  std::vector<double> cpu;
  ftbfs::BuildResult last;
  const Clock::time_point start = Clock::now();
  for (int k = 0; k < kMaxBuilds &&
                  (k < kMinBuilds ||
                   seconds_between(start, Clock::now()) < opt.seconds);
       ++k) {
    const ftbfs::Graph g = host_graph(opt.n, graph_seed(k));
    ftbfs::BuildRequest req;
    req.graph = &g;
    req.sources = {kSource};
    req.fault_budget = kBudget;
    req.options.jobs = kBuildJobs;
    const double cpu0 = process_cpu_s();
    const Clock::time_point t0 = Clock::now();
    last = registry.build("cons2ftbfs", req);
    const Clock::time_point t1 = Clock::now();
    cpu.push_back(process_cpu_s() - cpu0);
    wall.push_back(seconds_between(t0, t1));
    const auto id = static_cast<std::uint64_t>(k);
    r.attempted += 1 + kSpotChecks;
    r.failed += spot_check(g, last.structure.edges, graph_seed(k));
    const Clock::time_point t2 = Clock::now();
    if (opt.spans != nullptr) {
      opt.spans->record(0, id, "graph", "", t0, t2);
      opt.spans->record(0, id, "core.build", "graph", t0, t1);
      opt.spans->record(0, id, "check", "graph", t1, t2);
    }
  }
  const double rss_after = peak_rss_mb();

  if (!opt.trace) {
    r.add("op_cpu_us", median(cpu) * 1e6, "us");
    r.add("setup_s", median(setup), "s");
    r.add("peak_rss_mb", peak_rss_mb(), "MB");
    r.note("build_s", median(wall), "s");
    r.note("builds", static_cast<double>(wall.size()), "count");
    return;
  }
  // Counters of the last build; the schedule is deterministic per graph.
  const double conflicts = static_cast<double>(counter(last, "spec_conflicts"));
  r.add("core.cpu_s", median(cpu), "s");
  r.add("core.parallel_efficiency",
        median(cpu) / (median(wall) * kBuildJobs), "ratio");
  r.add("core.spec_conflicts", conflicts, "count");
  r.add("core.spec_blocks", static_cast<double>(counter(last, "spec_blocks")),
        "count");
  r.add("core.conflict_ratio", conflicts / static_cast<double>(opt.n),
        "ratio");
  r.add("core.fault_pairs_considered",
        static_cast<double>(counter(last, "fault_pairs_considered")), "count");
  r.add("core.rss_delta_mb", rss_after - rss_before, "MB");
  r.add("core.build_s", median(wall), "s");
  r.add("core.edges", static_cast<double>(last.structure.edges.size()),
        "count");
}

}  // namespace perfbench
