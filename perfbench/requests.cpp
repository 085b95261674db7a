// Request streams and their answers. Answers come from the plain masked BFS
// over G∖F (spath/bfs.h) — never from FaultQueryEngine or OracleService — so
// a bug on the serving path cannot agree with itself.
#include <algorithm>
#include <array>
#include <string>

#include "bench.h"
#include "graph/generators.h"
#include "graph/mask.h"
#include "spath/bfs.h"
#include "util/rng.h"

namespace perfbench {
namespace {

using ftbfs::EdgeId;
using ftbfs::Graph;
using ftbfs::Vertex;

constexpr std::size_t kHotScenarios = 64;
constexpr std::size_t kHotPoolSize = 8192;
// Requests are reused cyclically; a fault set comes round again only after
// this many others, far beyond the 256-line cache, so it misses again.
constexpr std::size_t kFreshPoolSize = 32768;

std::array<Vertex, kTargetsPerRequest> random_targets(const Graph& g,
                                                      ftbfs::Rng& rng) {
  std::array<Vertex, kTargetsPerRequest> t{};
  for (Vertex& v : t) {
    v = static_cast<Vertex>(rng.next_below(g.num_vertices()));
  }
  return t;
}

std::vector<EdgeId> random_faults(const Graph& g, ftbfs::Rng& rng,
                                  unsigned count) {
  std::vector<EdgeId> f;
  while (f.size() < count) {
    const auto e = static_cast<EdgeId>(rng.next_below(g.num_edges()));
    if (std::find(f.begin(), f.end(), e) == f.end()) f.push_back(e);
  }
  return f;
}

std::string request_line(const Graph& g, std::size_t id,
                         const std::array<Vertex, kTargetsPerRequest>& targets,
                         const std::vector<EdgeId>& faults) {
  std::string s = "{\"id\":" + std::to_string(id) +
                  ",\"source\":" + std::to_string(kSource) + ",\"targets\":[";
  for (std::size_t k = 0; k < targets.size(); ++k) {
    if (k > 0) s += ',';
    s += std::to_string(targets[k]);
  }
  s += "],\"fault_edges\":[";
  for (std::size_t k = 0; k < faults.size(); ++k) {
    const ftbfs::Edge& e = g.edge(faults[k]);
    if (k > 0) s += ',';
    s += '[' + std::to_string(e.u) + ',' + std::to_string(e.v) + ']';
  }
  s += "]}";
  return s;
}

// Hop distances from the source over G∖F, exact for every vertex.
const std::vector<std::uint32_t>& bfs_without(ftbfs::Bfs& bfs,
                                              ftbfs::GraphMask& mask,
                                              const std::vector<EdgeId>& f) {
  mask.clear();
  ftbfs::block_edges(mask, f);
  return bfs.run(kSource, &mask).hops;
}

}  // namespace

Graph host_graph(Vertex n, std::uint64_t seed) {
  return ftbfs::random_connected(n, static_cast<EdgeId>(3) * n, seed);
}

RequestPool make_hot_pool(const Graph& g, std::uint64_t seed) {
  ftbfs::Rng rng(seed * 0x9E3779B97F4A7C15ull + 1);
  ftbfs::Bfs bfs(g);
  ftbfs::GraphMask mask(g);
  std::vector<std::vector<EdgeId>> scenarios;
  std::vector<std::vector<std::uint32_t>> hops;
  for (std::size_t s = 0; s < kHotScenarios; ++s) {
    scenarios.push_back(random_faults(g, rng, 2));
    hops.push_back(bfs_without(bfs, mask, scenarios.back()));
  }
  RequestPool pool;
  for (std::size_t i = 0; i < kHotPoolSize; ++i) {
    const std::size_t s = i < kHotScenarios ? i : rng.next_below(kHotScenarios);
    const auto targets = random_targets(g, rng);
    pool.lines.push_back(request_line(g, i, targets, scenarios[s]));
    for (const Vertex t : targets) pool.expected.push_back(hops[s][t]);
  }
  return pool;
}

RequestPool make_fresh_pool(const Graph& g, std::uint64_t seed) {
  ftbfs::Rng rng(seed * 0x9E3779B97F4A7C15ull + 2);
  ftbfs::Bfs bfs(g);
  ftbfs::GraphMask mask(g);
  RequestPool pool;
  for (std::size_t i = 0; i < kFreshPoolSize; ++i) {
    const auto faults =
        random_faults(g, rng, 1 + static_cast<unsigned>(rng.next_below(2)));
    const auto targets = random_targets(g, rng);
    const auto& hops = bfs_without(bfs, mask, faults);
    pool.lines.push_back(request_line(g, i, targets, faults));
    for (const Vertex t : targets) pool.expected.push_back(hops[t]);
  }
  return pool;
}

}  // namespace perfbench
