// Sensitivity queries through the typed serving API.
//
// A monitoring dashboard wants, for every (target, possibly-failed-link)
// pair, the exact distance the network would have — the classic distance-
// sensitivity workload ([5,2] in the paper's related work). One OracleService
// answers every request from its structure pool:
//   * the first request lazily builds the paper's dual-failure FT-BFS
//     structure for the source; every single- and dual-fault scenario is
//     then answered by a search of H ∖ F, with repeated scenarios hitting
//     the scenario cache;
//   * refusals as answers — an over-budget exact request comes back as
//     kBudgetExceeded, and the same request at best_effort consistency is
//     served from the identity engine instead of crashing.
// Next to it, the library's O(1)-per-query single-failure oracle
// (SingleFaultOracle) trades heavier preprocessing for constant-time point
// queries. The example runs the what-if matrix through the service and
// spot-checks both the service and the point oracle against an independent
// masked-BFS engine over the full graph; it exits nonzero on any
// disagreement.
#include <cstdio>
#include <vector>

#include "core/sensitivity_oracle.h"
#include "engine/query_engine.h"
#include "graph/generators.h"
#include "service/oracle_service.h"
#include "util/timer.h"

int main() {
  using namespace ftbfs;

  const Graph g = random_connected(/*n=*/300, /*m=*/900, /*seed=*/11);
  const Vertex noc = 0;  // network operations center
  std::printf("network: %s\n", describe(g).c_str());

  OracleService service(g);

  // The what-if matrix: every link against a sample of targets, as typed
  // single-fault distance requests — the first one builds the structure.
  std::vector<Vertex> targets;
  for (Vertex v = 1; v < g.num_vertices(); v += 29) targets.push_back(v);

  QueryRequest req;
  req.source = noc;
  req.targets = targets;
  req.kind = QueryKind::kDistance;

  Timer what_if;
  std::uint64_t answers = 0;
  std::uint64_t worst_increase = 0;
  EdgeId worst_edge = kInvalidEdge;
  QueryRequest baseline = req;
  const QueryResponse base = service.serve(baseline);  // fault-free distances
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    req.fault_edges = {e};
    const QueryResponse resp = service.serve(req);
    for (std::size_t j = 0; j < targets.size(); ++j) {
      ++answers;
      if (resp.distances[j] != kInfHops && base.distances[j] != kInfHops &&
          resp.distances[j] - base.distances[j] > worst_increase) {
        worst_increase = resp.distances[j] - base.distances[j];
        worst_edge = e;
      }
    }
  }
  const double matrix_time = what_if.seconds();
  std::printf("what-if matrix: %llu answers in %.3fs (%.0f ns each, "
              "structure build included), served by %s\n",
              static_cast<unsigned long long>(answers), matrix_time,
              1e9 * matrix_time / static_cast<double>(answers),
              base.served_by.c_str());

  Timer prep;
  const SingleFaultOracle point(g, noc);  // O(n·m) preprocessing
  std::printf("point oracle preprocessed in %.3fs (%llu table entries)\n",
              prep.seconds(),
              static_cast<unsigned long long>(point.table_entries()));

  // Spot-check the service and the point oracle against an independent
  // implementation: a masked BFS over the full graph per scenario.
  FaultQueryEngine ground_truth(g);
  auto lease = ground_truth.acquire_scratch();
  std::uint64_t agree = 0, checked = 0;
  for (EdgeId e = 0; e < g.num_edges(); e += 17) {
    req.fault_edges = {e};
    const QueryResponse resp = service.serve(req);
    const FaultSpec fault = edge_faults(req.fault_edges);
    for (std::size_t j = 0; j < targets.size(); ++j) {
      const std::uint32_t truth =
          ground_truth.distance(lease, noc, targets[j], fault);
      checked += 2;
      agree += (resp.distances[j] == truth) +
               (point.distance_avoiding(targets[j], e) == truth);
    }
  }
  std::printf("spot-check (service + point oracle) vs masked-BFS ground "
              "truth: %llu/%llu agree\n\n",
              static_cast<unsigned long long>(agree),
              static_cast<unsigned long long>(checked));

  // Dual-failure scenarios come from the same structure, and repeated
  // scenarios hit the cache.
  Timer dual_timer;
  req.fault_edges = {3, 57};
  const QueryResponse dual = service.serve(req);
  const double dual_cold = dual_timer.seconds();
  Timer cached_timer;
  const QueryResponse again = service.serve(req);
  const double dual_hot = cached_timer.seconds();
  std::printf("dual-fault scenario served by %s in %.6fs; "
              "repeat: cache_hit=%s in %.6fs\n",
              dual.served_by.c_str(), dual_cold,
              again.cache_hit ? "yes" : "no", dual_hot);

  // Over-budget scenarios: a refusal is an answer, not a crash.
  req.fault_edges = {1, 2, 3, 4, 5};
  const QueryResponse refused = service.serve(req);
  std::printf("5-fault exact request -> status=%s (%s)\n",
              to_string(refused.status), refused.error.c_str());
  req.consistency = Consistency::kBestEffort;
  const QueryResponse effort = service.serve(req);
  std::printf("same request at best_effort -> status=%s, served_by=%s\n",
              to_string(effort.status), effort.served_by.c_str());

  if (worst_edge != kInvalidEdge) {
    const Edge& e = g.edge(worst_edge);
    std::printf("\nmost critical link: (%u,%u) — failing it adds %llu hops "
                "to some route\n",
                e.u, e.v, static_cast<unsigned long long>(worst_increase));
  }
  const ServiceStats& stats = service.stats();
  std::printf("service totals: %llu requests, %llu refused, cache hit rate "
              "%.0f%%, pool size %zu\n",
              static_cast<unsigned long long>(stats.requests),
              static_cast<unsigned long long>(stats.refused),
              100.0 * stats.cache_hit_rate(), service.pool_size());
  return agree == checked ? 0 : 1;
}
