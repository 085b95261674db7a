// Ground truth for OracleService responses: every served (ok/disconnected)
// payload must equal the G∖F hop distances of an identity FaultQueryEngine
// over G running the full masked BFS (DeltaOptions{.enabled = false}, the
// engine's reference path). Pool structures are exact for the workloads the
// callers draw, so this checks the delta tiers, the delta-compressed cache
// lines and the routing at once. Path responses must be valid fault-avoiding
// walks in G of exactly the true length (the tie-break among equal-length
// paths is free).
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "engine/query_engine.h"
#include "graph/graph.h"
#include "service/protocol.h"

namespace ftbfs {

class ServiceTruth {
 public:
  explicit ServiceTruth(const Graph& g) : g_(&g), engine_(g) {
    engine_.set_delta_options({.enabled = false});
  }

  // EXPECTs that `resp` answers `req` exactly. Refusals carry no payload and
  // pass; returns whether the response was served.
  bool expect_matches(const QueryRequest& req, const QueryResponse& resp) {
    if (resp.status != StatusCode::kOk &&
        resp.status != StatusCode::kDisconnected) {
      return false;
    }
    EXPECT_TRUE(resp.exact) << "request " << req.id;
    const FaultSpec faults{req.fault_edges, req.fault_vertices};
    const std::vector<std::uint32_t> truth =
        engine_.all_distances(req.source, faults);
    if (req.kind == QueryKind::kAllDistances) {
      EXPECT_EQ(resp.distances, truth) << "request " << req.id;
      return true;
    }
    const bool shaped =
        resp.distances.size() == req.targets.size() &&
        (req.kind != QueryKind::kReachability ||
         resp.reachable.size() == req.targets.size()) &&
        (req.kind != QueryKind::kPath ||
         resp.paths.size() == req.targets.size());
    EXPECT_TRUE(shaped) << "request " << req.id << ": payload size";
    if (!shaped) return true;
    std::size_t unreachable = 0;
    for (std::size_t i = 0; i < req.targets.size(); ++i) {
      const Vertex t = req.targets[i];
      EXPECT_EQ(resp.distances[i], truth[t])
          << "request " << req.id << " target " << t;
      if (truth[t] == kInfHops) ++unreachable;
      if (req.kind == QueryKind::kReachability) {
        EXPECT_EQ(resp.reachable[i], truth[t] != kInfHops)
            << "request " << req.id << " target " << t;
      }
      if (req.kind == QueryKind::kPath) {
        expect_valid_path(req, faults, resp.paths[i], t, truth[t]);
      }
    }
    if (req.kind != QueryKind::kReachability) {
      EXPECT_EQ(resp.status == StatusCode::kDisconnected,
                !req.targets.empty() && unreachable == req.targets.size())
          << "request " << req.id;
    }
    return true;
  }

 private:
  void expect_valid_path(const QueryRequest& req, const FaultSpec& faults,
                         const Path& path, Vertex target, std::uint32_t hops) {
    if (hops == kInfHops) {
      EXPECT_TRUE(path.empty()) << "request " << req.id;
      return;
    }
    ASSERT_EQ(path.size(), static_cast<std::size_t>(hops) + 1)
        << "request " << req.id << " target " << target;
    EXPECT_EQ(path.front(), req.source);
    EXPECT_EQ(path.back(), target);
    for (std::size_t j = 0; j < path.size(); ++j) {
      EXPECT_EQ(std::count(faults.vertices.begin(), faults.vertices.end(),
                           path[j]),
                0)
          << "request " << req.id << " walks through a faulted vertex";
      if (j + 1 == path.size()) break;
      const EdgeId e = g_->find_edge(path[j], path[j + 1]);
      ASSERT_NE(e, kInvalidEdge) << "request " << req.id;
      EXPECT_EQ(std::count(faults.edges.begin(), faults.edges.end(), e), 0)
          << "request " << req.id << " walks a faulted edge";
    }
  }

  const Graph* g_;
  FaultQueryEngine engine_;
};

}  // namespace ftbfs
