#include "core/build_parallel.h"

#include <algorithm>
#include <thread>

#include "util/assert.h"
#include "util/concurrency.h"

namespace ftbfs {

std::size_t speculative_block_size(unsigned workers) {
  // One worker commits each target as soon as it is run, so nothing can go
  // stale. Otherwise: large enough to amortize the per-block crew spawn and
  // keep every worker fed, small enough to keep the conflict tax
  // (~ additions * block / m) and the in-flight outcome memory bounded.
  if (workers == 1) return 1;
  return std::min<std::size_t>(
      1024, std::max<std::size_t>(64, std::size_t{workers} * 32));
}

void run_speculate_commit(
    std::size_t count, unsigned workers,
    const std::function<void()>& on_block_start,
    const std::function<void(unsigned worker, std::size_t idx,
                             std::size_t slot)>& speculate,
    const std::function<void(std::size_t idx, std::size_t slot)>& commit,
    ParallelBuildReport* report) {
  FTBFS_EXPECTS(workers >= 1);
  const std::size_t block = speculative_block_size(workers);
  std::atomic<std::size_t> cursor{0};
  std::vector<std::thread> crew;
  crew.reserve(workers - 1);
  for (std::size_t b0 = 0; b0 < count; b0 += block) {
    const std::size_t b1 = std::min(count, b0 + block);
    on_block_start();
    cursor.store(b0, std::memory_order_relaxed);
    auto work = [&, b0, b1](unsigned worker) {
      for (;;) {
        const std::size_t idx = cursor.fetch_add(1, std::memory_order_relaxed);
        if (idx >= b1) break;
        speculate(worker, idx, idx - b0);
      }
    };
    crew.clear();
    for (unsigned t = 1; t < workers; ++t) crew.emplace_back(work, t);
    work(0);
    for (std::thread& th : crew) th.join();
    for (std::size_t idx = b0; idx < b1; ++idx) commit(idx, idx - b0);
    if (report != nullptr) ++report->blocks;
  }
  if (report != nullptr) report->workers = workers;
}

TargetBuild::TargetBuild(const Graph& g, Vertex s,
                         const TargetBuildOptions& opt)
    : g_(g),
      progress_(opt.progress),
      report_(opt.parallel_report),
      w_(g, opt.weight_seed),
      in_h_(g.num_edges(), false) {
  FTBFS_EXPECTS(s < g.num_vertices());
  pool_.push_back(std::make_unique<TargetWorkspace>(g, w_));
  PathSelector& sel = pool_[0]->sel;
  sel.mask().clear();
  tree_ = sel.w_sssp(s);  // copy: later runs reuse the buffers
  h_.stats.dijkstra_runs = sel.dijkstra_runs();
  for (Vertex v = 0; v < g.num_vertices(); ++v) {
    if (v != s && tree_.reached(v)) {
      targets_.push_back(v);
      if (keep(tree_.parent_edge[v])) ++h_.stats.tree_edges;
    }
  }
  const unsigned workers = resolve_jobs(opt.jobs, targets_.size());
  while (pool_.size() < workers) {
    pool_.push_back(std::make_unique<TargetWorkspace>(g, w_));
  }
}

bool TargetBuild::keep(EdgeId e) {
  if (in_h_[e]) return false;
  in_h_[e] = true;
  return true;
}

FtStructure TargetBuild::schedule(const SpeculateFn& speculate,
                                  const CommitFn& commit,
                                  const std::function<bool(Vertex)>& stale) {
  ParallelBuildReport report;
  run_speculate_commit(
      targets_.size(), static_cast<unsigned>(pool_.size()),
      /*on_block_start=*/[&] { ++block_; },
      [&](unsigned worker, std::size_t idx, std::size_t slot) {
        speculate(worker, idx, slot);
        if (progress_ != nullptr) {
          progress_->fetch_add(1, std::memory_order_relaxed);
        }
      },
      [&](std::size_t idx, std::size_t slot) {
        const bool rerun = stale && stale(targets_[idx]);
        if (rerun) ++report.conflicts;
        const std::uint64_t added = commit(idx, slot, rerun);
        h_.stats.new_edges += added;
        h_.stats.max_new_per_vertex =
            std::max(h_.stats.max_new_per_vertex, added);
      },
      &report);
  if (report_ != nullptr) *report_ = report;

  for (EdgeId e = 0; e < g_.num_edges(); ++e) {
    if (in_h_[e]) h_.edges.push_back(e);
  }
  return std::move(h_);
}

}  // namespace ftbfs
