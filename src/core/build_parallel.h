// The per-target construction schedule: one driver for every exact FT-BFS
// construction in the library, and the deterministic speculate-and-commit
// executor under it.
//
// Every such construction has one shape: take the W-unique BFS tree T0(s),
// then for each target v keep the last edges of selected replacement paths.
// `TargetBuild` owns that frame (the weight assignment W, T0(s), the target
// list, the kept-edge set H, the per-worker scratch, the outcome slots, the
// progress counter and the report); a construction supplies only its
// per-target run and its commit.
//
// The per-target work is almost independent: the only cross-target coupling
// is through H, and every read or write a target v performs on H touches only
// edges *incident to v* (the candidate last edges of replacement paths ending
// at v, and v's incident-edge whitelist E_τ(v)). That locality makes the
// following schedule produce output bit-identical to a plain target loop at
// any worker count (the determinism invariant the property tests enforce):
//
//   for each block of targets, in order:
//     1. speculate — workers run the per-target body in parallel against the
//        committed state frozen at block start (per-worker scratch, no writes
//        to shared state; work is claimed from an atomic cursor since
//        per-target cost varies by orders of magnitude);
//     2. commit — the main thread replays the recorded outcomes strictly in
//        target order. A target is *stale* iff an earlier commit in the same
//        block added an edge incident to it; a stale target discards its
//        speculative outcome and re-runs against the true state, which is
//        exactly the sequential semantics. A run that never reads H (single,
//        kfail) is never stale; only cons2 checks.
//
// A sequential build is the same schedule at one worker: every block is one
// target, speculated on the calling thread and committed straight away, so it
// can never be stale. Conflicts are rare at more workers — additions per block
// are few and each hits a later in-block target with probability ~ block/m —
// so the re-run tax is a few percent while the expensive speculation scales
// with cores. Blocks are a barrier: speculation never overlaps a commit, so
// the committed state needs no synchronization at all. docs/perf.md
// § "Parallel construction" has the full argument and measured speedups.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/ftbfs_common.h"
#include "core/selector.h"
#include "graph/graph.h"
#include "spath/dijkstra.h"
#include "spath/weights.h"

namespace ftbfs {

// Filled by the constructions; surfaced as registry counters so the CLI and
// benches can report the schedule (workers, conflict tax).
struct ParallelBuildReport {
  unsigned workers = 1;          // effective worker count after clamping
  std::uint64_t blocks = 0;      // speculation blocks executed
  std::uint64_t conflicts = 0;   // stale speculative outcomes re-run
};

// Options every construction on this schedule shares (the ftmbfs unions take
// exactly these).
struct ConstructionOptions {
  std::uint64_t weight_seed = 1;  // seed of the tie-breaking assignment W
  // Worker threads for the per-target schedule; 0 = auto (hardware), 1 =
  // sequential. The built structure and all stats are byte-identical at any
  // value.
  unsigned jobs = 1;
  // Optional: filled with the schedule actually used.
  ParallelBuildReport* parallel_report = nullptr;
};

// The single-source constructions' options (single_ftbfs, cons2ftbfs and
// kfail_ftbfs extend or use them).
struct TargetBuildOptions : ConstructionOptions {
  // Optional: incremented once per target vertex as its speculation finishes,
  // not at its commit: a block's commits land together, which would quantize
  // a sampled rate into block-sized steps (the bench_e13 n=10^5 jobs sweep
  // reads it from a forked child).
  std::atomic<std::uint64_t>* progress = nullptr;
};

// Targets speculated per block before the ordered commit barrier; exactly 1
// at one worker. `slot` arguments below are always < this.
[[nodiscard]] std::size_t speculative_block_size(unsigned workers);

// Runs the schedule above over `count` targets with `workers` >= 1 threads
// (the calling thread is worker 0).
//   on_block_start()            — before each block's speculation phase;
//   speculate(worker, idx, slot) — thread `worker` runs target `idx` against
//                                 the frozen state, recording into `slot`;
//   commit(idx, slot)           — calling thread, ascending idx, after every
//                                 worker of the block has finished.
// Fills report->{workers, blocks}; the caller owns `conflicts`.
void run_speculate_commit(
    std::size_t count, unsigned workers,
    const std::function<void()>& on_block_start,
    const std::function<void(unsigned worker, std::size_t idx,
                             std::size_t slot)>& speculate,
    const std::function<void(std::size_t idx, std::size_t slot)>& commit,
    ParallelBuildReport* report);

// One worker's scratch, reused across its targets.
struct TargetWorkspace {
  PathSelector sel;
  VertexIndexMap pi_pos;   // positions on π(s,v)
  VertexIndexMap aux_pos;  // positions on a second path (cons2's detours)
  TargetWorkspace(const Graph& g, const WeightAssignment& w)
      : sel(g, w), pi_pos(g.num_vertices()), aux_pos(g.num_vertices()) {}
};

// The shared frame of one single-source construction. The constructor
// assigns W, builds T0(s) and keeps its edges; run() drives every target
// through the schedule and returns H.
class TargetBuild {
 public:
  // Requires s < g.num_vertices().
  TargetBuild(const Graph& g, Vertex s, const TargetBuildOptions& opt);
  TargetBuild(const TargetBuild&) = delete;
  TargetBuild& operator=(const TargetBuild&) = delete;

  [[nodiscard]] const SpResult& tree() const { return tree_; }
  // The committed kept-edge set: T0(s) plus every committed target's edges.
  [[nodiscard]] const std::vector<bool>& in_h() const { return in_h_; }
  [[nodiscard]] FtBfsStats& stats() { return h_.stats; }
  // 1-based ordinal of the block being speculated or committed.
  [[nodiscard]] std::uint64_t block() const { return block_; }

  // Commit-side: adds e to H; returns whether it was new.
  bool keep(EdgeId e);

  // Runs every target (reached vertices other than s, ascending):
  //   run_target(ws, v) -> Outcome — on any worker, against the frozen H;
  //   commit(v, Outcome&&) -> edges newly kept — calling thread, in target
  //                                  order; applies the outcome with keep();
  //   stale(v)                    — optional; true if an earlier commit of
  //                                  the current block changed what v's run
  //                                  reads, so the run is repeated first.
  // W-path searches (stats.dijkstra_runs), new_edges and max_new_per_vertex
  // are counted here.
  template <typename Run, typename Commit>
  [[nodiscard]] FtStructure run(Run&& run_target, Commit&& commit,
                                const std::function<bool(Vertex)>& stale = {});

 private:
  using SpeculateFn =
      std::function<void(unsigned worker, std::size_t idx, std::size_t slot)>;
  using CommitFn = std::function<std::uint64_t(std::size_t idx,
                                               std::size_t slot, bool rerun)>;
  FtStructure schedule(const SpeculateFn& speculate, const CommitFn& commit,
                       const std::function<bool(Vertex)>& stale);

  const Graph& g_;
  std::atomic<std::uint64_t>* progress_;
  ParallelBuildReport* report_;
  WeightAssignment w_;
  std::vector<std::unique_ptr<TargetWorkspace>> pool_;  // one per worker
  SpResult tree_;
  std::vector<Vertex> targets_;
  std::vector<bool> in_h_;
  FtStructure h_;
  std::uint64_t block_ = 0;
};

template <typename Run, typename Commit>
FtStructure TargetBuild::run(Run&& run_target, Commit&& commit,
                             const std::function<bool(Vertex)>& stale) {
  using Outcome = std::invoke_result_t<Run&, TargetWorkspace&, Vertex>;
  struct Slot {
    Outcome out{};
    std::uint64_t searches = 0;
  };
  std::vector<Slot> slots(
      speculative_block_size(static_cast<unsigned>(pool_.size())));
  auto run_into = [&](TargetWorkspace& ws, Vertex v, Slot& slot) {
    const std::uint64_t d0 = ws.sel.dijkstra_runs();
    slot.out = run_target(ws, v);
    slot.searches = ws.sel.dijkstra_runs() - d0;
  };
  return schedule(
      [&](unsigned worker, std::size_t idx, std::size_t slot) {
        run_into(*pool_[worker], targets_[idx], slots[slot]);
      },
      [&](std::size_t idx, std::size_t slot, bool rerun) -> std::uint64_t {
        Slot& done = slots[slot];
        // The crew has joined, so worker 0's scratch is free for the re-run.
        if (rerun) run_into(*pool_[0], targets_[idx], done);
        h_.stats.dijkstra_runs += done.searches;
        return commit(targets_[idx], std::move(done.out));
      },
      stale);
}

}  // namespace ftbfs
