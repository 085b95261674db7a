// Pinned structure identity: fixed (family, n, seed) instances whose kept
// edge set (an FNV-1a hash of the sorted ids, plus the count) and every
// FtBfsStats field are recorded in this file. The values were produced by the
// selector that answered each distance test with a full-graph BFS and each
// path selection with a full Dijkstra; the pair search (spath/bidir.h) must
// reproduce them exactly, at one job and at four. The f-failure rows were
// recorded when every fault chain's path came from a full Dijkstra too, and
// when the chain construction had no parallel schedule; they hold at one job
// and at four.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "core/cons2ftbfs.h"
#include "core/ftmbfs.h"
#include "core/kfail_ftbfs.h"
#include "core/single_ftbfs.h"
#include "graph/generators.h"

namespace ftbfs {
namespace {

// tree_edges, new_edges, max_new_per_vertex, fault_pairs_considered,
// dijkstra_runs, divergence_fallbacks, classes{single, a_pi_pi, b_nodet,
// c_indep, d_pi_interf, e_d_interf}, max_classes_per_vertex{same six}.
using StatsRow = std::array<std::uint64_t, 18>;

StatsRow stats_row(const FtBfsStats& s) {
  const PathClassCounts& c = s.classes;
  const PathClassCounts& m = s.max_classes_per_vertex;
  return {s.tree_edges,
          s.new_edges,
          s.max_new_per_vertex,
          s.fault_pairs_considered,
          s.dijkstra_runs,
          s.divergence_fallbacks,
          c.single,     c.a_pi_pi,    c.b_nodet,
          c.c_indep,    c.d_pi_interf, c.e_d_interf,
          m.single,     m.a_pi_pi,    m.b_nodet,
          m.c_indep,    m.d_pi_interf, m.e_d_interf};
}

std::uint64_t edge_hash(const std::vector<EdgeId>& edges) {
  std::uint64_t h = 1469598103934665603ull;  // FNV-1a offset basis
  for (const EdgeId e : edges) {
    h ^= e;
    h *= 1099511628211ull;
  }
  return h;
}

struct Pin {
  const char* algo;
  const char* family;
  std::size_t edges;
  std::uint64_t hash;
  StatsRow stats;
};

Graph make_family(const std::string& family) {
  if (family == "sparse") return random_connected(160, 480, 3);
  if (family == "sparse400") return random_connected(400, 1200, 11);
  if (family == "er") return erdos_renyi(90, 0.08, 5);
  if (family == "chords") return path_with_chords(100, 40, 7);
  if (family == "grid") return grid_graph(9, 9);
  if (family == "barbell") return barbell_graph(40, 3);
  if (family == "hypercube") return hypercube_graph(6);
  ADD_FAILURE() << "unknown family " << family;
  return path_graph(2);
}

// Single-source builds, source 0, default weight seed.
const Pin kSingleSource[] = {
    {"cons2ftbfs", "sparse", 377, 0xee71f5b1857f6a99ull,
     {159, 218, 2, 2667, 642, 0, 131, 0, 79, 8, 0, 0, 2, 0, 1, 1, 0, 0}},
    {"cons2ftbfs", "sparse400", 957, 0x434ec0de86b35f72ull,
     {399, 558, 2, 7471, 1725, 0, 327, 4, 220, 7, 0, 0, 2, 1, 1, 1, 0, 0}},
    {"cons2ftbfs", "er", 235, 0x6e60b03487ea5978ull,
     {89, 146, 3, 1115, 354, 0, 80, 0, 59, 7, 0, 0, 2, 0, 1, 1, 0, 0}},
    {"cons2ftbfs", "chords", 139, 0xa37bce2fabbc13c6ull,
     {99, 40, 2, 4732, 681, 0, 30, 1, 4, 5, 0, 0, 2, 1, 1, 1, 0, 0}},
    {"cons2ftbfs", "grid", 144, 0x9ba00b97d60c6d43ull,
     {80, 64, 2, 8626, 774, 0, 41, 5, 5, 13, 0, 0, 1, 1, 1, 1, 0, 0}},
    {"cons2ftbfs", "barbell", 105, 0xfc620d54258a35adull,
     {39, 66, 2, 228, 121, 0, 35, 0, 31, 0, 0, 0, 1, 0, 1, 0, 0, 0}},
    {"cons2ftbfs", "hypercube", 162, 0x99edd88ea3c9ca4aull,
     {63, 99, 2, 1040, 283, 0, 54, 0, 39, 6, 0, 0, 1, 0, 1, 1, 0, 0}},
    {"single_ftbfs", "sparse", 301, 0x5a8a96ffdea09b8dull,
     {159, 142, 2, 480, 479, 0, 142, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}},
    {"single_ftbfs", "sparse400", 752, 0x01eacde58910d33aull,
     {399, 353, 2, 1280, 1280, 0, 353, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}},
    {"single_ftbfs", "er", 172, 0x52ebd44b88f569cbull,
     {89, 83, 2, 231, 232, 0, 83, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}},
    {"single_ftbfs", "chords", 137, 0xfff23230cbdebf11ull,
     {99, 38, 2, 511, 512, 0, 38, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}},
    {"single_ftbfs", "grid", 144, 0x9ba00b97d60c6d43ull,
     {80, 64, 1, 648, 649, 0, 64, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}},
    {"single_ftbfs", "barbell", 75, 0xac1f74c3af02290dull,
     {39, 36, 1, 58, 59, 0, 36, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}},
    {"single_ftbfs", "hypercube", 120, 0xbe151f098e3db767ull,
     {63, 57, 1, 192, 193, 0, 57, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}},
};

struct MultiPin {
  Pin pin;
  std::vector<std::uint64_t> per_source_size;
};

// Multi-source unions over random_connected(100, 300, 9), sources {0, 17, 42}.
const MultiPin kMultiSource[] = {
    {{"cons2ftmbfs", "sparse", 298, 0xae4fe23e7735463full,
      {297, 439, 3, 4808, 1240, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}},
     {251, 238, 247}},
    {{"single_ftmbfs", "sparse", 282, 0x3f8ee02f885e7afbull,
      {297, 264, 2, 868, 871, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}},
     {189, 183, 189}},
};

struct KFailPin {
  Pin pin;
  unsigned f;
  std::uint64_t chains_enumerated;
  std::uint64_t chain_cap_hits;
};

// f-failure builds (edge and vertex faults), source 0, default options.
const KFailPin kKFail[] = {
    {{"kfail_ftbfs", "sparse400", 1028, 0xaca69d254822e07cull,
      {399, 629, 4, 6610, 6569, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}},
     2, 6610, 0},
    {{"kfail_ftbfs_vertex", "sparse400", 1022, 0x67633e47281f4064ull,
      {399, 623, 4, 3850, 3811, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}},
     2, 3850, 0},
    {{"kfail_ftbfs", "sparse", 407, 0xd41035f8b8525ee4ull,
      {159, 248, 4, 2392, 2377, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}},
     2, 2392, 0},
    {{"kfail_ftbfs_vertex", "sparse", 402, 0xe13661026c3f7418ull,
      {159, 243, 4, 1358, 1358, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}},
     2, 1358, 0},
    {{"kfail_ftbfs", "er", 273, 0xb5a9d0780b034dabull,
      {89, 184, 4, 1044, 1038, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}},
     2, 1044, 0},
    {{"kfail_ftbfs_vertex", "er", 265, 0x15dbf3fa72e86c9bull,
      {89, 176, 4, 542, 539, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}},
     2, 542, 0},
    {{"kfail_ftbfs", "grid", 144, 0x9ba00b97d60c6d43ull,
      {80, 64, 3, 7136, 5853, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}},
     2, 7136, 0},
    {{"kfail_ftbfs_vertex", "grid", 144, 0x9ba00b97d60c6d43ull,
      {80, 64, 2, 5808, 4737, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}},
     2, 5808, 0},
    {{"kfail_ftbfs", "hypercube", 164, 0xc1191253445c81ebull,
      {63, 101, 3, 939, 917, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}},
     2, 939, 0},
    {{"kfail_ftbfs_vertex", "hypercube", 165, 0x5e02b34d29b7cb38ull,
      {63, 102, 3, 543, 523, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}},
     2, 543, 0},
    {{"kfail_ftbfs", "chords", 139, 0xa37bce2fabbc13c6ull,
      {99, 40, 2, 4469, 4285, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}},
     2, 4469, 0},
    {{"kfail_ftbfs_vertex", "chords", 139, 0xa37bce2fabbc13c6ull,
      {99, 40, 2, 3295, 3134, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}},
     2, 3295, 0},
    {{"kfail_ftbfs", "barbell", 130, 0x22c29597cfc44e05ull,
      {39, 91, 4, 248, 249, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}},
     2, 248, 0},
    {{"kfail_ftbfs_vertex", "barbell", 76, 0xaefc507bd8dda008ull,
      {39, 37, 2, 94, 95, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}},
     2, 94, 0},
    {{"kfail_ftbfs", "sparse", 456, 0x3d38596a8d3e329cull,
      {159, 297, 4, 9349, 9139, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}},
     3, 9349, 0},
    {{"kfail_ftbfs_vertex", "sparse", 454, 0x9b27515a9175058full,
      {159, 295, 4, 4069, 3989, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}},
     3, 4069, 0},
    {{"kfail_ftbfs", "er", 333, 0x63738f373ef13d5aull,
      {89, 244, 6, 3503, 3406, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}},
     3, 3503, 0},
    {{"kfail_ftbfs_vertex", "er", 325, 0x23d2af50311a1441ull,
      {89, 236, 6, 1320, 1281, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}},
     3, 1320, 0},
    {{"kfail_ftbfs", "grid", 144, 0x9ba00b97d60c6d43ull,
      {80, 64, 2, 61619, 45027, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}},
     3, 61619, 0},
    {{"kfail_ftbfs_vertex", "grid", 144, 0x9ba00b97d60c6d43ull,
      {80, 64, 2, 46372, 33506, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}},
     3, 46372, 0},
    {{"kfail_ftbfs", "hypercube", 185, 0x2ead64a8229ea212ull,
      {63, 122, 4, 3606, 3420, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}},
     3, 3606, 0},
    {{"kfail_ftbfs_vertex", "hypercube", 185, 0x2ead64a8229ea212ull,
      {63, 122, 4, 1598, 1466, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}},
     3, 1598, 0},
    {{"kfail_ftbfs", "chords", 139, 0xa37bce2fabbc13c6ull,
      {99, 40, 2, 34428, 32009, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}},
     3, 34428, 0},
    {{"kfail_ftbfs_vertex", "chords", 139, 0xa37bce2fabbc13c6ull,
      {99, 40, 2, 22286, 20447, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}},
     3, 22286, 0},
    {{"kfail_ftbfs", "barbell", 165, 0xfe39671686d34a83ull,
      {39, 126, 6, 663, 664, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}},
     3, 663, 0},
    {{"kfail_ftbfs_vertex", "barbell", 76, 0xaefc507bd8dda008ull,
      {39, 37, 2, 166, 167, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}},
     3, 166, 0},
    {{"kfail_ftbfs", "sparse400", 1133, 0x6ce67c4d97619abfull,
      {399, 734, 5, 27115, 26758, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}},
     3, 27115, 0},
    {{"kfail_ftbfs_vertex", "sparse400", 1131, 0x9b183085f037f71bull,
      {399, 732, 5, 12078, 11834, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}},
     3, 12078, 0},
};

// `run` names the build's setting (jobs or f) in failure messages.
void expect_pin(const Pin& pin, const FtStructure& h, const std::string& run) {
  const std::string label =
      std::string(pin.algo) + " on " + pin.family + " " + run;
  EXPECT_EQ(h.edges.size(), pin.edges) << label;
  EXPECT_EQ(edge_hash(h.edges), pin.hash) << label;
  EXPECT_EQ(stats_row(h.stats), pin.stats) << label;
}

TEST(PinnedStructures, SingleSourceBuildsMatchRecordedOutput) {
  for (const unsigned jobs : {1u, 4u}) {
    const std::string run = "jobs=" + std::to_string(jobs);
    for (const Pin& pin : kSingleSource) {
      const Graph g = make_family(pin.family);
      const std::string algo = pin.algo;
      if (algo == "cons2ftbfs") {
        Cons2Options opt;
        opt.jobs = jobs;
        expect_pin(pin, build_cons2ftbfs(g, 0, opt), run);
      } else {
        ASSERT_EQ(algo, "single_ftbfs");
        SingleFtbfsOptions opt;
        opt.jobs = jobs;
        ParallelBuildReport report;
        opt.parallel_report = &report;
        expect_pin(pin, build_single_ftbfs(g, 0, opt), run);
        // Candidates never depend on H: no target is ever re-run.
        EXPECT_EQ(report.conflicts, 0u) << algo << " on " << pin.family;
      }
    }
  }
}

struct SchedulePin {
  const char* family;
  unsigned jobs;
  std::uint64_t blocks;
  std::uint64_t conflicts;
};

// cons2ftbfs's speculate-and-commit schedule, recorded before the sequential
// loop became one-target blocks of the same schedule.
const SchedulePin kCons2Schedule[] = {
    {"sparse", 2, 3, 39},
    {"sparse", 4, 2, 55},
    {"sparse400", 2, 7, 40},
    {"sparse400", 4, 4, 76},
};

TEST(PinnedStructures, Cons2ScheduleMatchesRecordedCounts) {
  for (const SchedulePin& sp : kCons2Schedule) {
    const Graph g = make_family(sp.family);
    Cons2Options opt;
    opt.jobs = sp.jobs;
    ParallelBuildReport report;
    opt.parallel_report = &report;
    const FtStructure h = build_cons2ftbfs(g, 0, opt);
    const std::string label =
        std::string(sp.family) + " jobs=" + std::to_string(sp.jobs);
    EXPECT_EQ(report.workers, sp.jobs) << label;
    EXPECT_EQ(report.blocks, sp.blocks) << label;
    EXPECT_EQ(report.conflicts, sp.conflicts) << label;
  }
}

TEST(PinnedStructures, MultiSourceBuildsMatchRecordedOutput) {
  const Graph g = random_connected(100, 300, 9);
  const std::vector<Vertex> sources = {0, 17, 42};
  for (const unsigned jobs : {1u, 4u}) {
    const std::string run = "jobs=" + std::to_string(jobs);
    FtMbfsOptions opt;
    opt.jobs = jobs;
    for (const MultiPin& mp : kMultiSource) {
      const std::string algo = mp.pin.algo;
      const FtMbfsResult r = algo == "cons2ftmbfs"
                                 ? build_cons2ftmbfs(g, sources, opt)
                                 : build_single_ftmbfs(g, sources, opt);
      expect_pin(mp.pin, r.structure, run);
      EXPECT_EQ(r.per_source_size, mp.per_source_size) << algo;
    }
  }
}

TEST(PinnedStructures, KFailBuildsMatchRecordedOutput) {
  for (const unsigned jobs : {1u, 4u}) {
    for (const KFailPin& kp : kKFail) {
      const Graph g = make_family(kp.pin.family);
      const std::string algo = kp.pin.algo;
      KFailOptions opt;
      opt.jobs = jobs;
      ParallelBuildReport report;
      opt.parallel_report = &report;
      const KFailResult r = algo == "kfail_ftbfs"
                                ? build_kfail_ftbfs(g, 0, kp.f, opt)
                                : build_kfail_ftbfs_vertex(g, 0, kp.f, opt);
      const std::string run =
          "f=" + std::to_string(kp.f) + " jobs=" + std::to_string(jobs);
      expect_pin(kp.pin, r.structure, run);
      const std::string label = algo + " on " + kp.pin.family + " " + run;
      EXPECT_EQ(r.kstats.chains_enumerated, kp.chains_enumerated) << label;
      EXPECT_EQ(r.kstats.chain_cap_hits, kp.chain_cap_hits) << label;
      // Chains never read H: no target is ever re-run.
      EXPECT_EQ(report.conflicts, 0u) << label;
    }
  }
}

}  // namespace
}  // namespace ftbfs
