// Pinned structure identity: fixed (family, n, seed) instances whose kept
// edge set (an FNV-1a hash of the sorted ids, plus the count) and every
// FtBfsStats field are recorded in this file. The values were produced by the
// selector that answered each distance test with a full-graph BFS and each
// path selection with a full Dijkstra; the pair search (spath/bidir.h) must
// reproduce them exactly, at one job and at four.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "core/cons2ftbfs.h"
#include "core/ftmbfs.h"
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

void expect_pin(const Pin& pin, const FtStructure& h, unsigned jobs) {
  const std::string label = std::string(pin.algo) + " on " + pin.family +
                            " jobs=" + std::to_string(jobs);
  EXPECT_EQ(h.edges.size(), pin.edges) << label;
  EXPECT_EQ(edge_hash(h.edges), pin.hash) << label;
  EXPECT_EQ(stats_row(h.stats), pin.stats) << label;
}

TEST(PinnedStructures, SingleSourceBuildsMatchRecordedOutput) {
  for (const unsigned jobs : {1u, 4u}) {
    for (const Pin& pin : kSingleSource) {
      const Graph g = make_family(pin.family);
      const std::string algo = pin.algo;
      if (algo == "cons2ftbfs") {
        Cons2Options opt;
        opt.jobs = jobs;
        expect_pin(pin, build_cons2ftbfs(g, 0, opt), jobs);
      } else {
        ASSERT_EQ(algo, "single_ftbfs");
        SingleFtbfsOptions opt;
        opt.jobs = jobs;
        expect_pin(pin, build_single_ftbfs(g, 0, opt), jobs);
      }
    }
  }
}

TEST(PinnedStructures, MultiSourceBuildsMatchRecordedOutput) {
  const Graph g = random_connected(100, 300, 9);
  const std::vector<Vertex> sources = {0, 17, 42};
  for (const unsigned jobs : {1u, 4u}) {
    FtMbfsOptions opt;
    opt.jobs = jobs;
    for (const MultiPin& mp : kMultiSource) {
      const std::string algo = mp.pin.algo;
      const FtMbfsResult r = algo == "cons2ftmbfs"
                                 ? build_cons2ftmbfs(g, sources, opt)
                                 : build_single_ftmbfs(g, sources, opt);
      expect_pin(mp.pin, r.structure, jobs);
      EXPECT_EQ(r.per_source_size, mp.per_source_size) << algo;
    }
  }
}

}  // namespace
}  // namespace ftbfs
