// Snapshot persistence — the versioned on-disk container for built serving
// state (ROADMAP "Persistence: zero-rebuild restarts and shippable
// structures", after ltsmin's GCF archive layer: a checksummed container of
// typed streams a tool can ship between runs).
//
// One .ftb file holds everything a process needs to serve without rebuilding:
//   * the input graph as raw CSR arrays (edge list, adjacency offsets, arcs),
//     loaded by memcpy + O(n+m) structural validation instead of re-parsing
//     and re-sorting an edge list;
//   * the built H structures of an OracleService pool — name, (source,
//     budget, fault model, exactness), provenance algorithm, and the kept
//     edge ids of G — in pool order, so a restored pool reproduces entry
//     indices, names, and routing byte-for-byte;
//   * per-(entry, source) baseline BFS trees (hops/parent/parent_edge), the
//     BFS discovery order, and the TreeIndex preorder positions + subtree
//     sizes the fault-delta query path classifies against;
//   * optionally, a warm image of the scenario cache: packed keys plus their
//     delta-compressed (or full) payloads.
//
// Layout (all integers little-endian):
//
//   [FileHeader]  magic "FTBSNAP1", format version, graph fingerprint
//                 (vertex count, edge count, 64-bit edge hash — the
//                 fail-closed identity check), section count, TOC offset,
//                 total file bytes, header CRC-32.
//   [sections]    each 8-byte aligned, payload encoded by ByteWriter.
//   [TOC]         per section {tag, offset, bytes, CRC-32}, then a CRC-32
//                 over the TOC itself.
//
// Loading mmaps the file read-only (graceful fallback to one buffered read
// when mmap is unavailable) and parses with bounds-checked cursors: a
// corrupted, truncated, or wrong-version file is rejected with a typed
// SnapshotError — never undefined behavior. Checksums are verified per
// section before any payload is trusted; structural validation (offsets
// monotone, ids in range, trees well-formed) runs after, so even a file
// crafted to pass its CRCs cannot drive an out-of-bounds index into the
// engine. Versioning policy and the mmap-vs-buffered trade-off are documented
// in docs/persistence.md.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/ftbfs_common.h"
#include "graph/graph.h"

namespace ftbfs {

// Why a snapshot was rejected. kGraphMismatch is the fail-closed bugfix path:
// a snapshot built from a different graph (fingerprint mismatch) must refuse
// to serve, not serve wrong answers.
enum class SnapshotStatus {
  kIoError,        // open/stat/read failed
  kBadMagic,       // not a snapshot file
  kBadVersion,     // a format version this build does not read
  kTruncated,      // file shorter than its header/TOC claims
  kChecksum,       // a section's CRC-32 does not match
  kMalformed,      // structurally invalid payload (ids out of range, ...)
  kGraphMismatch,  // snapshot fingerprint != the graph it is asked to serve
};

[[nodiscard]] const char* to_string(SnapshotStatus status);

class SnapshotError : public std::runtime_error {
 public:
  SnapshotError(SnapshotStatus status, const std::string& message)
      : std::runtime_error(std::string(to_string(status)) + ": " + message),
        status_(status) {}

  [[nodiscard]] SnapshotStatus status() const { return status_; }

 private:
  SnapshotStatus status_;
};

// Identity of a graph for snapshot compatibility: shape plus an order-
// sensitive FNV-1a hash over the edge list. Two graphs serve interchangeably
// iff their fingerprints match (edge ids — the fault vocabulary of the wire
// protocol — are positional, so edge order matters, not just the edge set).
struct GraphFingerprint {
  std::uint32_t vertices = 0;
  std::uint32_t edges = 0;
  std::uint64_t edge_hash = 0;

  friend bool operator==(const GraphFingerprint&,
                         const GraphFingerprint&) = default;
};

[[nodiscard]] GraphFingerprint fingerprint_of(const Graph& g);

// Human-readable "n=..., m=..., hash=..." for mismatch diagnostics.
[[nodiscard]] std::string describe(const GraphFingerprint& fp);

inline constexpr std::uint32_t kSnapshotVersion = 1;

// --- portable image types --------------------------------------------------
// The in-memory mirror of one snapshot file. service_io.h converts between
// this and a live OracleService; the CLI and tests go through the image so
// the byte format has exactly one reader and one writer.

struct EntryImage {
  std::string name;       // pool entry name (served_by attribution)
  std::string algorithm;  // BuilderRegistry provenance; "" when unknown
  Vertex source = 0;
  unsigned budget = 0;
  FaultModel model = FaultModel::kEdge;
  bool exact = true;
  std::vector<EdgeId> edges;  // kept edge ids of G, sorted unique
};

struct BaselineImage {
  std::uint32_t entry = 0;  // pool entry index (0 = identity engine)
  Vertex source = 0;
  // The fault-free BFS over the entry's H, in the engine's own layout.
  std::vector<std::uint32_t> hops;
  std::vector<Vertex> parent;
  std::vector<EdgeId> parent_edge;
  std::vector<Vertex> visit_order;  // BFS discovery order (repair tie-break)
  // TreeIndex preorder positions + subtree sizes; stored so a loaded baseline
  // can be cross-checked against the index rebuilt from the tree — a
  // mismatch means the sections disagree and the file is rejected.
  std::vector<std::uint32_t> preorder_pos;
  std::vector<std::uint32_t> subtree_size;
};

struct CacheLineImage {
  std::vector<std::uint32_t> key_words;  // packed scenario key (entry first)
  bool delta = false;
  std::vector<std::uint32_t> hops;  // full form (delta == false)
  std::vector<std::uint64_t> diff;  // delta form: (vertex << 32 | hop) sorted
};

struct SnapshotImage {
  Graph graph;
  std::vector<EntryImage> entries;
  std::vector<BaselineImage> baselines;
  std::vector<CacheLineImage> cache_lines;
};

// --- save / load -----------------------------------------------------------

// Writes `image` to `path` (atomically: a temp file renamed into place, so a
// crash mid-save never leaves a half-written snapshot under the real name).
// Throws SnapshotError(kIoError) on filesystem failure.
void save_snapshot(const std::string& path, const SnapshotImage& image);

struct SnapshotLoadOptions {
  // Require the snapshot's graph fingerprint to equal *expect (fail closed
  // with kGraphMismatch otherwise). Null skips the check.
  const GraphFingerprint* expect = nullptr;
};

// Parses, checksums, and structurally validates the file; throws
// SnapshotError on any defect. The returned image owns all its memory (the
// mapping is released before returning).
[[nodiscard]] SnapshotImage load_snapshot(const std::string& path,
                                          const SnapshotLoadOptions& options = {});

// Reads and validates only the header; the cheap pre-flight for manifest
// loading and `serve --load` fingerprint checks.
[[nodiscard]] GraphFingerprint peek_snapshot_fingerprint(
    const std::string& path);

// Approximate in-memory bytes of the state the image captures (CSR arrays,
// per-entry structures, baselines, cache payloads). The CI artifact gate
// holds the snapshot file below 2x this figure.
[[nodiscard]] std::uint64_t image_resident_bytes(const SnapshotImage& image);

// CRC-32 (IEEE, reflected 0xEDB88320), the per-section checksum. Exposed for
// tests, which corrupt sections and must know what the loader recomputes.
[[nodiscard]] std::uint32_t crc32(const void* data, std::size_t size,
                                  std::uint32_t seed = 0);

}  // namespace ftbfs
