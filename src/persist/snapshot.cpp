#include "persist/snapshot.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <span>
#include <thread>
#include <utility>

#include "util/failpoint.h"

namespace ftbfs {

namespace {

// 8 bytes: product + container generation. Bumping the trailing digit is a
// full break (readers reject); in-place evolution goes through the version
// field + new section tags instead (docs/persistence.md "Versioning").
constexpr std::array<char, 8> kMagic = {'F', 'T', 'B', 'S', 'N', 'A', 'P', '1'};

constexpr std::uint32_t kSectionGraph = 1;
constexpr std::uint32_t kSectionEntries = 2;
constexpr std::uint32_t kSectionBaselines = 3;
constexpr std::uint32_t kSectionCache = 4;

// Fixed-size header prefix covered by the header CRC. 48 bytes, followed by
// the 4-byte CRC itself.
constexpr std::size_t kHeaderBytes = 48;
constexpr std::size_t kHeaderWithCrc = kHeaderBytes + 4;
// Per-section TOC record: tag, pad, offset, bytes, crc, pad.
constexpr std::size_t kTocRecordBytes = 32;

[[noreturn]] void fail(SnapshotStatus status, const std::string& why) {
  throw SnapshotError(status, why);
}

// --- little-endian scalar codec --------------------------------------------
// The format is defined little-endian; these helpers keep the file portable
// without betting the loader on the host byte order.

void put_u32(std::vector<char>& out, std::uint32_t v) {
  out.push_back(static_cast<char>(v & 0xff));
  out.push_back(static_cast<char>((v >> 8) & 0xff));
  out.push_back(static_cast<char>((v >> 16) & 0xff));
  out.push_back(static_cast<char>((v >> 24) & 0xff));
}

void put_u64(std::vector<char>& out, std::uint64_t v) {
  put_u32(out, static_cast<std::uint32_t>(v));
  put_u32(out, static_cast<std::uint32_t>(v >> 32));
}

std::uint32_t read_u32(const unsigned char* p) {
  return static_cast<std::uint32_t>(p[0]) |
         (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) |
         (static_cast<std::uint32_t>(p[3]) << 24);
}

std::uint64_t read_u64(const unsigned char* p) {
  return static_cast<std::uint64_t>(read_u32(p)) |
         (static_cast<std::uint64_t>(read_u32(p + 4)) << 32);
}

// --- section payload writer ------------------------------------------------

struct ByteWriter {
  std::vector<char> bytes;

  void u8(std::uint8_t v) { bytes.push_back(static_cast<char>(v)); }
  void u32(std::uint32_t v) { put_u32(bytes, v); }
  void u64(std::uint64_t v) { put_u64(bytes, v); }

  void str(const std::string& s) {
    u32(static_cast<std::uint32_t>(s.size()));
    bytes.insert(bytes.end(), s.begin(), s.end());
  }

  // Bulk arrays are the hot 90% of a snapshot; memcpy them on little-endian
  // hosts, spell out the conversion elsewhere. An empty array may have a
  // null data() and memcpy's pointers must be valid even for zero bytes, so
  // empty arrays skip the copy (here and in ByteReader).
  void u32_array(std::span<const std::uint32_t> v) {
    u32(static_cast<std::uint32_t>(v.size()));
    if (v.empty()) return;
    if constexpr (std::endian::native == std::endian::little) {
      const std::size_t old = bytes.size();
      bytes.resize(old + v.size_bytes());
      std::memcpy(bytes.data() + old, v.data(), v.size_bytes());
    } else {
      for (const std::uint32_t x : v) u32(x);
    }
  }

  void u64_array(std::span<const std::uint64_t> v) {
    u32(static_cast<std::uint32_t>(v.size()));
    if (v.empty()) return;
    if constexpr (std::endian::native == std::endian::little) {
      const std::size_t old = bytes.size();
      bytes.resize(old + v.size_bytes());
      std::memcpy(bytes.data() + old, v.data(), v.size_bytes());
    } else {
      for (const std::uint64_t x : v) u64(x);
    }
  }
};

// --- bounds-checked section reader -----------------------------------------
// Every get throws instead of reading past the section: a crafted length
// field can ask for anything, the cursor refuses anything the section does
// not contain.

struct ByteReader {
  const unsigned char* p;
  const unsigned char* end;
  const char* what;  // section name for error messages

  void need(std::size_t n) const {
    if (static_cast<std::size_t>(end - p) < n) {
      fail(SnapshotStatus::kMalformed,
           std::string(what) + " section ends mid-record");
    }
  }

  std::uint8_t u8() {
    need(1);
    return *p++;
  }

  std::uint32_t u32() {
    need(4);
    const std::uint32_t v = read_u32(p);
    p += 4;
    return v;
  }

  std::uint64_t u64() {
    need(8);
    const std::uint64_t v = read_u64(p);
    p += 8;
    return v;
  }

  std::string str(std::size_t max_len) {
    const std::uint32_t len = u32();
    if (len > max_len) {
      fail(SnapshotStatus::kMalformed,
           std::string(what) + " string length " + std::to_string(len) +
               " exceeds the format cap");
    }
    need(len);
    std::string out(reinterpret_cast<const char*>(p), len);
    p += len;
    return out;
  }

  std::vector<std::uint32_t> u32_array(std::size_t max_count) {
    const std::uint32_t count = u32();
    if (count > max_count) {
      fail(SnapshotStatus::kMalformed,
           std::string(what) + " array of " + std::to_string(count) +
               " words exceeds the section's plausible size");
    }
    need(static_cast<std::size_t>(count) * 4);
    std::vector<std::uint32_t> out(count);
    if (count == 0) return out;
    if constexpr (std::endian::native == std::endian::little) {
      std::memcpy(out.data(), p, static_cast<std::size_t>(count) * 4);
      p += static_cast<std::size_t>(count) * 4;
    } else {
      for (std::uint32_t& x : out) x = u32();
    }
    return out;
  }

  std::vector<std::uint64_t> u64_array(std::size_t max_count) {
    const std::uint32_t count = u32();
    if (count > max_count) {
      fail(SnapshotStatus::kMalformed,
           std::string(what) + " array of " + std::to_string(count) +
               " words exceeds the section's plausible size");
    }
    need(static_cast<std::size_t>(count) * 8);
    std::vector<std::uint64_t> out(count);
    if (count == 0) return out;
    if constexpr (std::endian::native == std::endian::little) {
      std::memcpy(out.data(), p, static_cast<std::size_t>(count) * 8);
      p += static_cast<std::size_t>(count) * 8;
    } else {
      for (std::uint64_t& x : out) x = u64();
    }
    return out;
  }

  void done() const {
    if (p != end) {
      fail(SnapshotStatus::kMalformed,
           std::string(what) + " section has trailing bytes");
    }
  }
};

// --- file access -----------------------------------------------------------

// The whole file as a readable span: an mmap when the platform grants one, a
// buffered read into owned memory otherwise. Either way the loader parses
// one contiguous byte range with the same bounds-checked cursors.
class FileBytes {
 public:
  explicit FileBytes(const std::string& path) {
    const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
    if (fd < 0) {
      fail(SnapshotStatus::kIoError,
           "cannot open '" + path + "': " + std::strerror(errno));
    }
    struct stat st = {};
    if (::fstat(fd, &st) != 0 || st.st_size < 0) {
      const int err = errno;
      ::close(fd);
      fail(SnapshotStatus::kIoError,
           "cannot stat '" + path + "': " + std::strerror(err));
    }
    size_ = static_cast<std::size_t>(st.st_size);
    if (size_ > 0) {
      // Failpoint `persist.mmap`: simulate mmap failing (filesystem without
      // mapping support) so the buffered fallback below stays exercised.
      static fp::Failpoint& fp_mmap = fp::site("persist.mmap");
      void* map = fp::fail_errno(fp_mmap) != 0
                      ? MAP_FAILED
                      : ::mmap(nullptr, size_, PROT_READ, MAP_PRIVATE, fd, 0);
      if (map != MAP_FAILED) {
        map_ = map;
        data_ = static_cast<const unsigned char*>(map);
        ::close(fd);
        return;
      }
      // Graceful fallback: mmap can legitimately fail (filesystem without
      // mapping support, exhausted address space); a buffered read serves
      // the same bytes, just without demand paging.
    }
    owned_.resize(size_);
    std::size_t off = 0;
    while (off < size_) {
      const ssize_t got = ::read(fd, owned_.data() + off, size_ - off);
      if (got < 0 && errno == EINTR) continue;
      if (got <= 0) {
        const int err = errno;
        ::close(fd);
        fail(SnapshotStatus::kIoError,
             "short read of '" + path + "': " + std::strerror(err));
      }
      off += static_cast<std::size_t>(got);
    }
    ::close(fd);
    data_ = owned_.data();
  }

  FileBytes(const FileBytes&) = delete;
  FileBytes& operator=(const FileBytes&) = delete;

  ~FileBytes() {
    if (map_ != nullptr) ::munmap(map_, size_);
  }

  [[nodiscard]] const unsigned char* data() const { return data_; }
  [[nodiscard]] std::size_t size() const { return size_; }

 private:
  void* map_ = nullptr;
  std::vector<unsigned char> owned_;
  const unsigned char* data_ = nullptr;
  std::size_t size_ = 0;
};

struct TocEntry {
  std::uint32_t tag = 0;
  std::uint64_t offset = 0;
  std::uint64_t bytes = 0;
  std::uint32_t crc = 0;
};

struct ParsedHeader {
  std::uint32_t version = 0;
  GraphFingerprint fingerprint;
  std::vector<TocEntry> toc;
};

// Validates magic/version/CRC/bounds and returns the TOC. Shared by the full
// loader and the header-only fingerprint peek.
ParsedHeader parse_header(const unsigned char* data, std::size_t size) {
  if (size < kHeaderWithCrc) {
    fail(SnapshotStatus::kTruncated,
         "file of " + std::to_string(size) + " bytes has no complete header");
  }
  if (std::memcmp(data, kMagic.data(), kMagic.size()) != 0) {
    fail(SnapshotStatus::kBadMagic, "not an ftbfs snapshot (magic mismatch)");
  }
  const std::uint32_t header_crc = read_u32(data + kHeaderBytes);
  if (crc32(data, kHeaderBytes) != header_crc) {
    fail(SnapshotStatus::kChecksum, "header CRC mismatch");
  }
  ParsedHeader h;
  h.version = read_u32(data + 8);
  if (h.version != kSnapshotVersion) {
    fail(SnapshotStatus::kBadVersion,
         "snapshot format v" + std::to_string(h.version) +
             "; this build reads v" + std::to_string(kSnapshotVersion));
  }
  const std::uint32_t section_count = read_u32(data + 12);
  h.fingerprint.vertices = read_u32(data + 16);
  h.fingerprint.edges = read_u32(data + 20);
  h.fingerprint.edge_hash = read_u64(data + 24);
  const std::uint64_t toc_offset = read_u64(data + 32);
  const std::uint64_t file_bytes = read_u64(data + 40);
  if (file_bytes != size) {
    fail(SnapshotStatus::kTruncated,
         "header says " + std::to_string(file_bytes) + " bytes, file has " +
             std::to_string(size));
  }
  // TOC bounds: section_count is attacker-controlled until the multiply is
  // checked, so do the arithmetic in a form that cannot overflow.
  if (section_count > 1024) {
    fail(SnapshotStatus::kMalformed,
         std::to_string(section_count) + " sections exceeds the format cap");
  }
  const std::uint64_t toc_bytes =
      static_cast<std::uint64_t>(section_count) * kTocRecordBytes + 4;
  if (toc_offset > size || toc_bytes > size - toc_offset) {
    fail(SnapshotStatus::kTruncated, "table of contents out of bounds");
  }
  const unsigned char* toc = data + toc_offset;
  const std::uint32_t toc_crc =
      read_u32(toc + static_cast<std::size_t>(section_count) * kTocRecordBytes);
  if (crc32(toc, static_cast<std::size_t>(section_count) * kTocRecordBytes) !=
      toc_crc) {
    fail(SnapshotStatus::kChecksum, "table of contents CRC mismatch");
  }
  h.toc.reserve(section_count);
  for (std::uint32_t i = 0; i < section_count; ++i) {
    const unsigned char* rec = toc + static_cast<std::size_t>(i) * kTocRecordBytes;
    TocEntry e;
    e.tag = read_u32(rec);
    e.offset = read_u64(rec + 8);
    e.bytes = read_u64(rec + 16);
    e.crc = read_u32(rec + 24);
    if (e.offset > size || e.bytes > size - e.offset) {
      fail(SnapshotStatus::kTruncated,
           "section " + std::to_string(e.tag) + " out of bounds");
    }
    h.toc.push_back(e);
  }
  return h;
}

// --- section encoders ------------------------------------------------------

void encode_graph(ByteWriter& w, const Graph& g) {
  w.u32(g.num_vertices());
  w.u32(g.num_edges());
  std::vector<std::uint32_t> flat;
  flat.reserve(static_cast<std::size_t>(g.num_edges()) * 2);
  for (const Edge& e : g.edges()) {
    flat.push_back(e.u);
    flat.push_back(e.v);
  }
  w.u32_array(flat);
  std::vector<std::uint32_t> offsets;
  offsets.reserve(g.num_vertices() + 1);
  std::uint32_t running = 0;
  offsets.push_back(0);
  for (Vertex v = 0; v < g.num_vertices(); ++v) {
    running += g.degree(v);
    offsets.push_back(running);
  }
  w.u32_array(offsets);
  flat.clear();
  flat.reserve(static_cast<std::size_t>(g.num_edges()) * 4);
  for (Vertex v = 0; v < g.num_vertices(); ++v) {
    for (const Arc& a : g.neighbors(v)) {
      flat.push_back(a.to);
      flat.push_back(a.id);
    }
  }
  w.u32_array(flat);
}

Graph decode_graph(ByteReader& r) {
  const std::uint32_t n = r.u32();
  const std::uint32_t m = r.u32();
  const std::vector<std::uint32_t> flat_edges =
      r.u32_array(static_cast<std::size_t>(m) * 2);
  const std::vector<std::uint32_t> offsets =
      r.u32_array(static_cast<std::size_t>(n) + 1);
  const std::vector<std::uint32_t> flat_arcs =
      r.u32_array(static_cast<std::size_t>(m) * 4);
  if (flat_edges.size() != static_cast<std::size_t>(m) * 2 ||
      offsets.size() != static_cast<std::size_t>(n) + 1 ||
      flat_arcs.size() != static_cast<std::size_t>(m) * 4) {
    fail(SnapshotStatus::kMalformed, "graph array sizes disagree with n/m");
  }
  std::vector<Edge> edges(m);
  for (std::uint32_t e = 0; e < m; ++e) {
    edges[e] = Edge{flat_edges[2 * e], flat_edges[2 * e + 1]};
    if (edges[e].u >= edges[e].v || edges[e].v >= n) {
      fail(SnapshotStatus::kMalformed,
           "graph edge " + std::to_string(e) + " is not canonical (u < v < n)");
    }
  }
  if (offsets.front() != 0 ||
      offsets.back() != static_cast<std::uint32_t>(2) * m) {
    fail(SnapshotStatus::kMalformed, "graph adjacency offsets are inconsistent");
  }
  std::vector<Arc> arcs(static_cast<std::size_t>(m) * 2);
  for (std::uint32_t v = 0; v < n; ++v) {
    if (offsets[v] > offsets[v + 1]) {
      fail(SnapshotStatus::kMalformed, "graph adjacency offsets decrease");
    }
    Vertex prev = kInvalidVertex;
    for (std::uint32_t i = offsets[v]; i < offsets[v + 1]; ++i) {
      const Vertex to = flat_arcs[2 * i];
      const EdgeId id = flat_arcs[2 * i + 1];
      if (to >= n || id >= m) {
        fail(SnapshotStatus::kMalformed, "graph arc ids out of range");
      }
      const Edge& e = edges[id];
      if (!((e.u == v && e.v == to) || (e.v == v && e.u == to))) {
        fail(SnapshotStatus::kMalformed,
             "graph arc does not match its edge's endpoints");
      }
      // Sorted, duplicate-free adjacency is a Graph invariant every consumer
      // (find_edge's binary search, deterministic BFS order) relies on.
      if (prev != kInvalidVertex && to <= prev) {
        fail(SnapshotStatus::kMalformed, "graph adjacency is not sorted");
      }
      prev = to;
      arcs[i] = Arc{to, id};
    }
  }
  return Graph::from_csr_unchecked(n, std::move(edges),
                                   std::vector<std::uint32_t>(offsets),
                                   std::move(arcs));
}

void encode_entries(ByteWriter& w, const std::vector<EntryImage>& entries) {
  w.u32(static_cast<std::uint32_t>(entries.size()));
  for (const EntryImage& e : entries) {
    w.str(e.name);
    w.str(e.algorithm);
    w.u32(e.source);
    w.u32(e.budget);
    w.u8(e.model == FaultModel::kVertex ? 1 : 0);
    w.u8(e.exact ? 1 : 0);
    w.u32_array(e.edges);
  }
}

std::vector<EntryImage> decode_entries(ByteReader& r, const Graph& g) {
  const std::uint32_t count = r.u32();
  if (count > 1u << 20) {
    fail(SnapshotStatus::kMalformed, "implausible entry count");
  }
  std::vector<EntryImage> out;
  out.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    EntryImage e;
    e.name = r.str(4096);
    e.algorithm = r.str(4096);
    if (e.name.empty()) {
      fail(SnapshotStatus::kMalformed, "entry with an empty name");
    }
    e.source = r.u32();
    e.budget = r.u32();
    const std::uint8_t model = r.u8();
    if (model > 1) {
      fail(SnapshotStatus::kMalformed, "entry fault model byte out of range");
    }
    e.model = model == 1 ? FaultModel::kVertex : FaultModel::kEdge;
    const std::uint8_t exact = r.u8();
    if (exact > 1) {
      fail(SnapshotStatus::kMalformed, "entry exact byte out of range");
    }
    e.exact = exact == 1;
    e.edges = r.u32_array(g.num_edges());
    if (e.source >= g.num_vertices()) {
      fail(SnapshotStatus::kMalformed,
           "entry '" + e.name + "' source out of range");
    }
    EdgeId prev = kInvalidEdge;
    for (const EdgeId id : e.edges) {
      if (id >= g.num_edges() || (prev != kInvalidEdge && id <= prev)) {
        fail(SnapshotStatus::kMalformed,
             "entry '" + e.name + "' edge list is not sorted unique in range");
      }
      prev = id;
    }
    out.push_back(std::move(e));
  }
  return out;
}

void encode_baselines(ByteWriter& w,
                      const std::vector<BaselineImage>& baselines) {
  w.u32(static_cast<std::uint32_t>(baselines.size()));
  for (const BaselineImage& b : baselines) {
    w.u32(b.entry);
    w.u32(b.source);
    w.u32_array(b.hops);
    w.u32_array(b.parent);
    w.u32_array(b.parent_edge);
    w.u32_array(b.visit_order);
    w.u32_array(b.preorder_pos);
    w.u32_array(b.subtree_size);
  }
}

std::vector<BaselineImage> decode_baselines(ByteReader& r, const Graph& g,
                                            std::size_t entry_count) {
  const std::uint32_t count = r.u32();
  if (count > 1u << 20) {
    fail(SnapshotStatus::kMalformed, "implausible baseline count");
  }
  const std::size_t n = g.num_vertices();
  std::vector<BaselineImage> out;
  out.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    BaselineImage b;
    b.entry = r.u32();
    b.source = r.u32();
    b.hops = r.u32_array(n);
    b.parent = r.u32_array(n);
    b.parent_edge = r.u32_array(n);
    b.visit_order = r.u32_array(n);
    b.preorder_pos = r.u32_array(n);
    b.subtree_size = r.u32_array(n);
    // Shape checks only; the tree itself is validated against the entry's H
    // at install time (service_io.cpp), where the subgraph exists.
    if (b.entry > entry_count ||  // entry 0 is the identity engine
        b.source >= n || b.hops.size() != n || b.parent.size() != n ||
        b.parent_edge.size() != n || b.preorder_pos.size() != n ||
        b.subtree_size.size() != n || b.visit_order.empty() ||
        b.visit_order.size() > n) {
      fail(SnapshotStatus::kMalformed,
           "baseline " + std::to_string(i) + " has inconsistent shape");
    }
    out.push_back(std::move(b));
  }
  return out;
}

void encode_cache(ByteWriter& w, const std::vector<CacheLineImage>& lines) {
  w.u32(static_cast<std::uint32_t>(lines.size()));
  for (const CacheLineImage& line : lines) {
    w.u32_array(line.key_words);
    w.u8(line.delta ? 1 : 0);
    if (line.delta) {
      w.u64_array(line.diff);
    } else {
      w.u32_array(line.hops);
    }
  }
}

std::vector<CacheLineImage> decode_cache(ByteReader& r, const Graph& g,
                                         std::size_t entry_count) {
  const std::uint32_t count = r.u32();
  if (count > 1u << 22) {
    fail(SnapshotStatus::kMalformed, "implausible cache line count");
  }
  const std::size_t n = g.num_vertices();
  std::vector<CacheLineImage> out;
  out.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    CacheLineImage line;
    line.key_words = r.u32_array(static_cast<std::size_t>(n) + 64);
    const std::uint8_t kind = r.u8();
    if (kind > 1) {
      fail(SnapshotStatus::kMalformed, "cache line kind byte out of range");
    }
    line.delta = kind == 1;
    if (line.delta) {
      line.diff = r.u64_array(n);
      std::uint64_t prev_vertex = ~0ull;
      for (const std::uint64_t packed : line.diff) {
        const std::uint64_t v = packed >> 32;
        if (v >= n || (prev_vertex != ~0ull && v <= prev_vertex)) {
          fail(SnapshotStatus::kMalformed,
               "cache line diff is not sorted by in-range vertex");
        }
        prev_vertex = v;
      }
    } else {
      line.hops = r.u32_array(n);
      if (line.hops.size() != n) {
        fail(SnapshotStatus::kMalformed,
             "full cache line does not cover every vertex");
      }
    }
    // Keys are [entry, source, projected-edge-count, ...]; anything shorter
    // could not have been produced by OracleService::cache_key.
    if (line.key_words.size() < 3 || line.key_words[0] > entry_count ||
        line.key_words[1] >= n) {
      fail(SnapshotStatus::kMalformed,
           "cache line key does not name a pool entry and source");
    }
    out.push_back(std::move(line));
  }
  return out;
}

}  // namespace

const char* to_string(SnapshotStatus status) {
  switch (status) {
    case SnapshotStatus::kIoError: return "snapshot io error";
    case SnapshotStatus::kBadMagic: return "snapshot bad magic";
    case SnapshotStatus::kBadVersion: return "snapshot version unsupported";
    case SnapshotStatus::kTruncated: return "snapshot truncated";
    case SnapshotStatus::kChecksum: return "snapshot checksum mismatch";
    case SnapshotStatus::kMalformed: return "snapshot malformed";
    case SnapshotStatus::kGraphMismatch: return "snapshot graph mismatch";
  }
  return "snapshot error";
}

std::uint32_t crc32(const void* data, std::size_t size, std::uint32_t seed) {
  // Table generated on first use; thread-safe since C++11 static init.
  static const std::array<std::uint32_t, 256> table = [] {
    std::array<std::uint32_t, 256> t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1) != 0 ? 0xedb88320u ^ (c >> 1) : c >> 1;
      }
      t[i] = c;
    }
    return t;
  }();
  std::uint32_t crc = seed ^ 0xffffffffu;
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < size; ++i) {
    crc = table[(crc ^ p[i]) & 0xff] ^ (crc >> 8);
  }
  return crc ^ 0xffffffffu;
}

GraphFingerprint fingerprint_of(const Graph& g) {
  GraphFingerprint fp;
  fp.vertices = g.num_vertices();
  fp.edges = g.num_edges();
  std::uint64_t h = 1469598103934665603ull;  // FNV-1a over (u, v) in id order
  for (const Edge& e : g.edges()) {
    h = (h ^ e.u) * 1099511628211ull;
    h = (h ^ e.v) * 1099511628211ull;
  }
  fp.edge_hash = h;
  return fp;
}

std::string describe(const GraphFingerprint& fp) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "n=%u, m=%u, edge_hash=%016llx", fp.vertices,
                fp.edges, static_cast<unsigned long long>(fp.edge_hash));
  return buf;
}

void save_snapshot(const std::string& path, const SnapshotImage& image) {
  // Encode every section first; the header needs the final offsets.
  struct Section {
    std::uint32_t tag;
    ByteWriter payload;
    std::uint32_t crc = 0;
  };
  std::vector<Section> sections(image.cache_lines.empty() ? 3 : 4);
  sections[0].tag = kSectionGraph;
  encode_graph(sections[0].payload, image.graph);
  sections[1].tag = kSectionEntries;
  encode_entries(sections[1].payload, image.entries);
  sections[2].tag = kSectionBaselines;
  encode_baselines(sections[2].payload, image.baselines);
  if (sections.size() == 4) {
    sections[3].tag = kSectionCache;
    encode_cache(sections[3].payload, image.cache_lines);
  }
  for (Section& s : sections) {
    s.crc = crc32(s.payload.bytes.data(), s.payload.bytes.size());
  }

  const GraphFingerprint fp = fingerprint_of(image.graph);
  std::vector<char> file;
  // Header placeholder; patched once the layout is known.
  file.resize(kHeaderWithCrc, 0);
  std::vector<TocEntry> toc;
  toc.reserve(sections.size());
  for (Section& s : sections) {
    while (file.size() % 8 != 0) file.push_back(0);
    TocEntry e;
    e.tag = s.tag;
    e.offset = file.size();
    e.bytes = s.payload.bytes.size();
    e.crc = s.crc;
    toc.push_back(e);
    file.insert(file.end(), s.payload.bytes.begin(), s.payload.bytes.end());
    s.payload.bytes.clear();
    s.payload.bytes.shrink_to_fit();
  }
  while (file.size() % 8 != 0) file.push_back(0);
  const std::uint64_t toc_offset = file.size();
  {
    std::vector<char> toc_bytes;
    for (const TocEntry& e : toc) {
      put_u32(toc_bytes, e.tag);
      put_u32(toc_bytes, 0);
      put_u64(toc_bytes, e.offset);
      put_u64(toc_bytes, e.bytes);
      put_u32(toc_bytes, e.crc);
      put_u32(toc_bytes, 0);
    }
    const std::uint32_t toc_crc = crc32(toc_bytes.data(), toc_bytes.size());
    put_u32(toc_bytes, toc_crc);
    file.insert(file.end(), toc_bytes.begin(), toc_bytes.end());
  }
  {
    std::vector<char> header;
    header.insert(header.end(), kMagic.begin(), kMagic.end());
    put_u32(header, kSnapshotVersion);
    put_u32(header, static_cast<std::uint32_t>(sections.size()));
    put_u32(header, fp.vertices);
    put_u32(header, fp.edges);
    put_u64(header, fp.edge_hash);
    put_u64(header, toc_offset);
    put_u64(header, file.size());
    const std::uint32_t header_crc = crc32(header.data(), kHeaderBytes);
    put_u32(header, header_crc);
    std::memcpy(file.data(), header.data(), kHeaderWithCrc);
  }

  // Durable atomic publish: write a sibling temp file, fsync it, rename into
  // place, then fsync the parent directory so the rename itself survives a
  // crash. Without the two fsyncs a power loss after "success" could publish
  // a torn file or make the new name vanish — docs/persistence.md "Atomicity
  // and durability". Failpoints `persist.write` / `persist.fsync` drive the
  // error branches (and, via sleep, the crash-recovery test's SIGKILL
  // window). On any failure the temp file is unlinked: no `.tmp` debris.
  const std::string tmp = path + ".tmp";
  static fp::Failpoint& fp_write = fp::site("persist.write");
  static fp::Failpoint& fp_fsync = fp::site("persist.fsync");
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC,
                        0644);
  if (fd < 0) {
    fail(SnapshotStatus::kIoError,
         "cannot open '" + tmp + "' for writing: " + std::strerror(errno));
  }
  const auto fail_unlink = [&](const std::string& why) {
    ::close(fd);
    ::unlink(tmp.c_str());
    fail(SnapshotStatus::kIoError, why);
  };
  std::size_t off = 0;
  while (off < file.size()) {
    std::size_t want = file.size() - off;
    ssize_t n = -1;
    const fp::Outcome o = fp::eval(fp_write);
    switch (o.kind) {
      case fp::Outcome::Kind::kErr:
        n = -1;
        errno = o.err;
        break;
      case fp::Outcome::Kind::kShortWrite:
        // Truncated but successful write: the loop must absorb it.
        want = std::max<std::size_t>(1, want / 2);
        [[fallthrough]];
      case fp::Outcome::Kind::kSleep:
        if (o.kind == fp::Outcome::Kind::kSleep) {
          std::this_thread::sleep_for(std::chrono::milliseconds(o.ms));
        }
        [[fallthrough]];
      case fp::Outcome::Kind::kNone:
        n = ::write(fd, file.data() + off, want);
        break;
    }
    if (n > 0) {
      off += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;  // retried, never surfaced
    const int err = errno;
    fail_unlink("cannot write '" + tmp + "': " +
                std::strerror(n < 0 ? err : EIO));
  }
  if (fp::fail_errno(fp_fsync) != 0 || ::fsync(fd) != 0) {
    fail_unlink("cannot fsync '" + tmp + "': " + std::strerror(errno));
  }
  if (::close(fd) != 0) {
    ::unlink(tmp.c_str());
    fail(SnapshotStatus::kIoError,
         "cannot close '" + tmp + "': " + std::strerror(errno));
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    const int err = errno;
    ::unlink(tmp.c_str());
    fail(SnapshotStatus::kIoError,
         "cannot rename '" + tmp + "' into place: " + std::strerror(err));
  }
  // The rename lives in the directory, not the file: sync it too. A directory
  // that cannot be opened or synced (exotic filesystems) downgrades to the
  // pre-PR-9 semantics rather than failing a save that is otherwise complete.
  const std::size_t slash = path.find_last_of('/');
  const std::string dir = slash == std::string::npos
                              ? std::string(".")
                              : (slash == 0 ? "/" : path.substr(0, slash));
  const int dfd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (dfd >= 0) {
    ::fsync(dfd);
    ::close(dfd);
  }
}

SnapshotImage load_snapshot(const std::string& path,
                            const SnapshotLoadOptions& options) {
  const FileBytes file(path);
  const ParsedHeader header = parse_header(file.data(), file.size());
  if (options.expect != nullptr && !(header.fingerprint == *options.expect)) {
    fail(SnapshotStatus::kGraphMismatch,
         "snapshot was built for a different graph (snapshot " +
             describe(header.fingerprint) + "; serving graph " +
             describe(*options.expect) + ")");
  }

  // Verify every section's CRC before decoding anything: decode order is not
  // TOC order, and a decoder must never touch unverified bytes.
  for (const TocEntry& e : header.toc) {
    if (crc32(file.data() + e.offset, e.bytes) != e.crc) {
      fail(SnapshotStatus::kChecksum,
           "section " + std::to_string(e.tag) + " CRC mismatch");
    }
  }
  const auto find_section = [&](std::uint32_t tag) -> const TocEntry* {
    for (const TocEntry& e : header.toc) {
      if (e.tag == tag) return &e;
    }
    return nullptr;
  };
  const auto reader_for = [&](const TocEntry& e, const char* what) {
    return ByteReader{file.data() + e.offset, file.data() + e.offset + e.bytes,
                      what};
  };

  SnapshotImage image;
  const TocEntry* graph_sec = find_section(kSectionGraph);
  if (graph_sec == nullptr) {
    fail(SnapshotStatus::kMalformed, "snapshot has no graph section");
  }
  {
    ByteReader r = reader_for(*graph_sec, "graph");
    image.graph = decode_graph(r);
    r.done();
  }
  // The header fingerprint must describe the graph the file actually carries;
  // a disagreement means the sections were spliced from different snapshots.
  if (!(fingerprint_of(image.graph) == header.fingerprint)) {
    fail(SnapshotStatus::kMalformed,
         "graph section does not match the header fingerprint");
  }
  if (const TocEntry* sec = find_section(kSectionEntries)) {
    ByteReader r = reader_for(*sec, "entries");
    image.entries = decode_entries(r, image.graph);
    r.done();
  }
  if (const TocEntry* sec = find_section(kSectionBaselines)) {
    ByteReader r = reader_for(*sec, "baselines");
    image.baselines = decode_baselines(r, image.graph, image.entries.size());
    r.done();
  }
  if (const TocEntry* sec = find_section(kSectionCache)) {
    ByteReader r = reader_for(*sec, "cache");
    image.cache_lines = decode_cache(r, image.graph, image.entries.size());
    r.done();
  }
  return image;
}

GraphFingerprint peek_snapshot_fingerprint(const std::string& path) {
  // Header + TOC only; sections are neither checksummed nor decoded. The
  // buffered path reads the whole file, but manifests and CLI pre-flight
  // call this on files they are about to load anyway.
  const FileBytes file(path);
  return parse_header(file.data(), file.size()).fingerprint;
}

std::uint64_t image_resident_bytes(const SnapshotImage& image) {
  const Graph& g = image.graph;
  std::uint64_t total = 0;
  total += static_cast<std::uint64_t>(g.num_edges()) * sizeof(Edge);
  total += static_cast<std::uint64_t>(g.num_vertices() + 1) * 4;
  total += static_cast<std::uint64_t>(g.num_edges()) * 2 * sizeof(Arc);
  for (const EntryImage& e : image.entries) {
    // The live pool holds the H subgraph's CSR (edges + arcs + offsets), the
    // g→H translation table, and the in_h bitmap.
    total += static_cast<std::uint64_t>(e.edges.size()) *
             (sizeof(Edge) + 2 * sizeof(Arc) + sizeof(EdgeId));
    total += static_cast<std::uint64_t>(g.num_vertices() + 1) * 4;
    total += g.num_edges() / 8;  // vector<bool> in_h
  }
  for (const BaselineImage& b : image.baselines) {
    total += static_cast<std::uint64_t>(b.hops.size()) * 4 * 5;  // five arrays
    total += static_cast<std::uint64_t>(b.visit_order.size()) * 4;
  }
  for (const CacheLineImage& line : image.cache_lines) {
    total += static_cast<std::uint64_t>(line.key_words.size()) * 4;
    total += static_cast<std::uint64_t>(line.hops.size()) * 4;
    total += static_cast<std::uint64_t>(line.diff.size()) * 8;
  }
  return total;
}

}  // namespace ftbfs
