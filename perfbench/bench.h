// Shared pieces of the end-to-end benchmark program: the generated request
// streams and their independently computed answers, the result record every
// workload fills, the in-memory span tracer, and small process probes
// (RSS, CPU, context switches). README.md beside this file documents the
// workloads and metrics.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "graph/graph.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

// Fixed shape of the host graph and the served structure.
inline constexpr ftbfs::Vertex kSource = 0;
inline constexpr unsigned kBudget = 2;
inline constexpr unsigned kTargetsPerRequest = 4;
// Threads of the traced in-process replay (two, so that contention on shared
// serving state shows); the span log keeps one buffer per thread.
inline constexpr unsigned kReplayThreads = 2;

class SpanLog;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  // Host graph size: random_connected(n, 3n, seed). The self-test shrinks it.
  ftbfs::Vertex n = 2000;
  std::string snapshot;      // serving: .ftb written by `prepare`
  std::string trace_out;     // trace run: span file written at exit
  SpanLog* spans = nullptr;  // set iff trace
};

// The host graph every workload uses (the repo's sparse-ER family).
[[nodiscard]] ftbfs::Graph host_graph(ftbfs::Vertex n, std::uint64_t seed);

// One request as sent on the wire (no trailing newline) and the answer the
// plain masked BFS over G∖F gives for each of its targets (kInfHops for an
// unreachable target).
struct RequestPool {
  std::vector<std::string> lines;
  std::vector<std::uint32_t> expected;  // kTargetsPerRequest per request

  [[nodiscard]] std::size_t size() const { return lines.size(); }
  [[nodiscard]] const std::uint32_t* answer(std::size_t i) const {
    return expected.data() + i * kTargetsPerRequest;
  }
};

// hot_hits: 64 fixed 2-edge scenarios, random targets. Requests 0..63 name
// each scenario once (the warm-up misses), later ones a random scenario.
[[nodiscard]] RequestPool make_hot_pool(const ftbfs::Graph& g,
                                        std::uint64_t seed);
// fresh_faults: 1–2 uniform edges of G per request.
[[nodiscard]] RequestPool make_fresh_pool(const ftbfs::Graph& g,
                                          std::uint64_t seed);

// True iff `line` is a correct response to pool request `index`: the echoed
// id, a served status, and every distance equal to the expected one.
[[nodiscard]] bool response_matches(std::string_view line,
                                    const RequestPool& pool,
                                    std::size_t index);

// Latency histogram: 0.1%-wide log-spaced bins from 0.01 µs to 100 s, so its
// memory does not grow with the number of samples (peak RSS stays a property
// of the program, not of how fast it ran). Quantiles interpolate in a bin.
class Histogram {
 public:
  Histogram();
  void add(double us);
  void merge(const Histogram& other);
  [[nodiscard]] double quantile(double q) const;
  [[nodiscard]] std::uint64_t count() const { return count_; }

 private:
  std::vector<std::uint64_t> bins_;
  std::uint64_t count_ = 0;
};

// --- load generator (loadgen.cpp) ------------------------------------------
// One client thread drives the server over loopback TCP. Requests are taken
// from `pool` cyclically, starting at `cursor` (advanced past what was sent).

inline constexpr unsigned kConnections = 4;
inline constexpr unsigned kWindow = 32;  // closed loop: outstanding per conn

struct LoadResult {
  std::uint64_t sent = 0;
  std::uint64_t ok = 0;      // correct responses
  std::uint64_t failed = 0;  // wrong, refused, shed, or never answered
  // Closed loop: correct responses received before the deadline, and the
  // length of that window.
  std::uint64_t ok_in_window = 0;
  double window_s = 0.0;
  Histogram latency_us;            // open loop: per response, from due time
  double late_max_us = 0.0;        // open loop: worst lateness of a send
  double client_cpu_s = 0.0;       // CPU time of the generator thread
};

// Closed loop: each connection keeps kWindow requests outstanding for
// `seconds`, then drains.
[[nodiscard]] LoadResult closed_loop(std::uint16_t port,
                                     const RequestPool& pool,
                                     std::uint64_t& cursor, double seconds);
// Open loop: requests are due at a fixed `rate` for `seconds`, sent
// round-robin over the connections whether or not earlier ones were answered.
[[nodiscard]] LoadResult open_loop(std::uint16_t port, const RequestPool& pool,
                                   std::uint64_t& cursor, double seconds,
                                   double rate);
// One request on a fresh connection; true iff its response is correct.
[[nodiscard]] bool single_request(std::uint16_t port, const RequestPool& pool,
                                  std::size_t index);

// --- results ---------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Result {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;  // the JSON line's metrics, in order
  // Printed for the reader but not part of the JSON line.
  std::vector<Metric> diagnostics;
  // Layers this workload does not exercise; the traced run reports their
  // metrics as 0.
  std::vector<std::string> idle_layers;

  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  void note(std::string name, double value, std::string unit) {
    diagnostics.push_back({std::move(name), value, std::move(unit)});
  }
};

// Runs one workload; fills `r`. Throws on a setup error.
void run_serving(const Options& opt, Result& r);
void run_build(const Options& opt, Result& r);
// Builds the tenant's structure and writes it as a snapshot (untimed).
void prepare_snapshot(const Options& opt);

// --- tracing ---------------------------------------------------------------

// One span: a layer call made from the benchmark, with the span that caused
// it. Spans of one request share `id`.
struct Span {
  std::uint64_t id = 0;
  const char* name = "";
  const char* parent = "";  // "" for a root span
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

// Spans are appended to per-thread buffers while the run goes and written
// out once, at exit. Self time of a span = its duration minus the part of it
// its children cover.
class SpanLog {
 public:
  explicit SpanLog(unsigned threads) : per_thread_(threads) {}

  void record(unsigned thread, std::uint64_t id, const char* name,
              const char* parent, Clock::time_point start,
              Clock::time_point end) {
    per_thread_[thread].push_back({id, name, parent, ns(start), ns(end)});
  }

  // Sum of self time per span name, and the number of spans of that name.
  struct SelfTime {
    std::string name;
    double total_s = 0.0;
    std::uint64_t count = 0;
  };
  [[nodiscard]] std::vector<SelfTime> self_times() const;

  // Writes every span as CSV (id,name,parent,start_ns,end_ns).
  void write_csv(const std::string& path) const;

  [[nodiscard]] static std::int64_t ns(Clock::time_point t) {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               t.time_since_epoch())
        .count();
  }

 private:
  std::vector<std::vector<Span>> per_thread_;
};

// --- process probes ----------------------------------------------------------

[[nodiscard]] double peak_rss_mb();     // VmHWM
[[nodiscard]] double current_rss_mb();  // VmRSS
[[nodiscard]] double process_cpu_s();   // user + system, all threads
[[nodiscard]] double thread_cpu_s();    // the calling thread only
[[nodiscard]] std::uint64_t voluntary_switches();

[[nodiscard]] double seconds_between(Clock::time_point a, Clock::time_point b);
[[nodiscard]] Clock::time_point after(Clock::time_point t, double seconds);

[[nodiscard]] double median(std::vector<double> v);

}  // namespace perfbench
