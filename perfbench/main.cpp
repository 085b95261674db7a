// perfbench — end-to-end benchmark program for ftbfs (see README.md).
//
//   perfbench prepare --seed N [--n N] --snapshot out.ftb
//   perfbench run --workload W --seed N --seconds S --trace 0|1
//                 [--n N] [--snapshot in.ftb] [--trace-out spans.csv]
//
// `run` prints the environment, one `metric` line per measured value, and
// as its last line one JSON object {correct, attempted, failed, metrics}.
// It exits 1 when any answer was wrong or missing.
#include <sched.h>
#include <sys/utsname.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <exception>
#include <fstream>
#include <stdexcept>
#include <string>
#include <thread>

#include "bench.h"

namespace perfbench {

namespace {

// --- the metric set ----------------------------------------------------------

struct MetricSpec {
  const char* name;
  const char* unit;
};

// Every per-layer metric, in output order. A workload reports the ones its
// layers measure and declares the rest idle (reported as 0).
constexpr MetricSpec kLayerMetrics[] = {
    {"net.vcsw_per_req", "1/req"},
    {"net.overhead_p50_us", "us"},
    {"net.overload_sheds", "count"},
    {"net.parse_errors", "count"},
    {"protocol.parse_us", "us"},
    {"protocol.format_us", "us"},
    {"service.admit_us", "us"},
    {"service.execute_hit_us", "us"},
    {"service.execute_miss_us", "us"},
    {"cache.hit_ratio", "ratio"},
    {"cache.evictions_per_req", "1/req"},
    {"cache.bytes_per_line", "B"},
    {"engine.fast_path", "1/req"},
    {"engine.repair_bfs", "1/req"},
    {"engine.full_bfs", "1/req"},
    {"engine.fast_share", "ratio"},
    {"persist.load_s", "s"},
    {"persist.restore_s", "s"},
    {"core.cpu_s", "s"},
    {"core.parallel_efficiency", "ratio"},
    {"core.spec_conflicts", "count"},
    {"core.spec_blocks", "count"},
    {"core.conflict_ratio", "ratio"},
    {"core.fault_pairs_considered", "count"},
    {"core.rss_delta_mb", "MB"},
    {"core.build_s", "s"},
    {"core.edges", "count"},
    {"client.throughput_rps", "1/s"},
    {"client.lat_p50_us", "us"},
    {"client.lat_p99_us", "us"},
    {"client.late_max_us", "us"},
    {"trace.pipeline_p50_us", "us"},
    {"trace.overhead_pct", "%"},
    {"host.steal_pct", "%"},
};

constexpr MetricSpec kEndToEndMetrics[] = {
    {"op_cpu_us", "us"},
    {"setup_s", "s"},
    {"peak_rss_mb", "MB"},
};

// Reorders `r.metrics` to the canonical list, filling idle layers with 0;
// throws if a metric is missing, unknown, or carries the wrong unit.
template <std::size_t N>
void canonicalize(Result& r, const MetricSpec (&specs)[N]) {
  const auto spec_of = [&](const std::string& name) -> const MetricSpec* {
    for (const MetricSpec& s : specs) {
      if (name == s.name) return &s;
    }
    return nullptr;
  };
  for (const Metric& m : r.metrics) {
    const MetricSpec* spec = spec_of(m.name);
    if (spec == nullptr) throw std::logic_error("unknown metric " + m.name);
    if (m.unit != spec->unit) {
      throw std::logic_error("metric " + m.name + " has unit " + m.unit);
    }
  }
  std::vector<Metric> out;
  for (const MetricSpec& spec : specs) {
    const std::string name = spec.name;
    const auto it =
        std::find_if(r.metrics.begin(), r.metrics.end(),
                     [&](const Metric& m) { return m.name == name; });
    if (it != r.metrics.end()) {
      out.push_back(*it);
      continue;
    }
    const std::string layer = name.substr(0, name.find('.'));
    if (std::find(r.idle_layers.begin(), r.idle_layers.end(), layer) ==
        r.idle_layers.end()) {
      throw std::logic_error("workload did not report metric " + name);
    }
    out.push_back({name, 0.0, spec.unit});
  }
  r.metrics = std::move(out);
}

std::string number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, res.ptr);
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

// --- environment -------------------------------------------------------------

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_CXX_FLAGS
#define PERFBENCH_CXX_FLAGS ""
#endif

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr bool kSanitized = true;
#else
constexpr bool kSanitized = false;
#endif

void print_environment() {
  cpu_set_t set;
  CPU_ZERO(&set);
  const int nproc =
      ::sched_getaffinity(0, sizeof set, &set) == 0 ? CPU_COUNT(&set) : 0;
  utsname u{};
  ::uname(&u);
  const std::string build_type = PERFBENCH_BUILD_TYPE;
  const bool comparable = !kSanitized && build_type != "Debug";
  std::printf(
      "env {\"nproc\":%d,\"hardware_threads\":%u,\"compiler\":%s,"
      "\"build_type\":%s,\"cxx_flags\":%s,\"sanitizer\":%s,\"kernel\":%s,"
      "\"comparable\":%s}\n",
      nproc, std::thread::hardware_concurrency(),
      json_string(std::string("gcc-compatible ") + __VERSION__).c_str(),
      json_string(build_type).c_str(), json_string(PERFBENCH_CXX_FLAGS).c_str(),
      kSanitized ? "true" : "false",
      json_string(std::string(u.sysname) + " " + u.release + " " + u.machine)
          .c_str(),
      comparable ? "true" : "false");
  if (!comparable) {
    std::printf("WARNING: Debug or sanitizer build; figures are not "
                "comparable with optimised builds\n");
  }
}

// --- host CPU accounting -----------------------------------------------------

struct CpuTicks {
  std::uint64_t total = 0;
  std::uint64_t steal = 0;
};

// The aggregate `cpu` line of /proc/stat (user nice system idle iowait irq
// softirq steal ...); zeros when unavailable.
CpuTicks read_cpu_ticks() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  in >> cpu;
  CpuTicks t;
  if (cpu != "cpu") return t;
  for (int field = 0; field < 8; ++field) {
    std::uint64_t v = 0;
    if (!(in >> v)) return {};
    t.total += v;
    if (field == 7) t.steal = v;
  }
  return t;
}

// --- command line ------------------------------------------------------------

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "perfbench: %s\n"
               "usage: perfbench prepare --seed N [--n N] --snapshot FILE\n"
               "       perfbench run --workload hot_hits|fresh_faults|"
               "build_cons2 --seed N --seconds S --trace 0|1\n"
               "                     [--n N] [--snapshot FILE] "
               "[--trace-out FILE]\n",
               why.c_str());
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options opt;
  for (int i = 2; i < argc; i += 2) {
    const std::string key = argv[i];
    if (i + 1 >= argc) usage("missing value for " + key);
    const std::string val = argv[i + 1];
    try {
      if (key == "--workload") {
        opt.workload = val;
      } else if (key == "--seed") {
        opt.seed = std::stoull(val);
      } else if (key == "--seconds") {
        opt.seconds = std::stod(val);
      } else if (key == "--trace") {
        opt.trace = val == "1";
      } else if (key == "--n") {
        opt.n = static_cast<ftbfs::Vertex>(std::stoul(val));
      } else if (key == "--snapshot") {
        opt.snapshot = val;
      } else if (key == "--trace-out") {
        opt.trace_out = val;
      } else {
        usage("unknown flag " + key);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + key + ": " + val);
    }
  }
  if (opt.n < 16) usage("--n must be at least 16");
  if (!(opt.seconds > 0.0)) usage("--seconds must be positive");
  return opt;
}

int run(Options opt) {
  const bool serving =
      opt.workload == "hot_hits" || opt.workload == "fresh_faults";
  if (!serving && opt.workload != "build_cons2") {
    usage("unknown workload '" + opt.workload + "'");
  }
  if (serving && opt.snapshot.empty()) usage("serving needs --snapshot");
  print_environment();

  SpanLog spans(kReplayThreads);
  if (opt.trace) opt.spans = &spans;
  Result r;
  const CpuTicks ticks0 = read_cpu_ticks();
  if (serving) {
    run_serving(opt, r);
  } else {
    run_build(opt, r);
  }
  const CpuTicks ticks1 = read_cpu_ticks();
  // Time the hypervisor gave this machine's CPUs to someone else: the main
  // source of run-to-run noise in wall-clock figures on a shared host.
  const double steal_pct =
      ticks1.total > ticks0.total
          ? 100.0 * static_cast<double>(ticks1.steal - ticks0.steal) /
                static_cast<double>(ticks1.total - ticks0.total)
          : 0.0;
  if (opt.trace) {
    r.add("host.steal_pct", steal_pct, "%");
  } else {
    r.note("host.steal_pct", steal_pct, "%");
  }
  if (opt.trace) {
    canonicalize(r, kLayerMetrics);
  } else {
    canonicalize(r, kEndToEndMetrics);
  }

  for (const Metric& m : r.metrics) {
    std::printf("metric %-30s %14s %s\n", m.name.c_str(),
                number(m.value).c_str(), m.unit.c_str());
  }
  for (const Metric& m : r.diagnostics) {
    std::printf("diagnostic %-26s %14s %s\n", m.name.c_str(),
                number(m.value).c_str(), m.unit.c_str());
  }
  const double fail_ratio =
      r.attempted == 0 ? 1.0
                       : static_cast<double>(r.failed) /
                             static_cast<double>(r.attempted);
  std::printf("diagnostic %-26s %14s ratio\n", "fail_ratio",
              number(fail_ratio).c_str());
  if (opt.trace && !opt.trace_out.empty()) {
    spans.write_csv(opt.trace_out);
    std::printf("spans written to %s\n", opt.trace_out.c_str());
  }

  const bool correct = r.failed == 0 && r.attempted > 0;
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(r.attempted);
  json += ", \"failed\": " + std::to_string(r.failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    if (i > 0) json += ", ";
    json += json_string(r.metrics[i].name) + ": {\"value\": " +
            number(r.metrics[i].value) +
            ", \"unit\": " + json_string(r.metrics[i].unit) + "}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  if (argc < 2) usage("missing command");
  const std::string cmd = argv[1];
  try {
    Options opt = parse(argc, argv);
    if (cmd == "prepare") {
      if (opt.snapshot.empty()) usage("prepare needs --snapshot");
      prepare_snapshot(opt);
      return 0;
    }
    if (cmd == "run") return run(std::move(opt));
    usage("unknown command '" + cmd + "'");
  } catch (const std::exception& ex) {
    std::fprintf(stderr, "perfbench: %s\n", ex.what());
    return 3;
  }
}
