// The serving workloads (hot_hits, fresh_faults): a NetServer and a
// TenantRegistry hosted in-process — the objects `ftbfs serve --listen
// --load` builds — driven over loopback TCP by the load generator. The traced
// run also replays the same request stream in-process through the layer
// calls a server worker makes (parse → admit → execute → format), with a span
// around each call, for the per-layer split.
#include <algorithm>
#include <atomic>
#include <cstdint>
#include <thread>

#include "bench.h"
#include "net/net_server.h"
#include "persist/service_io.h"
#include "persist/snapshot.h"
#include "service/protocol.h"
#include "service/tenant.h"

namespace perfbench {
namespace {

using ftbfs::TenantRegistry;

// Fixed server configuration: 2 workers + the event loop + the client thread
// fill a 4-thread box.
constexpr unsigned kWorkers = 2;
constexpr std::size_t kCacheCapacity = 256;
constexpr double kOpenLoopRate = 30000.0;  // requests per second
// Each socket phase is split into rounds, each on a fresh server (fresh
// threads and connections).
constexpr unsigned kRounds = 4;
constexpr int kSetupRepeats = 31;
// Traced replays keep every span in memory, so each is capped by count.
constexpr std::size_t kTracedRequests = 20000;
constexpr unsigned kTracedRepeats = 5;
// Untimed requests that bring a replay's fresh cache to steady state; they
// include all 64 hot_hits scenarios.
constexpr std::size_t kReplayWarmup = 1024;

// Shares of --seconds given to each timed phase; the traced run adds its
// in-process replays on top.
constexpr double kClosedShare = 0.7;
constexpr double kOpenShare = 0.3;
constexpr double kTracedShare = 0.3;

ftbfs::ServiceConfig service_config() {
  ftbfs::ServiceConfig sc;  // the `ftbfs serve` defaults
  sc.cache_capacity = kCacheCapacity;
  return sc;
}

ftbfs::NetServerConfig server_config() {
  ftbfs::NetServerConfig nc;
  nc.threads = kWorkers;
  nc.ordered = true;
  return nc;
}

// A NetServer running its event loop on its own thread for the object's
// lifetime; the destructor drains it and joins.
class RunningServer {
 public:
  explicit RunningServer(TenantRegistry& registry)
      : server_(registry, server_config()), loop_([this] { server_.run(); }) {}
  ~RunningServer() {
    server_.request_shutdown();
    loop_.join();
  }
  RunningServer(const RunningServer&) = delete;
  RunningServer& operator=(const RunningServer&) = delete;

  [[nodiscard]] std::uint16_t port() const { return server_.port(); }
  [[nodiscard]] const ftbfs::WireCounters& wire() const {
    return server_.wire_counters();
  }

 private:
  ftbfs::NetServer server_;
  std::thread loop_;
};

// --- in-process replay -------------------------------------------------------

constexpr const char* kRequestSpan = "request";

// A fresh tenant (cold cache, warmed by kReplayWarmup requests) serving pool
// requests in-process through the calls a server worker makes.
class Replayer {
 public:
  Replayer(const Options& opt, const RequestPool& pool)
      : pool_(&pool),
        tenant_(&registry_.add_from_snapshot("default", opt.snapshot,
                                             service_config())),
        resolve_(registry_.resolver()) {
    double latency_us = 0.0;
    for (std::size_t k = 0; k < kReplayWarmup; ++k) {
      if (!serve(0, k, nullptr, latency_us)) ++warmup_failed_;
    }
  }

  // Serves request k (pool index k mod size); false when the response is
  // wrong. Sets `latency_us` to the parse-start → formatted-line time and,
  // with `spans`, records one span per layer call.
  bool serve(unsigned thread, std::size_t k, SpanLog* spans,
             double& latency_us) const {
    const std::size_t index = k % pool_->size();
    const Clock::time_point t0 = Clock::now();
    const ftbfs::ParsedRequest parsed =
        ftbfs::parse_request_line(pool_->lines[index], resolve_);
    if (parsed.status != ftbfs::ParseStatus::kOk) return false;
    const Clock::time_point t1 = spans != nullptr ? Clock::now() : t0;
    auto admission = tenant_->service.admit(parsed.request);
    const Clock::time_point t2 = spans != nullptr ? Clock::now() : t0;
    const ftbfs::QueryResponse resp =
        tenant_->service.execute(std::move(admission));
    const Clock::time_point t3 = spans != nullptr ? Clock::now() : t0;
    const std::string line = ftbfs::format_response_line(resp);
    const Clock::time_point t4 = Clock::now();
    latency_us = seconds_between(t0, t4) * 1e6;
    if (spans != nullptr) {
      spans->record(thread, k, kRequestSpan, "", t0, t4);
      spans->record(thread, k, "protocol.parse", kRequestSpan, t0, t1);
      spans->record(thread, k, "service.admit", kRequestSpan, t1, t2);
      spans->record(thread, k,
                    resp.cache_hit ? "service.execute.hit"
                                   : "service.execute.miss",
                    kRequestSpan, t2, t3);
      spans->record(thread, k, "protocol.format", kRequestSpan, t3, t4);
    }
    return response_matches(line, *pool_, index);
  }

  [[nodiscard]] std::uint64_t warmup_failed() const { return warmup_failed_; }

 private:
  const RequestPool* pool_;
  TenantRegistry registry_;
  ftbfs::Tenant* tenant_;
  ftbfs::GraphResolver resolve_;
  std::uint64_t warmup_failed_ = 0;
};

struct ReplayOutcome {
  double wall_s = 0.0;
  std::uint64_t served = 0;
  std::uint64_t failed = 0;
  Histogram latency_us;
};

// kReplayThreads threads serve requests on a fresh tenant until `seconds`
// pass or `max_requests` are served. Requests are numbered from `first`
// (their span ids), so spans of successive calls do not collide.
ReplayOutcome replay_threads(const Options& opt, const RequestPool& pool,
                             std::size_t first, double seconds,
                             std::size_t max_requests, SpanLog* log) {
  const Replayer replayer(opt, pool);
  std::atomic<std::size_t> next{first};
  std::atomic<std::uint64_t> failed{replayer.warmup_failed()};
  std::vector<Histogram> latency(kReplayThreads);
  const Clock::time_point start = Clock::now();
  const Clock::time_point deadline = after(start, seconds);
  {
    std::vector<std::jthread> crew;
    for (unsigned t = 0; t < kReplayThreads; ++t) {
      crew.emplace_back([&, t] {
        std::uint64_t bad = 0;
        double latency_us = 0.0;
        for (;;) {
          const std::size_t k = next.fetch_add(1, std::memory_order_relaxed);
          if (k - first >= max_requests || Clock::now() > deadline) {
            break;
          }
          if (!replayer.serve(t, k, log, latency_us)) ++bad;
          latency[t].add(latency_us);
        }
        failed.fetch_add(bad, std::memory_order_relaxed);
      });
    }
  }
  ReplayOutcome out;
  out.wall_s = seconds_between(start, Clock::now());
  out.failed = failed.load();
  for (const Histogram& h : latency) out.latency_us.merge(h);
  out.served = out.latency_us.count() + kReplayWarmup;
  return out;
}

double self_time_us(const std::vector<SpanLog::SelfTime>& st,
                    std::string_view name) {
  for (const auto& s : st) {
    if (s.name == name && s.count > 0) {
      return s.total_s / static_cast<double>(s.count) * 1e6;
    }
  }
  return 0.0;
}

double ratio(std::uint64_t count, std::uint64_t base) {
  return base == 0 ? 0.0
                   : static_cast<double>(count) / static_cast<double>(base);
}

}  // namespace

void run_serving(const Options& opt, Result& r) {
  r.idle_layers = {"core"};
  const ftbfs::Graph g = host_graph(opt.n, opt.seed);
  const RequestPool pool = opt.workload == "hot_hits"
                               ? make_hot_pool(g, opt.seed)
                               : make_fresh_pool(g, opt.seed);

  // setup_s: snapshot file → first correct response, on a fresh registry and
  // server each time.
  std::vector<double> setup;
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    const Clock::time_point t0 = Clock::now();
    TenantRegistry registry;
    registry.add_from_snapshot("default", opt.snapshot, service_config());
    RunningServer server(registry);
    const bool ok =
        single_request(server.port(), pool, static_cast<std::size_t>(rep));
    setup.push_back(seconds_between(t0, Clock::now()));
    ++r.attempted;
    if (!ok) ++r.failed;
  }

  TenantRegistry registry;
  ftbfs::Tenant& tenant =
      registry.add_from_snapshot("default", opt.snapshot, service_config());
  std::uint64_t cursor = 0;
  const auto account = [&](const LoadResult& lr) {
    r.attempted += lr.sent;
    r.failed += lr.failed;
  };
  {
    RunningServer server(registry);
    account(closed_loop(server.port(), pool, cursor,
                        std::min(1.0, 0.05 * opt.seconds)));
  }

  const ftbfs::ServiceStats before = tenant.service.stats();
  std::uint64_t sheds = 0;
  std::uint64_t parse_errors = 0;

  // Closed loop: server CPU per response, throughput, context switches.
  std::vector<double> rps;
  double server_cpu_s = 0.0;
  std::uint64_t closed_ok = 0;
  std::uint64_t switches = 0;
  for (unsigned round = 0; round < kRounds; ++round) {
    RunningServer server(registry);
    const std::uint64_t vcsw0 = voluntary_switches();
    const double cpu0 = process_cpu_s();
    const LoadResult lr = closed_loop(server.port(), pool, cursor,
                                      opt.seconds * kClosedShare / kRounds);
    server_cpu_s += process_cpu_s() - cpu0 - lr.client_cpu_s;
    switches += voluntary_switches() - vcsw0;
    sheds += server.wire().overload_sheds.load();
    parse_errors += server.wire().parse_errors.load();
    account(lr);
    closed_ok += lr.ok;
    rps.push_back(static_cast<double>(lr.ok_in_window) / lr.window_s);
  }

  // Open loop at a fixed offered rate: latency from each request's due time.
  std::vector<double> p50s;
  Histogram open_latency;
  double late_max = 0.0;
  for (unsigned round = 0; round < kRounds; ++round) {
    RunningServer server(registry);
    const LoadResult lr = open_loop(server.port(), pool, cursor,
                                    opt.seconds * kOpenShare / kRounds,
                                    kOpenLoopRate);
    sheds += server.wire().overload_sheds.load();
    parse_errors += server.wire().parse_errors.load();
    account(lr);
    late_max = std::max(late_max, lr.late_max_us);
    p50s.push_back(lr.latency_us.quantile(0.5));
    open_latency.merge(lr.latency_us);
  }
  const ftbfs::ServiceStats after = tenant.service.stats();

  const std::uint64_t requests = after.requests - before.requests;
  const std::uint64_t hits = after.cache_hits - before.cache_hits;
  const std::uint64_t probes = hits + after.cache_misses - before.cache_misses;
  const std::uint64_t fast = after.fast_path_hits - before.fast_path_hits;
  const std::uint64_t repair = after.repair_bfs - before.repair_bfs;
  const std::uint64_t full = after.full_bfs - before.full_bfs;
  const double client_p50 = median(p50s);

  if (!opt.trace) {
    r.add("op_cpu_us", server_cpu_s / static_cast<double>(closed_ok) * 1e6,
          "us");
    r.add("setup_s", median(setup), "s");
    r.add("peak_rss_mb", peak_rss_mb(), "MB");
    r.note("client.throughput_rps", median(rps), "1/s");
    r.note("client.lat_p50_us", client_p50, "us");
    r.note("client.lat_p99_us", open_latency.quantile(0.99), "us");
    r.note("client.late_max_us", late_max, "us");
    r.note("cache.hit_ratio", ratio(hits, probes), "ratio");
    return;
  }

  // --- traced replay: spans around every layer call -------------------------
  // Untraced and traced replays alternate on the same two threads; the ratio
  // of their median request rates is the tracing overhead.
  SpanLog& log = *opt.spans;
  std::vector<double> plain_rate;
  std::vector<double> traced_rate;
  Histogram pipeline;
  for (unsigned rep = 0; rep < kTracedRepeats; ++rep) {
    const double seconds = opt.seconds * kTracedShare / kTracedRepeats;
    const std::size_t first = (rep + 1) * kTracedRequests;
    const ReplayOutcome plain =
        replay_threads(opt, pool, first, seconds, kTracedRequests, nullptr);
    const ReplayOutcome traced =
        replay_threads(opt, pool, first, seconds, kTracedRequests, &log);
    r.attempted += plain.served + traced.served;
    r.failed += plain.failed + traced.failed;
    plain_rate.push_back(static_cast<double>(plain.latency_us.count()) /
                         plain.wall_s);
    traced_rate.push_back(static_cast<double>(traced.latency_us.count()) /
                          traced.wall_s);
    pipeline.merge(traced.latency_us);
  }
  const auto st = log.self_times();
  const double pipeline_p50 = pipeline.quantile(0.5);

  // persist.load / persist.restore: add_from_snapshot split at its seam.
  std::vector<double> load_s;
  std::vector<double> restore_s;
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    const Clock::time_point t0 = Clock::now();
    ftbfs::SnapshotImage image = ftbfs::load_snapshot(opt.snapshot);
    const Clock::time_point t1 = Clock::now();
    ftbfs::Tenant t("default", std::move(image.graph), service_config(), {});
    ftbfs::PersistAccess::restore_service(t.service, image, false);
    const Clock::time_point t2 = Clock::now();
    const auto id = static_cast<std::uint64_t>(rep);
    log.record(0, id, "setup", "", t0, t2);
    log.record(0, id, "persist.load", "setup", t0, t1);
    log.record(0, id, "persist.restore", "setup", t1, t2);
    load_s.push_back(seconds_between(t0, t1));
    restore_s.push_back(seconds_between(t1, t2));
  }

  r.add("net.vcsw_per_req", ratio(switches, closed_ok), "1/req");
  r.add("net.overhead_p50_us", client_p50 - pipeline_p50, "us");
  r.add("net.overload_sheds", static_cast<double>(sheds), "count");
  r.add("net.parse_errors", static_cast<double>(parse_errors), "count");
  r.add("protocol.parse_us", self_time_us(st, "protocol.parse"), "us");
  r.add("protocol.format_us", self_time_us(st, "protocol.format"), "us");
  r.add("service.admit_us", self_time_us(st, "service.admit"), "us");
  r.add("service.execute_hit_us", self_time_us(st, "service.execute.hit"),
        "us");
  r.add("service.execute_miss_us", self_time_us(st, "service.execute.miss"),
        "us");
  r.add("cache.hit_ratio", ratio(hits, probes), "ratio");
  r.add("cache.evictions_per_req",
        ratio(after.cache_evictions - before.cache_evictions, requests),
        "1/req");
  r.add("cache.bytes_per_line", after.cache_bytes_per_line(), "B");
  r.add("engine.fast_path", ratio(fast, requests), "1/req");
  r.add("engine.repair_bfs", ratio(repair, requests), "1/req");
  r.add("engine.full_bfs", ratio(full, requests), "1/req");
  r.add("engine.fast_share", ratio(fast, fast + repair + full), "ratio");
  r.add("persist.load_s", median(load_s), "s");
  r.add("persist.restore_s", median(restore_s), "s");
  r.add("client.throughput_rps", median(rps), "1/s");
  r.add("client.lat_p50_us", client_p50, "us");
  r.add("client.lat_p99_us", open_latency.quantile(0.99), "us");
  r.add("client.late_max_us", late_max, "us");
  r.add("trace.pipeline_p50_us", pipeline_p50, "us");
  r.add("trace.overhead_pct",
        (median(plain_rate) / median(traced_rate) - 1.0) * 100.0, "%");
}

void prepare_snapshot(const Options& opt) {
  const ftbfs::Graph g = host_graph(opt.n, opt.seed);
  // What `ftbfs build --out snap.ftb` does: build through a quiesced service
  // so entry names match lazy builds, prebuild the baseline, export.
  ftbfs::ServiceConfig sc;
  sc.default_budget = kBudget;
  sc.lazy_build = false;
  sc.cache_capacity = 0;
  ftbfs::OracleService service(g, sc);
  service.build_structure("cons2ftbfs@s0f2", kSource, kBudget,
                          ftbfs::FaultModel::kEdge, "cons2ftbfs");
  (void)service.engine(1).baseline_hops(kSource);
  ftbfs::save_snapshot(opt.snapshot,
                       ftbfs::PersistAccess::export_service(service, false));
}

}  // namespace perfbench
