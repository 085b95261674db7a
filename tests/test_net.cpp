// End-to-end tests for the epoll socket front-end (src/net/): socket serving
// must be answer-identical to in-process serving, survive hostile framing, route
// between tenants, enforce quotas without perturbing the innocent tenant, and
// hold up under hundreds of concurrent pipelined connections (the stress test
// also runs under TSan in CI). Clients here are plain blocking sockets with
// *windowed* pipelining — a client that pipelines an unbounded number of
// requests without reading responses can deadlock against the server's write
// backpressure by design, so the clients behave like real ones.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "graph/generators.h"
#include "graph/io.h"
#include "net/net_server.h"
#include "service/json.h"
#include "service/tenant.h"
#include "util/failpoint.h"

namespace ftbfs {
namespace {

// --- tiny blocking client --------------------------------------------------

int connect_loopback(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr), 0)
      << std::strerror(errno);
  return fd;
}

void send_all(int fd, const std::string& bytes) {
  std::size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t n =
        ::send(fd, bytes.data() + off, bytes.size() - off, MSG_NOSIGNAL);
    ASSERT_GT(n, 0) << std::strerror(errno);
    off += static_cast<std::size_t>(n);
  }
}

// Reads exactly `count` newline-terminated lines (newline stripped).
std::vector<std::string> recv_lines(int fd, std::size_t count) {
  std::vector<std::string> lines;
  std::string buf;
  char chunk[4096];
  while (lines.size() < count) {
    const ssize_t n = ::recv(fd, chunk, sizeof chunk, 0);
    if (n <= 0) break;  // EOF/error: return what we have; caller asserts
    buf.append(chunk, static_cast<std::size_t>(n));
    std::size_t nl;
    while (lines.size() < count &&
           (nl = buf.find('\n')) != std::string::npos) {
      lines.push_back(buf.substr(0, nl));
      buf.erase(0, nl + 1);
    }
  }
  return lines;
}

// Reads to EOF, asserting no further bytes beyond complete lines.
bool recv_eof(int fd) {
  char c;
  return ::recv(fd, &c, 1, 0) == 0;
}

std::string field(const std::string& line, const char* key) {
  JsonValue v;
  std::string err;
  if (!JsonReader(line).parse(v, err)) return "<unparseable: " + err + ">";
  const JsonValue* f = v.find(key);
  if (f == nullptr) return "<absent>";
  if (f->kind == JsonValue::Kind::kString) return f->str;
  if (f->kind == JsonValue::Kind::kNumber) {
    return std::to_string(static_cast<long long>(f->number));
  }
  return "<other>";
}

// A server running on its own thread for the duration of one test.
struct RunningServer {
  RunningServer(TenantRegistry& registry, NetServerConfig config)
      : server(registry, config), thread([this] { server.run(); }) {}
  ~RunningServer() { shutdown_and_join(); }
  void shutdown_and_join() {
    server.request_shutdown();
    if (thread.joinable()) thread.join();
  }
  NetServer server;
  std::thread thread;
};

// Serves `stream` on one end of a socketpair through a listener-less server
// (the `ftbfs serve` stdin shape) and returns every response byte. The writer
// half-closes after the stream; run() must then return on its own.
std::string serve_over_socketpair(TenantRegistry& registry,
                                  const NetServerConfig& config,
                                  const std::string& stream) {
  int pair[2];
  EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0, pair), 0);
  NetServer server(registry, config, pair[0]);
  std::thread loop([&] { server.run(); });
  std::thread writer([&] {
    send_all(pair[1], stream);
    ::shutdown(pair[1], SHUT_WR);
  });
  std::string out;
  char chunk[4096];
  ssize_t n;
  while ((n = ::recv(pair[1], chunk, sizeof chunk, 0)) > 0) {
    out.append(chunk, static_cast<std::size_t>(n));
  }
  writer.join();
  loop.join();
  ::close(pair[1]);
  return out;
}

std::string distance_request(int id, unsigned target,
                             const std::string& tenant = "") {
  std::string line = "{\"id\":" + std::to_string(id) +
                     ",\"source\":0,\"targets\":[" + std::to_string(target) +
                     "]";
  if (!tenant.empty()) line += ",\"tenant\":\"" + tenant + "\"";
  line += "}\n";
  return line;
}

// --- answer-identity against the in-process pipeline -----------------------

TEST(NetServer, OrderedSocketMatchesInProcessServing) {
  TenantRegistry registry;
  registry.add("default", cycle_graph(24));
  // Reference answers from the exact same pipeline, run in-process.
  TenantRegistry reference;
  reference.add("default", cycle_graph(24));
  WireCounters ref_counters;

  NetServerConfig config;
  config.threads = 1;  // single worker: admission order == request order
  RunningServer rs(registry, config);
  const int fd = connect_loopback(rs.server.port());

  std::string stream;
  std::vector<std::string> expected;
  for (int i = 0; i < 40; ++i) {
    const std::string line = distance_request(i, 1 + (i * 7) % 23);
    stream += line;
    LineJob job(reference, line.substr(0, line.size() - 1),
                static_cast<std::int64_t>(i), false, ref_counters);
    job.admit();
    expected.push_back(job.finish());
  }
  send_all(fd, stream);
  const std::vector<std::string> got = recv_lines(fd, expected.size());
  // Byte-identical, cache_hit flags included: admissions run in request
  // order, exactly like the in-process sequential replay.
  EXPECT_EQ(got, expected);
  ::close(fd);
}

TEST(NetServer, ByteAtATimeFramingAndHalfCloseDrain) {
  TenantRegistry registry;
  registry.add("default", cycle_graph(12));
  NetServerConfig config;
  config.threads = 2;
  RunningServer rs(registry, config);
  const int fd = connect_loopback(rs.server.port());

  const std::string stream =
      distance_request(1, 3) + "{\"id\":2,\"source\":0,\"targets\":[6]}\r\n";
  for (const char c : stream) send_all(fd, std::string(1, c));
  // Half-close: the tail (all fully framed lines) must still be answered,
  // then the server closes its side — the per-connection drain contract.
  ::shutdown(fd, SHUT_WR);
  const std::vector<std::string> got = recv_lines(fd, 2);
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(field(got[0], "id"), "1");
  EXPECT_EQ(field(got[1], "id"), "2");
  EXPECT_EQ(field(got[0], "status"), "ok");
  EXPECT_EQ(field(got[1], "status"), "ok");
  EXPECT_TRUE(recv_eof(fd));
  ::close(fd);
}

TEST(NetServer, BlankLinesAreSkippedAndAnUnterminatedTailIsServed) {
  TenantRegistry registry;
  registry.add("default", cycle_graph(12));
  NetServerConfig config;
  config.threads = 1;
  config.ordered = false;  // relaxed: the stamped seq shows the numbering
  RunningServer rs(registry, config);
  const int fd = connect_loopback(rs.server.port());

  // Two blank lines, a request, and an id-less request whose newline never
  // comes: blank lines take no request index, and EOF completes the tail.
  send_all(fd, "\n   \n" + distance_request(1, 3) +
                   "{\"source\":0,\"targets\":[6]}");
  ::shutdown(fd, SHUT_WR);
  const std::vector<std::string> got = recv_lines(fd, 3);
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(field(got[0], "id"), "1");
  EXPECT_EQ(field(got[0], "status"), "ok");
  EXPECT_EQ(field(got[1], "seq"), "1") << got[1];
  EXPECT_EQ(field(got[1], "status"), "ok") << got[1];
  EXPECT_TRUE(recv_eof(fd));
  ::close(fd);
}

TEST(NetServer, OrderedAdmissionIsDeterministicPerConnection) {
  // One connection pipelines far more requests than a worker batch (8) and
  // than the 4-worker admission queue (64 slots) over six repeating fault
  // scenarios and a 4-line cache, so cache_hit flags and evictions depend on
  // admission order. The response bytes must not depend on the worker count.
  const Graph grid = grid_graph(6, 6);
  const char* scenarios[] = {"[[0,1]]",          "[[0,6]]",
                             "[[7,8],[13,14]]",  "[[14,15]]",
                             "[[20,26],[21,27]]", "[[2,3],[8,9]]"};
  std::string stream;
  for (unsigned i = 0; i < 300; ++i) {
    // Two targets: single-target misses skip the cache by design.
    stream += "{\"id\":" + std::to_string(i) + ",\"source\":0,\"targets\":[" +
              std::to_string(1 + i * 7 % 35) + ",35],\"fault_edges\":" +
              scenarios[(i * 5 + i / 4) % 6] + "}\n";
  }
  const auto serve = [&](unsigned threads) {
    TenantRegistry registry;
    ServiceConfig sc;
    sc.cache_capacity = 4;
    registry.add("default", grid, sc);
    NetServerConfig config;
    config.threads = threads;
    return serve_over_socketpair(registry, config, stream);
  };
  const std::string reference = serve(1);
  EXPECT_EQ(std::count(reference.begin(), reference.end(), '\n'), 300);
  EXPECT_NE(reference.find("\"cache_hit\":true"), std::string::npos);
  EXPECT_NE(reference.find("\"cache_hit\":false"), std::string::npos);
  for (int run = 0; run < 5; ++run) {
    EXPECT_EQ(serve(4), reference) << "run " << run;
  }
}

TEST(NetServer, OversizedLineAnsweredWithoutKillingTheConnection) {
  TenantRegistry registry;
  registry.add("default", cycle_graph(8));
  NetServerConfig config;
  config.threads = 1;
  config.max_line_bytes = 128;
  RunningServer rs(registry, config);
  const int fd = connect_loopback(rs.server.port());

  // A 1 MB line: server must answer with a parse error using O(128) memory,
  // and the next request on the same connection must still be served.
  std::string bomb(1u << 20, 'x');
  bomb += '\n';
  send_all(fd, bomb);
  send_all(fd, distance_request(7, 3));
  const std::vector<std::string> got = recv_lines(fd, 2);
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(field(got[0], "status"), "parse_error");
  EXPECT_NE(got[0].find("exceeds"), std::string::npos) << got[0];
  EXPECT_EQ(field(got[1], "id"), "7");
  EXPECT_EQ(field(got[1], "status"), "ok");
  ::close(fd);
}

TEST(NetServer, RelaxedModeStampsSeqAndAnswersEveryRequest) {
  TenantRegistry registry;
  registry.add("default", cycle_graph(16));
  NetServerConfig config;
  config.threads = 4;
  config.ordered = false;
  RunningServer rs(registry, config);
  const int fd = connect_loopback(rs.server.port());

  std::string stream;
  for (int i = 0; i < 20; ++i) stream += distance_request(100 + i, 1 + i % 15);
  stream += "{\"source\":0,\"targets\":[2]}\n";  // id-less: must carry seq
  send_all(fd, stream);
  ::shutdown(fd, SHUT_WR);
  const std::vector<std::string> got = recv_lines(fd, 21);
  ASSERT_EQ(got.size(), 21u);
  std::vector<bool> seen(20, false);
  bool seq_line = false;
  for (const std::string& line : got) {
    const std::string id = field(line, "id");
    if (id == "<absent>") {
      // The id-less request is correlated by its connection-local seq (20:
      // it was the 21st line on this connection).
      EXPECT_EQ(field(line, "seq"), "20") << line;
      seq_line = true;
      continue;
    }
    const int idx = std::stoi(id) - 100;
    ASSERT_GE(idx, 0);
    ASSERT_LT(idx, 20);
    EXPECT_FALSE(seen[idx]) << "duplicate response " << line;
    seen[idx] = true;
    EXPECT_EQ(field(line, "status"), "ok") << line;
  }
  EXPECT_TRUE(seq_line);
  for (const bool s : seen) EXPECT_TRUE(s);
  EXPECT_TRUE(recv_eof(fd));
  ::close(fd);
}

// --- tenancy ---------------------------------------------------------------

TEST(NetServer, RoutesBetweenTenantsAndRefusesUnknownOnes) {
  TenantRegistry registry;
  registry.add("rings", cycle_graph(10));   // dist(0,5) = 5
  registry.add("lines", path_graph(10));    // dist(0,5) = 5, but faults differ
  NetServerConfig config;
  config.threads = 2;
  RunningServer rs(registry, config);
  const int fd = connect_loopback(rs.server.port());

  std::string stream;
  stream += distance_request(1, 5, "rings");
  stream += distance_request(2, 5, "lines");
  stream += distance_request(3, 5);  // no tenant: default = first registered
  stream +=
      "{\"id\":4,\"source\":0,\"targets\":[5],\"tenant\":\"ghost\"}\n";
  // Fault edge (0,9) exists in the 10-cycle but not the 10-path: the same
  // line must succeed on one tenant and fail resolution on the other.
  stream +=
      "{\"id\":5,\"source\":0,\"targets\":[5],\"tenant\":\"rings\","
      "\"fault_edges\":[[0,9]]}\n";
  stream +=
      "{\"id\":6,\"source\":0,\"targets\":[5],\"tenant\":\"lines\","
      "\"fault_edges\":[[0,9]]}\n";
  send_all(fd, stream);
  ::shutdown(fd, SHUT_WR);
  const std::vector<std::string> got = recv_lines(fd, 6);
  ASSERT_EQ(got.size(), 6u);
  EXPECT_EQ(field(got[0], "status"), "ok");
  EXPECT_EQ(field(got[1], "status"), "ok");
  EXPECT_EQ(field(got[2], "status"), "ok");
  EXPECT_EQ(field(got[3], "status"), "unknown_tenant");
  EXPECT_EQ(field(got[4], "status"), "ok");
  EXPECT_NE(got[4].find("\"distances\":[5]"), std::string::npos) << got[4];
  EXPECT_EQ(field(got[5], "status"), "unknown_source");
  ::close(fd);

  rs.shutdown_and_join();
  const std::vector<TenantStats> stats = registry.stats();
  ASSERT_EQ(stats.size(), 2u);
  EXPECT_EQ(stats[0].name, "rings");
  EXPECT_EQ(stats[0].service.requests, 3u);  // ids 1, 3 (default), 5
  EXPECT_EQ(stats[1].service.requests, 1u);  // id 2; 6 failed resolution
  const TenantStats total = registry.global_stats();
  EXPECT_EQ(total.service.requests,
            stats[0].service.requests + stats[1].service.requests);
}

TEST(NetServer, QuotaRefusalsDoNotPerturbTheOtherTenant) {
  TenantRegistry registry;
  registry.add("big", cycle_graph(12));
  TenantQuotas small_quota;
  small_quota.max_requests = 3;
  registry.add("small", cycle_graph(12), {}, small_quota);
  NetServerConfig config;
  config.threads = 2;
  RunningServer rs(registry, config);
  const int fd = connect_loopback(rs.server.port());

  std::string stream;
  for (int i = 0; i < 6; ++i) {
    stream += distance_request(10 + i, 1 + i, "small");
    stream += distance_request(20 + i, 1 + i, "big");
  }
  send_all(fd, stream);
  ::shutdown(fd, SHUT_WR);
  const std::vector<std::string> got = recv_lines(fd, 12);
  ASSERT_EQ(got.size(), 12u);
  int small_ok = 0, small_quota_refused = 0;
  for (const std::string& line : got) {
    const int id = std::stoi(field(line, "id"));
    if (id >= 20) {
      EXPECT_EQ(field(line, "status"), "ok") << line;  // big is unperturbed
    } else if (field(line, "status") == "ok") {
      ++small_ok;
    } else {
      EXPECT_EQ(field(line, "status"), "quota_exceeded") << line;
      ++small_quota_refused;
    }
  }
  EXPECT_EQ(small_ok, 3);
  EXPECT_EQ(small_quota_refused, 3);
  ::close(fd);

  rs.shutdown_and_join();
  const std::vector<TenantStats> stats = registry.stats();
  EXPECT_EQ(stats[0].quota_refused, 0u);
  EXPECT_EQ(stats[1].quota_refused, 3u);
  EXPECT_EQ(stats[1].service.requests, 3u);  // refusals never reached it
  EXPECT_EQ(stats[0].service.requests, 6u);
  const TenantStats total = registry.global_stats();
  EXPECT_EQ(total.quota_refused, 3u);
  EXPECT_EQ(total.service.requests, 9u);
  EXPECT_EQ(rs.server.wire_counters().quota_refusals.load(), 3u);
}

// --- drain -----------------------------------------------------------------

TEST(NetServer, GracefulShutdownFlushesInFlightAndCloses) {
  TenantRegistry registry;
  registry.add("default", cycle_graph(16));
  NetServerConfig config;
  config.threads = 2;
  RunningServer rs(registry, config);
  const int fd = connect_loopback(rs.server.port());

  std::string stream;
  for (int i = 0; i < 8; ++i) stream += distance_request(i, 1 + i);
  send_all(fd, stream);
  // Read every response first so the requests are provably in flight, then
  // trigger the drain with the connection still open and idle.
  const std::vector<std::string> got = recv_lines(fd, 8);
  ASSERT_EQ(got.size(), 8u);
  for (int i = 0; i < 8; ++i) EXPECT_EQ(field(got[i], "id"), std::to_string(i));
  rs.server.request_shutdown();
  EXPECT_TRUE(recv_eof(fd));  // drain closed the idle connection
  ::close(fd);
  rs.shutdown_and_join();  // run() must have returned (join would hang)
  EXPECT_EQ(rs.server.responses_sent(), 8u);
}

// --- concurrency stress (runs under TSan in CI) ----------------------------

TEST(NetServer, HammerManyConcurrentPipelinedConnectionsAcrossTenants) {
  constexpr unsigned kClientThreads = 16;
  constexpr unsigned kConnsPerThread = 16;  // 256 concurrent connections
  constexpr unsigned kRequestsPerConn = 12;
  constexpr unsigned kWindow = 6;
  constexpr unsigned kN = 64;

  TenantRegistry registry;
  registry.add("alpha", cycle_graph(kN));
  registry.add("beta", cycle_graph(kN));
  NetServerConfig config;
  config.threads = 4;
  RunningServer rs(registry, config);
  const std::uint16_t port = rs.server.port();

  std::atomic<std::uint64_t> ok_responses{0};
  std::atomic<int> failures{0};
  auto client_thread = [&](unsigned tid) {
    struct ConnState {
      int fd;
      unsigned sent = 0;
      unsigned received = 0;
      std::string buf;
      std::string tenant;
    };
    std::vector<ConnState> conns(kConnsPerThread);
    for (unsigned c = 0; c < kConnsPerThread; ++c) {
      conns[c].fd = connect_loopback(port);
      conns[c].tenant = (tid + c) % 2 == 0 ? "alpha" : "beta";
    }
    // Windowed pipelining per connection, round-robin across connections so
    // all of this thread's 16 connections are concurrently in flight.
    bool work_left = true;
    while (work_left) {
      work_left = false;
      for (unsigned c = 0; c < kConnsPerThread; ++c) {
        ConnState& cs = conns[c];
        while (cs.sent < kRequestsPerConn && cs.sent - cs.received < kWindow) {
          const unsigned target = 1 + (tid * 31 + c * 7 + cs.sent) % (kN - 1);
          const int id = static_cast<int>(cs.sent * 1000 + target);
          send_all(cs.fd, distance_request(id, target, cs.tenant));
          ++cs.sent;
        }
        if (cs.received < cs.sent) {
          char chunk[4096];
          const ssize_t n = ::recv(cs.fd, chunk, sizeof chunk, 0);
          if (n <= 0) {
            ++failures;
            cs.received = cs.sent = kRequestsPerConn;
            continue;
          }
          cs.buf.append(chunk, static_cast<std::size_t>(n));
          std::size_t nl;
          while ((nl = cs.buf.find('\n')) != std::string::npos) {
            const std::string line = cs.buf.substr(0, nl);
            cs.buf.erase(0, nl + 1);
            // Ordered mode: responses arrive in request order; the id's
            // encoded target must match the analytic cycle distance.
            const unsigned expect_target =
                1 + (tid * 31 + c * 7 + cs.received) % (kN - 1);
            const int expect_id =
                static_cast<int>(cs.received * 1000 + expect_target);
            const unsigned expect_dist =
                std::min(expect_target, kN - expect_target);
            if (field(line, "id") != std::to_string(expect_id) ||
                line.find("\"distances\":[" + std::to_string(expect_dist) +
                          "]") == std::string::npos) {
              ++failures;
            } else {
              ok_responses.fetch_add(1, std::memory_order_relaxed);
            }
            ++cs.received;
          }
        }
        if (cs.received < kRequestsPerConn) work_left = true;
      }
    }
    for (ConnState& cs : conns) ::close(cs.fd);
  };

  std::vector<std::thread> clients;
  for (unsigned t = 0; t < kClientThreads; ++t) {
    clients.emplace_back(client_thread, t);
  }
  for (std::thread& t : clients) t.join();

  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(ok_responses.load(),
            std::uint64_t{kClientThreads} * kConnsPerThread * kRequestsPerConn);
  rs.shutdown_and_join();
  EXPECT_EQ(rs.server.connections_accepted(),
            std::uint64_t{kClientThreads} * kConnsPerThread);
  EXPECT_EQ(rs.server.responses_sent(),
            std::uint64_t{kClientThreads} * kConnsPerThread * kRequestsPerConn);
  // Per-tenant accounting never loses a request: the two tenants' stats sum
  // to the global picture, and every request reached a tenant.
  const TenantStats total = registry.global_stats();
  EXPECT_EQ(total.service.requests,
            std::uint64_t{kClientThreads} * kConnsPerThread * kRequestsPerConn);
  const std::vector<TenantStats> per = registry.stats();
  EXPECT_EQ(per[0].service.requests + per[1].service.requests,
            total.service.requests);
  EXPECT_GT(per[0].service.requests, 0u);
  EXPECT_GT(per[1].service.requests, 0u);
}

// --- robustness: failpoints, degradation, reload (docs/robustness.md) ------

// Failpoint state is process-global; every armed test must disarm on exit.
struct DisarmOnExit {
  ~DisarmOnExit() { fp::disarm_all(); }
};

TEST(NetRobustness, SurvivesInjectedReadAndWriteFaults) {
  DisarmOnExit guard;
  // Transient read errors and truncated writes at 30% each: every request
  // must still be answered correctly — the syscall loops absorb the faults.
  std::string err;
  ASSERT_TRUE(fp::arm(
      "net.read=err(EAGAIN,p=0.3,seed=7);net.write=shortwrite(p=0.3,seed=9)",
      &err))
      << err;

  TenantRegistry registry;
  registry.add("default", cycle_graph(24));
  NetServerConfig config;
  config.threads = 2;
  RunningServer rs(registry, config);
  const int fd = connect_loopback(rs.server.port());

  std::string stream;
  for (int i = 0; i < 40; ++i) stream += distance_request(i, 1 + (i * 5) % 23);
  send_all(fd, stream);
  ::shutdown(fd, SHUT_WR);
  const std::vector<std::string> got = recv_lines(fd, 40);
  ASSERT_EQ(got.size(), 40u);
  for (int i = 0; i < 40; ++i) {
    EXPECT_EQ(field(got[i], "id"), std::to_string(i));
    EXPECT_EQ(field(got[i], "status"), "ok") << got[i];
  }
  EXPECT_TRUE(recv_eof(fd));
  ::close(fd);
}

TEST(NetRobustness, EmfileOnAcceptShedsViaSpareFdInsteadOfSpinning) {
  DisarmOnExit guard;
  // One injected EMFILE: the server must release its reserved fd, accept the
  // pending connection, and close it cleanly (the client sees EOF) — then the
  // next connection is served normally.
  ASSERT_TRUE(fp::arm("net.accept=err(EMFILE,count=1)"));

  TenantRegistry registry;
  registry.add("default", cycle_graph(12));
  NetServerConfig config;
  config.threads = 1;
  RunningServer rs(registry, config);

  const int shed = connect_loopback(rs.server.port());
  EXPECT_TRUE(recv_eof(shed));  // shed: clean close, not a hung connect
  ::close(shed);

  const int fd = connect_loopback(rs.server.port());
  send_all(fd, distance_request(1, 3));
  const std::vector<std::string> got = recv_lines(fd, 1);
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(field(got[0], "status"), "ok");
  ::close(fd);
  rs.shutdown_and_join();
  EXPECT_EQ(rs.server.connections_shed_fd_limit(), 1u);
}

TEST(NetRobustness, QueuePressureShedsOverloadedInsteadOfParkingForever) {
  DisarmOnExit guard;
  // One worker, a 2-slot queue, and a 100 ms execution sleep: pipelining 12
  // requests parks the backlog on a full admission FIFO past the 50 ms shed
  // budget. Every line must still be answered — some ok, the parked tail
  // `overloaded` — and the connection must survive.
  ASSERT_TRUE(fp::arm("service.execute=sleep(ms=100,count=3)"));

  TenantRegistry registry;
  registry.add("default", cycle_graph(16));
  NetServerConfig config;
  config.threads = 1;
  config.queue_capacity = 2;
  config.shed_after_ms = 50;
  RunningServer rs(registry, config);
  const int fd = connect_loopback(rs.server.port());

  // A stalled admission ticket would hang the reads below; fail instead.
  const timeval tv{10, 0};
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);

  std::string stream;
  for (int i = 0; i < 12; ++i) stream += distance_request(i, 1 + i);
  send_all(fd, stream);
  const std::vector<std::string> got = recv_lines(fd, 12);
  ASSERT_EQ(got.size(), 12u);
  int ok = 0, overloaded = 0;
  for (int i = 0; i < 12; ++i) {
    EXPECT_EQ(field(got[i], "id"), std::to_string(i)) << got[i];
    const std::string status = field(got[i], "status");
    if (status == "ok") ++ok;
    else if (status == "overloaded") ++overloaded;
    else ADD_FAILURE() << "unexpected status: " << got[i];
  }
  EXPECT_GT(ok, 0);
  EXPECT_GT(overloaded, 0);
  EXPECT_EQ(ok + overloaded, 12);
  // Shed lines never took an admission ticket, so later requests on the
  // same connection are admitted without waiting on them (one at a time, so
  // none of them parks long enough to be shed in turn).
  for (int i = 12; i < 15; ++i) {
    send_all(fd, distance_request(i, 1 + i));
    const std::vector<std::string> later = recv_lines(fd, 1);
    ASSERT_EQ(later.size(), 1u) << "request " << i << " stalled";
    EXPECT_EQ(field(later[0], "id"), std::to_string(i)) << later[0];
    EXPECT_EQ(field(later[0], "status"), "ok") << later[0];
  }
  ::shutdown(fd, SHUT_WR);
  EXPECT_TRUE(recv_eof(fd));
  ::close(fd);
  rs.shutdown_and_join();
  EXPECT_EQ(rs.server.wire_counters().overload_sheds.load(),
            static_cast<std::uint64_t>(overloaded));
}

TEST(NetRobustness, DeadlineExceededIsTypedAndPerRequest) {
  DisarmOnExit guard;
  // The first execution sleeps 100 ms; the request carries deadline_ms=40, so
  // the pre-execution recheck must refuse it as deadline_exceeded. The second
  // request (no deadline, no sleep left) must be served normally.
  ASSERT_TRUE(fp::arm("service.execute=sleep(ms=100,count=1)"));

  TenantRegistry registry;
  registry.add("default", cycle_graph(16));
  NetServerConfig config;
  config.threads = 1;
  RunningServer rs(registry, config);
  const int fd = connect_loopback(rs.server.port());

  send_all(fd,
           "{\"id\":1,\"source\":0,\"targets\":[5],\"deadline_ms\":40}\n");
  send_all(fd, distance_request(2, 5));
  ::shutdown(fd, SHUT_WR);
  const std::vector<std::string> got = recv_lines(fd, 2);
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(field(got[0], "status"), "deadline_exceeded") << got[0];
  EXPECT_EQ(field(got[1], "status"), "ok") << got[1];
  ::close(fd);
  rs.shutdown_and_join();
  EXPECT_EQ(rs.server.wire_counters().deadline_refusals.load(), 1u);
}

// The "distances" array of a response line, or empty if absent.
std::vector<long long> distances_of(const std::string& line) {
  JsonValue v;
  std::string err;
  std::vector<long long> out;
  if (!JsonReader(line).parse(v, err)) return out;
  const JsonValue* d = v.find("distances");
  if (d == nullptr || d->kind != JsonValue::Kind::kArray) return out;
  for (const JsonValue& x : d->array) {
    out.push_back(static_cast<long long>(x.number));
  }
  return out;
}

TEST(NetRobustness, ExecutionFailureIsOverloadedAndTheConnectionKeepsServing) {
  DisarmOnExit guard;
  // err() on service.execute throws std::bad_alloc in place of the first
  // execution. The worker must answer that request `overloaded` with its id
  // instead of dying, and the connection's later tickets must keep flowing.
  // All three requests share one scenario: the first reserves its cache
  // line, so the two behind it wait on a line the failed request poisons
  // and must recompute for themselves.
  ASSERT_TRUE(fp::arm("service.execute=err(ENOMEM,count=1)"));

  TenantRegistry registry;
  registry.add("default", cycle_graph(16));
  NetServerConfig config;
  config.threads = 1;
  RunningServer rs(registry, config);
  const int fd = connect_loopback(rs.server.port());
  const timeval tv{10, 0};
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);

  // Edge {0,1} down: every target is reached the long way round, 16 - t.
  const auto request = [](int id) {
    return "{\"id\":" + std::to_string(id) +
           ",\"source\":0,\"targets\":[3,5,7],\"fault_edges\":[[0,1]]}\n";
  };
  const std::vector<long long> expected = {13, 11, 9};
  send_all(fd, request(1) + request(2) + request(3));
  const std::vector<std::string> got = recv_lines(fd, 3);
  ASSERT_EQ(got.size(), 3u);
  EXPECT_EQ(field(got[0], "id"), "1") << got[0];
  EXPECT_EQ(field(got[0], "status"), "overloaded") << got[0];
  for (int i = 1; i < 3; ++i) {
    EXPECT_EQ(field(got[i], "id"), std::to_string(i + 1)) << got[i];
    EXPECT_EQ(field(got[i], "status"), "ok") << got[i];
    EXPECT_EQ(distances_of(got[i]), expected) << got[i];
  }
  send_all(fd, request(4));
  const std::vector<std::string> later = recv_lines(fd, 1);
  ASSERT_EQ(later.size(), 1u) << "request 4 stalled";
  EXPECT_EQ(field(later[0], "id"), "4") << later[0];
  EXPECT_EQ(field(later[0], "status"), "ok") << later[0];
  EXPECT_EQ(distances_of(later[0]), expected) << later[0];
  ::close(fd);
}

TEST(NetRobustness, RateLimitRefusesBeyondBurstWithTypedStatus) {
  TenantRegistry registry;
  TenantQuotas quotas;
  quotas.rate_limit_rps = 0.001;  // refill ~1 token per 1000 s: burst only
  registry.add("default", cycle_graph(12), {}, quotas);
  NetServerConfig config;
  config.threads = 1;
  RunningServer rs(registry, config);
  const int fd = connect_loopback(rs.server.port());

  std::string stream;
  for (int i = 0; i < 3; ++i) stream += distance_request(i, 2 + i);
  send_all(fd, stream);
  ::shutdown(fd, SHUT_WR);
  const std::vector<std::string> got = recv_lines(fd, 3);
  ASSERT_EQ(got.size(), 3u);
  EXPECT_EQ(field(got[0], "status"), "ok");  // burst = max(1, ceil(rps)) = 1
  EXPECT_EQ(field(got[1], "status"), "rate_limited") << got[1];
  EXPECT_EQ(field(got[2], "status"), "rate_limited") << got[2];
  ::close(fd);
  rs.shutdown_and_join();
  EXPECT_EQ(rs.server.wire_counters().rate_limit_refusals.load(), 2u);
}

TEST(NetRobustness, WriteStallEvictsTheClientThatStoppedReading) {
  // A client that pipelines heavy requests and never reads: once the kernel
  // buffers fill, the server's writes make no progress and the connection
  // must be evicted after write_stall_ms — instead of holding its output
  // buffer forever.
  TenantRegistry registry;
  registry.add("default", cycle_graph(128));
  NetServerConfig config;
  config.threads = 2;
  config.write_stall_ms = 200;
  RunningServer rs(registry, config);

  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  const int tiny = 4096;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &tiny, sizeof tiny);
  // If the server parks our reads under backpressure, a blocking send() would
  // hang this test; a send timeout turns that into a clean loop exit.
  const timeval tv{5, 0};
  ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof tv);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(rs.server.port());
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr), 0);

  // Every request repeats one cached scenario (source 0, no faults) over a
  // deliberately repetitive 2048-entry target list, so responses are cheap
  // to compute (~7 KB of distances each) but their aggregate ~10 MB
  // overflows the kernel's send-buffer autotuning ceiling
  // (net.ipv4.tcp_wmem max, typically 4 MB) — the server's flushes are
  // guaranteed to hit EAGAIN with bytes still pending, a true stall, not
  // just a slow drain. The graph stays small because the first query pays
  // the per-source structure build, which grows steeply with n.
  std::string many_targets;
  for (unsigned t = 0; t < 2048; ++t) {
    many_targets += (t == 0 ? "" : ",") + std::to_string(1 + t % 127);
  }
  for (int i = 0; i < 1500; ++i) {
    const std::string line = "{\"id\":" + std::to_string(i) +
                             ",\"source\":0,\"targets\":[" + many_targets +
                             "]}\n";
    const ssize_t n = ::send(fd, line.data(), line.size(), MSG_NOSIGNAL);
    if (n <= 0) break;  // server already parked reads or evicted us
  }
  // Never read. The server must evict this connection on its own.
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::seconds(30);
  while (rs.server.connections_evicted_stalled() == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  EXPECT_EQ(rs.server.connections_evicted_stalled(), 1u);
  ::close(fd);
  rs.shutdown_and_join();  // and the drain must not hang on the evicted conn
}

TEST(NetRobustness, HotReloadAddsRemovesAndRequotasTenants) {
  // Manifest-driven registry + on_reload wired exactly like the CLI does it:
  // SIGHUP's request_reload() must add/retire/re-quota tenants while the
  // server keeps answering on an open connection.
  const std::string dir = ::testing::TempDir();
  const std::string graph_a = dir + "net_reload_a.txt";
  const std::string graph_b = dir + "net_reload_b.txt";
  const std::string manifest = dir + "net_reload_manifest.json";
  save_graph(graph_a, cycle_graph(10));
  save_graph(graph_b, cycle_graph(20));
  const auto write_manifest = [&](const std::string& body) {
    std::FILE* f = std::fopen(manifest.c_str(), "w");
    ASSERT_NE(f, nullptr);
    std::fwrite(body.data(), 1, body.size(), f);
    std::fclose(f);
  };
  write_manifest("{\"schema\": 2, \"tenants\": ["
                 "{\"name\": \"alpha\", \"graph\": \"" + graph_a + "\"},"
                 "{\"name\": \"beta\", \"graph\": \"" + graph_b + "\"}]}");

  TenantRegistry registry;
  registry.load_manifest(manifest);
  NetServerConfig config;
  config.threads = 1;
  config.on_reload = [&registry, manifest] { registry.reload(manifest); };
  RunningServer rs(registry, config);
  const int fd = connect_loopback(rs.server.port());

  send_all(fd, distance_request(1, 5, "alpha"));
  send_all(fd, distance_request(2, 5, "beta"));
  std::vector<std::string> got = recv_lines(fd, 2);
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(field(got[0], "status"), "ok");
  EXPECT_EQ(field(got[1], "status"), "ok");

  // New manifest: beta gone, gamma added, alpha re-quota'd to 1 more request.
  write_manifest("{\"schema\": 2, \"tenants\": ["
                 "{\"name\": \"alpha\", \"graph\": \"" + graph_a + "\","
                 " \"max_requests\": 2},"
                 "{\"name\": \"gamma\", \"graph\": \"" + graph_b + "\"}]}");
  rs.server.request_reload();
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::seconds(10);
  while (rs.server.reloads_completed() == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_EQ(rs.server.reloads_completed(), 1u);

  // Same connection, no reconnect: gamma routable, beta now unknown, alpha's
  // tightened lifetime quota (2, of which 1 is already spent) bites on its
  // second post-reload request.
  send_all(fd, distance_request(3, 7, "gamma"));
  send_all(fd, distance_request(4, 5, "beta"));
  send_all(fd, distance_request(5, 5, "alpha"));
  send_all(fd, distance_request(6, 5, "alpha"));
  ::shutdown(fd, SHUT_WR);
  got = recv_lines(fd, 4);
  ASSERT_EQ(got.size(), 4u);
  EXPECT_EQ(field(got[0], "status"), "ok") << got[0];
  EXPECT_NE(got[0].find("\"distances\":[7]"), std::string::npos) << got[0];
  EXPECT_EQ(field(got[1], "status"), "unknown_tenant") << got[1];
  EXPECT_EQ(field(got[2], "status"), "ok") << got[2];
  EXPECT_EQ(field(got[3], "status"), "quota_exceeded") << got[3];
  EXPECT_TRUE(recv_eof(fd));
  ::close(fd);
}

}  // namespace
}  // namespace ftbfs
