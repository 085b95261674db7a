// Load generator: one thread, kConnections loopback TCP connections, JSONL
// requests from a precomputed pool. The server answers each connection in
// request order (ordered mode), so every connection keeps a FIFO of the pool
// indices it is waiting for and checks each response line against the next.
#include <sys/epoll.h>
#include <sys/socket.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <cmath>
#include <deque>
#include <stdexcept>
#include <string>

#include "bench.h"
#include "spath/bfs.h"

namespace perfbench {
namespace {

// How long to wait for outstanding responses once sending has stopped.
constexpr double kDrainSeconds = 10.0;

int connect_loopback(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) throw std::runtime_error("socket() failed");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    ::close(fd);
    throw std::runtime_error("connect() to the benchmark server failed");
  }
  // Small pipelined requests: without this, Nagle holds each one back until
  // the previous segment is acknowledged.
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  return fd;
}

bool send_all(int fd, const std::string& data) {
  std::size_t off = 0;
  while (off < data.size()) {
    const ssize_t n =
        ::send(fd, data.data() + off, data.size() - off, MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    off += static_cast<std::size_t>(n);
  }
  return true;
}

struct Pending {
  std::size_t index = 0;
  Clock::time_point due{};
};

struct Conn {
  int fd = -1;
  bool open = true;
  std::string in;   // received bytes not yet split into lines
  std::string out;  // requests queued for the next send
  std::deque<Pending> pending;
};

// Owns the connections and the epoll set; closes them on every path.
class Client {
 public:
  Client(std::uint16_t port, const RequestPool& pool, std::uint64_t& cursor,
         unsigned connections = kConnections)
      : pool_(&pool), cursor_(&cursor), conns_(connections) {
    epoll_fd_ = ::epoll_create1(0);
    if (epoll_fd_ < 0) throw std::runtime_error("epoll_create1() failed");
    for (unsigned i = 0; i < connections; ++i) {
      conns_[i].fd = connect_loopback(port);
      epoll_event ev{};
      ev.events = EPOLLIN;
      ev.data.u32 = i;
      ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, conns_[i].fd, &ev);
    }
  }
  ~Client() {
    for (Conn& c : conns_) {
      if (c.fd >= 0) ::close(c.fd);
    }
    ::close(epoll_fd_);
  }
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  // Queues the next pool request on connection `i`.
  void queue(unsigned i, Clock::time_point due) {
    const std::size_t index = *cursor_ % pool_->size();
    ++*cursor_;
    Conn& c = conns_[i];
    c.out += pool_->lines[index];
    c.out += '\n';
    c.pending.push_back({index, due});
    ++result.sent;
  }

  void flush(unsigned i) {
    Conn& c = conns_[i];
    if (c.out.empty()) return;
    if (c.open && !send_all(c.fd, c.out)) lose(c);
    c.out.clear();
  }

  // Waits up to `timeout_ms` for responses and hands each one to
  // on_response(conn, pending, correct, received_at).
  template <typename OnResponse>
  void poll(int timeout_ms, OnResponse&& on_response) {
    epoll_event evs[kConnections];
    const int n = ::epoll_wait(epoll_fd_, evs, kConnections, timeout_ms);
    if (n <= 0) return;
    const Clock::time_point now = Clock::now();
    for (int k = 0; k < n; ++k) {
      const unsigned i = evs[k].data.u32;
      Conn& c = conns_[i];
      if (!c.open) continue;
      char buf[1 << 16];
      for (;;) {
        const ssize_t got = ::recv(c.fd, buf, sizeof buf, MSG_DONTWAIT);
        if (got > 0) {
          c.in.append(buf, static_cast<std::size_t>(got));
          if (static_cast<std::size_t>(got) < sizeof buf) break;
          continue;
        }
        if (got < 0 && errno == EINTR) continue;
        if (got < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
        lose(c);  // EOF or error: everything outstanding is lost
        break;
      }
      std::size_t start = 0;
      for (std::size_t nl; (nl = c.in.find('\n', start)) != std::string::npos;
           start = nl + 1) {
        const std::string_view line(c.in.data() + start, nl - start);
        if (c.pending.empty()) {  // an answer nobody asked for
          ++result.failed;
          continue;
        }
        const Pending p = c.pending.front();
        c.pending.pop_front();
        const bool correct = response_matches(line, *pool_, p.index);
        if (correct) {
          ++result.ok;
        } else {
          ++result.failed;
        }
        on_response(i, p, correct, now);
      }
      c.in.erase(0, start);
    }
  }

  [[nodiscard]] std::size_t outstanding() const {
    std::size_t n = 0;
    for (const Conn& c : conns_) n += c.pending.size();
    return n;
  }

  // Counts everything still outstanding as failed (drain timed out).
  void abandon() {
    for (Conn& c : conns_) {
      result.failed += c.pending.size();
      c.pending.clear();
    }
  }

  LoadResult result;

 private:
  void lose(Conn& c) {
    c.open = false;
    result.failed += c.pending.size();
    c.pending.clear();
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, c.fd, nullptr);
  }

  const RequestPool* pool_;
  std::uint64_t* cursor_;
  int epoll_fd_ = -1;
  std::vector<Conn> conns_;
};

std::int64_t parse_int(std::string_view s, std::size_t& pos) {
  std::int64_t v = 0;
  const auto [ptr, ec] =
      std::from_chars(s.data() + pos, s.data() + s.size(), v);
  if (ec != std::errc()) return INT64_MIN;
  pos = static_cast<std::size_t>(ptr - s.data());
  return v;
}

}  // namespace

bool response_matches(std::string_view line, const RequestPool& pool,
                      std::size_t index) {
  constexpr std::string_view kId = "{\"id\":";
  if (!line.starts_with(kId)) return false;
  std::size_t pos = kId.size();
  if (parse_int(line, pos) != static_cast<std::int64_t>(index)) return false;
  const std::uint32_t* want = pool.answer(index);
  bool all_unreachable = true;
  for (unsigned k = 0; k < kTargetsPerRequest; ++k) {
    all_unreachable = all_unreachable && want[k] == ftbfs::kInfHops;
  }
  const std::string_view status = all_unreachable
                                      ? ",\"status\":\"disconnected\""
                                      : ",\"status\":\"ok\"";
  if (line.substr(pos, status.size()) != status) return false;
  constexpr std::string_view kDist = "\"distances\":[";
  pos = line.find(kDist, pos);
  if (pos == std::string_view::npos) return false;
  pos += kDist.size();
  for (unsigned k = 0; k < kTargetsPerRequest; ++k) {
    if (k > 0) {
      if (pos >= line.size() || line[pos] != ',') return false;
      ++pos;
    }
    const std::int64_t got = parse_int(line, pos);
    const std::int64_t exp =
        want[k] == ftbfs::kInfHops ? -1 : static_cast<std::int64_t>(want[k]);
    if (got != exp) return false;
  }
  return pos < line.size() && line[pos] == ']';
}

LoadResult closed_loop(std::uint16_t port, const RequestPool& pool,
                       std::uint64_t& cursor, double seconds) {
  Client client(port, pool, cursor);
  const double cpu0 = thread_cpu_s();
  const Clock::time_point start = Clock::now();
  const Clock::time_point deadline = after(start, seconds);
  for (unsigned i = 0; i < kConnections; ++i) {
    for (unsigned w = 0; w < kWindow; ++w) client.queue(i, start);
    client.flush(i);
  }
  bool touched[kConnections] = {};
  for (;;) {
    client.poll(50, [&](unsigned i, const Pending&, bool correct,
                        Clock::time_point at) {
      if (at > deadline) return;
      if (correct) ++client.result.ok_in_window;
      client.queue(i, at);
      touched[i] = true;
    });
    for (unsigned i = 0; i < kConnections; ++i) {
      if (touched[i]) client.flush(i);
      touched[i] = false;
    }
    const Clock::time_point now = Clock::now();
    if (now > deadline && client.outstanding() == 0) break;
    if (seconds_between(deadline, now) > kDrainSeconds) {
      client.abandon();
      break;
    }
  }
  client.result.window_s = seconds_between(start, deadline);
  client.result.client_cpu_s = thread_cpu_s() - cpu0;
  return std::move(client.result);
}

LoadResult open_loop(std::uint16_t port, const RequestPool& pool,
                     std::uint64_t& cursor, double seconds, double rate) {
  Client client(port, pool, cursor);
  const auto total = static_cast<std::uint64_t>(std::llround(seconds * rate));
  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(1);
  const auto due = [&](std::uint64_t k) {
    return after(start, static_cast<double>(k) / rate);
  };
  std::uint64_t next = 0;
  const auto on_response = [&](unsigned, const Pending& p, bool correct,
                               Clock::time_point at) {
    if (correct) {
      client.result.latency_us.add(seconds_between(p.due, at) * 1e6);
    }
  };
  // The generator spins: a sleeping thread wakes too late to keep a
  // 33 µs schedule, and lateness is reported rather than hidden.
  for (;;) {
    const Clock::time_point now = Clock::now();
    bool sent = false;
    while (next < total && due(next) <= now) {
      const Clock::time_point d = due(next);
      client.result.late_max_us =
          std::max(client.result.late_max_us, seconds_between(d, now) * 1e6);
      client.queue(static_cast<unsigned>(next % kConnections), d);
      ++next;
      sent = true;
    }
    if (sent) {
      for (unsigned i = 0; i < kConnections; ++i) client.flush(i);
    }
    client.poll(0, on_response);
    if (next == total && client.outstanding() == 0) break;
    if (next == total &&
        seconds_between(due(total), Clock::now()) > kDrainSeconds) {
      client.abandon();
      break;
    }
  }
  return std::move(client.result);
}

bool single_request(std::uint16_t port, const RequestPool& pool,
                    std::size_t index) {
  std::uint64_t cursor = index;
  Client client(port, pool, cursor, 1);
  client.queue(0, Clock::now());
  client.flush(0);
  const Clock::time_point start = Clock::now();
  while (client.outstanding() > 0 &&
         seconds_between(start, Clock::now()) < kDrainSeconds) {
    client.poll(100, [](unsigned, const Pending&, bool, Clock::time_point) {});
  }
  client.abandon();
  return client.result.ok == 1 && client.result.failed == 0;
}

}  // namespace perfbench
