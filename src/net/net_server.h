// Non-blocking stream-socket front-end: the one serving pipeline behind
// `ftbfs serve`, over TCP (`--listen`) and over stdin/stdout alike.
//
// One epoll event loop (the thread that calls run()) owns every socket:
// it accepts connections, reassembles JSONL request lines (net/framing.h),
// and writes response bytes. A pool of worker threads owns every answer:
// lines flow loop → BoundedQueue → workers, each worker runs the LineJob
// parse/admit/finish pipeline (service/tenant.h), and finished response
// lines flow back worker → loop through per-connection buffers plus an
// eventfd wakeup. The loop never computes and the workers never touch a
// socket. Without a listener the server serves one already-connected stream
// socket — the CLI hands it one end of a socketpair whose other end is
// pumped to and from stdin/stdout — and run() returns once that connection
// has finished.
//
// Framing. Whitespace-only lines are skipped without consuming a request
// index; at a peer's EOF an unterminated final line is served as if its
// newline had arrived (a drain drops it — see below).
//
// Ordering. With `ordered` set, each connection is a replayable stream: its
// requests are *admitted* in request order (a per-connection ticket lock, so
// cache and pool decisions — `cache_hit` flags included — are exactly those
// of sequential serving) and its responses are emitted in request order (a
// per-connection reorder buffer holds out-of-order completions back). Relaxed
// mode does neither: responses go out in completion order with `seq` (the
// connection-local request index) stamped into responses to id-less requests
// so they stay correlatable. Cross-connection order — and so which of two
// connections racing for one scenario gets the cache hit — is never defined.
//
// Backpressure, two rings of it, both by *parking the connection* (dropping
// its EPOLLIN interest so the kernel's socket buffer does the rest):
//   * admission ring — the BoundedQueue is full: parsed lines wait in the
//     connection's backlog and the loop retries on the next worker wakeup;
//   * write ring — the peer is not reading: once the connection's pending
//     output exceeds `write_park_bytes`, reading stops until it drains.
// A slow or malicious client therefore costs O(its own buffers), never
// unbounded server memory, and never stalls other connections.
//
// Graceful drain: request_shutdown() (async-signal-safe — one write to a
// self-pipe) stops the listener, keeps serving every fully received line,
// flushes every response, then run() returns. Bytes of half-received lines
// are dropped; the client that wants its tail answered half-closes (shutdown
// SHUT_WR) and reads to EOF.
//
// Degradation (docs/robustness.md). Parking is bounded: a connection whose
// backlog has waited on a full admission FIFO past `shed_after_ms` gets its
// backlog answered `overloaded` from the loop thread instead of parking
// forever; a connection whose write buffer has made no progress for
// `write_stall_ms` (the peer stopped reading) is evicted. Both timers run on
// a coarse epoll-timeout sweep that only ticks while some connection is
// parked or stalled — an idle or healthy server still blocks indefinitely.
//
// Reload: request_reload() (async-signal-safe, the SIGHUP path) runs
// `on_reload` on the loop thread — the CLI points it at
// TenantRegistry::reload, so tenants appear/retire/re-quota without a
// restart while workers keep serving; in-flight requests pin their tenant
// until they finish (service/tenant.h).
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "net/framing.h"
#include "service/tenant.h"
#include "service/work_queue.h"

namespace ftbfs {

struct NetServerConfig {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;  // 0 = ephemeral; NetServer::port() has the result
  unsigned threads = 1;
  bool ordered = true;  // per-connection admission + response order
  std::size_t max_line_bytes = 1u << 20;
  std::size_t write_park_bytes = 1u << 20;
  std::size_t queue_capacity = 0;  // admission queue slots; 0 = 16 * threads
  // Queue-pressure budget: a backlog parked on a full admission FIFO longer
  // than this is answered `overloaded` instead of waiting. 0 = park forever
  // (the pre-PR-9 behavior).
  std::int64_t shed_after_ms = 2000;
  // Slow-client eviction: a connection whose pending output makes no progress
  // for this long is dropped. 0 = never evict.
  std::int64_t write_stall_ms = 30000;
  // Invoked on the loop thread when request_reload() fires (the SIGHUP path).
  // Exceptions are caught and logged; the server keeps serving either way.
  std::function<void()> on_reload;
};

class NetServer {
 public:
  // Binds and listens immediately (so callers can print the port before
  // run()); throws std::runtime_error with errno context on failure.
  NetServer(TenantRegistry& registry, NetServerConfig config);

  // No listener: serves the already-connected stream socket `connected_fd`
  // (ownership passes to the server; config.host/port are unused) and run()
  // returns once that connection has finished — its peer half-closed and
  // every answer is flushed — or after a drain.
  NetServer(TenantRegistry& registry, NetServerConfig config,
            int connected_fd);
  ~NetServer();

  NetServer(const NetServer&) = delete;
  NetServer& operator=(const NetServer&) = delete;

  // The bound port (resolves config.port == 0); 0 without a listener.
  [[nodiscard]] std::uint16_t port() const { return port_; }

  // Runs the event loop until the drain completes: after request_shutdown(),
  // or — without a listener — once the last connection has finished. Call
  // from exactly one thread; worker threads are spawned and joined inside.
  void run();

  // Async-signal-safe shutdown trigger (callable from a signal handler).
  void request_shutdown();

  // Async-signal-safe reload trigger: schedules config_.on_reload on the
  // loop thread (callable from a SIGHUP handler).
  void request_reload();

  // --- stats (valid while running and after run() returns) -----------------
  [[nodiscard]] const WireCounters& wire_counters() const { return counters_; }
  [[nodiscard]] std::uint64_t connections_accepted() const {
    return conns_accepted_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t responses_sent() const {
    return responses_sent_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t connections_shed_fd_limit() const {
    return conns_shed_fdlimit_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t connections_evicted_stalled() const {
    return conns_evicted_stalled_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t reloads_completed() const {
    return reloads_completed_.load(std::memory_order_relaxed);
  }

 private:
  // One queued request line. `conn` stays valid until the job's deliver():
  // the connection's inflight count pins it through the zombie list.
  struct Conn;
  struct NetJob {
    Conn* conn = nullptr;
    std::uint64_t seq = 0;  // connection-local request index
    // Ordered mode: the connection-local admission turn, assigned when the
    // job enters the queue — lines shed from the backlog never take one, so
    // a connection's tickets stay dense.
    std::uint64_t ticket = 0;
    bool oversized = false;
    std::string line;
    // When the bytes arrived — the moment the request's deadline clock
    // started, covering queue wait as well as execution.
    std::chrono::steady_clock::time_point arrival{};
  };

  struct Conn {
    explicit Conn(int fd_, std::size_t max_line)
        : fd(fd_), framer(max_line) {}

    int fd;
    LineFramer framer;

    // --- loop-thread-only state ---------------------------------------------
    std::uint64_t next_seq = 0;        // next request index to assign
    std::uint64_t next_ticket = 0;     // next admission ticket to assign
    std::deque<NetJob> backlog;        // parsed lines the queue refused
    bool read_closed = false;          // peer sent EOF
    bool reading = true;               // EPOLLIN currently armed
    bool writing = false;              // EPOLLOUT currently armed
    bool parked_for_queue = false;     // in queue_waiters_
    bool stalled = false;              // pending output, no write progress
    std::chrono::steady_clock::time_point park_since{};   // parked_for_queue
    std::chrono::steady_clock::time_point stall_since{};  // stalled

    // --- worker/loop shared state (out_mutex) -------------------------------
    std::mutex out_mutex;
    std::string out;                       // bytes awaiting write()
    std::size_t out_off = 0;               // prefix of `out` already sent
    std::uint64_t next_out = 0;            // ordered mode: next seq to emit
    std::map<std::uint64_t, std::string> reorder;  // ordered mode holdback

    // --- worker-only state --------------------------------------------------
    RequestSequencer admission;  // ordered mode: admissions in ticket order

    // --- cross-thread flags -------------------------------------------------
    std::atomic<bool> dead{false};           // error/hangup: drop everything
    std::atomic<std::uint64_t> inflight{0};  // jobs queued or being served
    std::atomic<bool> in_ready{false};       // already on the ready list
  };

  void open_loop();             // epoll set, eventfd, signal self-pipe
  bool add_conn(int fd);        // registers a connected, non-blocking socket
  void worker_main();
  void deliver(Conn& c, std::uint64_t seq, std::string line);

  void handle_accept();
  void shed_via_spare_fd();     // EMFILE/ENFILE: accept+close one connection
  void handle_readable(Conn& c);
  bool flush_writes(Conn& c);   // false: peer gone, caller must drop
  bool drain_backlog(Conn& c);  // false: queue full, connection parked
  void shed_backlog(Conn& c);   // answer the backlog `overloaded`, unpark
  void update_interest(Conn& c, bool want_read, bool want_write);
  void refresh_after_io(Conn& c);  // flush + recompute interest + finish
  void drop_conn(Conn& c);      // error path: discard state, close socket
  void retire_conn(Conn& c);    // clean path: close once fully flushed
  void maybe_finish_conn(Conn& c);
  void process_wakeups();
  void reap_zombies();
  void begin_drain();
  void do_reload();
  void sweep_timers();          // shed overdue parks, evict stalled writers
  [[nodiscard]] int loop_timeout_ms() const;
  [[nodiscard]] bool drained() const;

  TenantRegistry* registry_;
  NetServerConfig config_;
  WireCounters counters_;

  int epoll_fd_ = -1;
  int listen_fd_ = -1;
  int wake_fd_ = -1;      // eventfd: workers → loop
  int sig_pipe_[2] = {-1, -1};  // self-pipe: shutdown/reload signals → loop
  // Reserved fd: released under EMFILE/ENFILE so the pending connection can
  // be accepted and closed (shed) instead of spinning at the fd limit.
  int spare_fd_ = -1;
  std::uint16_t port_ = 0;

  std::unique_ptr<BoundedQueue<NetJob>> queue_;
  std::map<int, std::unique_ptr<Conn>> conns_;        // fd → live connection
  std::vector<std::unique_ptr<Conn>> zombies_;        // closed, jobs inflight
  std::vector<Conn*> queue_waiters_;                  // parked: queue was full
  std::vector<int> pending_close_;  // close deferred past the event batch:
                                    // the kernel must not reuse an fd while
                                    // stale events for it are still queued

  std::mutex ready_mutex_;
  std::vector<Conn*> ready_;  // conns with fresh output (workers append)

  bool draining_ = false;
  bool reload_happened_ = false;  // enables retired-tenant reaping in sweeps
  std::size_t stalled_conns_ = 0;  // conns with `stalled` set (loop-only)
  std::atomic<std::uint64_t> jobs_outstanding_{0};  // framed but not delivered
  std::atomic<std::uint64_t> conns_accepted_{0};
  std::atomic<std::uint64_t> responses_sent_{0};
  std::atomic<std::uint64_t> conns_shed_fdlimit_{0};
  std::atomic<std::uint64_t> conns_evicted_stalled_{0};
  std::atomic<std::uint64_t> reloads_completed_{0};
};

}  // namespace ftbfs
