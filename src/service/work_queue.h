// Concurrency plumbing for the serving layer: a bounded FIFO work queue and a
// ticket lock that orders admission sections.
//
// NetServer (src/net/net_server.h) is the one serving pipeline: its event
// loop try_push()es framed request lines, workers pop_batch() them, and in
// ordered mode each connection's RequestSequencer runs that connection's
// admissions in request order. The FIFO pop order is load-bearing there: a
// batch is a dense run of consecutively pushed items, so every earlier ticket
// sits in the same batch or in one popped before it (deadlock-freedom
// argument in net_server.cpp).
#pragma once

#include <algorithm>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>
#include <utility>
#include <vector>

namespace ftbfs {

// Bounded multi-producer/multi-consumer FIFO. try_push() never blocks: it
// refuses when the queue is full or closed. pop_batch() blocks while the
// queue is empty; close() wakes every consumer, after which try_push() is
// refused and pop_batch() drains the remaining items before returning 0.
template <typename T>
class BoundedQueue {
 public:
  explicit BoundedQueue(std::size_t capacity) : capacity_(capacity) {}

  BoundedQueue(const BoundedQueue&) = delete;
  BoundedQueue& operator=(const BoundedQueue&) = delete;

  // False when the queue is full or closed, leaving `item` untouched so the
  // caller can retry later. NetServer's event loop must never block on
  // serving backpressure; it parks the connection instead and re-offers the
  // line when a worker frees a slot.
  bool try_push(T& item) {
    {
      const std::lock_guard lock(mutex_);
      if (closed_ || items_.size() >= capacity_) return false;
      items_.push_back(std::move(item));
      // Wake a consumer only when one is parked: the uncontended steady
      // state pays no notify syscall at all.
      if (not_empty_waiters_ == 0) return true;
    }
    not_empty_.notify_one();
    return true;
  }

  // Drains up to `max` oldest items under ONE lock acquisition into `out`
  // (cleared first); blocks while the queue is empty. Returns the number
  // taken — 0 only once the queue is closed and drained. Because the queue is
  // FIFO, a batch is always a dense run of consecutively pushed items; the
  // batched-admission serve path leans on that.
  std::size_t pop_batch(std::vector<T>& out, std::size_t max) {
    out.clear();
    std::unique_lock lock(mutex_);
    if (!closed_ && items_.empty()) {
      ++not_empty_waiters_;
      not_empty_.wait(lock, [&] { return closed_ || !items_.empty(); });
      --not_empty_waiters_;
    }
    const std::size_t take = std::min(max, items_.size());
    for (std::size_t i = 0; i < take; ++i) {
      out.push_back(std::move(items_.front()));
      items_.pop_front();
    }
    return take;
  }

  void close() {
    {
      const std::lock_guard lock(mutex_);
      closed_ = true;
    }
    not_empty_.notify_all();
  }

 private:
  std::mutex mutex_;
  std::condition_variable not_empty_;
  std::deque<T> items_;
  std::size_t capacity_;
  std::size_t not_empty_waiters_ = 0;
  bool closed_ = false;
};

// Ticket lock over a dense ticket sequence 0, 1, 2, …: wait_for(t) blocks
// until every ticket below t has been released. NetServer's ordered mode
// gives each connection one, and runs that connection's OracleService::admit
// sections (routing, lazy-build trigger, cache probe) in strict request
// order, which is what makes threaded serving byte-identical to sequential
// serving. Every ticket MUST eventually be released exactly once, by
// advance_n() after the run of admissions it belongs to.
class RequestSequencer {
 public:
  void wait_for(std::uint64_t ticket) {
    std::unique_lock lock(mutex_);
    cv_.wait(lock, [&] { return turn_ == ticket; });
  }

  // Releases `n` consecutive tickets in one step: the batched-admission
  // worker waits for its first ticket, runs all n admission sections
  // back-to-back, then advances past the whole run under one lock handoff.
  void advance_n(std::uint64_t n) {
    if (n == 0) return;
    {
      const std::lock_guard lock(mutex_);
      turn_ += n;
    }
    cv_.notify_all();
  }

 private:
  std::mutex mutex_;
  std::condition_variable cv_;
  std::uint64_t turn_ = 0;
};

}  // namespace ftbfs
