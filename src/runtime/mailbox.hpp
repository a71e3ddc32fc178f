// Blocking MPSC mailbox used by the threaded runtime.
//
// One mailbox per processor thread; any thread may send.  recv() blocks on
// a condition variable; try_recv() polls.  close() wakes all blocked
// receivers, which still drain every queued message before recv()
// reports the close, so closing is how ThreadedSystem ends a run.
//
// The queue is a RingQueue, not a std::deque: once the mailbox has seen
// its high-water depth, send/recv/drain_into reuse the same buffer
// forever (zero-allocation steady state, DESIGN.md §11).
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <mutex>
#include <optional>
#include <vector>

#include "support/ring_queue.hpp"

namespace dlb {

template <typename T>
class Mailbox {
 public:
  void send(T message) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      queue_.push_back(std::move(message));
    }
    cv_.notify_one();
  }

  /// Blocks until a message arrives or the mailbox is closed; returns
  /// nullopt only when closed and drained.
  std::optional<T> recv() {
    std::unique_lock<std::mutex> lock(mutex_);
    cv_.wait(lock, [&] { return !queue_.empty() || closed_; });
    if (queue_.empty()) return std::nullopt;
    return queue_.pop_front();
  }

  std::optional<T> try_recv() {
    std::lock_guard<std::mutex> lock(mutex_);
    if (queue_.empty()) return std::nullopt;
    return queue_.pop_front();
  }

  /// Batch receive: moves every queued message into `out` (appended in
  /// arrival order) under a single lock acquisition and returns how many
  /// were drained.  Equivalent to calling try_recv() until it returns
  /// nullopt, but the hot receive loop pays one mutex round-trip per
  /// drain instead of one per message.
  std::size_t drain_into(std::vector<T>& out) {
    std::lock_guard<std::mutex> lock(mutex_);
    const std::size_t drained = queue_.size();
    for (std::size_t i = 0; i < drained; ++i)
      out.push_back(std::move(queue_[i]));
    queue_.clear();
    return drained;
  }

  /// Deadline-based receive for failure-tolerant protocols: blocks
  /// until `deadline` (monotonic clock, so wall-clock adjustments
  /// cannot stretch or collapse the wait) and returns nullopt when
  /// nothing arrived (or the mailbox was closed and drained) by then.
  /// Callers that must wait for several messages against one overall
  /// budget compute the deadline once and pass it to every call —
  /// unlike a per-call timeout, the budget cannot compound.
  std::optional<T> recv_until(std::chrono::steady_clock::time_point deadline) {
    std::unique_lock<std::mutex> lock(mutex_);
    if (!cv_.wait_until(lock, deadline,
                        [&] { return !queue_.empty() || closed_; }))
      return std::nullopt;
    if (queue_.empty()) return std::nullopt;
    return queue_.pop_front();
  }

  std::optional<T> recv_for(std::chrono::milliseconds timeout) {
    return recv_until(std::chrono::steady_clock::now() + timeout);
  }

  /// Pre-sizes the ring so traffic up to `depth` queued messages never
  /// grows the buffer — lets the owner pay the warmup at setup instead
  /// of at the first in-flight high-water mark mid-run.
  void reserve(std::size_t depth) {
    std::lock_guard<std::mutex> lock(mutex_);
    queue_.reserve(depth);
  }

  void close() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      closed_ = true;
    }
    cv_.notify_all();
  }

  bool empty() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return queue_.empty();
  }

 private:
  mutable std::mutex mutex_;
  std::condition_variable cv_;
  RingQueue<T> queue_;
  bool closed_ = false;
};

}  // namespace dlb
