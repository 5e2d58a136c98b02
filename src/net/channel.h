// Blocking multi-producer single-consumer channel: each worker node's inbox.
// Per-sender FIFO order is guaranteed (a single mutex-protected deque), which
// the punctuation protocol relies on.
//
// Channels are optionally bounded: a capacity > 0 enables credit-based flow
// control where Push blocks while the queue is full (data / punctuation
// messages only — control traffic must never be throttled). A producer that
// stays blocked past a bounded grace period "sheds": it enqueues the message
// past capacity anyway and counts the overflow, so mutually backpressured
// workers cannot deadlock. The bound is therefore soft.
//
// Channels also carry an incarnation number, bumped on every Reopen. A
// message stamped for an older incarnation is rejected, so a revived worker
// never consumes a batch addressed to its previous life.
#ifndef REX_NET_CHANNEL_H_
#define REX_NET_CHANNEL_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>
#include <optional>

#include "common/metrics.h"
#include "net/message.h"

namespace rex {

class Channel {
 public:
  /// Enqueues a message. Returns false if the channel is closed or the
  /// message was stamped for an older incarnation of this channel. When the
  /// channel is bounded and full, blocks (data / punctuation only) until
  /// space frees up or the shed grace period elapses.
  bool Push(Message msg);

  /// Blocks until a message is available or the channel is closed and
  /// drained; returns nullopt in the latter case.
  std::optional<Message> Pop();

  /// Non-blocking pop; nullopt if empty (does not wait).
  std::optional<Message> TryPop();

  /// Wakes all blocked consumers and producers; subsequent Push calls fail.
  void Close();

  /// Re-opens a closed, drained channel (worker restart in recovery tests).
  /// Discards any queued pre-crash messages and bumps the incarnation so
  /// stragglers stamped for the old incarnation are rejected.
  void Reopen();

  /// Sets the flow-control bound. 0 (the default) means unbounded.
  void SetCapacity(size_t capacity);

  /// Registers counters incremented when a producer blocks on a full
  /// channel and when it sheds after the grace period. May be null.
  void SetBackpressureCounters(Counter* blocks, Counter* sheds);

  int incarnation() const;

  size_t size() const;
  bool closed() const;

 private:
  mutable std::mutex mutex_;
  std::condition_variable cv_;        // consumer side: data available
  std::condition_variable space_cv_;  // producer side: space available
  std::deque<Message> queue_;
  bool closed_ = false;
  size_t capacity_ = 0;  // 0 = unbounded
  int incarnation_ = 0;
  Counter* backpressure_blocks_ = nullptr;
  Counter* backpressure_sheds_ = nullptr;
};

}  // namespace rex

#endif  // REX_NET_CHANNEL_H_
