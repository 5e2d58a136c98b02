// The simulated cluster interconnect.
//
// Stands in for REX's TCP layer: per-worker inbox channels, batched
// messages, per-node byte metering (backing Figure 11), failure simulation
// (sends to failed nodes are dropped, mirroring connection loss), and global
// in-flight accounting used by the driver to detect stratum quiescence.
//
// A FaultInjector hook may be installed to deterministically drop, reorder
// (within a batch), or duplicate messages. Dropped sends are survived by
// protocol, not tolerance: Send retransmits with exponential backoff under a
// bounded retry budget, so a chaos drop window delays a message instead of
// losing it. The in-flight count stays exact under every injected fault, and
// a runtime invariant checker flags any transition of the count below zero.
#ifndef REX_NET_NETWORK_H_
#define REX_NET_NETWORK_H_

#include <atomic>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "common/status.h"
#include "net/channel.h"
#include "net/fault_injector.h"

namespace rex {

/// Receiver of worker heartbeat replies (the driver's failure detector).
/// Heartbeats are routed to the sink synchronously from the sending worker's
/// thread — an out-of-band control plane that bypasses inbox channels, the
/// fault injector, and in-flight accounting — so OnHeartbeat must be
/// thread-safe. Declared here so net/ does not depend on cluster/.
class HeartbeatSink {
 public:
  virtual ~HeartbeatSink() = default;
  virtual void OnHeartbeat(int worker, int incarnation) = 0;
};

class Network {
 public:
  /// `channel_capacity` bounds each inbox (0 = unbounded); `retry_budget`
  /// caps retransmission attempts per message before the sender gives up.
  explicit Network(int num_workers, size_t channel_capacity = 0,
                   int retry_budget = 16);

  int num_workers() const { return static_cast<int>(channels_.size()); }

  /// Routes a message to its destination inbox. Cross-worker data is
  /// metered; messages to failed workers are dropped (returns OK, like a
  /// TCP send racing a crash). Injected drops are retransmitted with
  /// exponential backoff until delivered or the retry budget is exhausted.
  /// Returns NetworkError only if the destination id is out of range.
  Status Send(Message msg);

  Channel* channel(int worker) { return channels_[worker].get(); }

  /// Installs (or clears, with nullptr) the fault-injection hook consulted
  /// by Send for every non-control message. Driver thread, quiescent.
  void set_fault_injector(FaultInjector* injector) {
    fault_injector_.store(injector, std::memory_order_release);
  }

  /// Installs (or clears) the synchronous receiver of kHeartbeat messages.
  void set_heartbeat_sink(HeartbeatSink* sink) {
    heartbeat_sink_.store(sink, std::memory_order_release);
  }

  /// Simulates a crash of `worker`: closes its inbox and drains queued
  /// messages (they are lost, as on a real crash) — but does NOT mark the
  /// worker failed. Nobody else in the cluster learns about the crash from
  /// this call; the failure detector must notice the silence. Safe to call
  /// from any thread (a fault injector may crash a node mid-send).
  void Crash(int worker);

  /// Confirms a detected failure: sets the failed flag (sends are dropped
  /// from now on) in addition to Crash's close + drain. Safe anywhere.
  void MarkFailed(int worker);
  bool IsFailed(int worker) const;
  /// Clears the failed flag and reopens the inbox (node replacement). The
  /// reopened channel is a new incarnation: straggler messages stamped for
  /// the pre-crash incarnation are rejected on Push.
  void Restore(int worker);
  std::vector<int> LiveWorkers() const;

  /// Called by a worker after it has fully processed one message (all sends
  /// that processing triggered have already been counted).
  void OnMessageProcessed();

  /// Blocks until no messages are queued or being processed anywhere.
  /// Precondition for correctness: new messages are only created while
  /// processing existing ones, so a zero count is a stable global state.
  void WaitQuiescent();

  /// Runtime invariant (chaos harness): the in-flight count must never go
  /// negative. Any violation is latched and surfaced here; the driver
  /// checks after every quiescence barrier.
  Status CheckInvariants() const;

  /// Bytes sent over the (simulated) wire by each worker. Loopback traffic
  /// is not counted, matching "data sent by each node" in §6.5.
  int64_t BytesSentBy(int worker) const;
  int64_t TotalBytesSent() const;
  /// Full (sender, receiver) byte matrix: result[from][to]. Loopback cells
  /// are always zero (unmetered); rows/cols are worker ids.
  std::vector<std::vector<int64_t>> BytesMatrix() const;
  void ResetByteCounts();

  MetricsRegistry& metrics() { return metrics_; }

 private:
  /// Meters + enqueues one already-stamped message copy.
  void Deliver(Message msg);
  void NoteProcessed(int64_t previous_in_flight);

  std::vector<std::unique_ptr<Channel>> channels_;
  std::vector<std::atomic<bool>> failed_;
  std::vector<std::atomic<int64_t>> bytes_by_sender_;
  /// Row-major (sender, receiver) byte matrix behind bytes_by_sender_.
  std::vector<std::atomic<int64_t>> bytes_matrix_;
  /// Hot-path metric handles (Deliver/Send run per message; a registry
  /// lookup there takes a mutex per call).
  Counter* bytes_sent_counter_;
  Counter* messages_sent_counter_;
  Counter* tuples_sent_counter_;
  Counter* chaos_dropped_counter_;
  Counter* chaos_duplicated_counter_;
  Counter* retransmits_counter_;
  Counter* backoff_ticks_counter_;
  Counter* heartbeats_counter_;
  Counter* unreachable_counter_;
  /// Per (sender, destination) sequence counters; row 0 is the driver
  /// (from_worker == -1). Each pair has a single writing thread, but sends
  /// may race a concurrent MarkFailed, so the counters stay atomic.
  std::vector<std::atomic<uint64_t>> seq_;

  const int retry_budget_;

  std::atomic<FaultInjector*> fault_injector_{nullptr};
  std::atomic<HeartbeatSink*> heartbeat_sink_{nullptr};

  MetricsRegistry metrics_;

  std::mutex quiesce_mutex_;
  std::condition_variable quiesce_cv_;
  std::atomic<int64_t> in_flight_{0};

  std::atomic<bool> invariant_violated_{false};
};

namespace metrics {
inline constexpr const char kChaosDropped[] = "chaos.messages_dropped";
inline constexpr const char kChaosDuplicated[] = "chaos.messages_duplicated";
/// Duplicate deliveries discarded by receivers' sequence-number check.
inline constexpr const char kDupDiscarded[] = "net.dup_discarded";
/// Retransmission attempts after an injected drop (ack timeout analogue).
inline constexpr const char kRetransmits[] = "net.retransmits";
/// Total simulated exponential-backoff ticks spent waiting to retransmit.
inline constexpr const char kBackoffTicks[] = "net.backoff_ticks";
/// Heartbeat replies routed to the HeartbeatSink.
inline constexpr const char kHeartbeats[] = "net.heartbeats";
/// Messages abandoned after exhausting the retransmission budget.
inline constexpr const char kUnreachable[] = "net.unreachable";
/// Producers that blocked on a full (bounded) channel.
inline constexpr const char kBackpressureBlocks[] = "net.backpressure_blocks";
/// Messages enqueued past a full channel's capacity after the backpressure
/// grace period.
inline constexpr const char kBackpressureSheds[] = "net.backpressure_sheds";
}  // namespace metrics

}  // namespace rex

#endif  // REX_NET_NETWORK_H_
