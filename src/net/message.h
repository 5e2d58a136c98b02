// Messages exchanged between worker nodes (and between the driver and
// workers). REX passes batched messages over per-destination channels; a
// message addresses a specific operator input port in the receiver's plan.
#ifndef REX_NET_MESSAGE_H_
#define REX_NET_MESSAGE_H_

#include <cstdint>
#include <string>

#include "common/delta.h"

namespace rex {

/// Punctuation (Tucker & Maier): marker tuples informing operators that the
/// current stratum — or the whole query / an input stream — has ended.
struct Punctuation {
  enum class Kind : uint8_t {
    kEndOfStratum = 0,  // current recursive step finished
    kEndOfQuery = 1,    // termination condition met; drain and finish
    kEndOfStream = 2,   // a non-recursive input is exhausted
  };
  Kind kind = Kind::kEndOfStratum;
  int stratum = 0;

  std::string ToString() const;
};

/// Driver -> worker control verbs.
struct ControlMsg {
  enum class Kind : uint8_t {
    kStartStratum = 0,  // begin stratum `stratum`: sources emit, then punct
    /// Incremental recovery phase 1: install the new partition snapshot,
    /// reset transient operator state, restore fixpoint state from
    /// checkpoints up to `stratum` (the last completed stratum).
    kRecoverPrepare = 1,
    /// Incremental recovery phase 2: scans re-emit rows whose ownership
    /// moved, rebuilding immutable state on takeover nodes.
    kRecoverReload = 2,
    /// Guided-replay recovery: re-run checkpointed stratum `stratum` through
    /// the loop body to rebuild derived state (persistent group-bys, joins
    /// with stateful handlers). Stratum 0 re-runs the base case; stratum
    /// s >= 1 first applies the fixpoints' checkpointed Δ set of stratum
    /// s-1, then flushes it through the loop. Fixpoints discard the deltas
    /// that come back around (ExecContext::replay_mode).
    kReplayStratum = 3,
    /// Guided-replay recovery epilogue: apply the final checkpointed Δ set
    /// (stratum `stratum`) so pending_ holds the resumption flush, then
    /// leave replay mode.
    kReplayEnd = 4,
    /// Liveness probe: the worker answers with a kHeartbeat message. Served
    /// even when the worker has a pending error, so an errored-but-running
    /// worker is not mistaken for a dead one.
    kPing = 5,
    kNone = 255,
  };
  Kind kind = Kind::kNone;
  int stratum = 0;
};

/// One unit of inter-node communication.
struct Message {
  enum class Kind : uint8_t {
    kData = 0,
    kPunctuation = 1,
    kControl = 2,
    /// Worker -> driver liveness reply. Routed synchronously to the
    /// registered HeartbeatSink; never enters a channel or the fault
    /// injector, mirroring an out-of-band control plane.
    kHeartbeat = 3,
  };

  Kind kind = Kind::kData;
  int from_worker = -1;
  int to_worker = -1;
  /// Target operator id within the receiving worker's plan (kData /
  /// kPunctuation); -1 for control messages, which address the worker.
  int target_op = -1;
  /// Input port of the target operator.
  int target_port = 0;
  /// Per-(sender, destination) sequence number stamped by Network::Send
  /// (1-based; 0 = unstamped). Receivers discard messages whose sequence
  /// number is not strictly increasing, which makes injected duplicate
  /// deliveries exactly-once, like TCP retransmissions.
  uint64_t seq = 0;
  /// Channel incarnation the sender believes the destination is on, stamped
  /// by Network::Send. A channel rejects messages for an older incarnation,
  /// so a revived worker never consumes pre-crash traffic. -1 bypasses the
  /// check (messages enqueued without going through Send).
  int dest_incarnation = -1;
  /// kHeartbeat payload: the responding worker's own incarnation, so the
  /// failure detector can ignore heartbeats from a stale incarnation.
  int incarnation = 0;

  DeltaVec deltas;   // kData payload
  Punctuation punct;  // kPunctuation payload
  ControlMsg control;  // kControl payload

  static Message Data(int from, int to, int op, int port, DeltaVec d) {
    Message m;
    m.kind = Kind::kData;
    m.from_worker = from;
    m.to_worker = to;
    m.target_op = op;
    m.target_port = port;
    m.deltas = std::move(d);
    return m;
  }

  static Message Punct(int from, int to, int op, int port, Punctuation p) {
    Message m;
    m.kind = Kind::kPunctuation;
    m.from_worker = from;
    m.to_worker = to;
    m.target_op = op;
    m.target_port = port;
    m.punct = p;
    return m;
  }

  static Message Control(int to, ControlMsg c) {
    Message m;
    m.kind = Kind::kControl;
    m.to_worker = to;
    m.control = c;
    return m;
  }

  static Message Heartbeat(int from, int incarnation) {
    Message m;
    m.kind = Kind::kHeartbeat;
    m.from_worker = from;
    m.to_worker = -1;  // addressed to the driver's HeartbeatSink
    m.incarnation = incarnation;
    return m;
  }

  /// Approximate wire size: payload plus a fixed header.
  size_t ByteSize() const;
};

}  // namespace rex

#endif  // REX_NET_MESSAGE_H_
