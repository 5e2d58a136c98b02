// The push-based pipelined operator framework (§4.2).
//
// Every operator is instantiated once per worker as part of a LocalPlan.
// Data flows as batches of annotated tuples (DeltaVec); operators consume
// deltas on numbered input ports and Emit() to their wired outputs. Strata
// are delimited by punctuation waves:
//
//  - Each input port expects a known number of punctuation markers per wave
//    (1 for a local edge, one per live worker for a rehash receiver).
//  - kEndOfStream punctuation closes a port permanently (immutable inputs
//    and the base case are punctuated exactly once).
//  - When every open port has completed the current wave — and at least one
//    marker arrived since the last firing — the operator calls
//    OnAllPunct(), where stateful operators emit their stratum output, and
//    then forwards the punctuation to its outputs.
//
// Fixpoint overrides the per-port hook (OnPortWaveComplete) because its two
// inputs (base case, recursive case) complete in *different* strata and it
// must never forward punctuation around the recursive loop — it votes to
// the driver instead.
#ifndef REX_EXEC_OPERATOR_H_
#define REX_EXEC_OPERATOR_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/delta.h"
#include "exec/exec_context.h"
#include "net/message.h"

namespace rex {

/// Per-input-port execution stats, maintained by the Consume/OnPunct
/// wrappers. Plain (non-atomic) fields: only the hosting worker thread
/// writes them, and the driver reads them after the network is quiescent.
struct OperatorPortStats {
  int64_t batches = 0;
  int64_t tuples = 0;
  int64_t puncts = 0;
  int64_t consume_nanos = 0;  // inclusive of downstream push time
};

class Operator {
 public:
  explicit Operator(int id, int num_ports = 1);
  virtual ~Operator() = default;

  Operator(const Operator&) = delete;
  Operator& operator=(const Operator&) = delete;

  int id() const { return id_; }
  virtual const char* name() const = 0;

  /// Wires this operator's output to `op`'s input `port` (local edge).
  void AddOutput(Operator* op, int port);

  /// Sets how many punctuation markers complete a wave on `port`
  /// (default 1; a rehash receiver expects one per live worker).
  void SetExpectedPuncts(int port, int count);

  int num_ports() const { return static_cast<int>(expected_puncts_.size()); }

  bool PortClosed(int port) const {
    return port_closed_[static_cast<size_t>(port)];
  }
  /// True for operators (with >= 1 port) whose every input stream has been
  /// fully delivered — such operators forward kEndOfStream downstream.
  bool AllPortsClosed() const;
  /// Recovery priming: marks `port` as having completed its kEndOfStream
  /// wave. A freshly instantiated plan on a revived worker missed the
  /// stream-once waves (base case, immutable inputs) that ran before the
  /// failure; without this, AllOpenPortsComplete() blocks every later wave.
  void MarkPortDelivered(int port);

  /// Resolves UDFs, sizes buffers. Called once per query on each worker.
  virtual Status Open(ExecContext* ctx);

  /// Processes a batch of deltas arriving on `port`. Non-virtual wrapper:
  /// records per-port stats (batches, tuples, wall time) around the
  /// operator-specific ConsumeDeltas hook.
  Status Consume(int port, DeltaVec deltas);

  /// Handles one punctuation marker on `port` (wave bookkeeping + firing).
  Status OnPunct(int port, const Punctuation& p);

  /// Per-port stats accumulated so far (index == port number).
  const std::vector<OperatorPortStats>& port_stats() const {
    return port_stats_;
  }
  /// Total deltas this operator pushed to local downstream edges via Emit
  /// (or folded into a fused consumer).
  int64_t deltas_emitted() const { return deltas_emitted_; }

  /// Row-at-a-time input for a fused same-worker producer, or nullptr (the
  /// default) for an operator that takes data only through Consume.
  /// LocalPlan fuses a join into its only consumer when this is non-null
  /// (DESIGN.md "Group-join").
  virtual DeltaSink* fused_input() { return nullptr; }

  /// Source hook: called by the worker on a StartStratum control message.
  /// Scans emit their data in stratum 0; fixpoints flush pending deltas in
  /// strata >= 1. Default: no-op.
  virtual Status StartStratum(int stratum);

  virtual Status Close();

  // -- recovery hooks (§4.3) ------------------------------------------------

  /// Drops partial-stratum transient state (wave counters, stratum-scoped
  /// buffers) while preserving persistent state. Called on every survivor
  /// when a failure interrupts a stratum.
  virtual Status ResetTransientState();

  /// Incremental recovery: re-emits rows whose ownership moved from the
  /// failed worker (scans feeding immutable operator state implement this;
  /// ctx->old_pmap holds the pre-failure snapshot). No punctuation is sent.
  virtual Status RecoveryReload();

  /// Cluster membership changed (new partition snapshot installed):
  /// operators depending on the worker count (rehash receivers) adjust.
  virtual Status OnMembershipChange();

 protected:
  /// Operator-specific delta processing; called through the Consume
  /// wrapper (which owns the per-port accounting).
  virtual Status ConsumeDeltas(int port, DeltaVec deltas) = 0;

  /// Forwards deltas to every wired output (copies when fan-out > 1).
  Status Emit(DeltaVec deltas);
  /// Forwards a punctuation marker to every wired output.
  Status EmitPunct(const Punctuation& p);
  /// A fused producer's stand-in for Emit: counts `rows` rows it folded
  /// through `consumer`'s fused_input() as one Emit to `port` would have
  /// (this operator's deltas_emitted, the consumer's port batches/tuples
  /// and exec.tuples_processed). The fold's time stays in this operator's
  /// Consume.
  void CountFusedBatch(Operator* consumer, int port, int64_t rows);

  /// Called when `port`'s current wave completes (or the port closes via
  /// kEndOfStream). Default: fire OnAllPunct + forward once all open ports
  /// have completed.
  virtual Status OnPortWaveComplete(int port, const Punctuation& p);

  /// Stratum-end hook for stateful operators: emit buffered results before
  /// the punctuation is forwarded. Default: no-op.
  virtual Status OnAllPunct(const Punctuation& p);

  /// Shared wave bookkeeping used by OnPortWaveComplete overrides.
  bool AllOpenPortsComplete() const;
  void ResetWave();

  ExecContext* ctx_ = nullptr;
  /// Cached per-worker counter (resolved once at Open; incrementing a
  /// Counter* is a relaxed atomic add — never do the name lookup per
  /// tuple).
  Counter* tuples_processed_ = nullptr;

 private:
  int id_;
  struct Output {
    Operator* op;
    int port;
  };
  std::vector<Output> outputs_;

  std::vector<int> expected_puncts_;
  std::vector<int> received_puncts_;
  std::vector<bool> port_complete_;  // this wave
  std::vector<bool> port_closed_;    // kEndOfStream seen
  bool any_punct_this_wave_ = false;

  std::vector<OperatorPortStats> port_stats_;
  int64_t deltas_emitted_ = 0;
};

}  // namespace rex

#endif  // REX_EXEC_OPERATOR_H_
