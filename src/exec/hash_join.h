// Pipelined symmetric hash join with delta propagation (§3.2, §3.3).
//
// Each input accumulates tuples into per-key buckets and immediately probes
// the opposite side's bucket. Insertions/deletions/replacements follow the
// delta rules of Gupta-Mumick-Subrahmanian [12]; δ(E)-annotated tuples are
// handed to a user join-state delta handler together with both buckets
// (the paper's UPDATE(LEFTBUCKET, RIGHTBUCKET, DELTA)). A side may be
// declared immutable — its bucket is build-only state loaded once (and
// reloaded for taken-over ranges during incremental recovery).
#ifndef REX_EXEC_HASH_JOIN_H_
#define REX_EXEC_HASH_JOIN_H_

#include <string>
#include <vector>

#include "common/flat_map.h"
#include "exec/operator.h"
#include "exec/tuple_set.h"
#include "exec/uda.h"

namespace rex {

class HashJoinOp : public Operator {
 public:
  struct Params {
    std::vector<int> left_keys;   // key fields on port 0 input
    std::vector<int> right_keys;  // key fields on port 1 input
    /// Per-side immutability (index 0 = left). An immutable side only
    /// builds state; deltas never probe *from* it.
    bool immutable[2] = {false, false};
    /// Optional join-state delta handler for δ(E) deltas, resolved by
    /// name from the registry.
    std::string handler;
    /// When true, even +/-/-> deltas on a mutable side are routed through
    /// the handler (the handler owns all state transitions).
    bool handler_owns_all = false;
    /// When true, the handler mutates bucket tuples in place across strata
    /// (k-means point assignments). Plans containing such joins — or
    /// persistent group-bys — carry derived state outside the fixpoint that
    /// Δ-set restoration alone cannot rebuild; recovery must replay the
    /// checkpointed strata through the whole loop body instead.
    bool handler_keeps_state = false;
  };

  HashJoinOp(int id, Params params)
      : Operator(id, 2), params_(std::move(params)) {}

  const char* name() const override { return "hashJoin"; }
  Status Open(ExecContext* ctx) override;
  Status ConsumeDeltas(int port, DeltaVec deltas) override;

  /// Fuses this join into `consumer`, its only out-edge (to `port`): probe
  /// and handler output fold through consumer->fused_input() as it is
  /// produced, in the same order, instead of being buffered and Emit-ed.
  /// Punctuation still travels the edge.
  void FuseInto(Operator* consumer, int port);

  /// Total buffered tuples (both sides; used by tests and Δ-set reports).
  size_t StateSize() const;

 private:
  struct Bucket {
    std::vector<Value> key;  // verified on probe (hash collisions)
    TupleSet side[2];
  };

  const std::vector<int>& KeysOf(int port) const {
    return port == 0 ? params_.left_keys : params_.right_keys;
  }
  std::vector<Value> KeyValues(const Tuple& t, int port) const;
  Bucket* FindOrCreate(const std::vector<Value>& key, uint64_t hash);
  Bucket* FindBucket(const std::vector<Value>& key, uint64_t hash);
  // Allocation-free hot-path lookups; `hash` is HashTupleKey(t, port),
  // computed once per delta by the caller.
  uint64_t HashTupleKey(const Tuple& t, int port) const;
  bool KeyMatches(const Bucket& b, const Tuple& t, int port) const;
  Bucket* FindBucketFromTuple(const Tuple& t, int port, uint64_t hash);
  Bucket* FindOrCreateFromTuple(const Tuple& t, int port, uint64_t hash);

  /// Writes `op`-annotated concatenations of `t` with every match in the
  /// opposite bucket, each carrying `weight`. Left tuples always precede
  /// right in the output.
  Status Probe(int port, const Tuple& t, DeltaOp op, int64_t weight,
               DeltaSink* out, uint64_t hash);

  Status ApplyStandard(int port, Delta d, DeltaSink* out);
  Status ApplyHandler(int port, const Delta& d, DeltaSink* out);

  Params params_;
  const JoinHandler* handler_ = nullptr;
  // Hash of key values -> bucket chain.
  FlatMap64<std::vector<Bucket>> buckets_;
  /// Probe's concatenation buffer, reused across rows.
  std::vector<Value> joined_;
  /// Set by FuseInto: the consumer output rows fold into, and its port.
  Operator* fused_ = nullptr;
  int fused_port_ = 0;
};

}  // namespace rex

#endif  // REX_EXEC_HASH_JOIN_H_
