// The while / fixpoint operator (§3.2, §4.2): governs recursion.
//
// Dual function: (1) maintains the recursive relation — deduplicating by
// the query-specified key, applying replacements, or delegating to a
// user while-state delta handler; (2) feeds each stratum's Δ set back into
// the recursive sub-plan when the driver advances the stratum.
//
// At the end of a stratum the fixpoint does NOT forward punctuation around
// the recursive loop; it votes: it reports the number of newly derived
// tuples (and change statistics, for explicit termination conditions) to
// the query requestor, and — when incremental recovery is enabled —
// replicates its Δᵢ set to the replica workers of each tuple's range
// (§4.3).
//
// Modes:
//   kDelta      REX delta: only changed tuples flow to the next stratum.
//   kFull       REX no-delta: the entire mutable set is re-emitted every
//               stratum (what Hadoop/HaLoop-style systems recompute).
//   kAccumulate recursive-SQL semantics (the "DBMS X" baseline): state
//               accumulates and is never updated in place; each stratum
//               propagates the newly derived tuples, and all versions are
//               retained.
#ifndef REX_EXEC_FIXPOINT_H_
#define REX_EXEC_FIXPOINT_H_

#include <optional>
#include <string>
#include <vector>

#include "common/flat_map.h"

#include "exec/coalesce.h"
#include "exec/operator.h"
#include "exec/tuple_set.h"
#include "exec/uda.h"

namespace rex {

class FixpointOp : public Operator {
 public:
  enum class Mode { kDelta, kFull, kAccumulate };

  struct Params {
    /// "UNION UNTIL FIXPOINT BY <key>": fields identifying a state tuple.
    std::vector<int> key_fields;
    /// Fields the loop's rehash routes on (checkpoint range ownership must
    /// match routing). Empty = same as key_fields. Differs when state is
    /// keyed finer than it is partitioned (e.g. adsorption: keyed by
    /// (vertex, label), partitioned by vertex).
    std::vector<int> partition_fields;
    /// Optional while-state delta handler (registry name). The handler
    /// receives the bucket of state tuples for the delta's key.
    std::string while_handler;
    Mode mode = Mode::kDelta;
    /// Field whose numeric change is tracked for explicit termination
    /// conditions and thresholding; -1 disables.
    int value_field = -1;
    /// Minimum |change| of value_field for a replacement to count as new
    /// (and be propagated in kDelta mode). 0 = exact set semantics.
    double change_threshold = 0.0;
    /// Additional relative component: a change only counts when
    /// |new - old| > change_threshold + relative_threshold * |old| (the
    /// paper's "changed by more than 1%" convergence criterion).
    double relative_threshold = 0.0;
  };

  FixpointOp(int id, Params params)
      : Operator(id, 2), params_(std::move(params)) {}

  static constexpr int kBasePort = 0;
  static constexpr int kRecursivePort = 1;

  const char* name() const override { return "fixpoint"; }
  Status Open(ExecContext* ctx) override;
  Status ConsumeDeltas(int port, DeltaVec deltas) override;
  /// Flushes the pending Δ set (or the full state, per mode) into the
  /// recursive sub-plan and punctuates the new stratum's wave.
  Status StartStratum(int stratum) override;
  Status ResetTransientState() override;

  /// Final results: the fixpoint's state relation (the driver unions these
  /// across workers at end of query).
  std::vector<Tuple> StateTuples() const;
  size_t StateSize() const;
  size_t PendingSize() const { return pending_.size(); }

  /// Fields checkpoint routing and ownership filtering use (partition
  /// fields when set, key fields otherwise). The driver routes base-update
  /// seeds with the same hash so they land where the loop's rehash would
  /// have delivered them.
  const std::vector<int>& RouteFields() const {
    return params_.partition_fields.empty() ? params_.key_fields
                                            : params_.partition_fields;
  }

  /// Incremental recovery (§4.3): rebuilds state by replaying the
  /// checkpointed Δ sets of strata [0, last_stratum] that now map to this
  /// worker; the last stratum's replay output becomes the pending set so
  /// the resumed stratum flushes exactly what the lost stratum would have.
  Status RestoreFromCheckpoints(int last_stratum, bool log = true);

  /// Applies one stratum's checkpointed Δ set (filtered to keys this worker
  /// owns) on top of the current state; pending_ becomes that stratum's
  /// regenerated propagations. Guided-replay recovery interleaves these
  /// calls with loop-body re-execution to rebuild derived state elsewhere
  /// in the plan.
  Status ApplyCheckpointStratum(int stratum);

  /// Incremental view maintenance under base-table updates: applies a
  /// driver-computed perturbation Δ set against the *converged* state and
  /// checkpoints the arrivals under `checkpoint_stratum` (the converged
  /// run's final stratum, which recovery truncation preserves). The
  /// resulting pending_ set is what the next stratum flushes — the driver
  /// then re-runs the stratum loop from there instead of from scratch.
  Status SeedBaseUpdate(const DeltaVec& seeds, int checkpoint_stratum);

  /// Runtime Δ-conservation invariant (chaos harness): replaying the
  /// checkpointed Δ sets of strata [0, last_stratum] on a scratch operator
  /// must reproduce this operator's mutable state — and its pending Δ set —
  /// bit-for-bit. Returns Internal on any divergence.
  Status VerifyCheckpointConservation(int last_stratum);

 protected:
  /// Votes to the requestor instead of forwarding punctuation.
  Status OnPortWaveComplete(int port, const Punctuation& p) override;

 private:
  struct Bucket {
    std::vector<Value> key;
    TupleSet tuples;  // set semantics keep exactly one; handlers decide
  };

  std::vector<Value> KeyOf(const Tuple& t) const;
  Bucket* FindOrCreate(const std::vector<Value>& key);
  /// Allocation-free hot-path lookup.
  Bucket* FindOrCreateFromTuple(const Tuple& t);

  /// Applies one delta to state; appends propagations to pending_ and
  /// updates stats. Shared by Consume and checkpoint replay.
  Status Apply(const Delta& d);

  /// `append` extends a completed stratum's checkpoint entries instead of
  /// overwriting them (base-update seeding).
  Status CheckpointPending(int stratum, bool append = false);

  Params params_;
  const WhileHandler* handler_ = nullptr;

  FlatMap64<std::vector<Bucket>> state_;
  size_t state_size_ = 0;
  DeltaVec pending_;
  /// The stratum's checkpoint-bound Δ history: every arrival whose
  /// application mutated state, in application order (plus, for handlers
  /// that keep unpropagated state, every arrival — sub-threshold revisions
  /// are state changes too). Replaying this log reproduces both the state
  /// mutations and the propagated Δ set of the stratum bit-for-bit.
  DeltaVec applied_log_;
  /// True while Apply is fed from checkpoints: suppresses re-logging.
  bool replaying_ = false;

  /// Engaged when EngineConfig::coalesce_deltas is on in kDelta mode:
  /// StartStratum folds the pending Δ set to its net effect (a key revised
  /// five times in one stratum flushes one composed delta). Operates on the
  /// swapped flush copy only — pending_/applied_log_ and hence checkpoints
  /// and the Δ-conservation invariant stay raw.
  std::optional<DeltaCoalescer> coalescer_;
  Counter* deltas_coalesced_ = nullptr;
  Counter* coalesce_bytes_saved_ = nullptr;
  /// Rows the coalescer's columnar fold handled (exec.batch_rows).
  Counter* batch_rows_ = nullptr;
  /// Net Δ tuples flushed per stratum (exec.delta_tuples).
  Counter* delta_tuples_ = nullptr;

  VoteStats stats_;  // current stratum
};

}  // namespace rex

#endif  // REX_EXEC_FIXPOINT_H_
