// User-defined code: scalar UDFs, table-valued UDFs, user-defined
// aggregators (UDAs), and the four delta-handler forms of §3.3:
//
//   aggregate state:  DELTA[] AGGSTATE(OBJECT STATE, DELTA D)
//   aggregate result: DELTA[] AGGRESULT(OBJECT STATE)
//   join state:       DELTA[] UPDATE(TUPLESET LEFT, TUPLESET RIGHT, DELTA D)
//   while state:      DELTA[] UPDATE(TUPLESET WHILERELATION, DELTA D)
//
// A join-state handler writes its DELTA[] into a DeltaSink instead of
// returning it, so a fused consumer can fold each row as it is produced.
//
// The original REX resolves Java classes by name via reflection; here the
// registry resolves std::function-based definitions by name, mirroring how
// plans ship class names (not code) to workers. Typing information
// (inTypes/outTypes) accompanies each definition and is checked by the RQL
// analyzer.
#ifndef REX_EXEC_UDA_H_
#define REX_EXEC_UDA_H_

#include <functional>
#include <memory>
#include <string>

#include "common/delta.h"
#include "common/status.h"
#include "common/tuple.h"
#include "exec/tuple_set.h"

namespace rex {

/// Opaque per-group UDA state ("OBJECT STATE" in the paper).
struct UdaState {
  virtual ~UdaState() = default;
};

/// A scalar user-defined function: values in, one value out.
struct ScalarUdf {
  std::string name;
  std::vector<ValueType> in_types;
  ValueType out_type = ValueType::kNull;
  std::function<Result<Value>(const std::vector<Value>&)> fn;
  /// Deterministic functions are cached and reordered freely (§5.1).
  bool deterministic = true;
  /// Optimizer hints: per-call CPU cost and selectivity when used as a
  /// predicate (fraction of tuples passing).
  double cost_per_call = 1.0;
  double selectivity = 0.5;
};

/// A table-valued UDF for applyFunction: one input delta in, a bag of
/// output deltas out. May create/manipulate annotations arbitrarily (the
/// one stateless operator allowed to, §3.3).
struct TableUdf {
  std::string name;
  Schema in_schema;
  Schema out_schema;
  std::function<Result<DeltaVec>(const Delta&)> fn;
  /// Optional batched form; when set, the engine amortizes invocation
  /// overhead across a whole batch (§4.2 input batching).
  std::function<Result<DeltaVec>(const DeltaVec&)> batch_fn;
  bool deterministic = true;
  double cost_per_call = 1.0;
  double avg_fanout = 1.0;  // expected outputs per input
};

/// A user-defined aggregator: manages per-group state and defines what to
/// emit, both incrementally (agg_state) and at stratum end (agg_result).
struct Uda {
  std::string name;
  Schema in_schema;   // inTypes with attribute names
  Schema out_schema;  // outTypes
  std::function<std::unique_ptr<UdaState>()> init;
  /// Revises the group's state for one delta; may return intermediate
  /// deltas to emit immediately (streamed partial aggregation, §4.2).
  std::function<Result<DeltaVec>(UdaState*, const Delta&)> agg_state;
  /// Produces the group's final deltas once the stratum has finished.
  std::function<Result<DeltaVec>(UdaState*)> agg_result;

  /// Optional pre-aggregate (MapReduce "combiner"); §5.2 pushdown.
  std::string pre_agg;  // name of another registered Uda; empty if none
  /// Composable UDAs can be computed in parts and unioned (sum, avg — not
  /// median); composability licenses pushdown through arbitrary joins.
  bool composable = false;
  /// Multiply-compensation UDF for pre-aggregation on both sides of a
  /// multiplicative (non key-FK) join; empty if not provided (§5.2).
  std::string mult_fn;
  /// Linear UDAs commute with ℤ-set weights: applying a +()/-() delta of
  /// weight w is equivalent to w unit applications, so the group-by derives
  /// their weighted delta handler mechanically (the unit handler is
  /// replayed per multiplicity). Non-linear UDAs reject |weight| != 1 —
  /// there is no sound derivation for them. δ() weights are opaque either
  /// way: they reach agg_state untouched, payload semantics included.
  bool linear = false;

  double cost_per_tuple = 1.0;  // optimizer hint
};

/// Join-state delta handler: owns the per-key buckets of both join inputs
/// and decides how a delta revises them and what joins to emit.
struct JoinHandler {
  std::string name;
  Schema in_schema;   // delta tuple layout arriving on the delta input
  Schema out_schema;  // emitted delta layout
  /// update(leftBucket, rightBucket, delta, out): writes the deltas to emit
  /// into `out`, plain rows through AddRow. `left` is the bucket of the
  /// input the delta arrived on; `right` the opposite input's.
  std::function<Status(TupleSet* left, TupleSet* right, const Delta&,
                       DeltaSink* out)>
      update;
  double cost_per_tuple = 1.0;
};

/// While-state delta handler: revises the fixpoint operator's relation for
/// one incoming delta and returns the deltas to feed the next stratum.
struct WhileHandler {
  std::string name;
  /// update(whileRelation, delta) -> deltas (possibly empty).
  std::function<Result<DeltaVec>(TupleSet* relation, const Delta&)> update;
  /// True when the handler may revise its bucket WITHOUT propagating (e.g.
  /// PageRank accumulates sub-threshold diffs silently). Such arrivals are
  /// part of the state's Δ history, so checkpoints must include every
  /// arrival — not just the propagated Δ set — for replay to reproduce the
  /// state bit-for-bit. Handlers that leave this false promise that state
  /// changes only on arrivals they propagate.
  bool keeps_unpropagated_state = false;
};

}  // namespace rex

#endif  // REX_EXEC_UDA_H_
