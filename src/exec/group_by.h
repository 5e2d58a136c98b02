// Delta-aware grouped aggregation (§3.3).
//
// State is a map from grouping key to per-aggregate intermediate state.
// Built-in aggregates (sum/count/min/max/avg) handle insert, delete, and
// replace deltas automatically; a UDA's agg_state handler is consulted for
// everything else (and may emit streamed partial results immediately —
// §4.2). At stratum end the operator emits each touched group's results:
//
//  - kStratum mode: groups aggregate the current stratum's deltas only and
//    the state resets afterwards (per-iteration aggregation inside a
//    recursive plan, e.g. summing PageRank diffs).
//  - kPersistent mode: state lives across punctuation waves and changed
//    groups emit replacement deltas (incremental view maintenance
//    semantics; also the OLAP case, where there is a single wave).
#ifndef REX_EXEC_GROUP_BY_H_
#define REX_EXEC_GROUP_BY_H_

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/flat_map.h"
#include "exec/aggregates.h"
#include "exec/coalesce.h"
#include "exec/operator.h"
#include "exec/uda.h"

namespace rex {

class GroupByOp : public Operator {
 public:
  /// One built-in aggregate column.
  struct AggSpec {
    AggKind kind = AggKind::kSum;
    /// Input field index; -1 means count(*) (any-value input).
    int input_field = -1;
    std::string output_name;
  };

  enum class Mode { kStratum, kPersistent };

  struct Params {
    std::vector<int> key_fields;
    /// Built-in aggregates. Output layout: key fields then one result per
    /// aggregate. Mutually exclusive with `uda`.
    std::vector<AggSpec> aggs;
    /// User-defined aggregator by registry name; the UDA's handlers own
    /// the output layout.
    std::string uda;
    /// Fields of the input tuple passed to the UDA (the UDA's argument
    /// list, e.g. ArgMin(srcId, dist)). Empty = the whole tuple.
    std::vector<int> uda_input_fields;
    /// UDA mode: prepend the group's key fields to each emitted tuple
    /// (ArgMin-style usage: SELECT nbr, ArgMin(...) GROUP BY nbr).
    bool prefix_group_key = false;
    Mode mode = Mode::kStratum;
  };

  GroupByOp(int id, Params params)
      : Operator(id, 1), params_(std::move(params)) {}

  const char* name() const override { return "groupBy"; }
  Status Open(ExecContext* ctx) override;
  Status ConsumeDeltas(int port, DeltaVec deltas) override;
  Status ResetTransientState() override;

  size_t NumGroups() const;

 protected:
  Status OnAllPunct(const Punctuation& p) override;

 private:
  struct Group {
    std::vector<Value> key;
    std::vector<std::unique_ptr<AggState>> agg_states;
    std::unique_ptr<UdaState> uda_state;
    bool touched = false;
    bool has_emitted = false;
    Tuple last_emitted;
  };

  Group* FindOrCreate(const std::vector<Value>& key);
  /// Allocation-free lookup on the hot path (key vector only materializes
  /// when a group is created).
  Group* FindOrCreateFromTuple(const Tuple& t);
  std::vector<Value> KeyOf(const Tuple& t) const;
  Status ApplyBuiltin(Group* g, DeltaOp op, const Tuple& t,
                      const Tuple& old_t, int64_t weight = 1);
  Result<Tuple> CurrentResult(const Group& g) const;
  bool GroupEmpty(const Group& g) const;

  Params params_;
  const Uda* uda_ = nullptr;
  FlatMap64<std::vector<Group>> groups_;

  /// Engaged when EngineConfig::coalesce_deltas is on: punctuation-time
  /// emission is folded to its net effect (built-in output is keyed on the
  /// leading group-key columns; UDA output, whose layout the UDA owns, is
  /// keyed on the whole tuple, so only exact-pair annihilation can fire).
  std::optional<DeltaCoalescer> coalescer_;
  Counter* deltas_coalesced_ = nullptr;
  Counter* coalesce_bytes_saved_ = nullptr;
};

}  // namespace rex

#endif  // REX_EXEC_GROUP_BY_H_
