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
//
// Groups emit in creation order. A built-in group-by offers a fused input,
// so a same-worker join folds its output rows straight into the groups
// (DESIGN.md "Group-join").
#ifndef REX_EXEC_GROUP_BY_H_
#define REX_EXEC_GROUP_BY_H_

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/flat_map.h"
#include "exec/aggregates.h"
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
  /// Built-in aggregates only: folds each row as ConsumeDeltas would. A UDA
  /// group-by has none (agg_state takes a Delta and may stream output).
  DeltaSink* fused_input() override;

  size_t NumGroups() const { return live_; }

 protected:
  Status OnAllPunct(const Punctuation& p) override;

 private:
  using Row = std::span<const Value>;

  /// A group's hot bookkeeping. Its key and aggregate states live beside
  /// it in keys_ and agg_states_, at the same arena index.
  struct Group {
    /// 1-based arena index of the next group whose key has the same 64-bit
    /// hash; 0 ends the chain.
    uint32_t next = 0;
    bool touched = false;
  };

  /// The fused input: hands each row to FoldBuiltin.
  class FoldInput final : public DeltaSink {
   public:
    explicit FoldInput(GroupByOp* op) : op_(op) {}

   protected:
    Status AddDelta(Delta d) override;
    Status AddPlainRow(DeltaOp op, Row row, int64_t weight) override;

   private:
    GroupByOp* op_;
  };

  /// InvalidArgument unless `row` has every key and input field.
  Status CheckArity(Row row) const;
  /// The arena index of the group for `row`'s key fields; creates the
  /// group, last in emission order, on a miss.
  size_t FindOrCreate(Row row);
  Row KeyOf(size_t g) const;
  AggState* StateOf(size_t g, size_t agg) const {
    return agg_states_[g * agg_fns_.size() + agg].get();
  }
  bool SameKey(Row a, Row b) const;
  /// The one built-in fold behind ConsumeDeltas and the fused input.
  Status FoldBuiltin(DeltaOp op, Row row, Row old_row, int64_t weight);
  Status ApplyBuiltin(size_t g, DeltaOp op, Row row, Row old_row,
                      int64_t weight);
  Status ApplyUda(const Delta& d, DeltaVec* streamed);
  Result<Tuple> CurrentResult(size_t g) const;
  bool GroupEmpty(size_t g) const;
  void ClearGroups();

  Params params_;
  const Uda* uda_ = nullptr;
  /// Resolved at Open, one per aggregate.
  std::vector<const AggFunction*> agg_fns_;
  /// Largest key or input field index a row must have; -1 if none.
  int max_field_ = -1;

  // The group arena, in creation order; groups [0, live_) are live. Group
  // g's key is keys_[g·k, g·k + k) for k key fields, and its states are
  // agg_states_[g·a, g·a + a) for a aggregates. A stratum-mode clear keeps
  // every slot, with its key storage and its aggregate states, for the next
  // stratum's groups.
  std::vector<Group> groups_;
  std::vector<Value> keys_;
  std::vector<std::unique_ptr<AggState>> agg_states_;
  std::vector<std::unique_ptr<UdaState>> uda_states_;  // UDA mode
  /// Persistent mode: each group's last emitted result; empty if none.
  std::vector<Tuple> last_emitted_;
  size_t live_ = 0;
  /// Key hash -> 1-based arena index of the newest group with that hash.
  FlatMap64<uint32_t> index_;
  FoldInput fold_input_{this};
};

}  // namespace rex

#endif  // REX_EXEC_GROUP_BY_H_
