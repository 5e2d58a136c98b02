// Built-in aggregate functions with full delta support (§3.3).
//
// The standard operators (min, max, sum, average, count) automatically
// handle insertion, deletion, and replacement deltas. Deletion from min/max
// requires the buffered multiset the paper describes: "it must determine
// the next-smallest value (which needs to be in its buffered state)". The
// multiset is built lazily, at a group's first deletion: until then the
// inputs sit in a plain vector with the current extremum tracked beside it.
#ifndef REX_EXEC_AGGREGATES_H_
#define REX_EXEC_AGGREGATES_H_

#include <memory>
#include <set>
#include <string>

#include "common/status.h"
#include "common/value.h"

namespace rex {

enum class AggKind : uint8_t { kSum, kCount, kMin, kMax, kAvg };

Result<AggKind> AggKindFromName(const std::string& name);
const char* AggKindName(AggKind kind);

/// Per-group intermediate state for one aggregate.
class AggState {
 public:
  virtual ~AggState() = default;
};

/// A built-in aggregate function: creates per-group state, applies
/// insert/delete (replace = delete old + insert new), and produces the
/// group's current result.
class AggFunction {
 public:
  virtual ~AggFunction() = default;

  virtual std::unique_ptr<AggState> NewState() const = 0;
  /// Returns `state` to NewState()'s value, keeping any buffer capacity (a
  /// stratum-mode group-by recycles its groups' states).
  virtual void Reset(AggState* state) const = 0;
  virtual Status Insert(AggState* state, const Value& v) const = 0;
  virtual Status Delete(AggState* state, const Value& v) const = 0;
  /// Applies `v` with ℤ-set multiplicity `w`: +w ≡ w inserts, -w ≡ w
  /// deletes, 0 ≡ no-op. Linear aggregates (sum/count/avg — see
  /// IsLinear()) override this with an O(1) weighted fold; the default
  /// replays |w| unit applications, which is correct for any aggregate.
  virtual Status ApplyWeighted(AggState* state, const Value& v,
                               int64_t w) const;
  /// Whether ApplyWeighted is an O(1) scale of the unit apply — the
  /// soundness condition for deriving this aggregate's delta handler
  /// mechanically from the weighted model.
  virtual bool IsLinear() const { return false; }
  virtual Result<Value> Current(const AggState* state) const = 0;
  /// Number of contributing inputs; 0 means the group is empty.
  virtual int64_t Count(const AggState* state) const = 0;
  virtual ValueType ResultType(ValueType input_type) const = 0;
};

/// Returns the singleton implementation for a built-in aggregate.
const AggFunction* GetAggFunction(AggKind kind);

// -- pre-aggregation (combiner) support (§5.2) ------------------------------
//
// sum/min/max/count are composable: partial results union by a "merge"
// aggregation (sum of sums, min of mins, sum of counts). avg pre-aggregates
// into (sum, count) pairs and finalizes with sum(sum)/sum(count); it is
// composable through its pre-aggregate. These descriptors drive the
// optimizer's pushdown.

struct PreAggSpec {
  bool available = false;
  /// Aggregate to run below the exchange/join.
  AggKind partial = AggKind::kSum;
  /// Aggregate that merges partials above.
  AggKind merge = AggKind::kSum;
  /// avg needs a companion count partial.
  bool needs_count_companion = false;
};

PreAggSpec GetPreAggSpec(AggKind kind);

/// Whether the aggregate's value depends on input multiplicity (sum, count,
/// avg do; min/max don't). Multiplicity-dependent composable aggregates
/// need multiply-compensation when pre-aggregated on both sides of a
/// multiplicative join (§5.2).
bool IsMultiplicitySensitive(AggKind kind);

}  // namespace rex

#endif  // REX_EXEC_AGGREGATES_H_
