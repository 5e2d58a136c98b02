// The stateless / lightly-stateful pipeline operators: table scan, filter,
// project, applyFunction (table-valued UDF with caching and batching),
// union, and sink.
#ifndef REX_EXEC_OPERATORS_H_
#define REX_EXEC_OPERATORS_H_

#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/delta_batch.h"
#include "exec/coalesce.h"
#include "exec/expr.h"
#include "exec/operator.h"
#include "exec/tuple_set.h"
#include "exec/vectorized.h"

namespace rex {

/// Reads the worker's primary partition of a base table in stratum 0 and
/// punctuates. Scans feeding immutable operator state (a join's stored
/// side) participate in incremental-recovery reloads.
class ScanOp : public Operator {
 public:
  struct Params {
    std::string table;
    /// Punctuation to emit after the data (immutable inputs close their
    /// downstream port with kEndOfStream; so does the base case, which
    /// runs exactly once).
    Punctuation::Kind punct_kind = Punctuation::Kind::kEndOfStream;
    /// Participates in recovery reloads (rebuilds downstream immutable
    /// state for taken-over ranges).
    bool feeds_immutable = false;
  };

  ScanOp(int id, Params params) : Operator(id, 0), params_(std::move(params)) {}

  const char* name() const override { return "scan"; }
  Status Open(ExecContext* ctx) override;
  Status ConsumeDeltas(int port, DeltaVec deltas) override;
  Status StartStratum(int stratum) override;
  Status RecoveryReload() override;

  /// True when this scan's stratum-0 punctuation closes its downstream
  /// port (kEndOfStream).
  bool closes_stream() const {
    return params_.punct_kind == Punctuation::Kind::kEndOfStream;
  }

 private:
  Status EmitRows(std::vector<Tuple> rows);

  Params params_;
  std::shared_ptr<DistributedTable> table_;
};

/// σ: drops deltas whose tuple fails the predicate, applying the standard
/// delta rules for replacements (old/new may pass independently). When the
/// columnar plane is on, batches inside the fast-path domain evaluate the
/// predicate whole-column through a compiled plan (cached per column-type
/// signature); everything else takes the scalar row loop.
class FilterOp : public Operator {
 public:
  FilterOp(int id, ExprPtr predicate)
      : Operator(id, 1), predicate_(std::move(predicate)) {}

  const char* name() const override { return "filter"; }
  Status Open(ExecContext* ctx) override;
  Status ConsumeDeltas(int port, DeltaVec deltas) override;

 private:
  ExprPtr predicate_;

  bool columnar_ = false;
  /// Compile cache: one entry per column-type signature seen (in practice
  /// a filter sees exactly one schema). nullopt compiled form = this
  /// predicate cannot vectorize over that signature.
  std::vector<std::pair<std::vector<BatchColType>,
                        std::optional<CompiledPredicate>>>
      compiled_;
  Counter* batch_rows_ = nullptr;
  Counter* batch_batches_ = nullptr;
  Counter* batch_fallback_rows_ = nullptr;
};

/// π: maps each delta's tuple(s) through a list of expressions.
class ProjectOp : public Operator {
 public:
  ProjectOp(int id, std::vector<ExprPtr> exprs)
      : Operator(id, 1), exprs_(std::move(exprs)) {}

  const char* name() const override { return "project"; }
  Status ConsumeDeltas(int port, DeltaVec deltas) override;

 private:
  Result<Tuple> Apply(const Tuple& in) const;

  std::vector<ExprPtr> exprs_;
};

/// applyFunction: invokes a table-valued UDF on each delta. Stateless, but
/// may create or manipulate annotations arbitrarily (§3.3). Supports
/// deterministic-result caching (§5.1) and input batching (§4.2).
class ApplyFnOp : public Operator {
 public:
  ApplyFnOp(int id, std::string fn_name)
      : Operator(id, 1), fn_name_(std::move(fn_name)) {}

  const char* name() const override { return "applyFn"; }
  Status Open(ExecContext* ctx) override;
  Status ConsumeDeltas(int port, DeltaVec deltas) override;
  Status ResetTransientState() override;

 protected:
  Status OnAllPunct(const Punctuation& p) override;

 private:
  Status FlushBatch();
  Result<DeltaVec> Invoke(const DeltaVec& batch);

  std::string fn_name_;
  const TableUdf* fn_ = nullptr;
  size_t batch_size_ = 1;
  DeltaVec pending_;

  // Runtime monitoring (§5.1): per-UDF counters the optimizer's
  // cost-profile feedback reads ("udf.<name>.nanos/calls/in/out").
  Counter* udf_nanos_ = nullptr;
  Counter* udf_calls_ = nullptr;
  Counter* udf_in_ = nullptr;
  Counter* udf_out_ = nullptr;
  // Engine-wide totals (exec.udf_calls / exec.udf_cache_hits).
  Counter* total_udf_calls_ = nullptr;
  Counter* udf_cache_hits_ = nullptr;

  bool cache_enabled_ = false;
  struct CacheEntry {
    Delta input;
    DeltaVec outputs;
  };
  std::unordered_map<uint64_t, std::vector<CacheEntry>> cache_;
};

/// ∪: forwards deltas from any input; punctuation fires once all inputs
/// complete their waves.
class UnionOp : public Operator {
 public:
  UnionOp(int id, int num_inputs) : Operator(id, num_inputs) {}

  const char* name() const override { return "union"; }
  Status ConsumeDeltas(int port, DeltaVec deltas) override;
};

/// Terminal collector: applies deltas onto a result set the driver reads
/// after the query (the requestor's union of per-node results).
class SinkOp : public Operator {
 public:
  explicit SinkOp(int id) : Operator(id, 1) {}

  const char* name() const override { return "sink"; }
  Status ConsumeDeltas(int port, DeltaVec deltas) override;

  const TupleSet& results() const { return results_; }
  void ClearResults() { results_ = TupleSet(); }

 private:
  TupleSet results_;
};

/// Exchange (§3.2 "rehash"): re-partitions deltas among workers by the
/// hash of key fields under the query's partition snapshot, batching
/// cross-node messages. In broadcast mode every delta goes to all workers
/// (k-means centroid dissemination). Port 0 is the local pipeline input;
/// port 1 receives from the network (one punctuation per live worker ends
/// its wave).
class RehashOp : public Operator {
 public:
  struct Params {
    std::vector<int> key_fields;
    bool broadcast = false;
    /// Plan-declared promise that downstream application of this shuffle's
    /// +()/δ() deltas is idempotent (e.g. SSSP's min-keeping handler), so
    /// the coalescer may drop exact per-key repeats. Never set it for
    /// counting or summing consumers.
    bool idempotent_updates = false;
  };

  RehashOp(int id, Params params)
      : Operator(id, 2), params_(std::move(params)) {}

  const char* name() const override { return "rehash"; }
  Status Open(ExecContext* ctx) override;
  Status ConsumeDeltas(int port, DeltaVec deltas) override;
  Status ResetTransientState() override;
  Status OnMembershipChange() override;

 protected:
  Status OnPortWaveComplete(int port, const Punctuation& p) override;

 private:
  /// Routes one delta: rows for other workers join their pending buffer,
  /// rows this worker owns are appended to `local`.
  Status Route(Delta d, DeltaVec* local);
  /// Routing tail shared by the scalar and columnar paths: `h` is the
  /// delta's PartitionHash.
  Status RouteHashed(Delta d, uint64_t h, DeltaVec* local);
  Status FlushTo(int dest);
  Status FlushAll();

  Params params_;
  std::vector<DeltaVec> pending_;  // per destination worker
  size_t batch_size_ = 1024;

  /// Engaged when EngineConfig::coalesce_deltas is on (and not broadcast):
  /// every FlushTo folds its buffer to the net batch and packs same-key
  /// runs; the receiving port expands them back.
  std::optional<DeltaCoalescer> coalescer_;
  Counter* deltas_coalesced_ = nullptr;
  Counter* coalesce_bytes_saved_ = nullptr;

  /// Columnar plane: partition hashes for an in-domain batch are computed
  /// column-at-a-time before routing (strings hash once per distinct
  /// interned value).
  bool columnar_ = false;
  Counter* batch_rows_ = nullptr;
  Counter* batch_batches_ = nullptr;
  Counter* batch_fallback_rows_ = nullptr;
};

}  // namespace rex

#endif  // REX_EXEC_OPERATORS_H_
