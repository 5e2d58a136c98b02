#include "exec/operators.h"

#include <chrono>

#include "common/hash.h"
#include "common/logging.h"

namespace rex {

// ---------------------------------------------------------------- ScanOp --

Status ScanOp::Open(ExecContext* ctx) {
  REX_RETURN_NOT_OK(Operator::Open(ctx));
  REX_ASSIGN_OR_RETURN(table_, ctx->storage->GetTable(params_.table));
  return Status::OK();
}

Status ScanOp::ConsumeDeltas(int, DeltaVec) {
  return Status::Internal("scan has no inputs");
}

Status ScanOp::EmitRows(std::vector<Tuple> rows) {
  const size_t batch = ctx_->config->network_batch_size;
  DeltaVec out;
  out.reserve(std::min(batch, rows.size()));
  for (Tuple& t : rows) {
    out.push_back(Delta::Insert(std::move(t)));
    if (out.size() >= batch) {
      REX_RETURN_NOT_OK(Emit(std::move(out)));
      out = DeltaVec();
      out.reserve(batch);
    }
  }
  return Emit(std::move(out));
}

Status ScanOp::StartStratum(int stratum) {
  if (stratum != 0) return Status::OK();
  REX_RETURN_NOT_OK(EmitRows(table_->PrimaryRows(ctx_->worker_id,
                                                 *ctx_->pmap)));
  Punctuation p;
  p.kind = params_.punct_kind;
  p.stratum = 0;
  return EmitPunct(p);
}

Status ScanOp::RecoveryReload() {
  if (!params_.feeds_immutable || ctx_->old_pmap == nullptr) {
    return Status::OK();
  }
  // The new snapshot's membership is exactly the live set; a revived
  // worker (present in neither old pmap nor any replica list) may fetch
  // its rows from any live holder.
  const std::vector<int>& live = ctx_->pmap->workers();
  REX_ASSIGN_OR_RETURN(
      std::vector<Tuple> rows,
      table_->TakeoverRows(ctx_->worker_id, *ctx_->old_pmap, *ctx_->pmap,
                           &live));
  // Data only: the downstream port was already punctuated before the
  // failure; re-punctuating would corrupt wave counts.
  return EmitRows(std::move(rows));
}

// -------------------------------------------------------------- FilterOp --

Status FilterOp::Open(ExecContext* ctx) {
  REX_RETURN_NOT_OK(Operator::Open(ctx));
  columnar_ = ctx->config->columnar_batches;
  compiled_.clear();
  batch_rows_ = ctx->metrics->GetCounter(metrics::kBatchRows);
  batch_batches_ = ctx->metrics->GetCounter(metrics::kBatchBatches);
  batch_fallback_rows_ =
      ctx->metrics->GetCounter(metrics::kBatchFallbackRows);
  return Status::OK();
}

Status FilterOp::ConsumeDeltas(int, DeltaVec deltas) {
  tuples_processed_->Add(static_cast<int64_t>(deltas.size()));
  if (columnar_ && !deltas.empty()) {
    auto batch = DeltaBatch::FromDeltas(deltas);
    if (batch.has_value()) {
      std::vector<BatchColType> types = batch->ColumnTypes();
      const std::optional<CompiledPredicate>* plan = nullptr;
      for (const auto& [sig, compiled] : compiled_) {
        if (sig == types) {
          plan = &compiled;
          break;
        }
      }
      if (plan == nullptr) {
        compiled_.emplace_back(types,
                               CompiledPredicate::Compile(*predicate_, types));
        plan = &compiled_.back().second;
      }
      if (plan->has_value()) {
        batch_rows_->Add(static_cast<int64_t>(deltas.size()));
        batch_batches_->Increment();
        std::vector<uint8_t> mask;
        (*plan)->Eval(*batch, &mask);
        DeltaVec out;
        out.reserve(deltas.size());
        for (size_t i = 0; i < deltas.size(); ++i) {
          if (mask[i] != 0) out.push_back(std::move(deltas[i]));
        }
        return Emit(std::move(out));
      }
    }
    batch_fallback_rows_->Add(static_cast<int64_t>(deltas.size()));
  }
  DeltaVec out;
  out.reserve(deltas.size());
  for (Delta& d : deltas) {
    if (d.op == DeltaOp::kReplace) {
      REX_ASSIGN_OR_RETURN(bool new_passes,
                           EvalPredicate(*predicate_, d.tuple, ctx_->udfs));
      REX_ASSIGN_OR_RETURN(
          bool old_passes,
          EvalPredicate(*predicate_, d.old_tuple, ctx_->udfs));
      if (new_passes && old_passes) {
        out.push_back(std::move(d));
      } else if (new_passes) {
        out.push_back(Delta::Insert(std::move(d.tuple)));
      } else if (old_passes) {
        out.push_back(Delta::Delete(std::move(d.old_tuple)));
      }
      continue;
    }
    REX_ASSIGN_OR_RETURN(bool passes,
                         EvalPredicate(*predicate_, d.tuple, ctx_->udfs));
    if (passes) out.push_back(std::move(d));
  }
  return Emit(std::move(out));
}

// ------------------------------------------------------------- ProjectOp --

Result<Tuple> ProjectOp::Apply(const Tuple& in) const {
  std::vector<Value> fields;
  fields.reserve(exprs_.size());
  for (const ExprPtr& e : exprs_) {
    REX_ASSIGN_OR_RETURN(Value v, EvalExpr(*e, in, ctx_->udfs));
    fields.push_back(std::move(v));
  }
  return Tuple(std::move(fields));
}

Status ProjectOp::ConsumeDeltas(int, DeltaVec deltas) {
  tuples_processed_->Add(static_cast<int64_t>(deltas.size()));
  DeltaVec out;
  out.reserve(deltas.size());
  for (const Delta& d : deltas) {
    Delta nd = d;
    REX_ASSIGN_OR_RETURN(nd.tuple, Apply(d.tuple));
    if (d.op == DeltaOp::kReplace) {
      REX_ASSIGN_OR_RETURN(nd.old_tuple, Apply(d.old_tuple));
    }
    out.push_back(std::move(nd));
  }
  return Emit(std::move(out));
}

// ------------------------------------------------------------- ApplyFnOp --

Status ApplyFnOp::Open(ExecContext* ctx) {
  REX_RETURN_NOT_OK(Operator::Open(ctx));
  REX_ASSIGN_OR_RETURN(fn_, ctx->udfs->GetTable(fn_name_));
  batch_size_ = std::max<size_t>(1, ctx->config->udf_batch_size);
  cache_enabled_ =
      fn_->deterministic && ctx->config->cache_deterministic_udfs;
  udf_nanos_ = ctx->metrics->GetCounter("udf." + fn_name_ + ".nanos");
  udf_calls_ = ctx->metrics->GetCounter("udf." + fn_name_ + ".calls");
  udf_in_ = ctx->metrics->GetCounter("udf." + fn_name_ + ".in");
  udf_out_ = ctx->metrics->GetCounter("udf." + fn_name_ + ".out");
  total_udf_calls_ = ctx->metrics->GetCounter(metrics::kUdfCalls);
  udf_cache_hits_ = ctx->metrics->GetCounter(metrics::kUdfCacheHits);
  return Status::OK();
}

namespace {

/// Emulates the per-invocation overhead of a (Java-reflection-style)
/// dynamic call; batching amortizes this across a whole input batch.
void BurnInvokeOverhead(int units) {
  volatile uint64_t sink = 0;
  for (int i = 0; i < units * 50; ++i) {
    sink = sink + static_cast<uint64_t>(i) * static_cast<uint64_t>(i);
  }
}

}  // namespace

Result<DeltaVec> ApplyFnOp::Invoke(const DeltaVec& batch) {
  total_udf_calls_->Increment();
  BurnInvokeOverhead(ctx_->config->udf_invoke_overhead);
  const auto start = std::chrono::steady_clock::now();
  DeltaVec out;
  if (fn_->batch_fn) {
    REX_ASSIGN_OR_RETURN(out, fn_->batch_fn(batch));
  } else {
    for (const Delta& d : batch) {
      REX_ASSIGN_OR_RETURN(DeltaVec partial, fn_->fn(d));
      for (Delta& p : partial) out.push_back(std::move(p));
    }
  }
  // Runtime monitoring (§5.1): feed measured cost and fanout back to the
  // optimizer (see Cluster::MeasuredUdfProfile).
  udf_nanos_->Add(std::chrono::duration_cast<std::chrono::nanoseconds>(
                      std::chrono::steady_clock::now() - start)
                      .count());
  udf_calls_->Increment();
  udf_in_->Add(static_cast<int64_t>(batch.size()));
  udf_out_->Add(static_cast<int64_t>(out.size()));
  return out;
}

Status ApplyFnOp::FlushBatch() {
  if (pending_.empty()) return Status::OK();
  DeltaVec batch;
  batch.swap(pending_);

  if (!cache_enabled_) {
    REX_ASSIGN_OR_RETURN(DeltaVec out, Invoke(batch));
    return Emit(std::move(out));
  }

  // Serve cached inputs; invoke the UDF once over the misses.
  DeltaVec out;
  DeltaVec misses;
  std::vector<size_t> miss_hashes;
  for (Delta& d : batch) {
    uint64_t h = HashCombine(static_cast<uint64_t>(d.op), d.tuple.Hash());
    auto it = cache_.find(h);
    const CacheEntry* hit = nullptr;
    if (it != cache_.end()) {
      for (const CacheEntry& e : it->second) {
        if (e.input == d) {
          hit = &e;
          break;
        }
      }
    }
    if (hit != nullptr) {
      udf_cache_hits_->Increment();
      for (const Delta& o : hit->outputs) out.push_back(o);
    } else {
      miss_hashes.push_back(h);
      misses.push_back(std::move(d));
    }
  }
  if (!misses.empty()) {
    // Invoke per miss so each input's outputs can be cached individually.
    total_udf_calls_->Increment();
    BurnInvokeOverhead(ctx_->config->udf_invoke_overhead);
    for (size_t i = 0; i < misses.size(); ++i) {
      REX_ASSIGN_OR_RETURN(DeltaVec result, fn_->fn(misses[i]));
      cache_[miss_hashes[i]].push_back(CacheEntry{misses[i], result});
      for (Delta& r : result) out.push_back(std::move(r));
    }
  }
  return Emit(std::move(out));
}

Status ApplyFnOp::ConsumeDeltas(int, DeltaVec deltas) {
  tuples_processed_->Add(static_cast<int64_t>(deltas.size()));
  for (Delta& d : deltas) {
    pending_.push_back(std::move(d));
    if (pending_.size() >= batch_size_) REX_RETURN_NOT_OK(FlushBatch());
  }
  return Status::OK();
}

Status ApplyFnOp::OnAllPunct(const Punctuation&) { return FlushBatch(); }

Status ApplyFnOp::ResetTransientState() {
  REX_RETURN_NOT_OK(Operator::ResetTransientState());
  pending_.clear();
  return Status::OK();
}

// --------------------------------------------------------------- UnionOp --

Status UnionOp::ConsumeDeltas(int, DeltaVec deltas) {
  tuples_processed_->Add(static_cast<int64_t>(deltas.size()));
  return Emit(std::move(deltas));
}

// ---------------------------------------------------------------- SinkOp --

Status SinkOp::ConsumeDeltas(int, DeltaVec deltas) {
  for (Delta& d : deltas) {
    switch (d.op) {
      case DeltaOp::kInsert:
      case DeltaOp::kUpdate:
        results_.Add(std::move(d.tuple));
        break;
      case DeltaOp::kDelete:
        results_.Remove(d.tuple);
        break;
      case DeltaOp::kReplace:
        // Upsert: a -> whose old image never reached this sink (e.g. it
        // was folded away upstream) must still land the new image.
        results_.ReplaceOrInsert(d.old_tuple, std::move(d.tuple));
        break;
      case DeltaOp::kBatch:
        // Wire-only packing; the receiving rehash expands it.
        return Status::Internal("packed batch delta reached a sink");
    }
  }
  return Status::OK();
}

// -------------------------------------------------------------- RehashOp --

Status RehashOp::Open(ExecContext* ctx) {
  REX_RETURN_NOT_OK(Operator::Open(ctx));
  batch_size_ = ctx->config->network_batch_size;
  pending_.assign(static_cast<size_t>(ctx->network->num_workers()),
                  DeltaVec());
  SetExpectedPuncts(1, ctx->pmap->num_workers());
  coalescer_.reset();
  columnar_ = ctx->config->columnar_batches;
  batch_rows_ = ctx->metrics->GetCounter(metrics::kBatchRows);
  batch_batches_ = ctx->metrics->GetCounter(metrics::kBatchBatches);
  batch_fallback_rows_ =
      ctx->metrics->GetCounter(metrics::kBatchFallbackRows);
  if (ctx->config->coalesce_deltas && !params_.broadcast) {
    CoalesceOptions opts;
    opts.key_fields = params_.key_fields;
    opts.dedupe_idempotent = params_.idempotent_updates;
    opts.pack_runs = true;
    opts.columnar = columnar_;
    coalescer_.emplace(std::move(opts));
    deltas_coalesced_ = ctx->metrics->GetCounter(metrics::kDeltasCoalesced);
    coalesce_bytes_saved_ =
        ctx->metrics->GetCounter(metrics::kCoalesceBytesSaved);
  }
  return Status::OK();
}

Status RehashOp::OnMembershipChange() {
  SetExpectedPuncts(1, ctx_->pmap->num_workers());
  return Status::OK();
}

Status RehashOp::FlushTo(int dest) {
  auto& buf = pending_[static_cast<size_t>(dest)];
  if (buf.empty()) return Status::OK();
  DeltaVec batch;
  batch.swap(buf);
  if (coalescer_.has_value()) {
    CoalesceStats stats;
    REX_ASSIGN_OR_RETURN(batch, coalescer_->Coalesce(std::move(batch), &stats));
    deltas_coalesced_->Add(stats.folded);
    coalesce_bytes_saved_->Add(stats.bytes_saved);
    if (stats.columnar_rows > 0) batch_rows_->Add(stats.columnar_rows);
    if (batch.empty()) return Status::OK();  // fully annihilated
  }
  return ctx_->network->Send(
      Message::Data(ctx_->worker_id, dest, id(), /*port=*/1,
                    std::move(batch)));
}

Status RehashOp::FlushAll() {
  for (int w = 0; w < static_cast<int>(pending_.size()); ++w) {
    REX_RETURN_NOT_OK(FlushTo(w));
  }
  return Status::OK();
}

Status RehashOp::Route(Delta d, DeltaVec* local) {
  if (params_.broadcast) {
    for (int w : ctx_->pmap->workers()) {
      if (w == ctx_->worker_id) {
        local->push_back(d);
      } else {
        pending_[static_cast<size_t>(w)].push_back(d);
        if (pending_[static_cast<size_t>(w)].size() >= batch_size_) {
          REX_RETURN_NOT_OK(FlushTo(w));
        }
      }
    }
    return Status::OK();
  }
  const uint64_t h = PartitionHash(d.tuple, params_.key_fields);
  return RouteHashed(std::move(d), h, local);
}

Status RehashOp::RouteHashed(Delta d, uint64_t h, DeltaVec* local) {
  const int dest = ctx_->pmap->PrimaryOwner(h);
  if (dest == ctx_->worker_id) {
    local->push_back(std::move(d));
    return Status::OK();
  }
  auto& buf = pending_[static_cast<size_t>(dest)];
  buf.push_back(std::move(d));
  if (buf.size() >= batch_size_) return FlushTo(dest);
  return Status::OK();
}

Status RehashOp::ConsumeDeltas(int port, DeltaVec deltas) {
  if (port == 1) {
    // Already routed to us; unpack any coalesced same-key runs so kBatch
    // never escapes the shuffle.
    REX_ASSIGN_OR_RETURN(deltas, DeltaCoalescer::Expand(std::move(deltas)));
    return Emit(std::move(deltas));
  }
  tuples_processed_->Add(static_cast<int64_t>(deltas.size()));
  std::vector<uint64_t> hashes;  // filled when the batch hashes columnar
  if (columnar_ && !params_.broadcast && !params_.key_fields.empty() &&
      !deltas.empty()) {
    auto batch = DeltaBatch::FromDeltas(deltas);
    if (batch.has_value() && batch->KeyFieldsInRange(params_.key_fields)) {
      batch_rows_->Add(static_cast<int64_t>(deltas.size()));
      batch_batches_->Increment();
      PartitionHashRows(*batch, params_.key_fields, &hashes);
    } else {
      batch_fallback_rows_->Add(static_cast<int64_t>(deltas.size()));
    }
  }
  // Rows this worker owns go downstream as one batch at the end of the
  // call, uncoalesced and in input order. They are not held for FlushAll:
  // a recovery reload emits data with no punctuation behind it.
  DeltaVec local;
  for (size_t i = 0; i < deltas.size(); ++i) {
    REX_RETURN_NOT_OK(
        hashes.empty()
            ? Route(std::move(deltas[i]), &local)
            : RouteHashed(std::move(deltas[i]), hashes[i], &local));
  }
  return Emit(std::move(local));
}

Status RehashOp::OnPortWaveComplete(int port, const Punctuation& p) {
  if (port == 0) {
    // Local pipeline finished its wave: flush buffered batches, then tell
    // every peer's receiving half (including our own, via the network for
    // uniform counting) that we are done.
    REX_RETURN_NOT_OK(FlushAll());
    for (int w : ctx_->pmap->workers()) {
      REX_RETURN_NOT_OK(ctx_->network->Send(
          Message::Punct(ctx_->worker_id, w, id(), /*port=*/1, p)));
    }
    return Status::OK();
  }
  // Network side: every live worker has punctuated; the wave is globally
  // complete, so forward downstream and rearm for the next stratum.
  ResetWave();
  return EmitPunct(p);
}

Status RehashOp::ResetTransientState() {
  REX_RETURN_NOT_OK(Operator::ResetTransientState());
  for (DeltaVec& buf : pending_) buf.clear();
  return Status::OK();
}

}  // namespace rex
