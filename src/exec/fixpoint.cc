#include "exec/fixpoint.h"

#include <algorithm>
#include <cmath>
#include <string>

#include "common/logging.h"
#include "common/serde.h"
#include "obs/trace_ring.h"

namespace rex {

namespace {

uint64_t HashKey(const std::vector<Value>& key) {
  uint64_t h = 0x853c49e6748fea9bULL;
  for (const Value& v : key) h = HashCombine(h, v.Hash());
  return h;
}

/// Checkpoint encoding: the full delta serde (op, ℤ-set weight, tuple, and
/// any kReplace old tuple) rides as one string field. The previous
/// field-splicing encoding silently dropped old_tuple — and would have
/// dropped the weight — so replayed kReplace deltas were not bit-for-bit
/// what was applied.
Tuple EncodeCheckpoint(const Delta& d) {
  return Tuple{Value(SerializeDelta(d))};
}

Result<Delta> DecodeCheckpoint(const Tuple& t) {
  if (t.size() != 1 || t.field(0).type() != ValueType::kString) {
    return Status::ParseError("malformed checkpoint tuple");
  }
  return DeserializeDelta(t.field(0).AsString());
}

}  // namespace

Status FixpointOp::Open(ExecContext* ctx) {
  REX_RETURN_NOT_OK(Operator::Open(ctx));
  // The key-match loops index tuples through static_cast<size_t>, so a
  // negative index would wrap to a huge offset instead of failing; reject
  // it at plan time.
  for (int k : params_.key_fields) {
    if (k < 0) {
      return Status::InvalidArgument(
          "fixpoint key field index must be non-negative, got " +
          std::to_string(k));
    }
  }
  if (!params_.while_handler.empty()) {
    REX_ASSIGN_OR_RETURN(handler_,
                         ctx->udfs->GetWhileHandler(params_.while_handler));
  }
  delta_tuples_ = ctx->metrics->GetCounter(metrics::kDeltaTuples);
  return Status::OK();
}

std::vector<Value> FixpointOp::KeyOf(const Tuple& t) const {
  std::vector<Value> key;
  key.reserve(params_.key_fields.size());
  for (int k : params_.key_fields) {
    key.push_back(t.field(static_cast<size_t>(k)));
  }
  return key;
}

FixpointOp::Bucket* FixpointOp::FindOrCreate(const std::vector<Value>& key) {
  auto& chain = state_.FindOrCreate(HashKey(key));
  for (Bucket& b : chain) {
    if (b.key == key) return &b;
  }
  chain.push_back(Bucket{key, TupleSet()});
  return &chain.back();
}

FixpointOp::Bucket* FixpointOp::FindOrCreateFromTuple(const Tuple& t) {
  uint64_t h = 0x853c49e6748fea9bULL;
  if (params_.key_fields.empty()) {
    // Keyless (kAccumulate) fixpoints deduplicate on the whole tuple;
    // bucket by its full hash so the duplicate scan stays O(1) instead of
    // degenerating into one gigantic chain.
    h = HashCombine(h, t.Hash());
  }
  for (int k : params_.key_fields) {
    h = HashCombine(h, t.field(static_cast<size_t>(k)).Hash());
  }
  auto& chain = state_.FindOrCreate(h);
  for (Bucket& b : chain) {
    bool match = b.key.size() == params_.key_fields.size();
    for (size_t i = 0; match && i < b.key.size(); ++i) {
      match = b.key[i] == t.field(static_cast<size_t>(params_.key_fields[i]));
    }
    if (match) return &b;
  }
  chain.push_back(Bucket{KeyOf(t), TupleSet()});
  return &chain.back();
}

Status FixpointOp::Apply(const Delta& d) {
  Bucket* b = FindOrCreateFromTuple(d.tuple);

  if (handler_ != nullptr) {
    if (d.op == DeltaOp::kDelete) {
      // Set-plane deletion is handled generically: while-state handlers
      // model revision (δ application), not retraction, so a -() clears the
      // key's bucket without consulting them and propagates nothing —
      // re-derivation after a base-table update reseeds the key if it is
      // still reachable. The clear is a state change, so it enters the Δ
      // log for bit-for-bit replay.
      if (b->tuples.size() > 0) {
        state_size_ -= b->tuples.size();
        b->tuples = TupleSet();
        stats_.new_tuples += 1;
        stats_.changed_tuples += 1;
        if (!replaying_) applied_log_.push_back(d);
      }
      return Status::OK();
    }
    const size_t before = b->tuples.size();
    REX_ASSIGN_OR_RETURN(DeltaVec produced, handler_->update(&b->tuples, d));
    state_size_ += b->tuples.size() - before;
    // Arrivals the handler acted on belong in the checkpoint: those it
    // propagated, and — when it keeps unpropagated state (sub-threshold
    // accumulation) — every arrival, since each one is a state change.
    if (!replaying_ &&
        (handler_->keeps_unpropagated_state || !produced.empty())) {
      applied_log_.push_back(d);
    }
    if (!produced.empty()) {
      stats_.new_tuples += static_cast<int64_t>(produced.size());
      stats_.changed_tuples += static_cast<int64_t>(produced.size());
      for (Delta& p : produced) pending_.push_back(std::move(p));
    }
    return Status::OK();
  }

  if (params_.mode == Mode::kAccumulate) {
    // Recursive-SQL semantics: set-semantics on the whole tuple; nothing
    // is ever revised, every distinct derivation accumulates.
    for (const Tuple& existing : b->tuples) {
      if (existing == d.tuple) return Status::OK();  // duplicate
    }
    b->tuples.Add(d.tuple);
    ++state_size_;
    stats_.new_tuples += 1;
    if (!replaying_) applied_log_.push_back(d);
    pending_.push_back(Delta::Insert(d.tuple));
    return Status::OK();
  }

  // kDelta / kFull: at most one state tuple per key (set semantics with
  // in-place revision — the "refinement of state" of §3.2).
  if (d.op == DeltaOp::kDelete) {
    if (b->tuples.size() > 0) {
      Tuple old = b->tuples.at(0);
      b->tuples = TupleSet();
      --state_size_;
      stats_.new_tuples += 1;
      stats_.changed_tuples += 1;
      if (!replaying_) applied_log_.push_back(d);
      if (params_.mode == Mode::kDelta) {
        pending_.push_back(Delta::Delete(std::move(old)));
      }
    }
    return Status::OK();
  }

  if (b->tuples.empty()) {
    b->tuples.Add(d.tuple);
    ++state_size_;
    stats_.new_tuples += 1;
    if (!replaying_) applied_log_.push_back(d);
    if (params_.mode == Mode::kDelta) {
      pending_.push_back(Delta::Insert(d.tuple));
    }
    return Status::OK();
  }

  Tuple& existing = b->tuples.at(0);
  if (existing == d.tuple) return Status::OK();  // no observable change

  double change = 0.0;
  if (params_.value_field >= 0) {
    auto vf = static_cast<size_t>(params_.value_field);
    REX_ASSIGN_OR_RETURN(double new_v, d.tuple.field(vf).ToDouble());
    REX_ASSIGN_OR_RETURN(double old_v, existing.field(vf).ToDouble());
    change = std::fabs(new_v - old_v);
    stats_.max_change = std::max(stats_.max_change, change);
    const double cutoff = params_.change_threshold +
                          params_.relative_threshold * std::fabs(old_v);
    if (change <= cutoff) {
      // Below threshold: revise state silently, do not propagate — but the
      // revision is still a state change, so it still enters the Δ log
      // (replay re-derives the same silent decision).
      existing = d.tuple;
      if (!replaying_) applied_log_.push_back(d);
      return Status::OK();
    }
  }
  Tuple old = existing;
  existing = d.tuple;
  stats_.new_tuples += 1;
  stats_.changed_tuples += 1;
  if (!replaying_) applied_log_.push_back(d);
  if (params_.mode == Mode::kDelta) {
    pending_.push_back(Delta::Replace(std::move(old), d.tuple));
  }
  return Status::OK();
}

Status FixpointOp::SeedBaseUpdate(const DeltaVec& seeds,
                                  int checkpoint_stratum) {
  for (const Delta& d : seeds) REX_RETURN_NOT_OK(Apply(d));
  // The perturbation Δ is appended to the converged run's final-stratum
  // checkpoint: recovery truncates strictly *after* that stratum, so seeds
  // survive a mid-re-convergence crash, and replaying strata
  // [0, checkpoint_stratum] regenerates exactly the pending set produced
  // here (converged-final-stratum propagations — empty at a fixpoint — plus
  // the seeds'). Appending, not overwriting: the converged stratum's own Δ
  // entries must stay intact for Δ-conservation.
  REX_RETURN_NOT_OK(CheckpointPending(checkpoint_stratum, /*append=*/true));
  applied_log_.clear();
  // Seed application accounting must not leak into the resumed stratum's
  // vote: the vote reports what the stratum's own wave derived.
  stats_ = VoteStats{};
  return Status::OK();
}

Status FixpointOp::ConsumeDeltas(int /*port*/, DeltaVec deltas) {
  tuples_processed_->Add(static_cast<int64_t>(deltas.size()));
  // Guided-replay recovery: the loop body is re-deriving history to rebuild
  // its own state; the fixpoint's state comes from checkpoints instead, so
  // arriving regenerations are discarded.
  if (ctx_->replay_mode) return Status::OK();
  for (const Delta& d : deltas) REX_RETURN_NOT_OK(Apply(d));
  return Status::OK();
}

Status FixpointOp::StartStratum(int stratum) {
  if (stratum == 0) return Status::OK();  // base case feeds us instead
  DeltaVec flush;
  if (params_.mode == Mode::kFull) {
    // No-delta: re-emit the entire mutable set.
    for (const Tuple& t : StateTuples()) flush.push_back(Delta::Insert(t));
    pending_.clear();
  } else {
    flush.swap(pending_);
  }
  // The per-stratum Δ cardinality the Figure 3 / Figure 12 reproductions
  // report: the set actually propagated.
  delta_tuples_->Add(static_cast<int64_t>(flush.size()));
  REX_RETURN_NOT_OK(Emit(std::move(flush)));
  Punctuation p;
  p.kind = Punctuation::Kind::kEndOfStratum;
  p.stratum = stratum;
  return EmitPunct(p);
}

Status FixpointOp::CheckpointPending(int stratum, bool append) {
  if (!ctx_->config->checkpoint_deltas || ctx_->checkpoints == nullptr) {
    return Status::OK();
  }
  // Group the Δ set by the replica set of each tuple's key range so a
  // takeover node can always read the entries for ranges it inherits.
  const std::vector<int>& route_fields = params_.partition_fields.empty()
                                             ? params_.key_fields
                                             : params_.partition_fields;
  std::map<std::vector<int>, std::vector<Tuple>> by_replicas;
  for (const Delta& d : applied_log_) {
    uint64_t h = PartitionHash(d.tuple, route_fields);
    by_replicas[ctx_->pmap->Owners(h)].push_back(EncodeCheckpoint(d));
  }
  for (auto& [replicas, tuples] : by_replicas) {
    REX_RETURN_NOT_OK(ctx_->checkpoints->Put(id(), stratum, ctx_->worker_id,
                                             replicas, tuples, append));
  }
  if (by_replicas.empty() && !append) {
    // An empty checkpoint still marks the stratum complete for this node.
    // (An appended seed set never needs the marker: the stratum it extends
    // already completed and wrote its own.)
    REX_RETURN_NOT_OK(ctx_->checkpoints->Put(
        id(), stratum, ctx_->worker_id, ctx_->pmap->workers(), {}));
  }
  if (ctx_->trace != nullptr) {
    ctx_->trace->Record(TraceEvent::Kind::kCheckpointWrite, id(), stratum,
                        static_cast<int64_t>(applied_log_.size()));
  }
  return Status::OK();
}

Status FixpointOp::OnPortWaveComplete(int /*port*/, const Punctuation& p) {
  if (ctx_->replay_mode) {
    // Replay waves regenerate history: no vote, no re-checkpoint.
    stats_ = VoteStats{};
    ResetWave();
    return Status::OK();
  }
  // Never forward punctuation around the loop; vote to the requestor.
  stats_.state_size = static_cast<int64_t>(state_size_);
  REX_RETURN_NOT_OK(CheckpointPending(p.stratum));
  applied_log_.clear();  // next stratum starts a fresh Δ history
  ctx_->votes->Report(ctx_->worker_id, id(), p.stratum, stats_,
                      ctx_->incarnation);
  stats_ = VoteStats{};
  // Rearm for the next stratum's wave (closed ports stay closed).
  ResetWave();
  return Status::OK();
}

Status FixpointOp::ResetTransientState() {
  REX_RETURN_NOT_OK(Operator::ResetTransientState());
  stats_ = VoteStats{};
  applied_log_.clear();
  return Status::OK();
}

std::vector<Tuple> FixpointOp::StateTuples() const {
  std::vector<Tuple> out;
  out.reserve(state_size_);
  for (const auto& [hash, chain] : state_) {
    for (const Bucket& b : chain) {
      for (const Tuple& t : b.tuples) out.push_back(t);
    }
  }
  return out;
}

size_t FixpointOp::StateSize() const { return state_size_; }

Status FixpointOp::ApplyCheckpointStratum(int stratum) {
  pending_.clear();  // becomes this stratum's regenerated propagations
  stats_ = VoteStats{};
  REX_ASSIGN_OR_RETURN(
      std::vector<Tuple> tuples,
      ctx_->checkpoints->Read(id(), stratum, ctx_->worker_id));
  replaying_ = true;
  for (const Tuple& enc : tuples) {
    REX_ASSIGN_OR_RETURN(Delta d, DecodeCheckpoint(enc));
    // Only replay keys this worker now owns (same routing hash as the
    // rehash operators, so restored state lands where deltas arrive).
    const std::vector<int>& route_fields =
        params_.partition_fields.empty() ? params_.key_fields
                                         : params_.partition_fields;
    uint64_t h = PartitionHash(d.tuple, route_fields);
    if (ctx_->pmap->PrimaryOwner(h) != ctx_->worker_id) continue;
    Status st = Apply(d);
    if (!st.ok()) {
      replaying_ = false;
      return st;
    }
  }
  replaying_ = false;
  stats_ = VoteStats{};
  return Status::OK();
}

Status FixpointOp::RestoreFromCheckpoints(int last_stratum, bool log) {
  state_.Clear();
  state_size_ = 0;
  pending_.clear();
  applied_log_.clear();
  stats_ = VoteStats{};
  for (int s = 0; s <= last_stratum; ++s) {
    // Only the final stratum's replay output survives as pending_
    // (ApplyCheckpointStratum clears it on entry).
    REX_RETURN_NOT_OK(ApplyCheckpointStratum(s));
  }
  if (log) {
    REX_LOG(Info) << "fixpoint " << id() << " on worker " << ctx_->worker_id
                  << " restored " << state_size_ << " state tuples, "
                  << pending_.size() << " pending from checkpoints";
  }
  return Status::OK();
}

Status FixpointOp::VerifyCheckpointConservation(int last_stratum) {
  if (!ctx_->config->checkpoint_deltas || ctx_->checkpoints == nullptr ||
      last_stratum < 0) {
    return Status::OK();
  }
  // Replay every checkpointed Δ set on a scratch operator and demand the
  // result matches this operator's live state bit-for-bit.
  FixpointOp scratch(id(), params_);
  REX_RETURN_NOT_OK(scratch.Open(ctx_));
  REX_RETURN_NOT_OK(scratch.RestoreFromCheckpoints(last_stratum, false));

  auto sorted_serialized = [](const std::vector<Tuple>& ts) {
    std::vector<std::string> out;
    out.reserve(ts.size());
    for (const Tuple& t : ts) out.push_back(SerializeTuple(t));
    std::sort(out.begin(), out.end());
    return out;
  };
  auto sorted_deltas = [](const DeltaVec& ds) {
    std::vector<std::string> out;
    out.reserve(ds.size());
    for (const Delta& d : ds) out.push_back(SerializeTuple(EncodeCheckpoint(d)));
    std::sort(out.begin(), out.end());
    return out;
  };

  if (sorted_serialized(StateTuples()) !=
      sorted_serialized(scratch.StateTuples())) {
    return Status::Internal(
        "Δ-conservation violated: fixpoint " + std::to_string(id()) +
        " on worker " + std::to_string(ctx_->worker_id) +
        ": checkpoint replay state (" +
        std::to_string(scratch.StateSize()) + " tuples) != live state (" +
        std::to_string(StateSize()) + " tuples)");
  }
  if (sorted_deltas(pending_) != sorted_deltas(scratch.pending_)) {
    return Status::Internal(
        "Δ-conservation violated: fixpoint " + std::to_string(id()) +
        " on worker " + std::to_string(ctx_->worker_id) +
        ": checkpoint replay pending (" +
        std::to_string(scratch.pending_.size()) + ") != live pending (" +
        std::to_string(pending_.size()) + ")");
  }
  return Status::OK();
}

}  // namespace rex
