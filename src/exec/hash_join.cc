#include "exec/hash_join.h"

namespace rex {

Status HashJoinOp::Open(ExecContext* ctx) {
  REX_RETURN_NOT_OK(Operator::Open(ctx));
  // The key loops index tuples through static_cast<size_t>, so a negative
  // index would wrap instead of failing; reject it at plan time.
  for (int side = 0; side < 2; ++side) {
    for (int k : KeysOf(side)) {
      if (k < 0) {
        return Status::InvalidArgument(
            std::string("join ") + (side == 0 ? "left" : "right") +
            " key field index must be non-negative, got " +
            std::to_string(k));
      }
    }
  }
  if (!params_.handler.empty()) {
    REX_ASSIGN_OR_RETURN(handler_, ctx->udfs->GetJoinHandler(params_.handler));
  } else if (params_.handler_owns_all) {
    return Status::InvalidArgument(
        "handler_owns_all requires a join handler name");
  }
  return Status::OK();
}

std::vector<Value> HashJoinOp::KeyValues(const Tuple& t, int port) const {
  const auto& keys = KeysOf(port);
  std::vector<Value> out;
  out.reserve(keys.size());
  for (int k : keys) out.push_back(t.field(static_cast<size_t>(k)));
  return out;
}

namespace {
constexpr uint64_t kJoinHashSeed = 0x2545f4914f6cdd1dULL;

uint64_t HashKey(const std::vector<Value>& key) {
  uint64_t h = kJoinHashSeed;
  for (const Value& v : key) h = HashCombine(h, v.Hash());
  return h;
}
}  // namespace

uint64_t HashJoinOp::HashTupleKey(const Tuple& t, int port) const {
  uint64_t h = kJoinHashSeed;
  for (int k : KeysOf(port)) {
    h = HashCombine(h, t.field(static_cast<size_t>(k)).Hash());
  }
  return h;
}

bool HashJoinOp::KeyMatches(const Bucket& b, const Tuple& t,
                            int port) const {
  const auto& keys = KeysOf(port);
  if (b.key.size() != keys.size()) return false;
  for (size_t i = 0; i < keys.size(); ++i) {
    if (!(b.key[i] == t.field(static_cast<size_t>(keys[i])))) return false;
  }
  return true;
}

HashJoinOp::Bucket* HashJoinOp::FindBucketFromTuple(const Tuple& t, int port,
                                                    uint64_t hash) {
  std::vector<Bucket>* chain = buckets_.Find(hash);
  if (chain == nullptr) return nullptr;
  for (Bucket& b : *chain) {
    if (KeyMatches(b, t, port)) return &b;
  }
  return nullptr;
}

HashJoinOp::Bucket* HashJoinOp::FindOrCreateFromTuple(const Tuple& t,
                                                      int port,
                                                      uint64_t hash) {
  auto& chain = buckets_.FindOrCreate(hash);
  for (Bucket& b : chain) {
    if (KeyMatches(b, t, port)) return &b;
  }
  chain.push_back(Bucket{KeyValues(t, port), {}});
  return &chain.back();
}

HashJoinOp::Bucket* HashJoinOp::FindBucket(const std::vector<Value>& key,
                                           uint64_t hash) {
  std::vector<Bucket>* chain = buckets_.Find(hash);
  if (chain == nullptr) return nullptr;
  for (Bucket& b : *chain) {
    if (b.key == key) return &b;
  }
  return nullptr;
}

HashJoinOp::Bucket* HashJoinOp::FindOrCreate(const std::vector<Value>& key,
                                             uint64_t hash) {
  Bucket* b = FindBucket(key, hash);
  if (b != nullptr) return b;
  auto& chain = buckets_.FindOrCreate(hash);
  chain.push_back(Bucket{key, {}});
  return &chain.back();
}

Status HashJoinOp::Probe(int port, const Tuple& t, DeltaOp op,
                         int64_t weight, DeltaSink* out, uint64_t hash) {
  Bucket* b = FindBucketFromTuple(t, port, hash);
  if (b == nullptr) return Status::OK();
  const int other = 1 - port;
  for (const Tuple& match : b->side[other]) {
    const Tuple& left = port == 0 ? t : match;
    const Tuple& right = port == 0 ? match : t;
    joined_.assign(left.fields().begin(), left.fields().end());
    joined_.insert(joined_.end(), right.fields().begin(),
                   right.fields().end());
    // The join is bilinear in ℤ-sets: Δ(L ⋈ R) for a weighted change on
    // one side is the change's weight times each opposite-side match
    // (whose own multiplicity is the physical copy count iterated here).
    REX_RETURN_NOT_OK(out->AddRow(op, joined_, weight));
  }
  return Status::OK();
}

Status HashJoinOp::ApplyStandard(int port, Delta d, DeltaSink* out) {
  const bool immutable_side = params_.immutable[port];
  // Canonicalize the set plane: insert of weight -w is a delete of weight
  // w, and weight zero is a no-op everywhere.
  if ((d.op == DeltaOp::kInsert || d.op == DeltaOp::kDelete) &&
      d.weight == 0) {
    return Status::OK();
  }
  REX_RETURN_NOT_OK(d.CanonicalizeSign());
  switch (d.op) {
    case DeltaOp::kInsert:
    case DeltaOp::kUpdate: {
      // δ(E) with no handler: "propagate the annotation as if it were
      // another (hidden) attribute of the tuple" — plain insert semantics
      // with the annotation (weight included, opaque) preserved on
      // outputs. A weighted +() materializes its multiplicity as physical
      // copies, so bucket cardinality equals ℤ-set multiplicity.
      const uint64_t hash = HashTupleKey(d.tuple, port);
      Bucket* b = FindOrCreateFromTuple(d.tuple, port, hash);
      const int64_t copies = d.op == DeltaOp::kInsert ? d.weight : 1;
      for (int64_t i = 0; i < copies; ++i) b->side[port].Add(d.tuple);
      if (!immutable_side) {
        REX_RETURN_NOT_OK(Probe(port, d.tuple, d.op, d.weight, out, hash));
      }
      return Status::OK();
    }
    case DeltaOp::kDelete: {
      const uint64_t hash = HashTupleKey(d.tuple, port);
      Bucket* b = FindBucketFromTuple(d.tuple, port, hash);
      if (b != nullptr) {
        for (int64_t i = 0; i < d.weight; ++i) {
          if (!b->side[port].Remove(d.tuple)) break;
        }
      }
      if (!immutable_side) {
        REX_RETURN_NOT_OK(
            Probe(port, d.tuple, DeltaOp::kDelete, d.weight, out, hash));
      }
      return Status::OK();
    }
    case DeltaOp::kReplace: {
      std::vector<Value> new_key = KeyValues(d.tuple, port);
      std::vector<Value> old_key = KeyValues(d.old_tuple, port);
      if (new_key == old_key) {
        Bucket* b = FindOrCreate(new_key, HashKey(new_key));
        // Upsert: a replace whose old image was never buffered (e.g. the
        // first -> for a key) still lands the new image in the bucket.
        b->side[port].ReplaceOrInsert(d.old_tuple, d.tuple);
        // Matches see a replacement of the joined tuple.
        const int other = 1 - port;
        for (const Tuple& match : b->side[other]) {
          Delta rd;
          rd.op = DeltaOp::kReplace;
          rd.tuple =
              port == 0 ? d.tuple.Concat(match) : match.Concat(d.tuple);
          rd.old_tuple = port == 0 ? d.old_tuple.Concat(match)
                                   : match.Concat(d.old_tuple);
          REX_RETURN_NOT_OK(out->Add(std::move(rd)));
        }
        return Status::OK();
      }
      // Key changed: a deletion-insertion sequence (§3.3).
      REX_RETURN_NOT_OK(
          ApplyStandard(port, Delta::Delete(d.old_tuple), out));
      return ApplyStandard(port, Delta::Insert(d.tuple), out);
    }
    case DeltaOp::kBatch:
      // Wire-only packing; the receiving rehash expands it.
      return Status::Internal("packed batch delta reached a join");
  }
  return Status::Internal("unhandled delta op in join");
}

Status HashJoinOp::ApplyHandler(int port, const Delta& d, DeltaSink* out) {
  Bucket* b =
      FindOrCreateFromTuple(d.tuple, port, HashTupleKey(d.tuple, port));
  // The handler sees the bucket its delta arrived into first, then the
  // opposite side (the paper's LEFTBUCKET/RIGHTBUCKET convention).
  return handler_->update(&b->side[port], &b->side[1 - port], d, out);
}

void HashJoinOp::FuseInto(Operator* consumer, int port) {
  fused_ = consumer;
  fused_port_ = port;
}

Status HashJoinOp::ConsumeDeltas(int port, DeltaVec deltas) {
  tuples_processed_->Add(static_cast<int64_t>(deltas.size()));
  // Output is buffered for Emit, or folded straight into the fused
  // consumer as it is written.
  DeltaVec buffer;
  DeltaVecSink buffered(&buffer);
  DeltaSink* out = fused_ != nullptr ? fused_->fused_input() : &buffered;
  const int64_t taken_before = out->taken();
  for (Delta& d : deltas) {
    const bool use_handler =
        handler_ != nullptr && !params_.immutable[port] &&
        (params_.handler_owns_all || d.op == DeltaOp::kUpdate);
    if (use_handler) {
      REX_RETURN_NOT_OK(ApplyHandler(port, d, out));
    } else {
      REX_RETURN_NOT_OK(ApplyStandard(port, std::move(d), out));
    }
  }
  if (fused_ != nullptr) {
    CountFusedBatch(fused_, fused_port_, out->taken() - taken_before);
    return Status::OK();
  }
  return Emit(std::move(buffer));
}

size_t HashJoinOp::StateSize() const {
  size_t n = 0;
  for (const auto& [hash, chain] : buckets_) {
    for (const Bucket& b : chain) n += b.side[0].size() + b.side[1].size();
  }
  return n;
}

}  // namespace rex
