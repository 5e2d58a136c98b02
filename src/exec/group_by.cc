#include "exec/group_by.h"

namespace rex {

namespace {
constexpr uint64_t kGroupHashSeed = 0x9ae16a3b2f90404fULL;

uint64_t HashKey(const std::vector<Value>& key) {
  uint64_t h = kGroupHashSeed;
  for (const Value& v : key) h = HashCombine(h, v.Hash());
  return h;
}

/// count(*)'s input for every row.
const Value kCountStarInput(static_cast<int64_t>(1));
}  // namespace

Status GroupByOp::Open(ExecContext* ctx) {
  REX_RETURN_NOT_OK(Operator::Open(ctx));
  // The key-match loops index tuples through static_cast<size_t>, so a
  // negative index would wrap to a huge offset instead of failing; reject
  // it at plan time.
  for (int k : params_.key_fields) {
    if (k < 0) {
      return Status::InvalidArgument(
          "group-by key field index must be non-negative, got " +
          std::to_string(k));
    }
  }
  if (!params_.uda.empty()) {
    if (!params_.aggs.empty()) {
      return Status::InvalidArgument(
          "group-by cannot mix built-in aggregates with a UDA");
    }
    REX_ASSIGN_OR_RETURN(uda_, ctx->udfs->GetUda(params_.uda));
  } else if (params_.aggs.empty()) {
    return Status::InvalidArgument("group-by needs aggregates or a UDA");
  }
  coalescer_.reset();
  if (ctx->config->coalesce_deltas) {
    CoalesceOptions opts;
    if (uda_ == nullptr) {
      // Output layout: key fields first, then one result per aggregate.
      for (size_t i = 0; i < params_.key_fields.size(); ++i) {
        opts.key_fields.push_back(static_cast<int>(i));
      }
    }
    coalescer_.emplace(std::move(opts));
    deltas_coalesced_ = ctx->metrics->GetCounter(metrics::kDeltasCoalesced);
    coalesce_bytes_saved_ =
        ctx->metrics->GetCounter(metrics::kCoalesceBytesSaved);
  }
  return Status::OK();
}

std::vector<Value> GroupByOp::KeyOf(const Tuple& t) const {
  std::vector<Value> key;
  key.reserve(params_.key_fields.size());
  for (int k : params_.key_fields) {
    key.push_back(t.field(static_cast<size_t>(k)));
  }
  return key;
}

GroupByOp::Group* GroupByOp::FindOrCreate(const std::vector<Value>& key) {
  auto& chain = groups_.FindOrCreate(HashKey(key));
  for (Group& g : chain) {
    if (g.key == key) return &g;
  }
  chain.push_back(Group{});
  Group& g = chain.back();
  g.key = key;
  if (uda_ != nullptr) {
    g.uda_state = uda_->init();
  } else {
    g.agg_states.reserve(params_.aggs.size());
    for (const AggSpec& spec : params_.aggs) {
      g.agg_states.push_back(GetAggFunction(spec.kind)->NewState());
    }
  }
  return &g;
}

GroupByOp::Group* GroupByOp::FindOrCreateFromTuple(const Tuple& t) {
  // Hot path: hash the key fields in place; the key vector materializes
  // only when a new group is created.
  uint64_t h = kGroupHashSeed;
  for (int k : params_.key_fields) {
    h = HashCombine(h, t.field(static_cast<size_t>(k)).Hash());
  }
  auto& chain = groups_.FindOrCreate(h);
  for (Group& g : chain) {
    bool match = g.key.size() == params_.key_fields.size();
    for (size_t i = 0; match && i < g.key.size(); ++i) {
      match = g.key[i] == t.field(static_cast<size_t>(params_.key_fields[i]));
    }
    if (match) return &g;
  }
  chain.push_back(Group{});
  Group& g = chain.back();
  g.key = KeyOf(t);
  if (uda_ != nullptr) {
    g.uda_state = uda_->init();
  } else {
    g.agg_states.reserve(params_.aggs.size());
    for (const AggSpec& spec : params_.aggs) {
      g.agg_states.push_back(GetAggFunction(spec.kind)->NewState());
    }
  }
  return &g;
}

Status GroupByOp::ApplyBuiltin(Group* g, DeltaOp op, const Tuple& t,
                               const Tuple& old_t, int64_t weight) {
  // The built-in delta handler is derived from the weighted ℤ-set model:
  // every annotation reduces to ApplyWeighted with a signed multiplicity
  // (+() → +w, -() → -w, ->(t') → -1·old then +1·new), which linear
  // aggregates fold in O(1) and min/max replay per unit.
  for (size_t i = 0; i < params_.aggs.size(); ++i) {
    const AggSpec& spec = params_.aggs[i];
    const AggFunction* fn = GetAggFunction(spec.kind);
    AggState* state = g->agg_states[i].get();
    // Bound by reference: no Value copy per row and aggregate.
    const Value& in = spec.input_field < 0
                          ? kCountStarInput
                          : t.field(static_cast<size_t>(spec.input_field));
    switch (op) {
      case DeltaOp::kInsert:
      case DeltaOp::kUpdate:  // hidden-attribute rule: plain insert
        REX_RETURN_NOT_OK(fn->ApplyWeighted(state, in, weight));
        break;
      case DeltaOp::kDelete:
        REX_RETURN_NOT_OK(fn->ApplyWeighted(state, in, -weight));
        break;
      case DeltaOp::kReplace: {
        const Value& old_in =
            spec.input_field < 0
                ? kCountStarInput
                : old_t.field(static_cast<size_t>(spec.input_field));
        REX_RETURN_NOT_OK(fn->Delete(state, old_in));
        REX_RETURN_NOT_OK(fn->Insert(state, in));
        break;
      }
      case DeltaOp::kBatch:
        // Wire-only packing; the receiving rehash expands it.
        return Status::Internal("packed batch delta reached a group-by");
    }
  }
  return Status::OK();
}

Status GroupByOp::ConsumeDeltas(int, DeltaVec deltas) {
  tuples_processed_->Add(static_cast<int64_t>(deltas.size()));
  DeltaVec streamed;
  for (Delta& d : deltas) {
    if (uda_ != nullptr) {
      Group* g = FindOrCreateFromTuple(d.tuple);
      g->touched = true;
      Delta arg = d;
      if (!params_.uda_input_fields.empty()) {
        arg.tuple = d.tuple.Project(params_.uda_input_fields);
        if (d.op == DeltaOp::kReplace) {
          arg.old_tuple = d.old_tuple.Project(params_.uda_input_fields);
        }
      }
      // ℤ-set weights on set-plane deltas decompose into unit
      // applications. That derivation is only sound when the UDA declares
      // itself linear; δ() weights stay opaque and ride through to the
      // handler untouched.
      REX_RETURN_NOT_OK(arg.CanonicalizeSign());
      int64_t reps = 1;
      if (arg.weight != 1 && (arg.op == DeltaOp::kInsert ||
                              arg.op == DeltaOp::kDelete)) {
        if (arg.weight == 0) continue;
        if (!uda_->linear) {
          return Status::InvalidArgument(
              "weighted delta (w=" + std::to_string(arg.weight) +
              ") into non-linear UDA '" + params_.uda + "'");
        }
        reps = arg.weight;
        arg.weight = 1;
      }
      for (int64_t rep = 0; rep < reps; ++rep) {
        REX_ASSIGN_OR_RETURN(DeltaVec partial,
                             uda_->agg_state(g->uda_state.get(), arg));
        for (Delta& p : partial) {
          if (params_.prefix_group_key) {
            Tuple prefixed(g->key);
            p.tuple = prefixed.Concat(p.tuple);
          }
          streamed.push_back(std::move(p));
        }
      }
      continue;
    }
    if (d.op == DeltaOp::kReplace && KeyOf(d.tuple) != KeyOf(d.old_tuple)) {
      // Group migration: delete from the old group, insert into the new.
      Group* old_g = FindOrCreate(KeyOf(d.old_tuple));
      old_g->touched = true;
      REX_RETURN_NOT_OK(
          ApplyBuiltin(old_g, DeltaOp::kDelete, d.old_tuple, d.old_tuple));
      Group* new_g = FindOrCreate(KeyOf(d.tuple));
      new_g->touched = true;
      REX_RETURN_NOT_OK(
          ApplyBuiltin(new_g, DeltaOp::kInsert, d.tuple, d.tuple));
      continue;
    }
    Group* g = FindOrCreateFromTuple(d.tuple);
    g->touched = true;
    REX_RETURN_NOT_OK(ApplyBuiltin(g, d.op, d.tuple, d.old_tuple, d.weight));
  }
  return Emit(std::move(streamed));
}

Result<Tuple> GroupByOp::CurrentResult(const Group& g) const {
  std::vector<Value> fields(g.key.begin(), g.key.end());
  fields.reserve(g.key.size() + params_.aggs.size());
  for (size_t i = 0; i < params_.aggs.size(); ++i) {
    REX_ASSIGN_OR_RETURN(Value v, GetAggFunction(params_.aggs[i].kind)
                                      ->Current(g.agg_states[i].get()));
    fields.push_back(std::move(v));
  }
  return Tuple(std::move(fields));
}

bool GroupByOp::GroupEmpty(const Group& g) const {
  for (size_t i = 0; i < params_.aggs.size(); ++i) {
    if (GetAggFunction(params_.aggs[i].kind)->Count(g.agg_states[i].get()) >
        0) {
      return false;
    }
  }
  return true;
}

Status GroupByOp::OnAllPunct(const Punctuation&) {
  DeltaVec out;
  for (auto& [hash, chain] : groups_) {
    for (Group& g : chain) {
      if (!g.touched) continue;
      if (uda_ != nullptr) {
        REX_ASSIGN_OR_RETURN(DeltaVec finals,
                             uda_->agg_result(g.uda_state.get()));
        for (Delta& f : finals) {
          if (params_.prefix_group_key) {
            Tuple prefixed(g.key);
            f.tuple = prefixed.Concat(f.tuple);
          }
          out.push_back(std::move(f));
        }
        g.touched = false;
        continue;
      }
      if (params_.mode == Mode::kStratum) {
        if (!GroupEmpty(g)) {
          REX_ASSIGN_OR_RETURN(Tuple result, CurrentResult(g));
          out.push_back(Delta::Insert(std::move(result)));
        }
        g.touched = false;
        continue;
      }
      // Persistent mode: emit insert / replace / delete transitions.
      if (GroupEmpty(g)) {
        if (g.has_emitted) {
          out.push_back(Delta::Delete(g.last_emitted));
          g.has_emitted = false;
          g.last_emitted = Tuple();
        }
        g.touched = false;
        continue;
      }
      REX_ASSIGN_OR_RETURN(Tuple result, CurrentResult(g));
      if (!g.has_emitted) {
        out.push_back(Delta::Insert(result));
        g.has_emitted = true;
        g.last_emitted = std::move(result);
      } else if (!(g.last_emitted == result)) {
        out.push_back(Delta::Replace(g.last_emitted, result));
        g.last_emitted = std::move(result);
      }
      g.touched = false;
    }
  }
  if (coalescer_.has_value() && out.size() > 1) {
    CoalesceStats stats;
    REX_ASSIGN_OR_RETURN(out, coalescer_->Coalesce(std::move(out), &stats));
    deltas_coalesced_->Add(stats.folded);
    coalesce_bytes_saved_->Add(stats.bytes_saved);
  }
  REX_RETURN_NOT_OK(Emit(std::move(out)));
  if (params_.mode == Mode::kStratum) groups_.Clear();
  return Status::OK();
}

Status GroupByOp::ResetTransientState() {
  REX_RETURN_NOT_OK(Operator::ResetTransientState());
  if (params_.mode == Mode::kStratum) groups_.Clear();
  return Status::OK();
}

size_t GroupByOp::NumGroups() const {
  size_t n = 0;
  for (const auto& [hash, chain] : groups_) n += chain.size();
  return n;
}

}  // namespace rex
