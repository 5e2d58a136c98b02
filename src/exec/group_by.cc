#include "exec/group_by.h"

#include <algorithm>

namespace rex {

namespace {
constexpr uint64_t kGroupHashSeed = 0x9ae16a3b2f90404fULL;

/// count(*)'s input for every row.
const Value kCountStarInput(static_cast<int64_t>(1));

/// `key` followed by `t`'s fields (a UDA's output with its group key).
Tuple PrefixKey(std::span<const Value> key, const Tuple& t) {
  std::vector<Value> fields(key.begin(), key.end());
  fields.insert(fields.end(), t.fields().begin(), t.fields().end());
  return Tuple(std::move(fields));
}
}  // namespace

Status GroupByOp::Open(ExecContext* ctx) {
  REX_RETURN_NOT_OK(Operator::Open(ctx));
  // Field loops index rows through static_cast<size_t>, so a negative index
  // would wrap to a huge offset instead of failing; reject it at plan time.
  // The largest index bounds every row's arity check.
  max_field_ = -1;
  for (int k : params_.key_fields) {
    if (k < 0) {
      return Status::InvalidArgument(
          "group-by key field index must be non-negative, got " +
          std::to_string(k));
    }
    max_field_ = std::max(max_field_, k);
  }
  for (const AggSpec& spec : params_.aggs) {
    if (spec.input_field < -1) {
      return Status::InvalidArgument(
          "group-by aggregate input field must be -1 (count(*)) or "
          "non-negative, got " +
          std::to_string(spec.input_field));
    }
    max_field_ = std::max(max_field_, spec.input_field);
  }
  for (int f : params_.uda_input_fields) {
    if (f < 0) {
      return Status::InvalidArgument(
          "group-by UDA input field index must be non-negative, got " +
          std::to_string(f));
    }
    max_field_ = std::max(max_field_, f);
  }
  agg_fns_.clear();
  for (const AggSpec& spec : params_.aggs) {
    agg_fns_.push_back(GetAggFunction(spec.kind));
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

DeltaSink* GroupByOp::fused_input() {
  return params_.uda.empty() ? &fold_input_ : nullptr;
}

Status GroupByOp::FoldInput::AddDelta(Delta d) {
  return op_->FoldBuiltin(d.op, d.tuple.fields(), d.old_tuple.fields(),
                          d.weight);
}

Status GroupByOp::FoldInput::AddPlainRow(DeltaOp op, Row row,
                                         int64_t weight) {
  return op_->FoldBuiltin(op, row, {}, weight);
}

Status GroupByOp::CheckArity(Row row) const {
  if (static_cast<int64_t>(row.size()) > max_field_) return Status::OK();
  return Status::InvalidArgument(
      std::string(name()) + " op " + std::to_string(id()) + " reads field " +
      std::to_string(max_field_) + " of a row of arity " +
      std::to_string(row.size()));
}

size_t GroupByOp::FindOrCreate(Row row) {
  const std::vector<int>& key_fields = params_.key_fields;
  const size_t k = key_fields.size();
  uint64_t h = kGroupHashSeed;
  for (int f : key_fields) {
    h = HashCombine(h, row[static_cast<size_t>(f)].Hash());
  }
  uint32_t& head = index_.FindOrCreate(h);
  for (uint32_t i = head; i != 0; i = groups_[i - 1].next) {
    const Value* key = keys_.data() + (i - 1) * k;
    bool match = true;
    for (size_t j = 0; match && j < k; ++j) {
      match = key[j] == row[static_cast<size_t>(key_fields[j])];
    }
    if (match) return i - 1;
  }
  const size_t g = live_++;
  if (g == groups_.size()) {
    // A new slot. Recycled slots keep their storage and states.
    groups_.emplace_back();
    keys_.resize(keys_.size() + k);
    if (uda_ != nullptr) {
      uda_states_.emplace_back();
    } else {
      for (const AggFunction* fn : agg_fns_) {
        agg_states_.push_back(fn->NewState());
      }
    }
    if (params_.mode == Mode::kPersistent) last_emitted_.emplace_back();
  } else if (uda_ == nullptr) {
    for (size_t i = 0; i < agg_fns_.size(); ++i) {
      agg_fns_[i]->Reset(StateOf(g, i));
    }
  }
  for (size_t j = 0; j < k; ++j) {
    keys_[g * k + j] = row[static_cast<size_t>(key_fields[j])];
  }
  if (uda_ != nullptr) uda_states_[g] = uda_->init();
  groups_[g] = Group{head, false};
  head = static_cast<uint32_t>(g + 1);
  return g;
}

GroupByOp::Row GroupByOp::KeyOf(size_t g) const {
  const size_t k = params_.key_fields.size();
  return Row(keys_.data() + g * k, k);
}

bool GroupByOp::SameKey(Row a, Row b) const {
  for (int k : params_.key_fields) {
    if (!(a[static_cast<size_t>(k)] == b[static_cast<size_t>(k)])) {
      return false;
    }
  }
  return true;
}

Status GroupByOp::FoldBuiltin(DeltaOp op, Row row, Row old_row,
                              int64_t weight) {
  REX_RETURN_NOT_OK(CheckArity(row));
  if (op == DeltaOp::kReplace) {
    REX_RETURN_NOT_OK(CheckArity(old_row));
    if (!SameKey(row, old_row)) {
      // Group migration: delete from the old group, insert into the new.
      REX_RETURN_NOT_OK(ApplyBuiltin(FindOrCreate(old_row), DeltaOp::kDelete,
                                     old_row, old_row, 1));
      return ApplyBuiltin(FindOrCreate(row), DeltaOp::kInsert, row, row, 1);
    }
  }
  return ApplyBuiltin(FindOrCreate(row), op, row, old_row, weight);
}

Status GroupByOp::ApplyBuiltin(size_t g, DeltaOp op, Row row, Row old_row,
                               int64_t weight) {
  groups_[g].touched = true;
  // The built-in delta handler is derived from the weighted ℤ-set model:
  // every annotation reduces to ApplyWeighted with a signed multiplicity
  // (+() → +w, -() → -w, ->(t') → -1·old then +1·new), which linear
  // aggregates fold in O(1) and min/max replay per unit.
  for (size_t i = 0; i < agg_fns_.size(); ++i) {
    const AggFunction* fn = agg_fns_[i];
    AggState* state = StateOf(g, i);
    const int field = params_.aggs[i].input_field;
    // Bound by reference: no Value copy per row and aggregate.
    const Value& in =
        field < 0 ? kCountStarInput : row[static_cast<size_t>(field)];
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
            field < 0 ? kCountStarInput : old_row[static_cast<size_t>(field)];
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

Status GroupByOp::ApplyUda(const Delta& d, DeltaVec* streamed) {
  REX_RETURN_NOT_OK(CheckArity(d.tuple.fields()));
  if (d.op == DeltaOp::kReplace && !params_.uda_input_fields.empty()) {
    REX_RETURN_NOT_OK(CheckArity(d.old_tuple.fields()));
  }
  const size_t g = FindOrCreate(d.tuple.fields());
  groups_[g].touched = true;
  Delta arg = d;
  if (!params_.uda_input_fields.empty()) {
    arg.tuple = d.tuple.Project(params_.uda_input_fields);
    if (d.op == DeltaOp::kReplace) {
      arg.old_tuple = d.old_tuple.Project(params_.uda_input_fields);
    }
  }
  // ℤ-set weights on set-plane deltas decompose into unit applications.
  // That derivation is only sound when the UDA declares itself linear; δ()
  // weights stay opaque and ride through to the handler untouched.
  REX_RETURN_NOT_OK(arg.CanonicalizeSign());
  int64_t reps = 1;
  if (arg.weight != 1 &&
      (arg.op == DeltaOp::kInsert || arg.op == DeltaOp::kDelete)) {
    if (arg.weight == 0) return Status::OK();
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
                         uda_->agg_state(uda_states_[g].get(), arg));
    for (Delta& p : partial) {
      if (params_.prefix_group_key) p.tuple = PrefixKey(KeyOf(g), p.tuple);
      streamed->push_back(std::move(p));
    }
  }
  return Status::OK();
}

Status GroupByOp::ConsumeDeltas(int, DeltaVec deltas) {
  tuples_processed_->Add(static_cast<int64_t>(deltas.size()));
  if (uda_ == nullptr) {
    for (const Delta& d : deltas) {
      REX_RETURN_NOT_OK(FoldBuiltin(d.op, d.tuple.fields(),
                                    d.old_tuple.fields(), d.weight));
    }
    return Status::OK();
  }
  DeltaVec streamed;
  for (const Delta& d : deltas) REX_RETURN_NOT_OK(ApplyUda(d, &streamed));
  return Emit(std::move(streamed));
}

Result<Tuple> GroupByOp::CurrentResult(size_t g) const {
  const Row key = KeyOf(g);
  std::vector<Value> fields;
  fields.reserve(key.size() + agg_fns_.size());
  fields.assign(key.begin(), key.end());
  for (size_t i = 0; i < agg_fns_.size(); ++i) {
    REX_ASSIGN_OR_RETURN(Value v, agg_fns_[i]->Current(StateOf(g, i)));
    fields.push_back(std::move(v));
  }
  return Tuple(std::move(fields));
}

bool GroupByOp::GroupEmpty(size_t g) const {
  for (size_t i = 0; i < agg_fns_.size(); ++i) {
    if (agg_fns_[i]->Count(StateOf(g, i)) > 0) return false;
  }
  return true;
}

void GroupByOp::ClearGroups() {
  live_ = 0;
  index_.Clear();
}

Status GroupByOp::OnAllPunct(const Punctuation&) {
  DeltaVec out;
  for (size_t g = 0; g < live_; ++g) {
    if (!groups_[g].touched) continue;
    groups_[g].touched = false;
    if (uda_ != nullptr) {
      REX_ASSIGN_OR_RETURN(DeltaVec finals,
                           uda_->agg_result(uda_states_[g].get()));
      for (Delta& f : finals) {
        if (params_.prefix_group_key) f.tuple = PrefixKey(KeyOf(g), f.tuple);
        out.push_back(std::move(f));
      }
      continue;
    }
    if (params_.mode == Mode::kStratum) {
      if (!GroupEmpty(g)) {
        REX_ASSIGN_OR_RETURN(Tuple result, CurrentResult(g));
        out.push_back(Delta::Insert(std::move(result)));
      }
      continue;
    }
    // Persistent mode: emit insert / replace / delete transitions.
    Tuple& last = last_emitted_[g];
    if (GroupEmpty(g)) {
      if (!last.empty()) {
        out.push_back(Delta::Delete(std::move(last)));
        last = Tuple();
      }
      continue;
    }
    REX_ASSIGN_OR_RETURN(Tuple result, CurrentResult(g));
    if (last.empty()) {
      out.push_back(Delta::Insert(result));
      last = std::move(result);
    } else if (!(last == result)) {
      out.push_back(Delta::Replace(last, result));
      last = std::move(result);
    }
  }
  if (coalescer_.has_value() && out.size() > 1) {
    CoalesceStats stats;
    REX_ASSIGN_OR_RETURN(out, coalescer_->Coalesce(std::move(out), &stats));
    deltas_coalesced_->Add(stats.folded);
    coalesce_bytes_saved_->Add(stats.bytes_saved);
  }
  REX_RETURN_NOT_OK(Emit(std::move(out)));
  if (params_.mode == Mode::kStratum) ClearGroups();
  return Status::OK();
}

Status GroupByOp::ResetTransientState() {
  REX_RETURN_NOT_OK(Operator::ResetTransientState());
  if (params_.mode == Mode::kStratum) ClearGroups();
  return Status::OK();
}

}  // namespace rex
