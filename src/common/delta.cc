#include "common/delta.h"

namespace rex {

const char* DeltaOpName(DeltaOp op) {
  switch (op) {
    case DeltaOp::kInsert:
      return "+";
    case DeltaOp::kDelete:
      return "-";
    case DeltaOp::kReplace:
      return "->";
    case DeltaOp::kUpdate:
      return "δ";
  }
  return "?";
}

Delta Delta::WithTuple(Tuple t) const {
  Delta d = *this;
  d.tuple = std::move(t);
  return d;
}

Status Delta::CanonicalizeSign() {
  if ((op != DeltaOp::kInsert && op != DeltaOp::kDelete) || weight >= 0) {
    return Status::OK();
  }
  if (weight == INT64_MIN) {
    return Status::InvalidArgument(
        "delta weight INT64_MIN is not negatable: " + ToString());
  }
  op = op == DeltaOp::kInsert ? DeltaOp::kDelete : DeltaOp::kInsert;
  weight = -weight;
  return Status::OK();
}

Delta Delta::Negated() const {
  Delta d = *this;
  switch (op) {
    case DeltaOp::kInsert:
      d.op = DeltaOp::kDelete;
      break;
    case DeltaOp::kDelete:
      d.op = DeltaOp::kInsert;
      break;
    case DeltaOp::kReplace:
      d.tuple = old_tuple;
      d.old_tuple = tuple;
      break;
    case DeltaOp::kUpdate:
      // δ(E) has no structural inverse; flip the (handler-owned) weight
      // sign instead. INT64_MIN has no int64 negation and saturates to
      // INT64_MAX (ingress rejects it, so this only covers locally
      // constructed weights).
      d.weight = weight == INT64_MIN ? INT64_MAX : -weight;
      break;
  }
  return d;
}

std::string Delta::ToString() const {
  std::string out = DeltaOpName(op);
  out += tuple.ToString();
  if (op == DeltaOp::kReplace) {
    out += " was ";
    out += old_tuple.ToString();
  }
  if (weight != 1) {
    out += "×";
    out += std::to_string(weight);
  }
  return out;
}

DeltaVec AsInsertions(std::vector<Tuple> tuples) {
  DeltaVec out;
  out.reserve(tuples.size());
  for (Tuple& t : tuples) out.push_back(Delta::Insert(std::move(t)));
  return out;
}

Status DeltaVecSink::AddDelta(Delta d) {
  out_->push_back(std::move(d));
  return Status::OK();
}

Status DeltaVecSink::AddPlainRow(DeltaOp op, std::span<const Value> row,
                                 int64_t weight) {
  out_->push_back(
      Delta{op, Tuple(std::vector<Value>(row.begin(), row.end())), {}, weight});
  return Status::OK();
}

}  // namespace rex
