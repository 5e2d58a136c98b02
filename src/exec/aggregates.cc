#include "exec/aggregates.h"

#include <algorithm>
#include <cctype>
#include <map>

namespace rex {

Result<AggKind> AggKindFromName(const std::string& name) {
  std::string lower(name.size(), '\0');
  std::transform(name.begin(), name.end(), lower.begin(),
                 [](unsigned char c) { return std::tolower(c); });
  if (lower == "sum") return AggKind::kSum;
  if (lower == "count") return AggKind::kCount;
  if (lower == "min") return AggKind::kMin;
  if (lower == "max") return AggKind::kMax;
  if (lower == "avg" || lower == "average") return AggKind::kAvg;
  return Status::NotFound("no built-in aggregate named '" + name + "'");
}

const char* AggKindName(AggKind kind) {
  switch (kind) {
    case AggKind::kSum:
      return "sum";
    case AggKind::kCount:
      return "count";
    case AggKind::kMin:
      return "min";
    case AggKind::kMax:
      return "max";
    case AggKind::kAvg:
      return "avg";
  }
  return "?";
}

Status AggFunction::ApplyWeighted(AggState* state, const Value& v,
                                  int64_t w) const {
  for (int64_t i = 0; i < w; ++i) REX_RETURN_NOT_OK(Insert(state, v));
  for (int64_t i = 0; i > w; --i) REX_RETURN_NOT_OK(Delete(state, v));
  return Status::OK();
}

namespace {

// ℤ-set multiplicities are attacker/workload-controlled int64s; every
// accumulator fold goes through checked arithmetic so hostile weights
// surface as InvalidArgument instead of signed-overflow UB.
Status CheckedCountAdd(int64_t* count, int64_t w, const char* agg) {
  int64_t sum = 0;
  if (__builtin_add_overflow(*count, w, &sum)) {
    return Status::InvalidArgument(std::string(agg) +
                                   "() multiplicity overflow: count " +
                                   std::to_string(*count) + " + weight " +
                                   std::to_string(w) + " leaves int64 range");
  }
  *count = sum;
  return Status::OK();
}

struct SumState : AggState {
  double sum = 0;
  int64_t int_sum = 0;
  bool all_int = true;
  int64_t count = 0;
};

class SumFunction : public AggFunction {
 public:
  std::unique_ptr<AggState> NewState() const override {
    return std::make_unique<SumState>();
  }
  Status Insert(AggState* state, const Value& v) const override {
    return Apply(state, v, +1);
  }
  Status Delete(AggState* state, const Value& v) const override {
    return Apply(state, v, -1);
  }
  Status ApplyWeighted(AggState* state, const Value& v,
                       int64_t w) const override {
    return Apply(state, v, w);
  }
  bool IsLinear() const override { return true; }
  Result<Value> Current(const AggState* state) const override {
    const auto* s = static_cast<const SumState*>(state);
    if (s->count == 0) return Value::Null();
    if (s->all_int) return Value(s->int_sum);
    return Value(s->sum);
  }
  int64_t Count(const AggState* state) const override {
    return static_cast<const SumState*>(state)->count;
  }
  ValueType ResultType(ValueType input_type) const override {
    return input_type == ValueType::kInt ? ValueType::kInt
                                         : ValueType::kDouble;
  }

 private:
  static Status Apply(AggState* state, const Value& v, int64_t weight) {
    auto* s = static_cast<SumState*>(state);
    if (v.is_null()) return Status::OK();  // SQL semantics: ignore NULLs
    double d = 0;
    if (v.type() == ValueType::kDouble) {
      d = v.AsDouble();  // the common case skips the out-of-line ToDouble
    } else {
      REX_ASSIGN_OR_RETURN(d, v.ToDouble());
    }
    if (v.type() == ValueType::kInt) {
      int64_t contribution = 0;
      int64_t next = 0;
      if (__builtin_mul_overflow(weight, v.AsInt(), &contribution) ||
          __builtin_add_overflow(s->int_sum, contribution, &next)) {
        return Status::InvalidArgument(
            "sum() overflow: " + std::to_string(s->int_sum) + " + " +
            std::to_string(weight) + "×" + v.ToString() +
            " leaves int64 range");
      }
      s->int_sum = next;
    } else {
      s->all_int = false;
    }
    s->sum += static_cast<double>(weight) * d;
    REX_RETURN_NOT_OK(CheckedCountAdd(&s->count, weight, "sum"));
    return Status::OK();
  }
};

struct CountState : AggState {
  int64_t count = 0;
};

class CountFunction : public AggFunction {
 public:
  std::unique_ptr<AggState> NewState() const override {
    return std::make_unique<CountState>();
  }
  Status Insert(AggState* state, const Value&) const override {
    static_cast<CountState*>(state)->count += 1;
    return Status::OK();
  }
  Status Delete(AggState* state, const Value&) const override {
    static_cast<CountState*>(state)->count -= 1;
    return Status::OK();
  }
  Status ApplyWeighted(AggState* state, const Value&,
                       int64_t w) const override {
    return CheckedCountAdd(&static_cast<CountState*>(state)->count, w,
                           "count");
  }
  bool IsLinear() const override { return true; }
  Result<Value> Current(const AggState* state) const override {
    return Value(static_cast<const CountState*>(state)->count);
  }
  int64_t Count(const AggState* state) const override {
    return static_cast<const CountState*>(state)->count;
  }
  ValueType ResultType(ValueType) const override { return ValueType::kInt; }
};

/// Mirrors SumState's exact integer fast path: a pure-int input stream
/// accumulates in `int_sum` (overflow-checked) and only converts to double
/// at finalize. Accumulating in `sum` alone drifts once the running total
/// leaves ±2^53 — long insert/retract churn under weighted ℤ-set updates
/// then returns an average off by the accumulated rounding error even
/// after most inputs retract.
struct AvgState : AggState {
  double sum = 0;
  int64_t int_sum = 0;
  bool all_int = true;
  int64_t count = 0;
};

class AvgFunction : public AggFunction {
 public:
  std::unique_ptr<AggState> NewState() const override {
    return std::make_unique<AvgState>();
  }
  Status Insert(AggState* state, const Value& v) const override {
    return Apply(state, v, +1);
  }
  Status Delete(AggState* state, const Value& v) const override {
    return Apply(state, v, -1);
  }
  Status ApplyWeighted(AggState* state, const Value& v,
                       int64_t w) const override {
    return Apply(state, v, w);
  }
  bool IsLinear() const override { return true; }
  Result<Value> Current(const AggState* state) const override {
    const auto* s = static_cast<const AvgState*>(state);
    if (s->count == 0) return Value::Null();
    if (s->all_int) {
      // Exact until finalize: one rounding at the division, none on the
      // accumulation.
      return Value(static_cast<double>(s->int_sum) /
                   static_cast<double>(s->count));
    }
    return Value(s->sum / static_cast<double>(s->count));
  }
  int64_t Count(const AggState* state) const override {
    return static_cast<const AvgState*>(state)->count;
  }
  ValueType ResultType(ValueType) const override {
    return ValueType::kDouble;
  }

 private:
  static Status ApplyInt(AggState* state, int64_t v, int64_t weight) {
    auto* s = static_cast<AvgState*>(state);
    int64_t contribution = 0;
    int64_t next = 0;
    if (__builtin_mul_overflow(weight, v, &contribution) ||
        __builtin_add_overflow(s->int_sum, contribution, &next)) {
      return Status::InvalidArgument(
          "avg() overflow: " + std::to_string(s->int_sum) + " + " +
          std::to_string(weight) + "×" + Value(v).ToString() +
          " leaves int64 range");
    }
    s->int_sum = next;
    s->sum += static_cast<double>(weight) * static_cast<double>(v);
    return CheckedCountAdd(&s->count, weight, "avg");
  }

  static Status Apply(AggState* state, const Value& v, int64_t weight) {
    auto* s = static_cast<AvgState*>(state);
    if (v.is_null()) return Status::OK();
    if (v.type() == ValueType::kInt) return ApplyInt(state, v.AsInt(), weight);
    double d = 0;
    if (v.type() == ValueType::kDouble) {
      d = v.AsDouble();  // the common case skips the out-of-line ToDouble
    } else {
      REX_ASSIGN_OR_RETURN(d, v.ToDouble());
    }
    s->all_int = false;
    s->sum += static_cast<double>(weight) * d;
    return CheckedCountAdd(&s->count, weight, "avg");
  }
};

/// min/max buffer all values: deleting the current extremum must surface
/// the next one (§3.3).
struct MinMaxState : AggState {
  std::multiset<Value> values;
};

class MinMaxFunction : public AggFunction {
 public:
  explicit MinMaxFunction(bool is_min) : is_min_(is_min) {}

  std::unique_ptr<AggState> NewState() const override {
    return std::make_unique<MinMaxState>();
  }
  Status Insert(AggState* state, const Value& v) const override {
    if (!v.is_null()) static_cast<MinMaxState*>(state)->values.insert(v);
    return Status::OK();
  }
  Status Delete(AggState* state, const Value& v) const override {
    if (v.is_null()) return Status::OK();
    auto* s = static_cast<MinMaxState*>(state);
    auto it = s->values.find(v);
    if (it == s->values.end()) {
      return Status::NotFound("delete of value not in min/max state: " +
                              v.ToString());
    }
    s->values.erase(it);
    return Status::OK();
  }
  Result<Value> Current(const AggState* state) const override {
    const auto* s = static_cast<const MinMaxState*>(state);
    if (s->values.empty()) return Value::Null();
    return is_min_ ? *s->values.begin() : *s->values.rbegin();
  }
  int64_t Count(const AggState* state) const override {
    return static_cast<int64_t>(
        static_cast<const MinMaxState*>(state)->values.size());
  }
  ValueType ResultType(ValueType input_type) const override {
    return input_type;
  }

 private:
  bool is_min_;
};

}  // namespace

const AggFunction* GetAggFunction(AggKind kind) {
  static const SumFunction kSum;
  static const CountFunction kCount;
  static const AvgFunction kAvg;
  static const MinMaxFunction kMin(true);
  static const MinMaxFunction kMax(false);
  switch (kind) {
    case AggKind::kSum:
      return &kSum;
    case AggKind::kCount:
      return &kCount;
    case AggKind::kAvg:
      return &kAvg;
    case AggKind::kMin:
      return &kMin;
    case AggKind::kMax:
      return &kMax;
  }
  return &kSum;
}

PreAggSpec GetPreAggSpec(AggKind kind) {
  PreAggSpec spec;
  spec.available = true;
  switch (kind) {
    case AggKind::kSum:
      spec.partial = AggKind::kSum;
      spec.merge = AggKind::kSum;
      break;
    case AggKind::kCount:
      spec.partial = AggKind::kCount;
      spec.merge = AggKind::kSum;
      break;
    case AggKind::kMin:
      spec.partial = AggKind::kMin;
      spec.merge = AggKind::kMin;
      break;
    case AggKind::kMax:
      spec.partial = AggKind::kMax;
      spec.merge = AggKind::kMax;
      break;
    case AggKind::kAvg:
      spec.partial = AggKind::kSum;
      spec.merge = AggKind::kSum;
      spec.needs_count_companion = true;
      break;
  }
  return spec;
}

bool IsMultiplicitySensitive(AggKind kind) {
  switch (kind) {
    case AggKind::kSum:
    case AggKind::kCount:
    case AggKind::kAvg:
      return true;
    case AggKind::kMin:
    case AggKind::kMax:
      return false;
  }
  return true;
}

}  // namespace rex
