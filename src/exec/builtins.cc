// Built-in general-purpose user-defined code that ships with the engine:
// the ArgMin/ArgMax UDAs referenced by the paper's shortest-path query, and
// a handful of scalar math functions available to RQL.
#include <cmath>
#include <set>

#include "exec/udf_registry.h"

namespace rex {

namespace {

/// (value, id) pairs ordered by value; supports deletion (buffered state,
/// like built-in min/max).
struct ArgExtremeState : UdaState {
  std::multiset<std::pair<Value, Value>> entries;
};

Uda MakeArgExtreme(const std::string& name, bool is_min) {
  Uda uda;
  uda.name = name;
  uda.in_schema = Schema{{"id", ValueType::kInt}, {"val", ValueType::kDouble}};
  uda.out_schema =
      Schema{{"id", ValueType::kInt}, {"val", ValueType::kDouble}};
  uda.init = [] { return std::make_unique<ArgExtremeState>(); };
  uda.agg_state = [](UdaState* state, const Delta& d) -> Result<DeltaVec> {
    auto* s = static_cast<ArgExtremeState*>(state);
    if (d.tuple.size() < 2) {
      return Status::InvalidArgument("ArgMin/ArgMax expect (id, value)");
    }
    std::pair<Value, Value> entry{d.tuple.field(1), d.tuple.field(0)};
    switch (d.op) {
      case DeltaOp::kInsert:
      case DeltaOp::kUpdate:
        s->entries.insert(std::move(entry));
        break;
      case DeltaOp::kDelete: {
        auto it = s->entries.find(entry);
        if (it != s->entries.end()) s->entries.erase(it);
        break;
      }
      case DeltaOp::kReplace: {
        std::pair<Value, Value> old_entry{d.old_tuple.field(1),
                                          d.old_tuple.field(0)};
        auto it = s->entries.find(old_entry);
        if (it != s->entries.end()) s->entries.erase(it);
        s->entries.insert(std::move(entry));
        break;
      }
    }
    return DeltaVec{};
  };
  uda.agg_result = [is_min](UdaState* state) -> Result<DeltaVec> {
    auto* s = static_cast<ArgExtremeState*>(state);
    if (s->entries.empty()) return DeltaVec{};
    const auto& best = is_min ? *s->entries.begin() : *s->entries.rbegin();
    return DeltaVec{Delta::Insert(Tuple{best.second, best.first})};
  };
  uda.composable = false;  // argmin of argmins IS valid; but the id makes
                           // multiply-compensation meaningless
  uda.cost_per_tuple = 1.0;
  return uda;
}

Status RegisterMathScalars(UdfRegistry* registry) {
  ScalarUdf absf;
  absf.name = "abs";
  absf.in_types = {ValueType::kDouble};
  absf.out_type = ValueType::kDouble;
  absf.fn = [](const std::vector<Value>& args) -> Result<Value> {
    if (args.size() != 1) return Status::InvalidArgument("abs(x)");
    REX_ASSIGN_OR_RETURN(double x, args[0].ToDouble());
    return Value(std::fabs(x));
  };
  REX_RETURN_NOT_OK(registry->RegisterScalar(std::move(absf)));

  ScalarUdf sqrtf_;
  sqrtf_.name = "sqrt";
  sqrtf_.in_types = {ValueType::kDouble};
  sqrtf_.out_type = ValueType::kDouble;
  sqrtf_.fn = [](const std::vector<Value>& args) -> Result<Value> {
    if (args.size() != 1) return Status::InvalidArgument("sqrt(x)");
    REX_ASSIGN_OR_RETURN(double x, args[0].ToDouble());
    if (x < 0) return Status::InvalidArgument("sqrt of negative value");
    return Value(std::sqrt(x));
  };
  REX_RETURN_NOT_OK(registry->RegisterScalar(std::move(sqrtf_)));

  // The built-in numeric multiply function for multiplicative-join
  // pre-aggregation compensation (§5.2): value * cardinality.
  ScalarUdf mult;
  mult.name = "numeric_mult";
  mult.in_types = {ValueType::kDouble, ValueType::kInt};
  mult.out_type = ValueType::kDouble;
  mult.fn = [](const std::vector<Value>& args) -> Result<Value> {
    if (args.size() != 2) {
      return Status::InvalidArgument("numeric_mult(value, count)");
    }
    REX_ASSIGN_OR_RETURN(double v, args[0].ToDouble());
    REX_ASSIGN_OR_RETURN(int64_t n, args[1].ToInt());
    return Value(v * static_cast<double>(n));
  };
  return registry->RegisterScalar(std::move(mult));
}

}  // namespace

Status RegisterBuiltins(UdfRegistry* registry) {
  REX_RETURN_NOT_OK(registry->RegisterUda(MakeArgExtreme("ArgMin", true)));
  REX_RETURN_NOT_OK(registry->RegisterUda(MakeArgExtreme("ArgMax", false)));
  return RegisterMathScalars(registry);
}

}  // namespace rex
