#include "algos/sssp.h"

namespace rex {

namespace {

WhileHandler MakeSpFix(const SsspConfig& config) {
  WhileHandler h;
  h.name = "SPFix" + config.name_suffix;
  h.update = [](TupleSet* bucket, const Delta& d) -> Result<DeltaVec> {
    if (d.tuple.size() < 2) {
      return Status::InvalidArgument("SPFix expects (v, dist)");
    }
    const Value& v = d.tuple.field(0);
    REX_ASSIGN_OR_RETURN(int64_t cand, d.tuple.field(1).ToInt());
    if (auto existing = bucket->Get(v); existing.has_value()) {
      REX_ASSIGN_OR_RETURN(int64_t cur, existing->ToInt());
      if (cand >= cur) return DeltaVec{};  // no improvement
    }
    bucket->Put(v, Value(cand));
    return DeltaVec{Delta::Update(Tuple{v, Value(cand)})};
  };
  return h;
}

JoinHandler MakeSpJoin(const SsspConfig& config) {
  JoinHandler h;
  h.name = "SPJoin" + config.name_suffix;
  h.out_schema = Schema{{"nbr", ValueType::kInt}, {"cand", ValueType::kInt}};
  h.update = [](TupleSet* /*delta_side*/, TupleSet* graph_bucket,
                const Delta& d, DeltaSink* out) -> Status {
    REX_ASSIGN_OR_RETURN(int64_t dist, d.tuple.field(1).ToInt());
    for (const Tuple& edge : *graph_bucket) {
      const Value row[] = {edge.field(1), Value(dist + 1)};
      REX_RETURN_NOT_OK(out->AddRow(DeltaOp::kUpdate, row, 1));
    }
    return Status::OK();
  };
  return h;
}

Result<PlanSpec> BuildSsspPlan(const SsspConfig& config, bool delta) {
  PlanSpec plan;
  ScanOp::Params graph_scan;
  graph_scan.table = "graph";
  graph_scan.feeds_immutable = true;
  int g = plan.AddScan(graph_scan);

  ScanOp::Params vertex_scan;
  vertex_scan.table = "vertices";
  int vs = plan.AddScan(vertex_scan);
  int src_only = plan.AddFilter(
      vs, Expr::Binary(BinOp::kEq, Expr::Column(0, "v"),
                       Expr::Const(Value(config.source))));
  int base = plan.AddProject(
      src_only, {Expr::Column(0, "v"), Expr::Const(Value(int64_t{0}))});

  FixpointOp::Params fp_params;
  fp_params.key_fields = {0};
  fp_params.while_handler = "SPFix" + config.name_suffix;
  if (!delta) fp_params.mode = FixpointOp::Mode::kFull;
  int fp = plan.AddFixpoint(base, fp_params);

  HashJoinOp::Params jp;
  jp.left_keys = {0};
  jp.right_keys = {0};
  jp.immutable[0] = true;  // graph
  jp.handler = "SPJoin" + config.name_suffix;
  jp.handler_owns_all = true;  // kFull flushes inserts; route them too
  int join = plan.AddHashJoin(g, fp, jp);

  GroupByOp::AggSpec min_dist;
  min_dist.kind = AggKind::kMin;
  min_dist.input_field = 1;
  min_dist.output_name = "dist";
  int tail = join;
  if (config.preaggregate) {
    GroupByOp::Params pre;
    pre.key_fields = {0};
    pre.aggs = {min_dist};
    pre.mode = GroupByOp::Mode::kStratum;
    tail = plan.AddGroupBy(tail, pre);
  }
  RehashOp::Params rh;
  rh.key_fields = {0};
  tail = plan.AddRehash(tail, rh);
  GroupByOp::Params fin;
  fin.key_fields = {0};
  fin.aggs = {min_dist};
  fin.mode = GroupByOp::Mode::kStratum;
  tail = plan.AddGroupBy(tail, fin);

  plan.ConnectRecursive(fp, tail);
  REX_RETURN_NOT_OK(plan.Validate());
  return plan;
}

}  // namespace

Status RegisterSsspUdfs(UdfRegistry* registry, const SsspConfig& config) {
  REX_RETURN_NOT_OK(registry->RegisterWhileHandler(MakeSpFix(config)));
  return registry->RegisterJoinHandler(MakeSpJoin(config));
}

Result<PlanSpec> BuildSsspDeltaPlan(const SsspConfig& config) {
  return BuildSsspPlan(config, /*delta=*/true);
}

Result<PlanSpec> BuildSsspFullPlan(const SsspConfig& config) {
  return BuildSsspPlan(config, /*delta=*/false);
}

Result<std::vector<int64_t>> DistancesFromState(
    const std::vector<Tuple>& fixpoint_state, int64_t num_vertices) {
  std::vector<int64_t> dist(static_cast<size_t>(num_vertices), -1);
  for (const Tuple& t : fixpoint_state) {
    if (t.size() < 2) return Status::Internal("bad distance tuple");
    REX_ASSIGN_OR_RETURN(int64_t v, t.field(0).ToInt());
    REX_ASSIGN_OR_RETURN(int64_t d, t.field(1).ToInt());
    if (v < 0 || v >= num_vertices) {
      return Status::OutOfRange("vertex id out of range in distance state");
    }
    dist[static_cast<size_t>(v)] = d;
  }
  return dist;
}

}  // namespace rex
