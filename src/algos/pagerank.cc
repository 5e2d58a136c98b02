#include "algos/pagerank.h"

#include <cmath>

namespace rex {

namespace {

/// While-state handler: rank accumulation + thresholded diff propagation.
WhileHandler MakePrFix(const PageRankConfig& config) {
  WhileHandler h;
  h.name = "PRFix" + config.name_suffix;
  h.keeps_unpropagated_state = true;  // sub-threshold diffs accumulate
  const double threshold = config.threshold;
  const bool relative = config.relative;
  const double teleport = 1.0 - config.damping;
  h.update = [threshold, relative, teleport](
                 TupleSet* bucket, const Delta& d) -> Result<DeltaVec> {
    if (d.tuple.size() < 2) {
      return Status::InvalidArgument("PRFix expects (v, diff)");
    }
    const Value& v = d.tuple.field(0);
    REX_ASSIGN_OR_RETURN(double diff, d.tuple.field(1).ToDouble());
    double current = 0.0;
    if (auto existing = bucket->Get(v); existing.has_value()) {
      REX_ASSIGN_OR_RETURN(current, existing->ToDouble());
    }
    const double updated = current + diff;
    bucket->Put(v, Value(updated));
    // Relative cutoff is floored at the teleport mass so the very first
    // diff (rank going 0 -> teleport) always propagates.
    const double cutoff =
        relative ? threshold * std::max(std::fabs(current), teleport)
                 : threshold;
    if (std::fabs(diff) > cutoff) {
      return DeltaVec{Delta::Update(Tuple{v, Value(diff)})};
    }
    return DeltaVec{};
  };
  return h;
}

/// Join-state handler (delta): distribute damping*diff/outdeg to each
/// out-neighbor found in the immutable graph bucket. The delta side keeps
/// no state.
JoinHandler MakePrJoin(const PageRankConfig& config) {
  JoinHandler h;
  h.name = "PRJoin" + config.name_suffix;
  const double damping = config.damping;
  h.update = [damping](TupleSet* /*delta_side*/, TupleSet* graph_bucket,
                       const Delta& d, DeltaSink* out) -> Status {
    REX_ASSIGN_OR_RETURN(double diff, d.tuple.field(1).ToDouble());
    const size_t outdeg = graph_bucket->size();
    if (outdeg == 0) return Status::OK();  // generator guarantees outdeg >= 1
    const double share = damping * diff / static_cast<double>(outdeg);
    for (const Tuple& edge : *graph_bucket) {
      const Value row[] = {edge.field(1), Value(share)};
      REX_RETURN_NOT_OK(out->AddRow(DeltaOp::kUpdate, row, 1));
    }
    return Status::OK();
  };
  return h;
}

/// Join-state handler (no-delta): distribute each vertex's full damped
/// rank every stratum, plus a zero self-contribution so vertices with no
/// in-edges still refresh their rank to the teleport value.
JoinHandler MakePrJoinFull(const PageRankConfig& config) {
  JoinHandler h;
  h.name = "PRJoinFull" + config.name_suffix;
  const double damping = config.damping;
  h.update = [damping](TupleSet* /*delta_side*/, TupleSet* graph_bucket,
                       const Delta& d, DeltaSink* out) -> Status {
    const Value& v = d.tuple.field(0);
    REX_ASSIGN_OR_RETURN(double rank, d.tuple.field(1).ToDouble());
    const size_t outdeg = graph_bucket->size();
    if (outdeg > 0) {
      const double share = damping * rank / static_cast<double>(outdeg);
      for (const Tuple& edge : *graph_bucket) {
        const Value row[] = {edge.field(1), Value(share)};
        REX_RETURN_NOT_OK(out->AddRow(DeltaOp::kUpdate, row, 1));
      }
    }
    const Value self[] = {v, Value(0.0)};
    return out->AddRow(DeltaOp::kUpdate, self, 1);
  };
  return h;
}

/// Shared recursive tail: [pre-aggregate ->] rehash by target -> final sum.
int AddDiffAggregation(PlanSpec* plan, int join, bool preaggregate) {
  int tail = join;
  GroupByOp::AggSpec sum_diff;
  sum_diff.kind = AggKind::kSum;
  sum_diff.input_field = 1;
  sum_diff.output_name = "diff";
  if (preaggregate) {
    GroupByOp::Params pre;
    pre.key_fields = {0};
    pre.aggs = {sum_diff};
    pre.mode = GroupByOp::Mode::kStratum;
    tail = plan->AddGroupBy(tail, pre);
  }
  RehashOp::Params rh;
  rh.key_fields = {0};
  tail = plan->AddRehash(tail, rh);
  GroupByOp::Params fin;
  fin.key_fields = {0};
  fin.aggs = {sum_diff};
  fin.mode = GroupByOp::Mode::kStratum;
  return plan->AddGroupBy(tail, fin);
}

}  // namespace

Status RegisterPageRankUdfs(UdfRegistry* registry,
                            const PageRankConfig& config) {
  REX_RETURN_NOT_OK(registry->RegisterWhileHandler(MakePrFix(config)));
  REX_RETURN_NOT_OK(registry->RegisterJoinHandler(MakePrJoin(config)));
  return registry->RegisterJoinHandler(MakePrJoinFull(config));
}

Result<PlanSpec> BuildPageRankDeltaPlan(const PageRankConfig& config) {
  PlanSpec plan;
  ScanOp::Params graph_scan;
  graph_scan.table = "graph";
  graph_scan.feeds_immutable = true;
  int g = plan.AddScan(graph_scan);

  ScanOp::Params vertex_scan;
  vertex_scan.table = "vertices";
  int vs = plan.AddScan(vertex_scan);
  // Initial diff: the teleport mass (1 - damping).
  int base = plan.AddProject(
      vs, {Expr::Column(0, "v"), Expr::Const(Value(1.0 - config.damping))});

  FixpointOp::Params fp_params;
  fp_params.key_fields = {0};
  fp_params.while_handler = "PRFix" + config.name_suffix;
  int fp = plan.AddFixpoint(base, fp_params);

  HashJoinOp::Params jp;
  jp.left_keys = {0};
  jp.right_keys = {0};
  jp.immutable[0] = true;  // graph side
  jp.handler = "PRJoin" + config.name_suffix;
  int join = plan.AddHashJoin(g, fp, jp);

  int tail = AddDiffAggregation(&plan, join, config.preaggregate);
  plan.ConnectRecursive(fp, tail);
  REX_RETURN_NOT_OK(plan.Validate());
  return plan;
}

Result<PlanSpec> BuildPageRankFullPlan(const PageRankConfig& config) {
  PlanSpec plan;
  ScanOp::Params graph_scan;
  graph_scan.table = "graph";
  graph_scan.feeds_immutable = true;
  int g = plan.AddScan(graph_scan);

  ScanOp::Params vertex_scan;
  vertex_scan.table = "vertices";
  int vs = plan.AddScan(vertex_scan);
  int base = plan.AddProject(
      vs, {Expr::Column(0, "v"), Expr::Const(Value(1.0))});

  FixpointOp::Params fp_params;
  fp_params.key_fields = {0};
  fp_params.mode = FixpointOp::Mode::kFull;
  fp_params.value_field = 1;
  if (config.relative) {
    fp_params.relative_threshold = config.threshold;
  } else {
    fp_params.change_threshold = config.threshold;
  }
  int fp = plan.AddFixpoint(base, fp_params);

  HashJoinOp::Params jp;
  jp.left_keys = {0};
  jp.right_keys = {0};
  jp.immutable[0] = true;
  jp.handler = "PRJoinFull" + config.name_suffix;
  jp.handler_owns_all = true;
  int join = plan.AddHashJoin(g, fp, jp);

  int agg = AddDiffAggregation(&plan, join, config.preaggregate);
  // rank = teleport + damped contribution sum.
  int teleport = plan.AddProject(
      agg, {Expr::Column(0, "v"),
            Expr::Binary(BinOp::kAdd, Expr::Const(Value(1.0 - config.damping)),
                         Expr::Column(1, "diff"))});
  plan.ConnectRecursive(fp, teleport);
  REX_RETURN_NOT_OK(plan.Validate());
  return plan;
}

Status LoadGraphTables(Cluster* cluster, const GraphData& graph) {
  REX_RETURN_NOT_OK(cluster->CreateTable(
      "graph",
      Schema{{"src", ValueType::kInt}, {"dst", ValueType::kInt}},
      /*key_column=*/0, graph.EdgeRows()));
  return cluster->CreateTable("vertices", Schema{{"v", ValueType::kInt}},
                              /*key_column=*/0, graph.VertexRows());
}

Result<std::vector<double>> RanksFromState(
    const std::vector<Tuple>& fixpoint_state, int64_t num_vertices) {
  std::vector<double> ranks(static_cast<size_t>(num_vertices), 0.0);
  for (const Tuple& t : fixpoint_state) {
    if (t.size() < 2) return Status::Internal("bad rank tuple");
    REX_ASSIGN_OR_RETURN(int64_t v, t.field(0).ToInt());
    REX_ASSIGN_OR_RETURN(double r, t.field(1).ToDouble());
    if (v < 0 || v >= num_vertices) {
      return Status::OutOfRange("vertex id out of range in rank state");
    }
    ranks[static_cast<size_t>(v)] = r;
  }
  return ranks;
}

}  // namespace rex
