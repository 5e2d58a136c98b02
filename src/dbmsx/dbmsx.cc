#include "dbmsx/dbmsx.h"

#include "algos/pagerank.h"

namespace rex {

namespace {

/// Distributes damped rank with an iteration counter: delta is
/// (v, rank, iter); emits (dst, contribution, iter + 1) per out-edge plus
/// the zero self-contribution that keeps sink-free vertices deriving.
JoinHandler MakeXJoin(const DbmsXConfig& config) {
  JoinHandler h;
  h.name = "XJoinPR" + config.name_suffix;
  h.out_schema = Schema{{"nbr", ValueType::kInt},
                        {"share", ValueType::kDouble},
                        {"iter", ValueType::kInt}};
  const double damping = config.damping;
  h.update = [damping](TupleSet* /*delta_side*/, TupleSet* graph_bucket,
                       const Delta& d, DeltaSink* out) -> Status {
    if (d.tuple.size() < 3) {
      return Status::InvalidArgument("XJoinPR expects (v, rank, iter)");
    }
    const Value& v = d.tuple.field(0);
    REX_ASSIGN_OR_RETURN(double rank, d.tuple.field(1).ToDouble());
    REX_ASSIGN_OR_RETURN(int64_t iter, d.tuple.field(2).ToInt());
    const size_t outdeg = graph_bucket->size();
    if (outdeg > 0) {
      const double share = damping * rank / static_cast<double>(outdeg);
      for (const Tuple& edge : *graph_bucket) {
        const Value row[] = {edge.field(1), Value(share), Value(iter + 1)};
        REX_RETURN_NOT_OK(out->AddRow(DeltaOp::kUpdate, row, 1));
      }
    }
    const Value self[] = {v, Value(0.0), Value(iter + 1)};
    return out->AddRow(DeltaOp::kUpdate, self, 1);
  };
  return h;
}

}  // namespace

Status RegisterDbmsXUdfs(UdfRegistry* registry, const DbmsXConfig& config) {
  return registry->RegisterJoinHandler(MakeXJoin(config));
}

Result<PlanSpec> BuildDbmsXPageRankPlan(const DbmsXConfig& config) {
  PlanSpec plan;
  ScanOp::Params graph_scan;
  graph_scan.table = "graph";
  graph_scan.feeds_immutable = true;
  int g = plan.AddScan(graph_scan);

  ScanOp::Params vertex_scan;
  vertex_scan.table = "vertices";
  int vs = plan.AddScan(vertex_scan);
  // Base case: (v, 1.0, iteration 0).
  int base = plan.AddProject(
      vs, {Expr::Column(0, "v"), Expr::Const(Value(1.0)),
           Expr::Const(Value(int64_t{0}))});

  FixpointOp::Params fp_params;
  fp_params.mode = FixpointOp::Mode::kAccumulate;
  int fp = plan.AddFixpoint(base, fp_params);

  HashJoinOp::Params jp;
  jp.left_keys = {0};
  jp.right_keys = {0};
  jp.immutable[0] = true;
  jp.handler = "XJoinPR" + config.name_suffix;
  jp.handler_owns_all = true;
  int join = plan.AddHashJoin(g, fp, jp);

  // Sum contributions per (target, iteration); recursive SQL derives a
  // fresh tuple for every vertex every iteration.
  GroupByOp::Params agg;
  agg.key_fields = {0, 2};
  agg.aggs = {GroupByOp::AggSpec{AggKind::kSum, 1, "contrib"}};
  agg.mode = GroupByOp::Mode::kStratum;
  int summed = plan.AddGroupBy(join, agg);
  RehashOp::Params rh;
  rh.key_fields = {0};
  int routed = plan.AddRehash(summed, rh);
  // (v, iter, sum) -> (v, teleport + sum, iter).
  int next = plan.AddProject(
      routed,
      {Expr::Column(0, "v"),
       Expr::Binary(BinOp::kAdd, Expr::Const(Value(1.0 - config.damping)),
                    Expr::Column(2, "contrib")),
       Expr::Column(1, "iter")});
  plan.ConnectRecursive(fp, next);
  REX_RETURN_NOT_OK(plan.Validate());
  return plan;
}

Result<DbmsXRun> RunDbmsXPageRank(const GraphData& graph,
                                  const DbmsXConfig& config) {
  EngineConfig engine;
  engine.num_workers = 1;  // single machine (§6.4)
  engine.replication = 1;
  engine.checkpoint_deltas = false;  // DBMSs restart failed queries
  Cluster cluster(engine);
  REX_RETURN_NOT_OK(LoadGraphTables(&cluster, graph));
  REX_RETURN_NOT_OK(RegisterDbmsXUdfs(cluster.udfs(), config));
  REX_ASSIGN_OR_RETURN(PlanSpec plan, BuildDbmsXPageRankPlan(config));

  QueryOptions options;
  const int iterations = config.iterations;
  options.terminate = [iterations](int stratum, const VoteStats&) {
    return stratum >= iterations;
  };
  REX_ASSIGN_OR_RETURN(QueryRunResult run, cluster.Run(plan, options));

  DbmsXRun out;
  out.total_seconds = run.total_seconds;
  out.strata = run.strata;
  out.accumulated_tuples = static_cast<int64_t>(run.fixpoint_state.size());
  // The answer is the deepest iteration's slice of the accumulated store.
  int64_t max_iter = 0;
  for (const Tuple& t : run.fixpoint_state) {
    REX_ASSIGN_OR_RETURN(int64_t it, t.field(2).ToInt());
    max_iter = std::max(max_iter, it);
  }
  out.ranks.assign(static_cast<size_t>(graph.num_vertices), 0.0);
  for (const Tuple& t : run.fixpoint_state) {
    REX_ASSIGN_OR_RETURN(int64_t it, t.field(2).ToInt());
    if (it != max_iter) continue;
    REX_ASSIGN_OR_RETURN(int64_t v, t.field(0).ToInt());
    REX_ASSIGN_OR_RETURN(double rank, t.field(1).ToDouble());
    out.ranks[static_cast<size_t>(v)] = rank;
  }
  return out;
}

}  // namespace rex
