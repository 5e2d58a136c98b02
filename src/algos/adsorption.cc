#include "algos/adsorption.h"

#include <cmath>

namespace rex {

namespace {

/// While handler: per-(v, label) weight accumulation with thresholded
/// propagation (PRFix generalized to vector positions).
WhileHandler MakeAdsorbFix(const AdsorptionConfig& config) {
  WhileHandler h;
  h.name = "AdsorbFix" + config.name_suffix;
  h.keeps_unpropagated_state = true;  // sub-threshold diffs accumulate
  const double threshold = config.threshold;
  h.update = [threshold](TupleSet* bucket,
                         const Delta& d) -> Result<DeltaVec> {
    if (d.tuple.size() < 3) {
      return Status::InvalidArgument("AdsorbFix expects (v, label, diff)");
    }
    REX_ASSIGN_OR_RETURN(double diff, d.tuple.field(2).ToDouble());
    // Bucket holds at most one (v, label, weight) tuple (keyed by both).
    if (bucket->empty()) {
      bucket->Add(Tuple{d.tuple.field(0), d.tuple.field(1), Value(diff)});
    } else {
      Tuple& entry = bucket->at(0);
      REX_ASSIGN_OR_RETURN(double current, entry.field(2).ToDouble());
      entry.field(2) = Value(current + diff);
    }
    if (std::fabs(diff) > threshold) {
      return DeltaVec{Delta::Update(d.tuple)};
    }
    return DeltaVec{};
  };
  return h;
}

JoinHandler MakeAdsorbJoin(const AdsorptionConfig& config) {
  JoinHandler h;
  h.name = "AdsorbJoin" + config.name_suffix;
  h.out_schema = Schema{{"nbr", ValueType::kInt},
                        {"label", ValueType::kInt},
                        {"share", ValueType::kDouble}};
  const double damping = config.damping;
  h.update = [damping](TupleSet* /*delta_side*/, TupleSet* graph_bucket,
                       const Delta& d, DeltaSink* out) -> Status {
    REX_ASSIGN_OR_RETURN(double diff, d.tuple.field(2).ToDouble());
    const size_t outdeg = graph_bucket->size();
    if (outdeg == 0) return Status::OK();
    const double share = damping * diff / static_cast<double>(outdeg);
    for (const Tuple& edge : *graph_bucket) {
      const Value row[] = {edge.field(1), d.tuple.field(1), Value(share)};
      REX_RETURN_NOT_OK(out->AddRow(DeltaOp::kUpdate, row, 1));
    }
    return Status::OK();
  };
  return h;
}

}  // namespace

Status RegisterAdsorptionUdfs(UdfRegistry* registry,
                              const AdsorptionConfig& config) {
  REX_RETURN_NOT_OK(registry->RegisterWhileHandler(MakeAdsorbFix(config)));
  return registry->RegisterJoinHandler(MakeAdsorbJoin(config));
}

Result<PlanSpec> BuildAdsorptionDeltaPlan(const AdsorptionConfig& config) {
  PlanSpec plan;
  ScanOp::Params graph_scan;
  graph_scan.table = "graph";
  graph_scan.feeds_immutable = true;
  int g = plan.AddScan(graph_scan);

  // Seeds: vertices 0..L-1 inject their own label with the teleport mass.
  ScanOp::Params vertex_scan;
  vertex_scan.table = "vertices";
  int vs = plan.AddScan(vertex_scan);
  int seeds = plan.AddFilter(
      vs, Expr::Binary(BinOp::kLt, Expr::Column(0, "v"),
                       Expr::Const(Value(int64_t{config.num_labels}))));
  int base = plan.AddProject(
      seeds, {Expr::Column(0, "v"), Expr::Column(0, "label"),
              Expr::Const(Value(1.0 - config.damping))});

  FixpointOp::Params fp_params;
  fp_params.key_fields = {0, 1};
  fp_params.partition_fields = {0};  // routed by vertex, keyed by
                                     // (vertex, label)
  fp_params.while_handler = "AdsorbFix" + config.name_suffix;
  int fp = plan.AddFixpoint(base, fp_params);

  HashJoinOp::Params jp;
  jp.left_keys = {0};
  jp.right_keys = {0};  // join on the vertex, any label
  jp.immutable[0] = true;
  jp.handler = "AdsorbJoin" + config.name_suffix;
  int join = plan.AddHashJoin(g, fp, jp);

  // Sum diffs per (target, label) locally, rehash by target, merge.
  GroupByOp::AggSpec sum_diff{AggKind::kSum, 2, "diff"};
  GroupByOp::Params pre;
  pre.key_fields = {0, 1};
  pre.aggs = {sum_diff};
  pre.mode = GroupByOp::Mode::kStratum;
  int tail = plan.AddGroupBy(join, pre);
  RehashOp::Params rh;
  rh.key_fields = {0};
  tail = plan.AddRehash(tail, rh);
  GroupByOp::Params fin;
  fin.key_fields = {0, 1};
  fin.aggs = {sum_diff};
  fin.mode = GroupByOp::Mode::kStratum;
  tail = plan.AddGroupBy(tail, fin);
  plan.ConnectRecursive(fp, tail);
  REX_RETURN_NOT_OK(plan.Validate());
  return plan;
}

Result<std::vector<std::vector<double>>> AdsorptionFromState(
    const std::vector<Tuple>& fixpoint_state, int64_t num_vertices,
    int num_labels) {
  std::vector<std::vector<double>> weights(
      static_cast<size_t>(num_vertices),
      std::vector<double>(static_cast<size_t>(num_labels), 0.0));
  for (const Tuple& t : fixpoint_state) {
    if (t.size() < 3) return Status::Internal("bad adsorption tuple");
    REX_ASSIGN_OR_RETURN(int64_t v, t.field(0).ToInt());
    REX_ASSIGN_OR_RETURN(int64_t label, t.field(1).ToInt());
    REX_ASSIGN_OR_RETURN(double w, t.field(2).ToDouble());
    if (v < 0 || v >= num_vertices || label < 0 || label >= num_labels) {
      return Status::OutOfRange("adsorption state out of range");
    }
    weights[static_cast<size_t>(v)][static_cast<size_t>(label)] = w;
  }
  return weights;
}

std::vector<std::vector<double>> ReferenceAdsorption(const GraphData& graph,
                                                     int num_labels,
                                                     double damping,
                                                     double tol,
                                                     int max_iters) {
  const auto n = static_cast<size_t>(graph.num_vertices);
  std::vector<int64_t> outdeg = graph.OutDegrees();
  std::vector<std::vector<double>> weights(
      n, std::vector<double>(static_cast<size_t>(num_labels), 0.0));
  for (int l = 0; l < num_labels; ++l) {
    std::vector<double> w(n, 0.0);
    std::vector<double> next(n, 0.0);
    w[static_cast<size_t>(l)] = 1.0 - damping;
    for (int it = 0; it < max_iters; ++it) {
      std::fill(next.begin(), next.end(), 0.0);
      next[static_cast<size_t>(l)] = 1.0 - damping;
      for (const auto& [src, dst] : graph.edges) {
        next[static_cast<size_t>(dst)] +=
            damping * w[static_cast<size_t>(src)] /
            static_cast<double>(outdeg[static_cast<size_t>(src)]);
      }
      double max_change = 0;
      for (size_t v = 0; v < n; ++v) {
        max_change = std::max(max_change, std::fabs(next[v] - w[v]));
      }
      w.swap(next);
      if (max_change <= tol) break;
    }
    for (size_t v = 0; v < n; ++v) {
      weights[v][static_cast<size_t>(l)] = w[v];
    }
  }
  return weights;
}

}  // namespace rex
