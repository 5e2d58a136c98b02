#include "algos/kmeans.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace rex {

namespace {

// Point bucket tuple layout after in-place extension by the handler:
//   (key0, pid, x, y, cid, dist2)
// Centroid bucket tuple layout: (key0, cid, cx, cy).
constexpr size_t kPid = 1;
constexpr size_t kX = 2;
constexpr size_t kY = 3;
constexpr size_t kCid = 4;
constexpr size_t kDist = 5;

double Dist2(double x, double y, double cx, double cy) {
  const double dx = x - cx;
  const double dy = y - cy;
  return dx * dx + dy * dy;
}

/// Nearest centroid in the centroid bucket to (x, y).
Result<std::pair<int64_t, double>> Nearest(const TupleSet& centroids,
                                           double x, double y) {
  int64_t best = -1;
  double best_d = std::numeric_limits<double>::infinity();
  for (const Tuple& c : centroids) {
    REX_ASSIGN_OR_RETURN(double cx, c.field(2).ToDouble());
    REX_ASSIGN_OR_RETURN(double cy, c.field(3).ToDouble());
    const double d = Dist2(x, y, cx, cy);
    if (d < best_d) {
      best_d = d;
      REX_ASSIGN_OR_RETURN(best, c.field(1).ToInt());
    }
  }
  return std::make_pair(best, best_d);
}

JoinHandler MakeKmJoin(const KMeansConfig& config) {
  JoinHandler h;
  h.name = "KMJoin" + config.name_suffix;
  h.out_schema = Schema{{"cid", ValueType::kInt},
                        {"x", ValueType::kDouble},
                        {"y", ValueType::kDouble},
                        {"count", ValueType::kInt}};
  h.update = [](TupleSet* centroid_bucket, TupleSet* point_bucket,
                const Delta& d, DeltaSink* out) -> Status {
    if (d.tuple.size() < 4) {
      return Status::InvalidArgument("KMJoin expects (key, cid, cx, cy)");
    }
    REX_ASSIGN_OR_RETURN(int64_t cid, d.tuple.field(1).ToInt());
    REX_ASSIGN_OR_RETURN(double cx, d.tuple.field(2).ToDouble());
    REX_ASSIGN_OR_RETURN(double cy, d.tuple.field(3).ToDouble());

    // Revise the centroid set (paper: centrBucket.put(cid, {cx, cy})).
    bool found = false;
    for (Tuple& c : *centroid_bucket) {
      if (c.field(1) == d.tuple.field(1)) {
        c.field(2) = Value(cx);
        c.field(3) = Value(cy);
        found = true;
        break;
      }
    }
    if (!found) centroid_bucket->Add(d.tuple);

    for (Tuple& p : *point_bucket) {
      // Extend scanned (key, pid, x, y) rows with assignment state.
      while (p.size() < 6) {
        p.Append(p.size() == kCid
                     ? Value(int64_t{-1})
                     : Value(std::numeric_limits<double>::infinity()));
      }
      REX_ASSIGN_OR_RETURN(double x, p.field(kX).ToDouble());
      REX_ASSIGN_OR_RETURN(double y, p.field(kY).ToDouble());
      REX_ASSIGN_OR_RETURN(int64_t old_cid, p.field(kCid).ToInt());
      REX_ASSIGN_OR_RETURN(double old_d, p.field(kDist).ToDouble());

      int64_t new_cid = old_cid;
      double new_d = old_d;
      if (old_cid == cid) {
        // Our own centroid moved: the stored distance is stale, and some
        // other centroid may now be closer — re-evaluate against all.
        REX_ASSIGN_OR_RETURN(auto nearest, Nearest(*centroid_bucket, x, y));
        new_cid = nearest.first;
        new_d = nearest.second;
      } else {
        const double cand = Dist2(x, y, cx, cy);
        if (cand < old_d) {
          new_cid = cid;
          new_d = cand;
        }
      }
      if (new_cid == old_cid) {
        p.field(kDist) = Value(new_d);  // refresh distance only
        continue;
      }
      p.field(kCid) = Value(new_cid);
      p.field(kDist) = Value(new_d);
      const Value enter[] = {Value(new_cid), Value(x), Value(y),
                             Value(int64_t{1})};
      REX_RETURN_NOT_OK(out->AddRow(DeltaOp::kUpdate, enter, 1));
      if (old_cid >= 0) {
        const Value leave[] = {Value(old_cid), Value(-x), Value(-y),
                               Value(int64_t{-1})};
        REX_RETURN_NOT_OK(out->AddRow(DeltaOp::kUpdate, leave, 1));
      }
    }
    return Status::OK();
  };
  return h;
}

}  // namespace

Status RegisterKMeansUdfs(UdfRegistry* registry,
                          const KMeansConfig& config) {
  return registry->RegisterJoinHandler(MakeKmJoin(config));
}

Result<PlanSpec> BuildKMeansDeltaPlan(const KMeansConfig& config) {
  PlanSpec plan;

  // Immutable side: every worker's local points under a constant join key.
  ScanOp::Params points_scan;
  points_scan.table = "points";
  points_scan.feeds_immutable = true;
  int ps = plan.AddScan(points_scan);
  int keyed_points = plan.AddProject(
      ps, {Expr::Const(Value(int64_t{0})), Expr::Column(0, "pid"),
           Expr::Column(1, "x"), Expr::Column(2, "y")});

  // Base case: sample initial centroids as the points with pid < k.
  ScanOp::Params seed_scan;
  seed_scan.table = "points";
  int ss = plan.AddScan(seed_scan);
  int sampled = plan.AddFilter(
      ss, Expr::Binary(BinOp::kLt, Expr::Column(0, "pid"),
                       Expr::Const(Value(int64_t{config.k}))));
  int seeds = plan.AddProject(sampled, {Expr::Column(0, "cid"),
                                        Expr::Column(1, "x"),
                                        Expr::Column(2, "y")});
  RehashOp::Params seed_rehash;
  seed_rehash.key_fields = {0};
  int seeds_routed = plan.AddRehash(seeds, seed_rehash);

  FixpointOp::Params fp_params;
  fp_params.key_fields = {0};
  int fp = plan.AddFixpoint(seeds_routed, fp_params);

  // Recursive case: broadcast changed centroids to all workers ...
  RehashOp::Params bcast;
  bcast.broadcast = true;
  int centroids_everywhere = plan.AddRehash(fp, bcast);
  int keyed_centroids = plan.AddProject(
      centroids_everywhere,
      {Expr::Const(Value(int64_t{0})), Expr::Column(0, "cid"),
       Expr::Column(1, "x"), Expr::Column(2, "y")});

  // ... reassign local points, emitting membership adjustments ...
  HashJoinOp::Params jp;
  jp.left_keys = {0};
  jp.right_keys = {0};
  jp.immutable[0] = true;  // points
  jp.handler = "KMJoin" + config.name_suffix;
  jp.handler_owns_all = true;
  jp.handler_keeps_state = true;  // per-point assignments live in buckets
  int join = plan.AddHashJoin(keyed_points, keyed_centroids, jp);

  // ... maintain running per-worker partial sums (persistent group-by);
  // replacements of a worker's partial flow to a second, global persistent
  // group-by on the centroid's owner, which combines partials across
  // workers (delete-old + insert-new keeps the global sums exact) ...
  GroupByOp::AggSpec sx{AggKind::kSum, 1, "sx"};
  GroupByOp::AggSpec sy{AggKind::kSum, 2, "sy"};
  GroupByOp::AggSpec sw{AggKind::kSum, 3, "n"};
  GroupByOp::Params local_sums;
  local_sums.key_fields = {0};
  local_sums.aggs = {sx, sy, sw};
  local_sums.mode = GroupByOp::Mode::kPersistent;
  int partials = plan.AddGroupBy(join, local_sums);

  RehashOp::Params to_owner;
  to_owner.key_fields = {0};
  int routed = plan.AddRehash(partials, to_owner);

  GroupByOp::Params global_sums;
  global_sums.key_fields = {0};
  global_sums.aggs = {sx, sy, sw};
  global_sums.mode = GroupByOp::Mode::kPersistent;
  int agg = plan.AddGroupBy(routed, global_sums);

  // ... drop emptied centroids, average, and loop back (already
  // partitioned by cid).
  int nonempty = plan.AddFilter(
      agg, Expr::Binary(BinOp::kGt, Expr::Column(3, "n"),
                        Expr::Const(Value(int64_t{0}))));
  int averaged = plan.AddProject(
      nonempty,
      {Expr::Column(0, "cid"),
       Expr::Binary(BinOp::kDiv, Expr::Column(1, "sx"), Expr::Column(3, "n")),
       Expr::Binary(BinOp::kDiv, Expr::Column(2, "sy"),
                    Expr::Column(3, "n"))});
  plan.ConnectRecursive(fp, averaged);

  REX_RETURN_NOT_OK(plan.Validate());
  return plan;
}

Status LoadPointsTable(Cluster* cluster, std::vector<Tuple> points) {
  return cluster->CreateTable(
      "points",
      Schema{{"pid", ValueType::kInt},
             {"x", ValueType::kDouble},
             {"y", ValueType::kDouble}},
      /*key_column=*/0, std::move(points));
}

Result<std::vector<std::pair<double, double>>> CentroidsFromState(
    const std::vector<Tuple>& fixpoint_state) {
  std::vector<std::pair<int64_t, std::pair<double, double>>> entries;
  for (const Tuple& t : fixpoint_state) {
    if (t.size() < 3) return Status::Internal("bad centroid tuple");
    REX_ASSIGN_OR_RETURN(int64_t cid, t.field(0).ToInt());
    REX_ASSIGN_OR_RETURN(double x, t.field(1).ToDouble());
    REX_ASSIGN_OR_RETURN(double y, t.field(2).ToDouble());
    entries.push_back({cid, {x, y}});
  }
  std::sort(entries.begin(), entries.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  std::vector<std::pair<double, double>> out;
  out.reserve(entries.size());
  for (auto& [cid, xy] : entries) out.push_back(xy);
  return out;
}

}  // namespace rex
