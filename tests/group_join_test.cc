// Group-join fusion (DESIGN.md "Group-join"): a hash join fused into its
// same-worker built-in group-by folds its output rows straight into the
// groups. The fold must be exactly the one Consume runs, the group-by must
// reject rows too short for its fields, and min/max's buffered state must
// answer exactly as the ordered multiset it defers.
#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <set>

#include "algos/pagerank.h"
#include "cluster/cluster.h"
#include "common/rng.h"
#include "data/generators.h"
#include "engine/local_plan.h"
#include "exec/aggregates.h"
#include "exec/group_by.h"
#include "exec/hash_join.h"
#include "exec/operators.h"
#include "rql/compiler.h"

namespace rex {
namespace {

class Harness {
 public:
  Harness() : network_(1) {
    ctx_.worker_id = 0;
    ctx_.network = &network_;
    ctx_.pmap = &pmap_;
    ctx_.udfs = &udfs_;
    ctx_.storage = &storage_;
    ctx_.metrics = &metrics_;
    ctx_.votes = &votes_;
    ctx_.checkpoints = &checkpoints_;
    ctx_.config = &config_;
  }

  ExecContext* ctx() { return &ctx_; }
  UdfRegistry* udfs() { return &udfs_; }
  StorageCatalog* storage() { return &storage_; }

 private:
  Network network_;
  PartitionMap pmap_{{0}, 1};
  UdfRegistry udfs_;
  StorageCatalog storage_;
  MetricsRegistry metrics_;
  VoteBoard votes_;
  CheckpointStore checkpoints_;
  EngineConfig config_;
  ExecContext ctx_;
};

/// Records every delta it consumes, in order.
class CaptureOp : public Operator {
 public:
  explicit CaptureOp(int id) : Operator(id, 1) {}
  const char* name() const override { return "capture"; }
  Status ConsumeDeltas(int, DeltaVec deltas) override {
    for (Delta& d : deltas) captured.push_back(std::move(d));
    return Status::OK();
  }
  DeltaVec captured;
};

/// A uniform draw from [lo, hi].
int64_t Pick(Rng* rng, int64_t lo, int64_t hi) {
  return lo + static_cast<int64_t>(
                  rng->NextBelow(static_cast<uint64_t>(hi - lo + 1)));
}

/// Equality down to the type tag and the bits of a double (Value's own ==
/// says 1 == 1.0).
bool SameBits(const Value& a, const Value& b) {
  if (a.type() != b.type()) return false;
  if (a.type() != ValueType::kDouble) return a == b;
  const double x = a.AsDouble();
  const double y = b.AsDouble();
  return std::memcmp(&x, &y, sizeof(double)) == 0;
}

bool SameBits(const Tuple& a, const Tuple& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (!SameBits(a.field(i), b.field(i))) return false;
  }
  return true;
}

void ExpectSameDeltas(const DeltaVec& got, const DeltaVec& want,
                      const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_TRUE(got[i].op == want[i].op && got[i].weight == want[i].weight &&
                SameBits(got[i].tuple, want[i].tuple) &&
                SameBits(got[i].old_tuple, want[i].old_tuple))
        << what << " delta " << i << ": " << got[i].ToString() << " vs "
        << want[i].ToString();
  }
}

GroupByOp::Params AllFiveAggregates(GroupByOp::Mode mode) {
  GroupByOp::Params params;
  params.key_fields = {0};
  params.aggs = {{AggKind::kSum, 1, "sum"},
                 {AggKind::kCount, -1, "n"},
                 {AggKind::kMin, 1, "min"},
                 {AggKind::kMax, 1, "max"},
                 {AggKind::kAvg, 1, "avg"}};
  params.mode = mode;
  return params;
}

/// A row the replay handler writes, and whether it goes through Add (a
/// whole Delta) or AddRow (a plain row).
struct ScriptedDelta {
  Delta delta;
  bool via_add = false;
};

/// One wave of a random stream over rows (key, x): +() with weights 0, 1,
/// 3 and negative, -(), ->() within a key and across keys, and δ(); x is
/// an int or a double, with ties such as 2 and 2.0. Deletions only name
/// rows `live` holds, so min/max never see a delete of an absent value.
std::vector<ScriptedDelta> RandomWave(Rng* rng, int steps,
                                      std::multiset<Tuple>* live) {
  auto random_row = [&](int64_t key) {
    const int64_t x = Pick(rng, -4, 4);
    switch (Pick(rng, 0, 2)) {
      case 0:
        return Tuple{Value(key), Value(x)};
      case 1:
        return Tuple{Value(key), Value(static_cast<double>(x))};
      default:
        return Tuple{Value(key), Value(static_cast<double>(x) + 0.25)};
    }
  };
  auto pick_live = [&]() {
    auto it = live->begin();
    std::advance(it, Pick(rng, 0, static_cast<int64_t>(live->size()) - 1));
    return *it;
  };
  std::vector<ScriptedDelta> out;
  for (int i = 0; i < steps; ++i) {
    const int64_t key = Pick(rng, 0, 5);
    ScriptedDelta s;
    s.via_add = Pick(rng, 0, 1) == 1;
    const int64_t kind = live->empty() ? 0 : Pick(rng, 0, 6);
    if (kind == 0 || kind == 1) {
      const int64_t weights[] = {0, 1, 1, 3};
      Tuple row = random_row(key);
      const int64_t w = weights[Pick(rng, 0, 3)];
      for (int64_t c = 0; c < w; ++c) live->insert(row);
      s.delta = Delta{DeltaOp::kInsert, std::move(row), {}, w};
    } else if (kind == 2) {
      // δ(): a plain insert under the hidden-attribute rule.
      Tuple row = random_row(key);
      const int64_t w = Pick(rng, 0, 1) == 1 ? 1 : 3;
      for (int64_t c = 0; c < w; ++c) live->insert(row);
      s.delta = Delta{DeltaOp::kUpdate, std::move(row), {}, w};
    } else if (kind == 3 || kind == 4) {
      // A deletion: -() of weight 1 or 2, or +() of a negative weight.
      Tuple row = pick_live();
      const int64_t copies = static_cast<int64_t>(live->count(row));
      const int64_t w = copies >= 2 && Pick(rng, 0, 1) == 1 ? 2 : 1;
      for (int64_t c = 0; c < w; ++c) live->erase(live->find(row));
      s.delta = kind == 3 ? Delta{DeltaOp::kDelete, std::move(row), {}, w}
                          : Delta{DeltaOp::kInsert, std::move(row), {}, -w};
    } else {
      // ->(t'): within the old row's key (kind 5) or into another (kind 6).
      Tuple old_row = pick_live();
      const int64_t new_key =
          kind == 5 ? old_row.field(0).AsInt() : (key + 1) % 6;
      Tuple row = random_row(new_key);
      live->erase(live->find(old_row));
      live->insert(row);
      s.delta = Delta::Replace(std::move(old_row), std::move(row));
      s.via_add = true;
    }
    out.push_back(std::move(s));
  }
  return out;
}

/// A join whose handler replays script chunk `i` into its sink on δ(0, i).
std::unique_ptr<HashJoinOp> ReplayJoin(int id) {
  HashJoinOp::Params params;
  params.left_keys = {0};
  params.right_keys = {0};
  params.immutable[0] = true;
  params.handler = "GroupJoinReplay";
  return std::make_unique<HashJoinOp>(id, params);
}

TEST(GroupJoinTest, FusedAndUnfusedFoldsAgreeExactly) {
  for (GroupByOp::Mode mode :
       {GroupByOp::Mode::kStratum, GroupByOp::Mode::kPersistent}) {
    for (uint64_t seed = 1; seed <= 12; ++seed) {
      SCOPED_TRACE(std::string(mode == GroupByOp::Mode::kStratum
                                   ? "stratum"
                                   : "persistent") +
                   " seed " + std::to_string(seed));
      Harness h;
      std::vector<std::vector<ScriptedDelta>> chunks;
      JoinHandler replay;
      replay.name = "GroupJoinReplay";
      replay.update = [&chunks](TupleSet*, TupleSet*, const Delta& d,
                                DeltaSink* out) -> Status {
        for (const ScriptedDelta& s :
             chunks[static_cast<size_t>(d.tuple.field(1).AsInt())]) {
          if (s.via_add) {
            REX_RETURN_NOT_OK(out->Add(s.delta));
          } else {
            REX_RETURN_NOT_OK(out->AddRow(s.delta.op, s.delta.tuple.fields(),
                                          s.delta.weight));
          }
        }
        return Status::OK();
      };
      ASSERT_TRUE(h.udfs()->RegisterJoinHandler(replay).ok());

      // Three arms: join fused into its group-by, join Emit-ing into it,
      // and the same rows delivered by Consume.
      auto fused_join = ReplayJoin(0);
      auto emit_join = ReplayJoin(1);
      GroupByOp fused_gb(2, AllFiveAggregates(mode));
      GroupByOp emit_gb(3, AllFiveAggregates(mode));
      GroupByOp direct_gb(4, AllFiveAggregates(mode));
      CaptureOp fused_out(5), emit_out(6), direct_out(7);
      fused_join->AddOutput(&fused_gb, 0);
      emit_join->AddOutput(&emit_gb, 0);
      fused_gb.AddOutput(&fused_out, 0);
      emit_gb.AddOutput(&emit_out, 0);
      direct_gb.AddOutput(&direct_out, 0);
      for (Operator* op : std::initializer_list<Operator*>{
               fused_join.get(), emit_join.get(), &fused_gb, &emit_gb,
               &direct_gb, &fused_out, &emit_out, &direct_out}) {
        ASSERT_TRUE(op->Open(h.ctx()).ok());
      }
      ASSERT_NE(fused_gb.fused_input(), nullptr);
      fused_join->FuseInto(&fused_gb, 0);

      Rng rng(seed);
      std::multiset<Tuple> live;
      Punctuation punct;
      punct.kind = Punctuation::Kind::kEndOfStratum;
      int64_t rows = 0;
      for (int wave = 0; wave < 6; ++wave) {
        if (mode == GroupByOp::Mode::kStratum) live.clear();
        const int batches = static_cast<int>(Pick(&rng, 1, 4));
        for (int b = 0; b < batches; ++b) {
          const int64_t chunk = static_cast<int64_t>(chunks.size());
          chunks.push_back(RandomWave(
              &rng, static_cast<int>(Pick(&rng, 0, 40)), &live));
          DeltaVec direct;
          for (const ScriptedDelta& s : chunks.back()) {
            direct.push_back(s.delta);
          }
          rows += static_cast<int64_t>(direct.size());
          const DeltaVec probe = {Delta::Update(Tuple{Value(0), Value(chunk)})};
          ASSERT_TRUE(fused_join->Consume(1, probe).ok());
          ASSERT_TRUE(emit_join->Consume(1, probe).ok());
          if (!direct.empty()) {
            ASSERT_TRUE(direct_gb.Consume(0, std::move(direct)).ok());
          }
        }
        for (GroupByOp* gb : {&fused_gb, &emit_gb, &direct_gb}) {
          ASSERT_TRUE(gb->OnPunct(0, punct).ok());
        }
        ASSERT_FALSE(HasFatalFailure());
        ExpectSameDeltas(fused_out.captured, direct_out.captured, "fused");
        ExpectSameDeltas(emit_out.captured, direct_out.captured, "emit");
      }
      // The fused group-by counts its input as Consume would, and the join
      // counts what it folded as emitted.
      EXPECT_EQ(fused_join->deltas_emitted(), rows);
      EXPECT_EQ(emit_join->deltas_emitted(), rows);
      EXPECT_EQ(fused_gb.port_stats()[0].tuples, rows);
      EXPECT_EQ(fused_gb.port_stats()[0].batches,
                emit_gb.port_stats()[0].batches);
      EXPECT_EQ(fused_gb.port_stats()[0].consume_nanos, 0);
    }
  }
}

TEST(GroupJoinTest, AddRowRejectsAReplace) {
  Harness h;
  GroupByOp gb(0, AllFiveAggregates(GroupByOp::Mode::kStratum));
  ASSERT_TRUE(gb.Open(h.ctx()).ok());
  const Value row[] = {Value(1), Value(2)};
  Status st = gb.fused_input()->AddRow(DeltaOp::kReplace, row, 1);
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument) << st.ToString();
}

TEST(GroupJoinTest, PlanFusesAJoinOnlyIntoItsSoleBuiltinGroupBy) {
  Harness h;
  ASSERT_TRUE(RegisterBuiltins(h.udfs()).ok());
  for (const char* name : {"l", "r"}) {
    auto table = std::make_shared<DistributedTable>(
        name, Schema{{"k", ValueType::kInt}, {"x", ValueType::kInt}}, 0);
    std::vector<Tuple> rows;
    for (int64_t i = 0; i < 12; ++i) {
      rows.push_back(Tuple{Value(i % 4), Value(i)});
    }
    table->AppendRows(std::move(rows));
    ASSERT_TRUE(h.storage()->AddTable(table).ok());
  }
  PlanSpec spec;
  const int l = spec.AddScan({"l"});
  const int r = spec.AddScan({"r"});
  HashJoinOp::Params jp;
  jp.left_keys = {0};
  jp.right_keys = {0};
  GroupByOp::Params sum;
  sum.key_fields = {0};
  sum.aggs = {{AggKind::kSum, 3, "s"}};
  GroupByOp::Params argmin;
  argmin.key_fields = {0};
  argmin.uda = "ArgMin";
  argmin.uda_input_fields = {1, 3};
  // Fused: the join's only consumer is a built-in group-by.
  const int fused = spec.AddGroupBy(spec.AddHashJoin(l, r, jp), sum);
  spec.AddSink(fused);
  // Not fused: a UDA group-by.
  const int uda = spec.AddGroupBy(spec.AddHashJoin(l, r, jp), argmin);
  spec.AddSink(uda);
  // Not fused: the join has a second consumer.
  const int shared_join = spec.AddHashJoin(l, r, jp);
  const int shared = spec.AddGroupBy(shared_join, sum);
  spec.AddSink(shared);
  spec.AddSink(shared_join);
  ASSERT_TRUE(spec.Validate().ok());

  auto plan = LocalPlan::Instantiate(spec, h.ctx());
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  ASSERT_TRUE((*plan)->StartStratum(0).ok());
  // 4 keys × 3 rows a side: 36 joined rows reach each group-by. Only the
  // fused one folds them outside its own Consume.
  for (int id : {fused, uda, shared}) {
    const OperatorPortStats& port = (*plan)->op(id)->port_stats()[0];
    EXPECT_EQ(port.tuples, 36) << "group-by " << id;
    EXPECT_GT(port.batches, 0) << "group-by " << id;
    if (id == fused) {
      EXPECT_EQ(port.consume_nanos, 0) << "group-by " << id;
    } else {
      EXPECT_GT(port.consume_nanos, 0) << "group-by " << id;
    }
  }
  // Each group-by emitted one row per key at the scans' end of stream.
  for (int id : {fused, uda, shared}) {
    EXPECT_EQ((*plan)->op(id)->deltas_emitted(), 4) << "group-by " << id;
  }
}

// ------------------------------------------------------- short rows --

TEST(GroupJoinTest, ShortRowIsInvalidArgumentOnBothPaths) {
  Harness h;
  GroupByOp::Params params;
  params.key_fields = {0};
  params.aggs = {{AggKind::kSum, 2, "s"}};
  GroupByOp gb(7, params);
  ASSERT_TRUE(gb.Open(h.ctx()).ok());
  Status consumed =
      gb.Consume(0, {Delta::Update(Tuple{Value(1), Value(0.5)})});
  EXPECT_EQ(consumed.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(consumed.message().find("op 7"), std::string::npos)
      << consumed.ToString();
  EXPECT_NE(consumed.message().find("field 2"), std::string::npos)
      << consumed.ToString();
  EXPECT_NE(consumed.message().find("arity 2"), std::string::npos)
      << consumed.ToString();
  const Value row[] = {Value(1), Value(0.5)};
  Status fused = gb.fused_input()->AddRow(DeltaOp::kUpdate, row, 1);
  EXPECT_EQ(fused.code(), StatusCode::kInvalidArgument) << fused.ToString();
  // A replace's old row is read too.
  Status replaced = gb.Consume(
      0, {Delta::Replace(Tuple{Value(1), Value(0)},
                         Tuple{Value(1), Value(0), Value(2.0)})});
  EXPECT_EQ(replaced.code(), StatusCode::kInvalidArgument)
      << replaced.ToString();
  EXPECT_EQ(gb.NumGroups(), 0u);
}

TEST(GroupJoinTest, RqlPreAggregateOverAShortHandlerRowFails) {
  // PRJoin writes (nbr, share); the query claims a third column and sums
  // it. The query compiles (built-in handlers declare no out_schema), and
  // the pre-aggregate must refuse to read past the row.
  GraphGenOptions opt;
  opt.num_vertices = 60;
  opt.num_edges = 240;
  opt.seed = 7;
  GraphData graph = GenerateRmatGraph(opt);
  EngineConfig cfg;
  cfg.num_workers = 2;
  Cluster cluster(cfg);
  ASSERT_TRUE(LoadGraphTables(&cluster, graph).ok());
  ASSERT_TRUE(RegisterPageRankUdfs(cluster.udfs(), PageRankConfig{}).ok());
  rql::CompileContext ctx;
  ctx.storage = cluster.storage();
  ctx.udfs = cluster.udfs();
  auto compiled = rql::CompileRql(
      "WITH PR (v, diff) AS ("
      "  SELECT v, 0.15 FROM vertices"
      ") UNION ALL UNTIL FIXPOINT BY v USING PRFix ("
      "  SELECT nbr, sum(extra) FROM ("
      "    SELECT PRJoin(v, diff).{nbr, share, extra}"
      "    FROM graph, PR WHERE graph.src = PR.v GROUP BY src)"
      "  GROUP BY nbr)",
      ctx);
  ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
  auto run = cluster.Run(compiled->spec);
  ASSERT_FALSE(run.ok());
  EXPECT_EQ(run.status().code(), StatusCode::kInvalidArgument)
      << run.status().ToString();
}

// ------------------------------------------------------- min / max --

/// The multiset the buffered state defers: begin() is the first minimum,
/// rbegin() the last maximum.
Value MultisetCurrent(const std::multiset<Value>& values, bool is_min) {
  if (values.empty()) return Value::Null();
  return is_min ? *values.begin() : *values.rbegin();
}

TEST(MinMaxBufferTest, MatchesTheMultisetOnRandomSequences) {
  for (AggKind kind : {AggKind::kMin, AggKind::kMax}) {
    const bool is_min = kind == AggKind::kMin;
    const AggFunction* fn = GetAggFunction(kind);
    for (uint64_t seed = 1; seed <= 40; ++seed) {
      SCOPED_TRACE(std::string(AggKindName(kind)) + " seed " +
                   std::to_string(seed));
      Rng rng(seed);
      auto state = fn->NewState();
      std::multiset<Value> ref;
      for (int step = 0; step < 200; ++step) {
        const int64_t roll = Pick(&rng, 0, 19);
        const int64_t x = Pick(&rng, 0, 6);
        const Value v = roll == 0   ? Value::Null()
                        : roll < 8 ? Value(x)
                        : roll < 12 ? Value(static_cast<double>(x))
                                    : Value(static_cast<double>(x) + 0.5);
        if (roll == 19) {
          fn->Reset(state.get());
          ref.clear();
        } else if (roll >= 14 && !ref.empty()) {
          // Delete a value the state holds, or (1 in 6) one it may not.
          auto it = ref.begin();
          std::advance(it, Pick(&rng, 
                               0, static_cast<int64_t>(ref.size()) - 1));
          const Value target = roll == 18 ? v : *it;
          auto found = ref.find(target);
          Status st = fn->Delete(state.get(), target);
          if (target.is_null()) {
            EXPECT_TRUE(st.ok());
          } else if (found == ref.end()) {
            EXPECT_EQ(st.code(), StatusCode::kNotFound);
          } else {
            EXPECT_TRUE(st.ok()) << st.ToString();
            ref.erase(found);
          }
        } else {
          ASSERT_TRUE(fn->Insert(state.get(), v).ok());
          if (!v.is_null()) ref.insert(v);
        }
        auto current = fn->Current(state.get());
        ASSERT_TRUE(current.ok());
        ASSERT_TRUE(SameBits(*current, MultisetCurrent(ref, is_min)))
            << "step " << step << ": " << current->ToString() << " vs "
            << MultisetCurrent(ref, is_min).ToString();
        ASSERT_EQ(fn->Count(state.get()), static_cast<int64_t>(ref.size()));
      }
    }
  }
}

TEST(MinMaxBufferTest, TiesBetweenIntAndDoubleKeepTheMultisetsPick) {
  const AggFunction* min = GetAggFunction(AggKind::kMin);
  const AggFunction* max = GetAggFunction(AggKind::kMax);
  auto lo = min->NewState();
  auto hi = max->NewState();
  for (const Value& v : {Value(3), Value(1), Value(1.0), Value(3.0)}) {
    ASSERT_TRUE(min->Insert(lo.get(), v).ok());
    ASSERT_TRUE(max->Insert(hi.get(), v).ok());
  }
  // The first of the equal minima, the last of the equal maxima.
  EXPECT_TRUE(SameBits(*min->Current(lo.get()), Value(1)));
  EXPECT_TRUE(SameBits(*max->Current(hi.get()), Value(3.0)));
  // A delete builds the multiset; it removes the first equal value.
  ASSERT_TRUE(min->Delete(lo.get(), Value(1.0)).ok());
  ASSERT_TRUE(max->Delete(hi.get(), Value(3)).ok());
  EXPECT_TRUE(SameBits(*min->Current(lo.get()), Value(1.0)));
  EXPECT_TRUE(SameBits(*max->Current(hi.get()), Value(3.0)));
  ASSERT_TRUE(max->Insert(hi.get(), Value(3)).ok());
  EXPECT_TRUE(SameBits(*max->Current(hi.get()), Value(3)));
}

TEST(MinMaxBufferTest, NullsAreSkipped) {
  const AggFunction* min = GetAggFunction(AggKind::kMin);
  auto s = min->NewState();
  ASSERT_TRUE(min->Insert(s.get(), Value::Null()).ok());
  EXPECT_EQ(min->Count(s.get()), 0);
  EXPECT_TRUE(min->Current(s.get())->is_null());
  ASSERT_TRUE(min->Insert(s.get(), Value(4)).ok());
  ASSERT_TRUE(min->Insert(s.get(), Value::Null()).ok());
  ASSERT_TRUE(min->Delete(s.get(), Value::Null()).ok());
  EXPECT_EQ(min->Count(s.get()), 1);
  EXPECT_TRUE(SameBits(*min->Current(s.get()), Value(4)));
}

TEST(MinMaxBufferTest, DeleteOfAnAbsentValueIsNotFound) {
  const AggFunction* max = GetAggFunction(AggKind::kMax);
  auto s = max->NewState();
  EXPECT_EQ(max->Delete(s.get(), Value(1)).code(), StatusCode::kNotFound);
  ASSERT_TRUE(max->Insert(s.get(), Value(1)).ok());
  ASSERT_TRUE(max->Insert(s.get(), Value(2)).ok());
  EXPECT_EQ(max->Delete(s.get(), Value(5)).code(), StatusCode::kNotFound);
  EXPECT_EQ(max->Count(s.get()), 2);
  EXPECT_TRUE(SameBits(*max->Current(s.get()), Value(2)));
  EXPECT_EQ(max->Delete(s.get(), Value(5)).code(), StatusCode::kNotFound);
}

TEST(MinMaxBufferTest, ResetThenReuse) {
  const AggFunction* min = GetAggFunction(AggKind::kMin);
  auto s = min->NewState();
  ASSERT_TRUE(min->Insert(s.get(), Value(5)).ok());
  ASSERT_TRUE(min->Insert(s.get(), Value(3)).ok());
  ASSERT_TRUE(min->Delete(s.get(), Value(3)).ok());  // now ordered
  EXPECT_TRUE(SameBits(*min->Current(s.get()), Value(5)));
  min->Reset(s.get());
  EXPECT_EQ(min->Count(s.get()), 0);
  EXPECT_TRUE(min->Current(s.get())->is_null());
  EXPECT_EQ(min->Delete(s.get(), Value(5)).code(), StatusCode::kNotFound);
  min->Reset(s.get());
  ASSERT_TRUE(min->Insert(s.get(), Value(9)).ok());
  ASSERT_TRUE(min->Insert(s.get(), Value(7.0)).ok());
  EXPECT_TRUE(SameBits(*min->Current(s.get()), Value(7.0)));
  ASSERT_TRUE(min->Delete(s.get(), Value(7)).ok());
  EXPECT_TRUE(SameBits(*min->Current(s.get()), Value(9)));
  EXPECT_EQ(min->Count(s.get()), 1);
}

TEST(AggregateResetTest, EveryAggregateResetsToItsNewState) {
  for (AggKind kind : {AggKind::kSum, AggKind::kCount, AggKind::kMin,
                       AggKind::kMax, AggKind::kAvg}) {
    SCOPED_TRACE(AggKindName(kind));
    const AggFunction* fn = GetAggFunction(kind);
    auto fresh = fn->NewState();
    auto used = fn->NewState();
    ASSERT_TRUE(fn->ApplyWeighted(used.get(), Value(2.5), 3).ok());
    ASSERT_TRUE(fn->Insert(used.get(), Value(7)).ok());
    fn->Reset(used.get());
    EXPECT_EQ(fn->Count(used.get()), fn->Count(fresh.get()));
    EXPECT_TRUE(SameBits(*fn->Current(used.get()), *fn->Current(fresh.get())));
    // Reused after the reset, it folds like a fresh state.
    ASSERT_TRUE(fn->Insert(used.get(), Value(4)).ok());
    ASSERT_TRUE(fn->Insert(fresh.get(), Value(4)).ok());
    EXPECT_TRUE(SameBits(*fn->Current(used.get()), *fn->Current(fresh.get())));
  }
}

}  // namespace
}  // namespace rex
