// Operator-level unit tests: delta propagation rules through filter,
// project, join, group-by, and fixpoint (§3.3), plus applyFunction caching
// and batching, and regressions in the aggregate and TupleSet helpers.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>

#include "exec/aggregates.h"
#include "exec/expr.h"
#include "exec/fixpoint.h"
#include "exec/group_by.h"
#include "exec/hash_join.h"
#include "exec/operators.h"
#include "exec/tuple_set.h"

namespace rex {
namespace {

/// Minimal single-worker harness: a context plus a sink capturing output.
class OpHarness {
 public:
  OpHarness() : network_(1) {
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
  EngineConfig* config() { return &config_; }
  VoteBoard* votes() { return &votes_; }

  /// Wires `op` -> capture sink and opens both.
  void Open(Operator* op) {
    sink_ = std::make_unique<SinkOp>(999);
    op->AddOutput(sink_.get(), 0);
    ASSERT_TRUE(op->Open(&ctx_).ok());
    ASSERT_TRUE(sink_->Open(&ctx_).ok());
  }

  const TupleSet& results() const { return sink_->results(); }

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
  std::unique_ptr<SinkOp> sink_;
};

/// An output-recording operator for observing raw deltas.
class CaptureOp : public Operator {
 public:
  explicit CaptureOp(int id) : Operator(id, 1) {}
  const char* name() const override { return "capture"; }
  Status ConsumeDeltas(int, DeltaVec deltas) override {
    for (Delta& d : deltas) captured.push_back(std::move(d));
    return Status::OK();
  }
  std::vector<Punctuation> puncts;
  DeltaVec captured;

 protected:
  Status OnAllPunct(const Punctuation& p) override {
    puncts.push_back(p);
    return Status::OK();
  }
};

Punctuation Eos(int stratum = 0) {
  Punctuation p;
  p.kind = Punctuation::Kind::kEndOfStratum;
  p.stratum = stratum;
  return p;
}

// ----------------------------------------------------------------- Filter --

TEST(FilterOpTest, ReplaceSplitsIntoDeltaKinds) {
  OpHarness h;
  // predicate: $0 > 10
  FilterOp filter(0, Expr::Binary(BinOp::kGt, Expr::Column(0),
                                  Expr::Const(Value(10))));
  CaptureOp capture(1);
  filter.AddOutput(&capture, 0);
  ASSERT_TRUE(filter.Open(h.ctx()).ok());
  ASSERT_TRUE(capture.Open(h.ctx()).ok());

  DeltaVec in;
  in.push_back(Delta::Replace(Tuple{Value(20)}, Tuple{Value(30)}));  // both
  in.push_back(Delta::Replace(Tuple{Value(5)}, Tuple{Value(30)}));   // new
  in.push_back(Delta::Replace(Tuple{Value(20)}, Tuple{Value(3)}));   // old
  in.push_back(Delta::Replace(Tuple{Value(1)}, Tuple{Value(2)}));    // none
  ASSERT_TRUE(filter.Consume(0, std::move(in)).ok());

  ASSERT_EQ(capture.captured.size(), 3u);
  EXPECT_EQ(capture.captured[0].op, DeltaOp::kReplace);
  EXPECT_EQ(capture.captured[1].op, DeltaOp::kInsert);
  EXPECT_EQ(capture.captured[1].tuple, Tuple{Value(30)});
  EXPECT_EQ(capture.captured[2].op, DeltaOp::kDelete);
  EXPECT_EQ(capture.captured[2].tuple, Tuple{Value(20)});
}

TEST(FilterOpTest, InsertAndDeletePassAnnotationsThrough) {
  OpHarness h;
  FilterOp filter(0, Expr::Binary(BinOp::kLt, Expr::Column(0),
                                  Expr::Const(Value(100))));
  CaptureOp capture(1);
  filter.AddOutput(&capture, 0);
  ASSERT_TRUE(filter.Open(h.ctx()).ok());
  ASSERT_TRUE(capture.Open(h.ctx()).ok());
  DeltaVec in;
  in.push_back(Delta::Insert(Tuple{Value(1)}));
  in.push_back(Delta::Delete(Tuple{Value(2)}));
  in.push_back(Delta::Update(Tuple{Value(3)}));
  in.push_back(Delta::Insert(Tuple{Value(500)}));  // filtered out
  ASSERT_TRUE(filter.Consume(0, std::move(in)).ok());
  ASSERT_EQ(capture.captured.size(), 3u);
  EXPECT_EQ(capture.captured[0].op, DeltaOp::kInsert);
  EXPECT_EQ(capture.captured[1].op, DeltaOp::kDelete);
  EXPECT_EQ(capture.captured[2].op, DeltaOp::kUpdate);
}

// ---------------------------------------------------------------- Project --

TEST(ProjectOpTest, TransformsBothSidesOfReplace) {
  OpHarness h;
  ProjectOp project(
      0, {Expr::Binary(BinOp::kMul, Expr::Column(0), Expr::Const(Value(2)))});
  CaptureOp capture(1);
  project.AddOutput(&capture, 0);
  ASSERT_TRUE(project.Open(h.ctx()).ok());
  ASSERT_TRUE(capture.Open(h.ctx()).ok());
  DeltaVec in;
  in.push_back(Delta::Replace(Tuple{Value(3)}, Tuple{Value(4)}));
  ASSERT_TRUE(project.Consume(0, std::move(in)).ok());
  ASSERT_EQ(capture.captured.size(), 1u);
  EXPECT_EQ(capture.captured[0].tuple, Tuple{Value(8)});
  EXPECT_EQ(capture.captured[0].old_tuple, Tuple{Value(6)});
}

// -------------------------------------------------------------- HashJoin --

class JoinHarness : public ::testing::Test {
 protected:
  void SetUp() override {
    HashJoinOp::Params params;
    params.left_keys = {0};
    params.right_keys = {0};
    join_ = std::make_unique<HashJoinOp>(0, params);
    capture_ = std::make_unique<CaptureOp>(1);
    join_->AddOutput(capture_.get(), 0);
    ASSERT_TRUE(join_->Open(h_.ctx()).ok());
    ASSERT_TRUE(capture_->Open(h_.ctx()).ok());
  }

  OpHarness h_;
  std::unique_ptr<HashJoinOp> join_;
  std::unique_ptr<CaptureOp> capture_;
};

TEST_F(JoinHarness, InsertProbesOppositeSide) {
  ASSERT_TRUE(
      join_->Consume(0, {Delta::Insert(Tuple{Value(1), Value("l")})}).ok());
  EXPECT_TRUE(capture_->captured.empty());  // nothing on the right yet
  ASSERT_TRUE(
      join_->Consume(1, {Delta::Insert(Tuple{Value(1), Value("r")})}).ok());
  ASSERT_EQ(capture_->captured.size(), 1u);
  Tuple expect{Value(1), Value("l"), Value(1), Value("r")};
  EXPECT_EQ(capture_->captured[0].tuple, expect);
  EXPECT_EQ(capture_->captured[0].op, DeltaOp::kInsert);
}

TEST_F(JoinHarness, DeleteEmitsDeleteJoins) {
  ASSERT_TRUE(
      join_->Consume(0, {Delta::Insert(Tuple{Value(1), Value("l")})}).ok());
  ASSERT_TRUE(
      join_->Consume(1, {Delta::Insert(Tuple{Value(1), Value("r")})}).ok());
  capture_->captured.clear();
  ASSERT_TRUE(
      join_->Consume(0, {Delta::Delete(Tuple{Value(1), Value("l")})}).ok());
  ASSERT_EQ(capture_->captured.size(), 1u);
  EXPECT_EQ(capture_->captured[0].op, DeltaOp::kDelete);
  // Deleted from state: a new right insert finds no left match.
  capture_->captured.clear();
  ASSERT_TRUE(
      join_->Consume(1, {Delta::Insert(Tuple{Value(1), Value("r2")})}).ok());
  EXPECT_TRUE(capture_->captured.empty());
}

TEST_F(JoinHarness, ReplaceSameKeyEmitsReplacements) {
  ASSERT_TRUE(
      join_->Consume(0, {Delta::Insert(Tuple{Value(1), Value("a")})}).ok());
  ASSERT_TRUE(
      join_->Consume(1, {Delta::Insert(Tuple{Value(1), Value("x")})}).ok());
  capture_->captured.clear();
  ASSERT_TRUE(join_->Consume(0, {Delta::Replace(Tuple{Value(1), Value("a")},
                                                Tuple{Value(1), Value("b")})})
                  .ok());
  ASSERT_EQ(capture_->captured.size(), 1u);
  EXPECT_EQ(capture_->captured[0].op, DeltaOp::kReplace);
  Tuple expect_new{Value(1), Value("b"), Value(1), Value("x")};
  Tuple expect_old{Value(1), Value("a"), Value(1), Value("x")};
  EXPECT_EQ(capture_->captured[0].tuple, expect_new);
  EXPECT_EQ(capture_->captured[0].old_tuple, expect_old);
}

TEST_F(JoinHarness, ReplaceAcrossKeysBecomesDeleteInsert) {
  ASSERT_TRUE(
      join_->Consume(1, {Delta::Insert(Tuple{Value(1), Value("x")})}).ok());
  ASSERT_TRUE(
      join_->Consume(1, {Delta::Insert(Tuple{Value(2), Value("y")})}).ok());
  ASSERT_TRUE(
      join_->Consume(0, {Delta::Insert(Tuple{Value(1), Value("a")})}).ok());
  capture_->captured.clear();
  // Move the left tuple from key 1 to key 2.
  ASSERT_TRUE(join_->Consume(0, {Delta::Replace(Tuple{Value(1), Value("a")},
                                                Tuple{Value(2), Value("a")})})
                  .ok());
  ASSERT_EQ(capture_->captured.size(), 2u);
  EXPECT_EQ(capture_->captured[0].op, DeltaOp::kDelete);
  EXPECT_EQ(capture_->captured[1].op, DeltaOp::kInsert);
}

TEST_F(JoinHarness, UpdateWithoutHandlerActsAsHiddenAttribute) {
  ASSERT_TRUE(
      join_->Consume(1, {Delta::Insert(Tuple{Value(1), Value("x")})}).ok());
  ASSERT_TRUE(
      join_->Consume(0, {Delta::Update(Tuple{Value(1), Value("u")})}).ok());
  ASSERT_EQ(capture_->captured.size(), 1u);
  EXPECT_EQ(capture_->captured[0].op, DeltaOp::kUpdate);
}

TEST(HashJoinHandlerTest, HandlerReceivesBucketsAndControlsState) {
  OpHarness h;
  JoinHandler handler;
  handler.name = "TestJoin";
  handler.update = [](TupleSet* mine, TupleSet* other,
                      const Delta& d) -> Result<DeltaVec> {
    // Emit the opposite bucket size; never store the delta.
    (void)mine;
    return DeltaVec{Delta::Update(
        Tuple{d.tuple.field(0), Value(static_cast<int64_t>(other->size()))})};
  };
  ASSERT_TRUE(h.udfs()->RegisterJoinHandler(handler).ok());

  HashJoinOp::Params params;
  params.left_keys = {0};
  params.right_keys = {0};
  params.immutable[0] = true;
  params.handler = "TestJoin";
  HashJoinOp join(0, params);
  CaptureOp capture(1);
  join.AddOutput(&capture, 0);
  ASSERT_TRUE(join.Open(h.ctx()).ok());
  ASSERT_TRUE(capture.Open(h.ctx()).ok());

  // Build the immutable left side: two tuples under key 7.
  ASSERT_TRUE(join.Consume(0, {Delta::Insert(Tuple{Value(7), Value(1)}),
                               Delta::Insert(Tuple{Value(7), Value(2)})})
                  .ok());
  EXPECT_TRUE(capture.captured.empty());  // immutable side never probes
  ASSERT_TRUE(join.Consume(1, {Delta::Update(Tuple{Value(7), Value(0)})}).ok());
  ASSERT_EQ(capture.captured.size(), 1u);
  EXPECT_EQ(capture.captured[0].tuple.field(1), Value(2));
  EXPECT_EQ(join.StateSize(), 2u);  // the handler stored nothing
}

// --------------------------------------------------------------- GroupBy --

TEST(GroupByOpTest, StratumModeAggregatesAndResets) {
  OpHarness h;
  GroupByOp::Params params;
  params.key_fields = {0};
  params.aggs = {{AggKind::kSum, 1, "s"}, {AggKind::kCount, -1, "c"}};
  params.mode = GroupByOp::Mode::kStratum;
  GroupByOp gb(0, params);
  CaptureOp capture(1);
  gb.AddOutput(&capture, 0);
  ASSERT_TRUE(gb.Open(h.ctx()).ok());
  ASSERT_TRUE(capture.Open(h.ctx()).ok());

  ASSERT_TRUE(gb.Consume(0, {Delta::Insert(Tuple{Value(1), Value(10)}),
                             Delta::Insert(Tuple{Value(1), Value(5)}),
                             Delta::Insert(Tuple{Value(2), Value(7)})})
                  .ok());
  EXPECT_TRUE(capture.captured.empty());  // emits only at stratum end
  ASSERT_TRUE(gb.OnPunct(0, Eos()).ok());
  ASSERT_EQ(capture.captured.size(), 2u);
  EXPECT_EQ(gb.NumGroups(), 0u);  // stratum mode resets

  // Next wave aggregates fresh.
  capture.captured.clear();
  ASSERT_TRUE(gb.Consume(0, {Delta::Insert(Tuple{Value(1), Value(1)})}).ok());
  ASSERT_TRUE(gb.OnPunct(0, Eos(1)).ok());
  ASSERT_EQ(capture.captured.size(), 1u);
  Tuple expect{Value(1), Value(1), Value(int64_t{1})};
  EXPECT_EQ(capture.captured[0].tuple, expect);
}

TEST(GroupByOpTest, PersistentModeEmitsTransitions) {
  OpHarness h;
  GroupByOp::Params params;
  params.key_fields = {0};
  params.aggs = {{AggKind::kSum, 1, "s"}};
  params.mode = GroupByOp::Mode::kPersistent;
  GroupByOp gb(0, params);
  CaptureOp capture(1);
  gb.AddOutput(&capture, 0);
  ASSERT_TRUE(gb.Open(h.ctx()).ok());
  ASSERT_TRUE(capture.Open(h.ctx()).ok());

  ASSERT_TRUE(gb.Consume(0, {Delta::Insert(Tuple{Value(1), Value(10)})}).ok());
  ASSERT_TRUE(gb.OnPunct(0, Eos(0)).ok());
  ASSERT_EQ(capture.captured.size(), 1u);
  EXPECT_EQ(capture.captured[0].op, DeltaOp::kInsert);

  // Second wave: sum changes -> replacement delta.
  ASSERT_TRUE(gb.Consume(0, {Delta::Insert(Tuple{Value(1), Value(5)})}).ok());
  ASSERT_TRUE(gb.OnPunct(0, Eos(1)).ok());
  ASSERT_EQ(capture.captured.size(), 2u);
  EXPECT_EQ(capture.captured[1].op, DeltaOp::kReplace);
  Tuple expect_new{Value(1), Value(15)};
  EXPECT_EQ(capture.captured[1].tuple, expect_new);

  // Third wave: delete everything -> group delete.
  ASSERT_TRUE(gb.Consume(0, {Delta::Delete(Tuple{Value(1), Value(10)}),
                             Delta::Delete(Tuple{Value(1), Value(5)})})
                  .ok());
  ASSERT_TRUE(gb.OnPunct(0, Eos(2)).ok());
  ASSERT_EQ(capture.captured.size(), 3u);
  EXPECT_EQ(capture.captured[2].op, DeltaOp::kDelete);

  // Untouched wave: silence.
  ASSERT_TRUE(gb.OnPunct(0, Eos(3)).ok());
  EXPECT_EQ(capture.captured.size(), 3u);
}

TEST(GroupByOpTest, ReplaceMigratesBetweenGroups) {
  OpHarness h;
  GroupByOp::Params params;
  params.key_fields = {0};
  params.aggs = {{AggKind::kSum, 1, "s"}};
  params.mode = GroupByOp::Mode::kStratum;
  GroupByOp gb(0, params);
  CaptureOp capture(1);
  gb.AddOutput(&capture, 0);
  ASSERT_TRUE(gb.Open(h.ctx()).ok());
  ASSERT_TRUE(capture.Open(h.ctx()).ok());

  ASSERT_TRUE(gb.Consume(0, {Delta::Insert(Tuple{Value(1), Value(10)}),
                             Delta::Insert(Tuple{Value(2), Value(20)})})
                  .ok());
  // Move the value 10 from group 1 to group 2.
  ASSERT_TRUE(gb.Consume(0, {Delta::Replace(Tuple{Value(1), Value(10)},
                                            Tuple{Value(2), Value(10)})})
                  .ok());
  ASSERT_TRUE(gb.OnPunct(0, Eos()).ok());
  // Group 1 is empty (not emitted in stratum mode); group 2 sums 30.
  ASSERT_EQ(capture.captured.size(), 1u);
  Tuple expect{Value(2), Value(30)};
  EXPECT_EQ(capture.captured[0].tuple, expect);
}

TEST(GroupByOpTest, UdaArgMinWithKeyPrefix) {
  OpHarness h;
  GroupByOp::Params params;
  params.key_fields = {0};
  params.uda = "ArgMin";
  params.uda_input_fields = {1, 2};  // ArgMin(id, value)
  params.prefix_group_key = true;
  GroupByOp gb(0, params);
  CaptureOp capture(1);
  gb.AddOutput(&capture, 0);
  ASSERT_TRUE(RegisterBuiltins(h.udfs()).ok());
  ASSERT_TRUE(gb.Open(h.ctx()).ok());
  ASSERT_TRUE(capture.Open(h.ctx()).ok());

  // (group, id, value): group 5 sees id 1 @ 3.0 and id 2 @ 1.5.
  ASSERT_TRUE(
      gb.Consume(0, {Delta::Insert(Tuple{Value(5), Value(1), Value(3.0)}),
                     Delta::Insert(Tuple{Value(5), Value(2), Value(1.5)})})
          .ok());
  ASSERT_TRUE(gb.OnPunct(0, Eos()).ok());
  ASSERT_EQ(capture.captured.size(), 1u);
  // Output: group key prefix + (argmin id, min value).
  Tuple expect{Value(5), Value(2), Value(1.5)};
  EXPECT_EQ(capture.captured[0].tuple, expect);
}

// -------------------------------------------------------------- Fixpoint --

TEST(FixpointOpTest, SetSemanticsDeduplicatesByKey) {
  OpHarness h;
  FixpointOp::Params params;
  params.key_fields = {0};
  FixpointOp fp(0, params);
  CaptureOp capture(1);
  fp.AddOutput(&capture, 0);
  ASSERT_TRUE(fp.Open(h.ctx()).ok());
  ASSERT_TRUE(capture.Open(h.ctx()).ok());

  ASSERT_TRUE(fp.Consume(FixpointOp::kBasePort,
                         {Delta::Insert(Tuple{Value(1), Value(10)}),
                          Delta::Insert(Tuple{Value(1), Value(10)}),  // dup
                          Delta::Insert(Tuple{Value(2), Value(20)})})
                  .ok());
  EXPECT_EQ(fp.StateSize(), 2u);
  EXPECT_EQ(fp.PendingSize(), 2u);

  // Flushing starts the next stratum: pending deltas plus punctuation.
  ASSERT_TRUE(fp.StartStratum(1).ok());
  EXPECT_EQ(capture.captured.size(), 2u);
  ASSERT_EQ(capture.puncts.size(), 1u);
  EXPECT_EQ(capture.puncts[0].stratum, 1);
  EXPECT_EQ(fp.PendingSize(), 0u);
}

TEST(FixpointOpTest, ReplacementThresholding) {
  OpHarness h;
  FixpointOp::Params params;
  params.key_fields = {0};
  params.value_field = 1;
  params.change_threshold = 0.5;
  FixpointOp fp(0, params);
  CaptureOp capture(1);
  fp.AddOutput(&capture, 0);
  ASSERT_TRUE(fp.Open(h.ctx()).ok());
  ASSERT_TRUE(capture.Open(h.ctx()).ok());

  ASSERT_TRUE(fp.Consume(0, {Delta::Insert(Tuple{Value(1), Value(1.0)})}).ok());
  ASSERT_TRUE(fp.StartStratum(1).ok());
  capture.captured.clear();

  // Sub-threshold change: state revised silently, nothing pending.
  ASSERT_TRUE(fp.Consume(1, {Delta::Insert(Tuple{Value(1), Value(1.2)})}).ok());
  EXPECT_EQ(fp.PendingSize(), 0u);
  auto state = fp.StateTuples();
  ASSERT_EQ(state.size(), 1u);
  EXPECT_EQ(state[0].field(1), Value(1.2));

  // Above threshold: replacement propagates.
  ASSERT_TRUE(fp.Consume(1, {Delta::Insert(Tuple{Value(1), Value(2.0)})}).ok());
  EXPECT_EQ(fp.PendingSize(), 1u);
}

TEST(FixpointOpTest, AccumulateModeNeverRevises) {
  OpHarness h;
  FixpointOp::Params params;
  params.key_fields = {0};
  params.mode = FixpointOp::Mode::kAccumulate;
  FixpointOp fp(0, params);
  CaptureOp capture(1);
  fp.AddOutput(&capture, 0);
  ASSERT_TRUE(fp.Open(h.ctx()).ok());
  ASSERT_TRUE(capture.Open(h.ctx()).ok());

  ASSERT_TRUE(fp.Consume(0, {Delta::Insert(Tuple{Value(1), Value(10)}),
                             Delta::Insert(Tuple{Value(1), Value(20)}),
                             Delta::Insert(Tuple{Value(1), Value(10)})})
                  .ok());
  // Recursive-SQL semantics: both versions retained; duplicate dropped.
  EXPECT_EQ(fp.StateSize(), 2u);
  EXPECT_EQ(fp.PendingSize(), 2u);
}

TEST(FixpointOpTest, VotesOnPunctuationWave) {
  OpHarness h;
  FixpointOp::Params params;
  params.key_fields = {0};
  FixpointOp fp(42, params);
  ASSERT_TRUE(fp.Open(h.ctx()).ok());
  ASSERT_TRUE(
      fp.Consume(0, {Delta::Insert(Tuple{Value(1), Value(1)})}).ok());
  ASSERT_TRUE(fp.OnPunct(FixpointOp::kBasePort, Eos(0)).ok());
  VoteStats stats = h.votes()->Total(42, 0);
  EXPECT_EQ(stats.new_tuples, 1);
  EXPECT_EQ(stats.state_size, 1);
}

// --------------------------------------------------------------- ApplyFn --

TEST(ApplyFnOpTest, CachesDeterministicFunctions) {
  OpHarness h;
  int invocations = 0;
  TableUdf udf;
  udf.name = "doubler";
  udf.deterministic = true;
  udf.fn = [&invocations](const Delta& d) -> Result<DeltaVec> {
    ++invocations;
    REX_ASSIGN_OR_RETURN(int64_t x, d.tuple.field(0).ToInt());
    return DeltaVec{Delta::Insert(Tuple{Value(x * 2)})};
  };
  ASSERT_TRUE(h.udfs()->RegisterTable(udf).ok());
  h.config()->udf_batch_size = 1;

  ApplyFnOp apply(0, "doubler");
  CaptureOp capture(1);
  apply.AddOutput(&capture, 0);
  ASSERT_TRUE(apply.Open(h.ctx()).ok());
  ASSERT_TRUE(capture.Open(h.ctx()).ok());

  ASSERT_TRUE(apply.Consume(0, {Delta::Insert(Tuple{Value(5)}),
                                Delta::Insert(Tuple{Value(5)}),
                                Delta::Insert(Tuple{Value(6)})})
                  .ok());
  EXPECT_EQ(invocations, 2);  // 5 cached on second occurrence
  ASSERT_EQ(capture.captured.size(), 3u);
  EXPECT_EQ(capture.captured[1].tuple, Tuple{Value(10)});
}

TEST(ApplyFnOpTest, BatchingDefersUntilPunctuation) {
  OpHarness h;
  TableUdf udf;
  udf.name = "identity";
  udf.deterministic = false;
  udf.fn = [](const Delta& d) -> Result<DeltaVec> { return DeltaVec{d}; };
  ASSERT_TRUE(h.udfs()->RegisterTable(udf).ok());
  h.config()->udf_batch_size = 100;  // larger than the input

  ApplyFnOp apply(0, "identity");
  CaptureOp capture(1);
  apply.AddOutput(&capture, 0);
  ASSERT_TRUE(apply.Open(h.ctx()).ok());
  ASSERT_TRUE(capture.Open(h.ctx()).ok());

  ASSERT_TRUE(apply.Consume(0, {Delta::Insert(Tuple{Value(1)}),
                                Delta::Insert(Tuple{Value(2)})})
                  .ok());
  EXPECT_TRUE(capture.captured.empty());  // buffered
  ASSERT_TRUE(apply.OnPunct(0, Eos()).ok());
  EXPECT_EQ(capture.captured.size(), 2u);  // flushed before forwarding
  ASSERT_EQ(capture.puncts.size(), 1u);
}

// ------------------------------------------------------------------- Sink --

TEST(SinkOpTest, WeightsAreMultiplicities) {
  OpHarness h;
  SinkOp sink(0);
  ASSERT_TRUE(sink.Open(h.ctx()).ok());
  auto weighted = [](DeltaOp op, int64_t v, int64_t w) {
    Delta d;
    d.op = op;
    d.tuple = Tuple{Value(v)};
    d.weight = w;
    return d;
  };
  auto copies = [&sink](int64_t v) {
    return std::count(sink.results().begin(), sink.results().end(),
                      Tuple{Value(v)});
  };
  DeltaVec in;
  in.push_back(weighted(DeltaOp::kInsert, 1, 3));   // three copies
  in.push_back(weighted(DeltaOp::kDelete, 1, 2));   // leaves one
  in.push_back(weighted(DeltaOp::kDelete, 2, -2));  // -() of -2 adds two
  in.push_back(weighted(DeltaOp::kInsert, 2, -1));  // +() of -1 removes one
  in.push_back(weighted(DeltaOp::kInsert, 3, 0));   // no-op
  in.push_back(weighted(DeltaOp::kUpdate, 4, 5));   // δ(): one copy
  ASSERT_TRUE(sink.Consume(0, std::move(in)).ok());
  EXPECT_EQ(copies(1), 1);
  EXPECT_EQ(copies(2), 1);
  EXPECT_EQ(copies(3), 0);
  EXPECT_EQ(copies(4), 1);
  EXPECT_EQ(sink.results().size(), 3u);

  Status st = sink.Consume(0, {weighted(DeltaOp::kInsert, 5, INT64_MIN)});
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
}

// ------------------------------------------------ Aggregates, TupleSet --

// Regression: avg() accumulated int inputs in a double, silently drifting
// once the exact sum left the 2^53 integer range. All-int groups now fold
// through an exact int64 sum (mirroring sum()'s fast path).
TEST(AggregatesRegressionTest, AvgStaysExactBeyondDoublePrecision) {
  const AggFunction* avg = GetAggFunction(AggKind::kAvg);
  auto state = avg->NewState();
  const int64_t big = 1LL << 53;  // 9007199254740992
  ASSERT_TRUE(avg->Insert(state.get(), Value(big)).ok());
  ASSERT_TRUE(avg->Insert(state.get(), Value(static_cast<int64_t>(1))).ok());
  ASSERT_TRUE(avg->Insert(state.get(), Value(static_cast<int64_t>(1))).ok());
  auto got = avg->Current(state.get());
  ASSERT_TRUE(got.ok());
  // Exact: (2^53 + 2) / 3 via the int accumulator. The double accumulator
  // loses both +1 contributions (2^53 + 1 rounds back to 2^53).
  EXPECT_EQ(got->AsDouble(), static_cast<double>(big + 2) / 3.0);
  EXPECT_NE(got->AsDouble(), static_cast<double>(big) / 3.0);
}

TEST(AggregatesRegressionTest, AvgIntPathSurvivesDeletesAndWeights) {
  const AggFunction* avg = GetAggFunction(AggKind::kAvg);
  auto state = avg->NewState();
  ASSERT_TRUE(
      avg->ApplyWeighted(state.get(), Value(int64_t{1LL << 53}), 1).ok());
  ASSERT_TRUE(avg->ApplyWeighted(state.get(), Value(int64_t{1}), 4).ok());
  ASSERT_TRUE(avg->ApplyWeighted(state.get(), Value(int64_t{1}), -2).ok());
  auto got = avg->Current(state.get());
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got->AsDouble(), static_cast<double>((1LL << 53) + 2) / 3.0);
}

TEST(AggregatesRegressionTest, AvgIntOverflowSurfacesError) {
  const AggFunction* avg = GetAggFunction(AggKind::kAvg);
  auto state = avg->NewState();
  ASSERT_TRUE(avg->Insert(state.get(), Value(INT64_MAX)).ok());
  Status st = avg->Insert(state.get(), Value(INT64_MAX));
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.ToString().find("avg() overflow"), std::string::npos)
      << st.ToString();
}

TEST(AggregatesRegressionTest, AvgMixedIntDoubleFallsBackToDoubleSum) {
  const AggFunction* avg = GetAggFunction(AggKind::kAvg);
  auto state = avg->NewState();
  ASSERT_TRUE(avg->Insert(state.get(), Value(static_cast<int64_t>(3))).ok());
  ASSERT_TRUE(avg->Insert(state.get(), Value(1.5)).ok());
  auto got = avg->Current(state.get());
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got->AsDouble(), (3.0 + 1.5) / 2.0);
}

// Regression: Replace used to append the replacement on a miss while
// returning false — upserting callers now must opt in via ReplaceOrInsert.
TEST(TupleSetRegressionTest, ReplaceIsStrictAndReplaceOrInsertUpserts) {
  TupleSet s;
  s.Add(Tuple{Value(static_cast<int64_t>(1)), Value("a")});
  const Tuple missing{Value(static_cast<int64_t>(2)), Value("b")};
  EXPECT_FALSE(s.Replace(missing, missing));
  EXPECT_EQ(s.size(), 1u);  // the old code left size() == 2 here
  EXPECT_FALSE(s.ReplaceOrInsert(missing, missing));
  EXPECT_EQ(s.size(), 2u);
  EXPECT_TRUE(s.ReplaceOrInsert(
      missing, Tuple{Value(static_cast<int64_t>(2)), Value("c")}));
  EXPECT_EQ(s.size(), 2u);
  ASSERT_NE(s.Find(Value(static_cast<int64_t>(2))), nullptr);
  EXPECT_EQ(s.Find(Value(static_cast<int64_t>(2)))->field(1), Value("c"));
}

// Regression: a negative field index used to wrap through
// static_cast<size_t> and scan garbage (silent miss at best, OOB read at
// worst). It now aborts loudly.
TEST(TupleSetDeathTest, NegativeFieldIndexAborts) {
  TupleSet s;
  s.Add(Tuple{Value(static_cast<int64_t>(1)), Value(static_cast<int64_t>(2))});
  EXPECT_DEATH(s.Find(Value(static_cast<int64_t>(1)), -1),
               "negative field index");
  EXPECT_DEATH(
      s.Get(Value(static_cast<int64_t>(1)), /*value_field=*/-2),
      "negative field index");
}

}  // namespace
}  // namespace rex
