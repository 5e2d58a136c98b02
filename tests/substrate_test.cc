// Substrate unit tests: channels, the network's quiescence accounting and
// failure semantics, the flat map, TupleSet, and expressions.
#include <gtest/gtest.h>

#include <thread>

#include "common/flat_map.h"
#include "common/rng.h"
#include "exec/aggregates.h"
#include "exec/expr.h"
#include "exec/tuple_set.h"
#include "net/network.h"

namespace rex {
namespace {

// ---------------------------------------------------------------- Channel --

TEST(ChannelTest, FifoOrder) {
  Channel ch;
  for (int i = 0; i < 10; ++i) {
    Message m;
    m.target_op = i;
    ASSERT_TRUE(ch.Push(std::move(m)));
  }
  for (int i = 0; i < 10; ++i) {
    auto m = ch.Pop();
    ASSERT_TRUE(m.has_value());
    EXPECT_EQ(m->target_op, i);
  }
}

TEST(ChannelTest, CloseDrainsThenEnds) {
  Channel ch;
  Message m;
  ASSERT_TRUE(ch.Push(m));
  ch.Close();
  EXPECT_FALSE(ch.Push(m));      // closed: no new messages
  EXPECT_TRUE(ch.Pop().has_value());   // drains the queued one
  EXPECT_FALSE(ch.Pop().has_value());  // then reports end
  ch.Reopen();
  EXPECT_TRUE(ch.Push(m));
}

TEST(ChannelTest, BlockingPopWakesOnPush) {
  Channel ch;
  std::thread consumer([&ch] {
    auto m = ch.Pop();
    ASSERT_TRUE(m.has_value());
    EXPECT_EQ(m->target_op, 42);
  });
  Message m;
  m.target_op = 42;
  ASSERT_TRUE(ch.Push(std::move(m)));
  consumer.join();
}

// ---------------------------------------------------------------- Network --

TEST(NetworkTest, MetersOnlyCrossWorkerData) {
  Network net(3);
  DeltaVec payload{Delta::Insert(Tuple{Value(1), Value(2.5)})};
  ASSERT_TRUE(net.Send(Message::Data(0, 1, 5, 0, payload)).ok());
  ASSERT_TRUE(net.Send(Message::Data(1, 1, 5, 0, payload)).ok());  // loopback
  EXPECT_GT(net.BytesSentBy(0), 0);
  EXPECT_EQ(net.BytesSentBy(1), 0);
  EXPECT_EQ(net.metrics().Value(metrics::kTuplesSent), 1);
  // Drain so quiescence holds for later users of the fixture.
  net.channel(1)->TryPop();
  net.OnMessageProcessed();
  net.channel(1)->TryPop();
  net.OnMessageProcessed();
}

TEST(NetworkTest, QuiescenceAfterProcessing) {
  Network net(2);
  ASSERT_TRUE(net.Send(Message::Control(0, ControlMsg{})).ok());
  std::thread worker([&net] {
    auto m = net.channel(0)->TryPop();
    EXPECT_TRUE(m.has_value());
    net.OnMessageProcessed();
  });
  worker.join();
  net.WaitQuiescent();  // must not hang
}

TEST(NetworkTest, SendsToFailedWorkerAreDropped) {
  Network net(2);
  net.MarkFailed(1);
  EXPECT_TRUE(net.IsFailed(1));
  ASSERT_TRUE(net.Send(Message::Control(1, ControlMsg{})).ok());
  net.WaitQuiescent();  // dropped message never counts as in-flight
  EXPECT_EQ(net.LiveWorkers(), std::vector<int>{0});
  net.Restore(1);
  EXPECT_FALSE(net.IsFailed(1));
  EXPECT_EQ(net.LiveWorkers().size(), 2u);
}

TEST(NetworkTest, FailureDrainsQueuedMessages) {
  Network net(2);
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(net.Send(Message::Control(1, ControlMsg{})).ok());
  }
  net.MarkFailed(1);  // queued messages are lost, accounting restored
  net.WaitQuiescent();
}

// ------------------------------------------------------------- FlatMap64 --

TEST(FlatMap64Test, BasicOperations) {
  FlatMap64<int> map;
  EXPECT_EQ(map.Find(7), nullptr);
  map.FindOrCreate(7) = 70;
  map.FindOrCreate(9) = 90;
  ASSERT_NE(map.Find(7), nullptr);
  EXPECT_EQ(*map.Find(7), 70);
  EXPECT_EQ(*map.Find(9), 90);
  EXPECT_EQ(map.size(), 2u);
  map.FindOrCreate(7) = 71;  // upsert
  EXPECT_EQ(*map.Find(7), 71);
  EXPECT_EQ(map.size(), 2u);
  map.Clear();
  EXPECT_EQ(map.size(), 0u);
  EXPECT_EQ(map.Find(7), nullptr);
}

TEST(FlatMap64Test, SurvivesGrowthAndCollisions) {
  FlatMap64<uint64_t> map;
  Rng rng(13);
  std::vector<uint64_t> keys;
  for (int i = 0; i < 5000; ++i) keys.push_back(rng.Next());
  for (uint64_t k : keys) map.FindOrCreate(k) = k * 3;
  EXPECT_EQ(map.size(), keys.size());
  for (uint64_t k : keys) {
    ASSERT_NE(map.Find(k), nullptr);
    EXPECT_EQ(*map.Find(k), k * 3);
  }
  // Insertion-order iteration.
  size_t i = 0;
  for (const auto& [k, v] : map) {
    EXPECT_EQ(k, keys[i]);
    ++i;
  }
}

TEST(FlatMap64Test, ClearKeepsCapacityAndStaysCorrect) {
  FlatMap64<int> map;
  for (uint64_t round = 0; round < 5; ++round) {
    for (uint64_t k = 0; k < 1000; ++k) {
      map.FindOrCreate(HashMix(k + round * 977)) = static_cast<int>(k);
    }
    EXPECT_EQ(map.size(), 1000u);
    map.Clear();
    EXPECT_TRUE(map.empty());
  }
}

// ------------------------------------------------------------- TupleSet --

TEST(TupleSetTest, RemoveAndReplace) {
  TupleSet s;
  s.Add(Tuple{Value(1), Value("a")});
  s.Add(Tuple{Value(2), Value("b")});
  EXPECT_TRUE(s.Remove(Tuple{Value(1), Value("a")}));
  EXPECT_FALSE(s.Remove(Tuple{Value(1), Value("a")}));
  EXPECT_EQ(s.size(), 1u);
  EXPECT_TRUE(s.Replace(Tuple{Value(2), Value("b")},
                        Tuple{Value(2), Value("c")}));
  EXPECT_EQ(s.at(0).field(1), Value("c"));
  // Strict Replace: a miss leaves the set untouched.
  EXPECT_FALSE(s.Replace(Tuple{Value(9)}, Tuple{Value(9)}));
  EXPECT_EQ(s.size(), 1u);
  // ReplaceOrInsert is the upsert form: a miss appends.
  EXPECT_FALSE(s.ReplaceOrInsert(Tuple{Value(9)}, Tuple{Value(9)}));
  EXPECT_EQ(s.size(), 2u);
  EXPECT_TRUE(s.ReplaceOrInsert(Tuple{Value(9)}, Tuple{Value(10)}));
  EXPECT_EQ(s.size(), 2u);
}

TEST(TupleSetTest, KeyValueConvenience) {
  TupleSet s;
  EXPECT_FALSE(s.Get(Value(5)).has_value());
  EXPECT_FALSE(s.Put(Value(5), Value(1.5)).has_value());
  ASSERT_TRUE(s.Get(Value(5)).has_value());
  EXPECT_EQ(*s.Get(Value(5)), Value(1.5));
  auto old = s.Put(Value(5), Value(2.5));
  ASSERT_TRUE(old.has_value());
  EXPECT_EQ(*old, Value(1.5));
  EXPECT_EQ(s.size(), 1u);
  EXPECT_NE(s.Find(Value(5)), nullptr);
  EXPECT_EQ(s.Find(Value(6)), nullptr);
}

// ------------------------------------------------------------------ Expr --

TEST(ExprTest, ArithmeticAndComparison) {
  Tuple t{Value(6), Value(2.5)};
  auto eval = [&t](ExprPtr e) {
    auto r = EvalExpr(*e, t, nullptr);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return r.value_or(Value());
  };
  EXPECT_EQ(eval(Expr::Binary(BinOp::kAdd, Expr::Column(0),
                              Expr::Const(Value(4)))),
            Value(10));
  EXPECT_EQ(eval(Expr::Binary(BinOp::kMul, Expr::Column(0),
                              Expr::Column(1))),
            Value(15.0));
  EXPECT_EQ(eval(Expr::Binary(BinOp::kDiv, Expr::Column(0),
                              Expr::Const(Value(4)))),
            Value(1.5));  // SQL-style: division is always real
  EXPECT_EQ(eval(Expr::Binary(BinOp::kMod, Expr::Column(0),
                              Expr::Const(Value(4)))),
            Value(2));
  EXPECT_EQ(eval(Expr::Binary(BinOp::kLe, Expr::Column(1),
                              Expr::Const(Value(2.5)))),
            Value(true));
  EXPECT_EQ(eval(Expr::Not(Expr::Binary(BinOp::kEq, Expr::Column(0),
                                        Expr::Const(Value(6))))),
            Value(false));
}

TEST(ExprTest, ShortCircuitAndErrors) {
  Tuple t{Value(1)};
  // AND short-circuits: the erroneous right side never evaluates.
  auto bad = Expr::Binary(BinOp::kDiv, Expr::Column(0),
                          Expr::Const(Value(0)));
  auto guarded = Expr::Binary(
      BinOp::kAnd,
      Expr::Binary(BinOp::kGt, Expr::Column(0), Expr::Const(Value(5))),
      Expr::Binary(BinOp::kGt, bad, Expr::Const(Value(0.0))));
  auto r = EvalExpr(*guarded, t, nullptr);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, Value(false));
  // Unguarded division by zero errors.
  EXPECT_FALSE(EvalExpr(*bad, t, nullptr).ok());
  // Column out of range errors.
  EXPECT_FALSE(EvalExpr(*Expr::Column(7), t, nullptr).ok());
}

TEST(ExprTest, TypeInference) {
  Schema schema{{"i", ValueType::kInt}, {"d", ValueType::kDouble}};
  EXPECT_EQ(InferType(*Expr::Binary(BinOp::kAdd, Expr::Column(0),
                                    Expr::Column(0)),
                      schema, nullptr)
                .value_or(ValueType::kNull),
            ValueType::kInt);
  EXPECT_EQ(InferType(*Expr::Binary(BinOp::kAdd, Expr::Column(0),
                                    Expr::Column(1)),
                      schema, nullptr)
                .value_or(ValueType::kNull),
            ValueType::kDouble);
  EXPECT_EQ(InferType(*Expr::Binary(BinOp::kLt, Expr::Column(0),
                                    Expr::Column(1)),
                      schema, nullptr)
                .value_or(ValueType::kNull),
            ValueType::kBool);
}

// ------------------------------------------------------------- Aggregates --

TEST(AggregateTest, MinSurvivesDeletionOfExtremum) {
  const AggFunction* min_fn = GetAggFunction(AggKind::kMin);
  auto state = min_fn->NewState();
  ASSERT_TRUE(min_fn->Insert(state.get(), Value(5)).ok());
  ASSERT_TRUE(min_fn->Insert(state.get(), Value(3)).ok());
  ASSERT_TRUE(min_fn->Insert(state.get(), Value(8)).ok());
  EXPECT_EQ(min_fn->Current(state.get()).value_or(Value()), Value(3));
  // Delete the minimum: the buffered next-smallest surfaces (§3.3).
  ASSERT_TRUE(min_fn->Delete(state.get(), Value(3)).ok());
  EXPECT_EQ(min_fn->Current(state.get()).value_or(Value()), Value(5));
  ASSERT_TRUE(min_fn->Delete(state.get(), Value(5)).ok());
  ASSERT_TRUE(min_fn->Delete(state.get(), Value(8)).ok());
  EXPECT_TRUE(min_fn->Current(state.get()).value_or(Value(1)).is_null());
  // Deleting a value never inserted is an error.
  EXPECT_FALSE(min_fn->Delete(state.get(), Value(99)).ok());
}

TEST(AggregateTest, SumAndAvgHandleDeletes) {
  const AggFunction* sum_fn = GetAggFunction(AggKind::kSum);
  auto s = sum_fn->NewState();
  ASSERT_TRUE(sum_fn->Insert(s.get(), Value(10)).ok());
  ASSERT_TRUE(sum_fn->Insert(s.get(), Value(5)).ok());
  ASSERT_TRUE(sum_fn->Delete(s.get(), Value(10)).ok());
  EXPECT_EQ(sum_fn->Current(s.get()).value_or(Value()), Value(5));

  const AggFunction* avg_fn = GetAggFunction(AggKind::kAvg);
  auto a = avg_fn->NewState();
  ASSERT_TRUE(avg_fn->Insert(a.get(), Value(2.0)).ok());
  ASSERT_TRUE(avg_fn->Insert(a.get(), Value(4.0)).ok());
  ASSERT_TRUE(avg_fn->Insert(a.get(), Value(9.0)).ok());
  ASSERT_TRUE(avg_fn->Delete(a.get(), Value(9.0)).ok());
  EXPECT_EQ(avg_fn->Current(a.get()).value_or(Value()), Value(3.0));
}

TEST(AggregateTest, PreAggSpecs) {
  EXPECT_EQ(GetPreAggSpec(AggKind::kCount).merge, AggKind::kSum);
  EXPECT_EQ(GetPreAggSpec(AggKind::kMin).merge, AggKind::kMin);
  EXPECT_TRUE(GetPreAggSpec(AggKind::kAvg).needs_count_companion);
  EXPECT_TRUE(IsMultiplicitySensitive(AggKind::kSum));
  EXPECT_FALSE(IsMultiplicitySensitive(AggKind::kMax));
}

}  // namespace
}  // namespace rex
