// Columnar delta-plane tests: the batch plane's contract is bit-identical
// equivalence with the scalar Delta/Tuple path it accelerates, so most of
// these are property tests driving both paths over randomized schemas,
// ops, and weights and demanding exact agreement — conversion round-trips,
// hash kernels (including -0.0, NaN, and beyond-2^53 ints), the compiled
// predicate vs the scalar tree walk, the coalescer's columnar fold vs the
// scalar fold (output and stats), and a full group-by with
// EngineConfig::columnar_batches toggled.
//
// Also the data-plane bugfix regressions riding in the same change:
//   - AvgFunction tracks an exact int64 sum for all-int groups (the double
//     accumulator silently drifts past 2^53),
//   - TupleSet::Replace is strict on a miss (it used to append while
//     returning false) with the old upsert behavior moved to
//     ReplaceOrInsert,
//   - TupleSet::Find/Get abort on negative field indexes (they used to
//     wrap through size_t and silently miss).
//
// ChaosSweepColumnarTest re-runs the end-to-end on/off comparison under
// seeded fault schedules via `ctest -L chaos` (full REX_CHAOS_SEEDS count).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <string>
#include <vector>

#include "algos/pagerank.h"
#include "algos/reference.h"
#include "algos/sssp.h"
#include "common/delta_batch.h"
#include "common/metrics.h"
#include "common/rng.h"
#include "data/generators.h"
#include "exec/coalesce.h"
#include "exec/expr.h"
#include "exec/group_by.h"
#include "exec/operators.h"
#include "exec/tuple_set.h"
#include "exec/vectorized.h"
#include "sim/fault_schedule.h"

namespace rex {
namespace {

// ------------------------------------------------- randomized streams --

/// Random value for a column type. Ints and doubles deliberately include
/// the hash/equality edge cases: negative zero, NaN-free doubles (NaN
/// breaks no kernel but makes streams non-comparable via operator==, so it
/// gets its own test), and ints beyond 2^53 where the double-bridged hash
/// must still match the scalar path.
Value RandomCell(Rng* rng, BatchColType type) {
  switch (type) {
    case BatchColType::kInt: {
      switch (rng->NextBelow(4)) {
        case 0:
          return Value(static_cast<int64_t>(rng->NextBelow(16)));
        case 1:
          return Value(-static_cast<int64_t>(rng->NextBelow(1000)));
        case 2:  // beyond 2^53: int hash must bridge through double
          return Value(static_cast<int64_t>((1LL << 53) +
                                            static_cast<int64_t>(
                                                rng->NextBelow(64))));
        default:
          return Value(static_cast<int64_t>(rng->Next() >> 16));
      }
    }
    case BatchColType::kDouble: {
      switch (rng->NextBelow(4)) {
        case 0:
          return Value(-0.0);
        case 1:
          return Value(0.0);
        case 2:
          return Value(static_cast<double>(rng->NextBelow(8)));
        default:
          return Value(rng->NextDouble(-100.0, 100.0));
      }
    }
    case BatchColType::kString: {
      // Small vocabulary: repeats exercise interning.
      static const char* kVocab[] = {"", "a", "b", "dbpedia", "twitter",
                                     "x", "rex", "Δ"};
      return Value(kVocab[rng->NextBelow(8)]);
    }
  }
  return Value();
}

std::vector<BatchColType> RandomSchema(Rng* rng) {
  std::vector<BatchColType> schema(1 + rng->NextBelow(4));
  for (auto& t : schema) {
    t = static_cast<BatchColType>(rng->NextBelow(3));
  }
  return schema;
}

Tuple RandomRow(Rng* rng, const std::vector<BatchColType>& schema) {
  std::vector<Value> fields;
  fields.reserve(schema.size());
  for (BatchColType t : schema) fields.push_back(RandomCell(rng, t));
  return Tuple(std::move(fields));
}

/// In-domain stream: insert/delete/update rows of one random schema with
/// random weights.
DeltaVec RandomBatchStream(Rng* rng, const std::vector<BatchColType>& schema,
                           size_t n) {
  DeltaVec out;
  out.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    Delta d;
    const uint64_t roll = rng->NextBelow(3);
    d.op = roll == 0 ? DeltaOp::kInsert
                     : roll == 1 ? DeltaOp::kDelete : DeltaOp::kUpdate;
    d.tuple = RandomRow(rng, schema);
    d.weight = 1 + static_cast<int64_t>(rng->NextBelow(3));
    out.push_back(std::move(d));
  }
  return out;
}

// --------------------------------------------------- conversion domain --

TEST(DeltaBatchTest, RoundTripsRandomizedSchemas) {
  Rng rng(0xC01D);
  for (int trial = 0; trial < 50; ++trial) {
    const auto schema = RandomSchema(&rng);
    const DeltaVec in = RandomBatchStream(&rng, schema, 1 + rng.NextBelow(64));
    auto batch = DeltaBatch::FromDeltas(in);
    ASSERT_TRUE(batch.has_value()) << "trial " << trial;
    ASSERT_EQ(batch->NumRows(), in.size());
    ASSERT_EQ(batch->NumColumns(), schema.size());
    EXPECT_EQ(batch->ColumnTypes(), schema);
    // Exact inverse: ops, weights, and every field value.
    const DeltaVec back = batch->ToDeltas();
    ASSERT_EQ(back.size(), in.size());
    for (size_t i = 0; i < in.size(); ++i) {
      EXPECT_EQ(back[i], in[i]) << "trial " << trial << " row " << i;
      EXPECT_EQ(batch->MaterializeRow(i), in[i].tuple);
    }
  }
}

TEST(DeltaBatchTest, RefusesEverythingOutsideTheFastPathDomain) {
  const Tuple row{Value(static_cast<int64_t>(1)), Value(2.0)};
  // Each stream below breaks exactly one domain rule.
  EXPECT_FALSE(DeltaBatch::FromDeltas({}).has_value());
  EXPECT_FALSE(DeltaBatch::FromDeltas({Delta::Insert(Tuple{})}).has_value());
  EXPECT_FALSE(
      DeltaBatch::FromDeltas({Delta::Replace(row, row)}).has_value());
  Delta wire;
  wire.op = DeltaOp::kBatch;
  wire.tuple = row;
  EXPECT_FALSE(DeltaBatch::FromDeltas({wire}).has_value());
  Delta min_weight = Delta::Insert(row);
  min_weight.weight = INT64_MIN;
  EXPECT_FALSE(DeltaBatch::FromDeltas({min_weight}).has_value());
  // Ragged arity.
  EXPECT_FALSE(DeltaBatch::FromDeltas(
                   {Delta::Insert(row),
                    Delta::Insert(Tuple{Value(static_cast<int64_t>(1))})})
                   .has_value());
  // Mixed numeric column.
  EXPECT_FALSE(DeltaBatch::FromDeltas(
                   {Delta::Insert(row),
                    Delta::Insert(Tuple{Value(1.0), Value(2.0)})})
                   .has_value());
  // Null / bool / list cells.
  EXPECT_FALSE(
      DeltaBatch::FromDeltas({Delta::Insert(Tuple{Value::Null()})})
          .has_value());
  EXPECT_FALSE(
      DeltaBatch::FromDeltas({Delta::Insert(Tuple{Value(true)})}).has_value());
  EXPECT_FALSE(DeltaBatch::FromDeltas(
                   {Delta::Insert(Tuple{Value::List({Value(1.0)})})})
                   .has_value());
  // A clean prefix does not survive a bad suffix (never partially converts).
  EXPECT_FALSE(DeltaBatch::FromDeltas(
                   {Delta::Insert(row), Delta::Replace(row, row)})
                   .has_value());
}

TEST(DeltaBatchTest, StringColumnsInternOncePerDistinctString) {
  DeltaVec in;
  for (int i = 0; i < 100; ++i) {
    in.push_back(Delta::Insert(
        Tuple{Value(i % 2 == 0 ? "even" : "odd"), Value("shared")}));
  }
  auto batch = DeltaBatch::FromDeltas(in);
  ASSERT_TRUE(batch.has_value());
  // 3 distinct strings across 200 cells.
  EXPECT_EQ(batch->pool().size(), 3u);
  EXPECT_EQ(batch->pool().arena_bytes(),
            std::string("even").size() + std::string("odd").size() +
                std::string("shared").size());
  // Equal strings share an id; ids hash via the precomputed Value hash.
  const BatchColumn& c0 = batch->column(0);
  EXPECT_EQ(c0.str_ids[0], c0.str_ids[2]);
  EXPECT_NE(c0.str_ids[0], c0.str_ids[1]);
  for (uint32_t id = 0; id < batch->pool().size(); ++id) {
    EXPECT_EQ(batch->pool().HashOf(id), Value(batch->pool().Get(id)).Hash());
  }
}

// -------------------------------------------------------- hash kernels --

TEST(DeltaBatchTest, HashesAndEqualityMatchScalarExactly) {
  Rng rng(0x4A54);
  for (int trial = 0; trial < 40; ++trial) {
    const auto schema = RandomSchema(&rng);
    const DeltaVec in = RandomBatchStream(&rng, schema, 1 + rng.NextBelow(48));
    auto batch = DeltaBatch::FromDeltas(in);
    ASSERT_TRUE(batch.has_value());
    // Random key subset (possibly empty = whole tuple).
    std::vector<int> keys;
    for (size_t c = 0; c < schema.size(); ++c) {
      if (rng.NextBool(0.5)) keys.push_back(static_cast<int>(c));
    }
    const uint64_t seed = rng.Next();
    for (size_t r = 0; r < in.size(); ++r) {
      const Tuple& t = in[r].tuple;
      for (size_t c = 0; c < schema.size(); ++c) {
        EXPECT_EQ(batch->HashValueAt(r, c), t.field(c).Hash());
        EXPECT_TRUE(batch->CellEqualsValue(r, c, t.field(c)));
      }
      if (!keys.empty()) {
        EXPECT_EQ(batch->PartitionHashRow(r, keys), PartitionHash(t, keys));
      }
      // The seeded keyed-state hash: scalar mirror of the group-by / join
      // key loops (empty keys = every column).
      uint64_t want = seed;
      if (keys.empty()) {
        for (size_t c = 0; c < schema.size(); ++c) {
          want = HashCombine(want, t.field(c).Hash());
        }
      } else {
        for (int f : keys) {
          want = HashCombine(want, t.field(static_cast<size_t>(f)).Hash());
        }
      }
      EXPECT_EQ(batch->SeededKeyHashRow(r, seed, keys), want);
      EXPECT_EQ(batch->RowByteSize(r), batch->MaterializeDelta(r).ByteSize());
    }
    // The whole-column kernels agree with the per-row forms.
    std::vector<uint64_t> hashes;
    SeededKeyHashRows(*batch, seed, keys, &hashes);
    for (size_t r = 0; r < in.size(); ++r) {
      EXPECT_EQ(hashes[r], batch->SeededKeyHashRow(r, seed, keys));
    }
    if (!keys.empty()) {
      PartitionHashRows(*batch, keys, &hashes);
      for (size_t r = 0; r < in.size(); ++r) {
        EXPECT_EQ(hashes[r], batch->PartitionHashRow(r, keys));
      }
    }
  }
}

TEST(DeltaBatchTest, NegativeZeroAndNaNMatchScalarSemantics) {
  const Tuple a{Value(-0.0)};
  const Tuple b{Value(0.0)};
  const double nan = std::numeric_limits<double>::quiet_NaN();
  auto batch = DeltaBatch::FromDeltas(
      {Delta::Insert(a), Delta::Insert(b), Delta::Insert(Tuple{Value(nan)})});
  ASSERT_TRUE(batch.has_value());
  // -0.0 == 0.0 and they hash identically (normalized), like Value.
  EXPECT_TRUE(batch->CellsEqual(0, 1, 0));
  EXPECT_EQ(batch->HashValueAt(0, 0), batch->HashValueAt(1, 0));
  EXPECT_EQ(batch->HashValueAt(0, 0), Value(-0.0).Hash());
  // NaN != NaN, exactly like the scalar plain-double compare.
  EXPECT_FALSE(batch->CellsEqual(2, 2, 0));
  EXPECT_FALSE(batch->RowsEqual(2, 2));
  // 2^53 + 1 hashes like the double it bridges through.
  const int64_t big = (1LL << 53) + 1;
  auto big_batch = DeltaBatch::FromDeltas({Delta::Insert(Tuple{Value(big)})});
  ASSERT_TRUE(big_batch.has_value());
  EXPECT_EQ(big_batch->HashValueAt(0, 0), Value(big).Hash());
  EXPECT_EQ(big_batch->HashValueAt(0, 0),
            Value(static_cast<double>(1LL << 53)).Hash());
  EXPECT_TRUE(
      big_batch->CellEqualsValue(0, 0, Value(static_cast<double>(1LL << 53))));
}

// -------------------------------------------------- compiled predicate --

TEST(VectorizedTest, CompiledPredicateMatchesScalarEvaluator) {
  // Fixed (int, double, int) schema; cells still randomized.
  const std::vector<BatchColType> schema = {
      BatchColType::kInt, BatchColType::kDouble, BatchColType::kInt};
  const auto lit_i = [](int64_t v) { return Expr::Const(Value(v)); };
  const auto lit_d = [](double v) { return Expr::Const(Value(v)); };
  const std::vector<ExprPtr> predicates = {
      Expr::Binary(BinOp::kLt, Expr::Column(0), lit_i(8)),
      Expr::Binary(BinOp::kEq,
                   Expr::Binary(BinOp::kMod, Expr::Column(2), lit_i(7)),
                   lit_i(0)),
      Expr::Binary(
          BinOp::kAnd,
          Expr::Binary(BinOp::kGe, Expr::Column(1), lit_d(0.0)),
          Expr::Binary(BinOp::kGt,
                       Expr::Binary(BinOp::kAdd, Expr::Column(0),
                                    Expr::Binary(BinOp::kMul, Expr::Column(2),
                                                 lit_i(2))),
                       lit_i(100))),
      Expr::Binary(BinOp::kOr,
                   Expr::Not(Expr::Binary(BinOp::kLe, Expr::Column(1),
                                          lit_d(0.5))),
                   Expr::Binary(BinOp::kEq, Expr::Column(0), lit_i(7))),
      Expr::Binary(BinOp::kLt,
                   Expr::Binary(BinOp::kDiv, Expr::Column(1), lit_d(2.0)),
                   lit_d(0.3)),
      // Cross-type numeric comparison: int column against double literal.
      Expr::Binary(BinOp::kNe, Expr::Column(0), lit_d(2.0)),
  };
  Rng rng(0xF117E4);
  for (int trial = 0; trial < 20; ++trial) {
    const DeltaVec in = RandomBatchStream(&rng, schema, 1 + rng.NextBelow(80));
    auto batch = DeltaBatch::FromDeltas(in);
    ASSERT_TRUE(batch.has_value());
    for (size_t p = 0; p < predicates.size(); ++p) {
      auto compiled =
          CompiledPredicate::Compile(*predicates[p], batch->ColumnTypes());
      ASSERT_TRUE(compiled.has_value()) << "predicate " << p;
      std::vector<uint8_t> mask;
      compiled->Eval(*batch, &mask);
      ASSERT_EQ(mask.size(), in.size());
      for (size_t r = 0; r < in.size(); ++r) {
        auto want = EvalPredicate(*predicates[p], in[r].tuple, nullptr);
        ASSERT_TRUE(want.ok()) << want.status().ToString();
        EXPECT_EQ(mask[r] != 0, *want)
            << "predicate " << p << " row " << in[r].tuple.ToString();
      }
    }
  }
}

TEST(VectorizedTest, CompileRefusesWhatItCannotProveTotal) {
  const std::vector<BatchColType> ints = {BatchColType::kInt,
                                          BatchColType::kInt};
  const auto col = [](int i) { return Expr::Column(i); };
  // Division by a column (could be zero at runtime).
  EXPECT_FALSE(CompiledPredicate::Compile(
                   *Expr::Binary(BinOp::kEq,
                                 Expr::Binary(BinOp::kDiv, col(0), col(1)),
                                 Expr::Const(Value(static_cast<int64_t>(1)))),
                   ints)
                   .has_value());
  // Division by a zero literal.
  EXPECT_FALSE(
      CompiledPredicate::Compile(
          *Expr::Binary(BinOp::kEq,
                        Expr::Binary(BinOp::kDiv, col(0),
                                     Expr::Const(Value(
                                         static_cast<int64_t>(0)))),
                        Expr::Const(Value(static_cast<int64_t>(1)))),
          ints)
          .has_value());
  // UDF calls stay scalar (registry lookup + arbitrary error surface).
  EXPECT_FALSE(CompiledPredicate::Compile(*Expr::Call("f", {col(0)}), ints)
                   .has_value());
  // String operands stay scalar.
  EXPECT_FALSE(
      CompiledPredicate::Compile(
          *Expr::Binary(BinOp::kEq, col(0), Expr::Const(Value("x"))),
          {BatchColType::kString, BatchColType::kInt})
          .has_value());
  // Out-of-range column reference.
  EXPECT_FALSE(CompiledPredicate::Compile(
                   *Expr::Binary(BinOp::kLt, col(5),
                                 Expr::Const(Value(static_cast<int64_t>(1)))),
                   ints)
                   .has_value());
}

// ----------------------------------------------------- coalescer fold --

DeltaVec RandomCoalesceStream(Rng* rng, bool* in_domain) {
  // Two-field int rows keyed on field 0, a mix the weight algebra can
  // fold. One stream in ~4 also injects a replace, forcing the scalar
  // fold even when the columnar option is on.
  DeltaVec out;
  const size_t n = 1 + rng->NextBelow(60);
  const bool updates_only = rng->NextBool(0.5);
  *in_domain = true;
  for (size_t i = 0; i < n; ++i) {
    const int64_t k = static_cast<int64_t>(rng->NextBelow(6));
    const int64_t v = static_cast<int64_t>(rng->NextBelow(4));
    Tuple t{Value(k), Value(v)};
    if (updates_only) {
      out.push_back(Delta::Update(std::move(t)));
    } else if (rng->NextBool(0.08)) {
      Tuple old_t{Value(k), Value(v + 1)};
      out.push_back(Delta::Replace(std::move(old_t), std::move(t)));
      *in_domain = false;
    } else if (rng->NextBool(0.5)) {
      Delta d = Delta::Insert(std::move(t));
      d.weight = 1 + static_cast<int64_t>(rng->NextBelow(3));
      out.push_back(std::move(d));
    } else {
      out.push_back(Delta::Delete(std::move(t)));
    }
  }
  return out;
}

TEST(CoalescerColumnarTest, FoldIsBitIdenticalToScalarIncludingStats) {
  Rng rng(0xF01D);
  int columnar_hits = 0;
  for (int trial = 0; trial < 60; ++trial) {
    bool in_domain = true;
    const DeltaVec in = RandomCoalesceStream(&rng, &in_domain);
    CoalesceOptions opts;
    opts.key_fields = {0};
    opts.dedupe_idempotent = rng.NextBool(0.3);
    CoalesceOptions copts = opts;
    copts.columnar = true;
    CoalesceStats s_stats, c_stats;
    auto s_out = DeltaCoalescer(opts).Coalesce(in, &s_stats);
    auto c_out = DeltaCoalescer(copts).Coalesce(in, &c_stats);
    ASSERT_TRUE(s_out.ok());
    ASSERT_TRUE(c_out.ok());
    ASSERT_EQ(*s_out, *c_out) << "trial " << trial;
    EXPECT_EQ(s_stats.deltas_in, c_stats.deltas_in);
    EXPECT_EQ(s_stats.deltas_out, c_stats.deltas_out);
    EXPECT_EQ(s_stats.folded, c_stats.folded);
    EXPECT_EQ(s_stats.bytes_saved, c_stats.bytes_saved);
    EXPECT_EQ(s_stats.columnar_rows, 0);
    if (!in_domain) {
      EXPECT_EQ(c_stats.columnar_rows, 0) << "trial " << trial;
    }
    if (c_stats.columnar_rows > 0) ++columnar_hits;
  }
  // The columnar fold must actually fire on a healthy share of streams.
  EXPECT_GT(columnar_hits, 20);
}

TEST(CoalescerColumnarTest, WeightOverflowStillSurfacesInvalidArgument) {
  CoalesceOptions opts;
  opts.key_fields = {0};
  opts.columnar = true;
  Delta a = Delta::Insert(Tuple{Value(static_cast<int64_t>(1)),
                                Value(static_cast<int64_t>(10))});
  a.weight = INT64_MAX - 1;
  Delta b = a;
  CoalesceStats stats;
  auto res = DeltaCoalescer(opts).Coalesce({a, b}, &stats);
  ASSERT_FALSE(res.ok());
  EXPECT_EQ(res.status().code(), StatusCode::kInvalidArgument);
}

// ------------------------------------------------------ group-by fold --

struct GroupByHarness {
  Network network;
  PartitionMap pmap;
  UdfRegistry udfs;
  StorageCatalog storage;
  MetricsRegistry metrics;
  VoteBoard votes;
  CheckpointStore checkpoints;
  EngineConfig config;
  ExecContext ctx;

  explicit GroupByHarness(bool columnar) : network(1), pmap({0}, 1) {
    config.columnar_batches = columnar;
    ctx.network = &network;
    ctx.pmap = &pmap;
    ctx.udfs = &udfs;
    ctx.storage = &storage;
    ctx.metrics = &metrics;
    ctx.votes = &votes;
    ctx.checkpoints = &checkpoints;
    ctx.config = &config;
  }
};

/// Runs one wave of `deltas` through a group-by with every built-in
/// aggregate kind and returns the sorted emitted rows.
std::vector<Tuple> RunGroupByWave(const DeltaVec& deltas, bool columnar,
                                  std::vector<int> key_fields,
                                  int value_field) {
  GroupByHarness h(columnar);
  GroupByOp::Params params;
  params.key_fields = std::move(key_fields);
  params.aggs = {{AggKind::kSum, value_field, "sum"},
                 {AggKind::kCount, -1, "n"},
                 {AggKind::kMin, value_field, "min"},
                 {AggKind::kMax, value_field, "max"},
                 {AggKind::kAvg, value_field, "avg"}};
  params.mode = GroupByOp::Mode::kStratum;
  GroupByOp gb(0, params);
  SinkOp sink(1);
  gb.AddOutput(&sink, 0);
  EXPECT_TRUE(gb.Open(&h.ctx).ok());
  EXPECT_TRUE(sink.Open(&h.ctx).ok());
  // Feed in chunks so the columnar side sees multi-row batches.
  constexpr size_t kChunk = 16;
  for (size_t i = 0; i < deltas.size(); i += kChunk) {
    const size_t end = std::min(deltas.size(), i + kChunk);
    DeltaVec chunk(deltas.begin() + static_cast<long>(i),
                   deltas.begin() + static_cast<long>(end));
    EXPECT_TRUE(gb.Consume(0, std::move(chunk)).ok());
  }
  Punctuation punct;
  punct.kind = Punctuation::Kind::kEndOfStratum;
  punct.stratum = 0;
  EXPECT_TRUE(gb.OnPunct(0, punct).ok());
  std::vector<Tuple> rows = sink.results().tuples();
  std::sort(rows.begin(), rows.end());
  if (columnar) {
    EXPECT_GT(h.metrics.Value(metrics::kBatchRows), 0);
  } else {
    EXPECT_EQ(h.metrics.Value(metrics::kBatchRows), 0);
    EXPECT_EQ(h.metrics.Value(metrics::kBatchBatches), 0);
  }
  return rows;
}

TEST(GroupByColumnarTest, AllBuiltinsBitIdenticalToScalar) {
  Rng rng(0x6B0B);
  for (int trial = 0; trial < 25; ++trial) {
    // Insert-biased so min/max groups stay non-empty; key on an int
    // column, aggregate an int or double column.
    const bool double_values = rng.NextBool(0.5);
    DeltaVec stream;
    std::vector<Tuple> live;
    const size_t n = 20 + rng.NextBelow(60);
    for (size_t i = 0; i < n; ++i) {
      if (!live.empty() && rng.NextBool(0.25)) {
        const size_t pick = rng.NextBelow(live.size());
        stream.push_back(Delta::Delete(live[pick]));
        live.erase(live.begin() + static_cast<long>(pick));
        continue;
      }
      Tuple t{Value(static_cast<int64_t>(rng.NextBelow(5))),
              double_values
                  ? Value(rng.NextDouble(-10.0, 10.0))
                  : Value(static_cast<int64_t>(rng.NextBelow(100)))};
      live.push_back(t);
      Delta d = Delta::Insert(std::move(t));
      d.weight = 1 + static_cast<int64_t>(rng.NextBelow(2));
      // A weighted delete must leave at least as many weighted inserts
      // behind; keep weights on inserts only for simplicity.
      stream.push_back(std::move(d));
    }
    const auto scalar = RunGroupByWave(stream, false, {0}, 1);
    const auto columnar = RunGroupByWave(stream, true, {0}, 1);
    ASSERT_EQ(scalar.size(), columnar.size()) << "trial " << trial;
    for (size_t i = 0; i < scalar.size(); ++i) {
      EXPECT_EQ(scalar[i], columnar[i])
          << "trial " << trial << "\n scalar:   " << scalar[i].ToString()
          << "\n columnar: " << columnar[i].ToString();
    }
  }
}

TEST(GroupByColumnarTest, StringKeysAndGlobalGroupMatchScalar) {
  Rng rng(0x6B0C);
  DeltaVec stream;
  static const char* kKeys[] = {"red", "green", "blue"};
  for (int i = 0; i < 60; ++i) {
    stream.push_back(Delta::Insert(
        Tuple{Value(kKeys[rng.NextBelow(3)]),
              Value(static_cast<int64_t>(rng.NextBelow(50)))}));
  }
  // String-keyed groups (key matching via interned cells).
  EXPECT_EQ(RunGroupByWave(stream, false, {0}, 1),
            RunGroupByWave(stream, true, {0}, 1));
  // Empty key = one global group (the bare-seed hash special case).
  EXPECT_EQ(RunGroupByWave(stream, false, {}, 1),
            RunGroupByWave(stream, true, {}, 1));
}

// ------------------------------------------------- bugfix regressions --

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
      avg->ApplyWeightedInt(state.get(), (1LL << 53), 1).ok());
  ASSERT_TRUE(avg->ApplyWeightedInt(state.get(), 1, 4).ok());
  ASSERT_TRUE(avg->ApplyWeightedInt(state.get(), 1, -2).ok());
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

// ------------------------------------------------------- e2e + chaos --

EngineConfig ColumnarE2eConfig(bool columnar) {
  EngineConfig cfg;
  cfg.num_workers = 4;
  cfg.replication = 3;
  cfg.network_batch_size = 1024;
  cfg.columnar_batches = columnar;
  cfg.verify_invariants = true;  // Δ-conservation etc. must hold either way
  return cfg;
}

struct ColumnarE2eRun {
  std::vector<int64_t> distances;
  int strata = 0;
  int64_t tuples_sent = 0;
  int64_t batch_rows = 0;
  int64_t batch_fallback_rows = 0;
};

ColumnarE2eRun RunSsspColumnar(const GraphData& graph, bool columnar,
                               const FaultSchedule& faults = FaultSchedule{}) {
  Cluster cluster(ColumnarE2eConfig(columnar));
  EXPECT_TRUE(LoadGraphTables(&cluster, graph).ok());
  SsspConfig cfg;
  cfg.source = 1;
  EXPECT_TRUE(RegisterSsspUdfs(cluster.udfs(), cfg).ok());
  auto plan = BuildSsspDeltaPlan(cfg);
  EXPECT_TRUE(plan.ok()) << plan.status().ToString();
  QueryOptions options;
  options.faults = faults;
  auto run = cluster.Run(*plan, options);
  EXPECT_TRUE(run.ok()) << run.status().ToString();
  ColumnarE2eRun out;
  auto dist = DistancesFromState(run->fixpoint_state, graph.num_vertices);
  EXPECT_TRUE(dist.ok());
  out.distances = *dist;
  out.strata = run->strata_executed;
  out.tuples_sent = run->profile.tuples_sent;
  out.batch_rows = run->profile.batch_rows;
  out.batch_fallback_rows = run->profile.batch_fallback_rows;
  return out;
}

TEST(ColumnarE2E, SsspIdenticalOnVsOffAndBatchesFire) {
  GraphGenOptions opt;
  opt.num_vertices = 120;
  opt.num_edges = 1800;
  opt.seed = 23;
  GraphData graph = GenerateRmatGraph(opt);
  ColumnarE2eRun on = RunSsspColumnar(graph, true);
  ColumnarE2eRun off = RunSsspColumnar(graph, false);
  // Integer mins are order- and multiplicity-insensitive: exact equality,
  // and the wire traffic must be identical too (the plane changes layout,
  // never content).
  EXPECT_EQ(on.distances, off.distances);
  EXPECT_EQ(on.distances, ReferenceSssp(graph, 1));
  EXPECT_EQ(on.strata, off.strata);
  EXPECT_EQ(on.tuples_sent, off.tuples_sent);
  EXPECT_GT(on.batch_rows, 0);
  EXPECT_EQ(off.batch_rows, 0);
  EXPECT_EQ(off.batch_fallback_rows, 0);
}

// Re-run with the full seed pool by `ctest -L chaos` (the chaos_sweep
// entry's --gtest_filter=ChaosSweep* picks this up): crashes, restores,
// and replays must not perturb the columnar/scalar equivalence.
TEST(ChaosSweepColumnarTest, OnAndOffConvergeIdenticallyUnderFaults) {
  GraphGenOptions opt;
  opt.num_vertices = 400;
  opt.num_edges = 1600;
  opt.seed = 53;
  GraphData graph = GenerateRmatGraph(opt);
  const std::vector<int64_t> ref = ReferenceSssp(graph, 1);
  ColumnarE2eRun baseline = RunSsspColumnar(graph, true);
  ASSERT_EQ(baseline.distances, ref);
  ChaosProfile profile;
  profile.max_crash_stratum = std::max(0, std::min(3, baseline.strata - 5));
  const char* env = std::getenv("REX_CHAOS_SEEDS");
  const int seeds = env != nullptr && std::atoi(env) > 0 ? std::atoi(env) : 2;
  for (int i = 0; i < seeds; ++i) {
    const uint64_t seed = 7117u + static_cast<uint64_t>(i);
    FaultSchedule schedule = MakeChaosSchedule(seed, profile);
    SCOPED_TRACE("seed " + std::to_string(seed) + ": " + schedule.ToString());
    ColumnarE2eRun on = RunSsspColumnar(graph, true, schedule);
    ColumnarE2eRun off = RunSsspColumnar(graph, false, schedule);
    EXPECT_EQ(on.distances, off.distances);
    EXPECT_EQ(on.distances, ref);
    EXPECT_GT(on.batch_rows, 0);
    EXPECT_EQ(off.batch_rows, 0);
  }
}

}  // namespace
}  // namespace rex
