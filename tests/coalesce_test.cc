// Delta-coalescing tests (exec/coalesce.h): the fold algebra, idempotent
// dedupe, wire-run packing, and end-to-end on/off equivalence.
//
// Equivalence strength follows each algorithm's determinism envelope: SSSP
// distances are integers folded through order-independent mins, so the
// on/off comparison is exact; PageRank sums doubles whose cross-sender
// arrival order is already nondeterministic run to run, so on/off agrees
// within the same 1e-6 tolerance the chaos sweep uses. The
// ChaosSweepCoalesce test is re-run by `ctest -L chaos` with the full
// REX_CHAOS_SEEDS count (see tests/CMakeLists.txt).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "algos/pagerank.h"
#include "algos/reference.h"
#include "algos/sssp.h"
#include "common/rng.h"
#include "common/serde.h"
#include "exec/coalesce.h"
#include "sim/fault_schedule.h"

namespace rex {
namespace {

Delta I(int64_t k, int64_t v) { return Delta::Insert(Tuple{Value(k), Value(v)}); }
Delta D(int64_t k, int64_t v) { return Delta::Delete(Tuple{Value(k), Value(v)}); }
Delta R(int64_t k, int64_t old_v, int64_t new_v) {
  return Delta::Replace(Tuple{Value(k), Value(old_v)},
                        Tuple{Value(k), Value(new_v)});
}
Delta U(int64_t k, int64_t v) { return Delta::Update(Tuple{Value(k), Value(v)}); }

DeltaCoalescer KeyedCoalescer(bool dedupe = false, bool pack = false) {
  CoalesceOptions opts;
  opts.key_fields = {0};
  opts.dedupe_idempotent = dedupe;
  opts.pack_runs = pack;
  return DeltaCoalescer(std::move(opts));
}

Delta W(int64_t k, int64_t v, int64_t w) {
  Delta d = Delta::Insert(Tuple{Value(k), Value(v)});
  d.weight = w;
  return d;
}

// ---------------------------------------------------------------- algebra --

// Regression: folding two near-INT64_MAX weights used to be signed-overflow
// UB in the ℤ-set accumulator; it must now surface InvalidArgument. Runs
// under REX_SANITIZE=undefined in CI, which would abort on the old code.
TEST(DeltaCoalescerTest, WeightOverflowSurfacesInvalidArgument) {
  CoalesceStats stats;
  auto res = KeyedCoalescer().Coalesce(
      {W(1, 10, INT64_MAX - 1), W(1, 10, INT64_MAX - 1)}, &stats);
  ASSERT_FALSE(res.ok());
  EXPECT_EQ(res.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(res.status().message().find("overflow"), std::string::npos);
}

TEST(DeltaCoalescerTest, NegativeWeightOverflowSurfacesInvalidArgument) {
  Delta d1 = D(2, 20);
  d1.weight = INT64_MAX;
  Delta d2 = D(2, 20);
  d2.weight = 2;
  auto res = KeyedCoalescer().Coalesce({d1, d2}, nullptr);
  ASSERT_FALSE(res.ok());
  EXPECT_EQ(res.status().code(), StatusCode::kInvalidArgument);
}

TEST(DeltaCoalescerTest, NearMaxWeightsThatCancelStillCoalesce) {
  Delta ins = W(3, 30, INT64_MAX - 1);
  Delta del = D(3, 30);
  del.weight = INT64_MAX - 1;
  DeltaVec out = *KeyedCoalescer().Coalesce({ins, del}, nullptr);
  EXPECT_TRUE(out.empty());
}

TEST(DeltaCoalescerTest, Int64MinWeightRejectedAtIngress) {
  Delta d = W(4, 40, INT64_MIN);
  auto res = KeyedCoalescer().Coalesce({d}, nullptr);
  ASSERT_FALSE(res.ok());
  EXPECT_EQ(res.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(res.status().message().find("INT64_MIN"), std::string::npos);
}

TEST(DeltaSerdeTest, Int64MinWeightRejectedOnDeserialize) {
  Delta d = W(5, 50, 7);
  BufferWriter w;
  w.PutDelta(d);
  std::string bytes = w.bytes();
  // Patch the serialized weight (i64 immediately after the head byte) to
  // INT64_MIN and expect the reader to refuse it.
  ASSERT_GE(bytes.size(), 9u);
  uint64_t min_bits = 0x8000000000000000ULL;
  for (int i = 0; i < 8; ++i) {
    bytes[1 + i] = static_cast<char>((min_bits >> (8 * i)) & 0xff);
  }
  BufferReader r(bytes.data(), bytes.size());
  auto res = r.GetDelta();
  ASSERT_FALSE(res.ok());
  EXPECT_EQ(res.status().code(), StatusCode::kParseError);
}

TEST(DeltaCoalescerTest, InsertThenDeleteAnnihilates) {
  CoalesceStats stats;
  DeltaVec out = *KeyedCoalescer().Coalesce({I(1, 10), D(1, 10)}, &stats);
  EXPECT_TRUE(out.empty());
  EXPECT_EQ(stats.folded, 2);
  EXPECT_GT(stats.bytes_saved, 0);
}

TEST(DeltaCoalescerTest, DeleteThenReinsertAnnihilates) {
  DeltaVec out = *KeyedCoalescer().Coalesce({D(1, 10), I(1, 10)}, nullptr);
  EXPECT_TRUE(out.empty());
}

TEST(DeltaCoalescerTest, DeleteThenInsertOfNewValueFoldsToReplace) {
  DeltaVec out = *KeyedCoalescer().Coalesce({D(1, 10), I(1, 11)}, nullptr);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0], R(1, 10, 11));
}

TEST(DeltaCoalescerTest, FiveRevisionsFoldToOneDelta) {
  // The motivating case: a key revised five times inside one stratum ships
  // one net delta, not five.
  DeltaVec in = {I(7, 0), R(7, 0, 1), R(7, 1, 2), R(7, 2, 3), R(7, 3, 4)};
  CoalesceStats stats;
  DeltaVec out = *KeyedCoalescer().Coalesce(std::move(in), &stats);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0], I(7, 4));
  EXPECT_EQ(stats.deltas_in, 5);
  EXPECT_EQ(stats.deltas_out, 1);
  EXPECT_EQ(stats.folded, 4);
}

TEST(DeltaCoalescerTest, ReplaceChainsCompose) {
  DeltaVec out =
      *KeyedCoalescer().Coalesce({R(3, 1, 2), R(3, 2, 5), R(3, 5, 9)}, nullptr);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0], R(3, 1, 9));
}

TEST(DeltaCoalescerTest, ReplaceRoundTripDropsEntirely) {
  DeltaVec out = *KeyedCoalescer().Coalesce({R(3, 1, 2), R(3, 2, 1)}, nullptr);
  EXPECT_TRUE(out.empty());
}

TEST(DeltaCoalescerTest, ReplaceThenDeleteFoldsToDeleteOfOriginal) {
  DeltaVec out = *KeyedCoalescer().Coalesce({R(4, 1, 2), D(4, 2)}, nullptr);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0], D(4, 1));
}

TEST(DeltaCoalescerTest, InsertThenReplaceChainFoldsToInsertOfLast) {
  DeltaVec out = *KeyedCoalescer().Coalesce({I(5, 1), R(5, 1, 2)}, nullptr);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0], I(5, 2));
}

TEST(DeltaCoalescerTest, UntouchedStreamComesBackVerbatim) {
  // δ() streams and cross-key traffic that nothing folds must keep their
  // exact order (downstream FP folds are order-sensitive).
  DeltaVec in = {U(1, 10), U(2, 20), U(1, 11), I(3, 30), U(2, 21)};
  DeltaVec expect = in;
  CoalesceStats stats;
  DeltaVec out = *KeyedCoalescer().Coalesce(std::move(in), &stats);
  EXPECT_EQ(out, expect);
  EXPECT_EQ(stats.folded, 0);
  EXPECT_EQ(stats.bytes_saved, 0);
}

TEST(DeltaCoalescerTest, ChainsAreIndependentPerKey) {
  DeltaVec in = {I(1, 10), I(2, 20), R(1, 10, 11), D(2, 20)};
  DeltaVec out = *KeyedCoalescer().Coalesce(std::move(in), nullptr);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0], I(1, 11));
}

TEST(DeltaCoalescerTest, IdempotentDedupeDropsExactRepeatsOnly) {
  DeltaVec in = {U(1, 5), U(1, 5), U(1, 3), U(1, 5), U(2, 5)};
  CoalesceStats stats;
  DeltaVec out = *KeyedCoalescer(/*dedupe=*/true).Coalesce(std::move(in),
                                                          &stats);
  EXPECT_EQ(out, (DeltaVec{U(1, 5), U(1, 3), U(2, 5)}));
  EXPECT_EQ(stats.folded, 2);
}

TEST(DeltaCoalescerTest, DedupeOffKeepsRepeats) {
  DeltaVec in = {U(1, 5), U(1, 5)};
  DeltaVec expect = in;
  DeltaVec out = *KeyedCoalescer().Coalesce(std::move(in), nullptr);
  EXPECT_EQ(out, expect);
}

TEST(DeltaCoalescerTest, DedupeIgnoresAnnihilatedInserts) {
  // +t, -t, +t: the pair annihilates, so the trailing insert is NOT a
  // duplicate of a live entry and must survive.
  DeltaVec in = {I(1, 10), D(1, 10), I(1, 10)};
  DeltaVec out = *KeyedCoalescer(/*dedupe=*/true).Coalesce(std::move(in),
                                                          nullptr);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0], I(1, 10));
}

// -------------------------------------------------------- fold-free check --

/// Every {pack_runs, dedupe_idempotent} combination over `keys`.
std::vector<CoalesceOptions> AllOptionCombos(const std::vector<int>& keys) {
  std::vector<CoalesceOptions> combos;
  for (int bits = 0; bits < 4; ++bits) {
    CoalesceOptions opts;
    opts.key_fields = keys;
    opts.pack_runs = (bits & 1) != 0;
    opts.dedupe_idempotent = (bits & 2) != 0;
    combos.push_back(opts);
  }
  return combos;
}

std::string ComboName(const CoalesceOptions& opts) {
  return std::string(" [pack=") + (opts.pack_runs ? "1" : "0") +
         " dedupe=" + (opts.dedupe_idempotent ? "1" : "0") + "]";
}

int64_t Bytes(const DeltaVec& v) {
  int64_t bytes = 0;
  for (const Delta& d : v) bytes += static_cast<int64_t>(d.ByteSize());
  return bytes;
}

/// A stream no key repeats in, of deltas with weights 1-3: a mix of
/// +()/-()/δ(), or only +()/-(), or only δ(). Keyed streams (key = field 0)
/// draw distinct int or string keys; keyless streams draw distinct whole
/// tuples, so field 0 alone may repeat.
DeltaVec RandomFoldFreeStream(Rng* rng, bool keyed) {
  static constexpr DeltaOp kOps[] = {DeltaOp::kInsert, DeltaOp::kDelete,
                                     DeltaOp::kUpdate};
  const uint64_t mix = rng->NextBelow(3);
  const uint64_t first_op = mix == 2 ? 2 : 0;
  const uint64_t num_ops = mix == 0 ? 3 : mix == 1 ? 2 : 1;
  const uint64_t n = 1 + rng->NextBelow(200);
  const bool string_keys = rng->NextBelow(2) == 0;
  std::set<std::pair<uint64_t, uint64_t>> used;
  DeltaVec out;
  while (out.size() < n) {
    const uint64_t k = rng->NextBelow(keyed ? 4 * n : 8);
    const uint64_t v = rng->NextBelow(keyed ? 5 : 4 * n);
    if (!used.insert({k, keyed ? 0 : v}).second) continue;
    Value key = string_keys ? Value("k" + std::to_string(k))
                            : Value(static_cast<int64_t>(k));
    Delta d;
    d.op = kOps[first_op + rng->NextBelow(num_ops)];
    d.tuple = Tuple{std::move(key), Value(static_cast<int64_t>(v))};
    d.weight = 1 + static_cast<int64_t>(rng->NextBelow(3));
    out.push_back(std::move(d));
  }
  return out;
}

TEST(DeltaCoalescerTest, FoldFreeStreamsComeBackUntouched) {
  Rng rng(0xF01DF4EE);
  for (int trial = 0; trial < 40; ++trial) {
    const bool keyed = trial % 2 == 0;
    const DeltaVec in = RandomFoldFreeStream(&rng, keyed);
    const auto n = static_cast<int64_t>(in.size());
    const std::vector<int> keys =
        keyed ? std::vector<int>{0} : std::vector<int>{};
    for (const CoalesceOptions& opts : AllOptionCombos(keys)) {
      CoalesceStats stats;
      auto out = DeltaCoalescer(opts).Coalesce(in, &stats);
      ASSERT_TRUE(out.ok()) << out.status().ToString();
      EXPECT_EQ(*out, in) << "trial " << trial << ComboName(opts);
      EXPECT_EQ(stats.folded, 0);
      EXPECT_EQ(stats.bytes_saved, 0);
      EXPECT_EQ(stats.deltas_in, n);
      EXPECT_EQ(stats.deltas_out, n);
    }
  }
}

TEST(DeltaCoalescerTest, FoldFreeCheckFallsThroughToTheFold) {
  // One disqualifying delta in an otherwise fold-free stream sends the
  // whole stream through the fold, whose output each case pins.
  struct Case {
    const char* name;
    DeltaVec in;
    DeltaVec expect;
  };
  const std::vector<Case> cases = {
      // Key 1's second term renders at the key's first position.
      {"repeated key",
       {I(1, 10), I(2, 20), I(1, 11)},
       {I(1, 10), I(1, 11), I(2, 20)}},
      {"weight 0", {I(1, 10), W(2, 20, 0), I(3, 30)}, {I(1, 10), I(3, 30)}},
      {"negative-weight insert",
       {I(1, 10), W(2, 20, -2)},
       {I(1, 10),
        Delta{DeltaOp::kDelete, Tuple{Value(int64_t{2}), Value(int64_t{20})},
              {}, 2}}},
      // ->(t -> t) nets to nothing.
      {"replace", {I(2, 20), R(1, 10, 10)}, {I(2, 20)}},
  };
  for (const Case& c : cases) {
    for (const CoalesceOptions& opts : AllOptionCombos({0})) {
      CoalesceStats stats;
      auto out = DeltaCoalescer(opts).Coalesce(c.in, &stats);
      ASSERT_TRUE(out.ok()) << c.name << ": " << out.status().ToString();
      EXPECT_EQ(*out, c.expect) << c.name << ComboName(opts);
      EXPECT_EQ(stats.deltas_in, static_cast<int64_t>(c.in.size()));
      EXPECT_EQ(stats.deltas_out, static_cast<int64_t>(c.expect.size()));
      EXPECT_EQ(stats.folded,
                static_cast<int64_t>(c.in.size() - c.expect.size()));
      EXPECT_EQ(stats.bytes_saved, Bytes(c.in) - Bytes(c.expect));
    }
  }
}

TEST(DeltaCoalescerTest, DeltaMissingItsKeyFieldShipsUnfolded) {
  // Keyed on field 1, a one-field tuple has no key to fold under: it ships
  // as-is while the in-range pair around it still annihilates.
  const Delta short_tuple = Delta::Insert(Tuple{Value(int64_t{7})});
  for (const CoalesceOptions& opts : AllOptionCombos({1})) {
    CoalesceStats stats;
    auto out = DeltaCoalescer(opts).Coalesce(
        {I(1, 10), short_tuple, D(1, 10)}, &stats);
    ASSERT_TRUE(out.ok()) << out.status().ToString();
    EXPECT_EQ(*out, DeltaVec{short_tuple}) << ComboName(opts);
    EXPECT_EQ(stats.folded, 2);
  }
}

// ---------------------------------------------------------------- packing --

/// Per-key subsequence of a stream (order within the key preserved).
DeltaVec KeyRun(const DeltaVec& v, int64_t key) {
  DeltaVec out;
  for (const Delta& d : v) {
    if (d.tuple.size() > 0 && d.tuple.field(0) == Value(key)) {
      out.push_back(d);
    }
  }
  return out;
}

TEST(DeltaPackingTest, PacksUniformRunsAndExpandsExactly) {
  // Key 1's run of three is long enough for packing to shrink the wire;
  // key 2's run of two is not (the batch header outweighs it) and ships
  // raw.
  DeltaVec in = {U(1, 10), U(2, 20), U(1, 11), U(1, 12), U(2, 21)};
  CoalesceStats stats;
  DeltaVec packed =
      *KeyedCoalescer(false, /*pack=*/true).Coalesce(in, &stats);
  ASSERT_EQ(packed.size(), 3u);
  EXPECT_EQ(packed[0].op, DeltaOp::kBatch);
  EXPECT_EQ(packed[1], U(2, 20));
  EXPECT_EQ(packed[2], U(2, 21));
  EXPECT_GT(stats.bytes_saved, 0);
  EXPECT_EQ(stats.folded, 0);  // packing delivers every payload

  auto expanded = DeltaCoalescer::Expand(std::move(packed));
  ASSERT_TRUE(expanded.ok()) << expanded.status().ToString();
  EXPECT_EQ(expanded->size(), in.size());
  // The per-key sequences are byte-identical to the input's.
  EXPECT_EQ(KeyRun(*expanded, 1), KeyRun(in, 1));
  EXPECT_EQ(KeyRun(*expanded, 2), KeyRun(in, 2));
}

TEST(DeltaPackingTest, NeverInflatesTheWire) {
  // Any stream must come out of the packer no larger than it went in.
  DeltaVec in = {U(1, 10), U(1, 11),  // run of two narrow tuples
                 U(2, 20)};
  DeltaVec expect = in;
  size_t in_bytes = 0;
  for (const Delta& d : in) in_bytes += d.ByteSize();
  DeltaVec out = *KeyedCoalescer(false, true).Coalesce(std::move(in), nullptr);
  size_t out_bytes = 0;
  for (const Delta& d : out) out_bytes += d.ByteSize();
  EXPECT_LE(out_bytes, in_bytes);
  // This particular run of two is below the profitability threshold, so
  // the stream is untouched.
  EXPECT_EQ(out, expect);
}

TEST(DeltaPackingTest, SingletonKeysStayUnpacked) {
  DeltaVec in = {U(1, 10), U(2, 20)};
  DeltaVec expect = in;
  DeltaVec out = *KeyedCoalescer(false, true).Coalesce(std::move(in), nullptr);
  EXPECT_EQ(out, expect);
}

TEST(DeltaPackingTest, MixedOpKeysStayUnpacked) {
  // An insert and a δ() on the same key must keep their relative order, so
  // the key is shipped raw.
  DeltaVec in = {U(1, 10), I(1, 11), U(1, 12)};
  DeltaVec expect = in;
  DeltaVec out = *KeyedCoalescer(false, true).Coalesce(std::move(in), nullptr);
  EXPECT_EQ(out, expect);
}

TEST(DeltaPackingTest, WidePayloadRoundTrips) {
  auto wide = [](int64_t k, int64_t a, const std::string& b) {
    return Delta::Update(Tuple{Value(k), Value(a), Value(b)});
  };
  DeltaVec in = {wide(1, 10, "x"), wide(1, 11, "y"), wide(1, 12, "z"),
                 wide(1, 13, "w"), wide(1, 14, "v")};
  DeltaVec packed = *KeyedCoalescer(false, true).Coalesce(in, nullptr);
  ASSERT_EQ(packed.size(), 1u);
  EXPECT_EQ(packed[0].op, DeltaOp::kBatch);
  auto expanded = DeltaCoalescer::Expand(std::move(packed));
  ASSERT_TRUE(expanded.ok()) << expanded.status().ToString();
  EXPECT_EQ(*expanded, in);
}

TEST(DeltaPackingTest, NonLeadingKeyFieldRoundTrips) {
  CoalesceOptions opts;
  opts.key_fields = {1};
  opts.pack_runs = true;
  DeltaCoalescer c(std::move(opts));
  auto mk = [](int64_t payload, int64_t key) {
    return Delta::Update(Tuple{Value(payload), Value(key)});
  };
  DeltaVec in = {mk(10, 7), mk(11, 7), mk(12, 7)};
  DeltaVec packed = *c.Coalesce(in, nullptr);
  ASSERT_EQ(packed.size(), 1u);
  auto expanded = DeltaCoalescer::Expand(std::move(packed));
  ASSERT_TRUE(expanded.ok()) << expanded.status().ToString();
  EXPECT_EQ(*expanded, in);
}

TEST(DeltaPackingTest, ExpandRejectsCorruptBatch) {
  Delta bogus;
  bogus.op = DeltaOp::kBatch;
  bogus.tuple = Tuple{Value(int64_t{1}), Value::List({Value(int64_t{2})})};
  bogus.old_tuple = Tuple{Value(int64_t{9}), Value(int64_t{2}),
                          Value(int64_t{0})};  // op 9 does not exist
  auto expanded = DeltaCoalescer::Expand({bogus});
  EXPECT_FALSE(expanded.ok());

  Delta short_header;
  short_header.op = DeltaOp::kBatch;
  short_header.tuple = Tuple{Value(int64_t{1})};
  short_header.old_tuple = Tuple{Value(int64_t{3})};
  expanded = DeltaCoalescer::Expand({short_header});
  EXPECT_FALSE(expanded.ok());

  // Hostile arities must fail before any buffer is sized from them, for a
  // flat and for a nested payload.
  const Value flat_payload = Value::List({Value(int64_t{2})});
  const Value nested_payload = Value::List(
      {Value::List({Value(int64_t{2}), Value(int64_t{3})})});
  for (const Value& payload : {flat_payload, nested_payload}) {
    for (int64_t arity : {int64_t{-1}, int64_t{1} << 40}) {
      Delta hostile;
      hostile.op = DeltaOp::kBatch;
      hostile.tuple = Tuple{Value(int64_t{1}), payload};
      hostile.old_tuple =
          Tuple{Value(static_cast<int64_t>(DeltaOp::kUpdate)), Value(arity),
                Value(int64_t{0})};
      expanded = DeltaCoalescer::Expand({hostile});
      ASSERT_FALSE(expanded.ok()) << "arity " << arity;
      EXPECT_EQ(expanded.status().code(), StatusCode::kDataLoss)
          << "arity " << arity;
    }
  }
}

TEST(DeltaPackingTest, ExpandPassesPlainStreamsThrough) {
  DeltaVec in = {U(1, 10), I(2, 20)};
  DeltaVec expect = in;
  auto expanded = DeltaCoalescer::Expand(std::move(in));
  ASSERT_TRUE(expanded.ok());
  EXPECT_EQ(*expanded, expect);
}

TEST(DeltaPackingTest, ReplaceWithOldTupleRoundTripsUnpacked) {
  // A ->(t') composite next to a packable run: the replace must come
  // through pack/expand with its old_tuple intact (it regressed once —
  // the checkpoint encoding silently dropped old_tuple, turning the
  // composite into a bare insert on replay).
  DeltaVec in = {R(1, 10, 11), U(2, 20), U(2, 21), U(2, 22)};
  DeltaVec packed = *KeyedCoalescer(false, /*pack=*/true).Coalesce(in, nullptr);
  ASSERT_GE(packed.size(), 2u);
  EXPECT_EQ(packed[0], R(1, 10, 11));  // composites never enter a batch
  auto expanded = DeltaCoalescer::Expand(std::move(packed));
  ASSERT_TRUE(expanded.ok()) << expanded.status().ToString();
  EXPECT_EQ(*expanded, in);
  // And the composite survives the wire/checkpoint encoding bit-for-bit.
  auto back = DeserializeDelta(SerializeDelta(in[0]));
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, in[0]);
  EXPECT_EQ(back->old_tuple, in[0].old_tuple);
}

TEST(DeltaPackingTest, WeightedDeltasNeverPack) {
  // Run packing carries no per-payload weight slot, so a weight != 1
  // survivor must stay a plain delta even inside a uniform same-key run.
  DeltaVec in = {I(1, 10), Delta::Weighted(Tuple{Value(int64_t{1}),
                                                 Value(int64_t{11})}, 3),
                 I(1, 12)};
  DeltaVec expect = in;
  DeltaVec packed = *KeyedCoalescer(false, /*pack=*/true)
                        .Coalesce(std::move(in), nullptr);
  for (const Delta& d : packed) EXPECT_NE(d.op, DeltaOp::kBatch);
  auto expanded = DeltaCoalescer::Expand(std::move(packed));
  ASSERT_TRUE(expanded.ok());
  EXPECT_EQ(*expanded, expect);
}

TEST(DeltaPackingTest, ReplaceChainOutputKeepsComposedOldTuple) {
  // {D(k,a), I(k,b)} folds to ->(a→b); the survivor must carry a as its
  // old tuple (not empty), or downstream keyed state deletes nothing.
  DeltaVec out =
      *KeyedCoalescer().Coalesce({D(4, 1), I(4, 2), U(9, 9)}, nullptr);
  ASSERT_EQ(out.size(), 2u);
  ASSERT_EQ(out[0].op, DeltaOp::kReplace);
  EXPECT_EQ(out[0].old_tuple, (Tuple{Value(int64_t{4}), Value(int64_t{1})}));
  auto back = DeserializeDelta(SerializeDelta(out[0]));
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, out[0]);
}

// ----------------------------------------------------------- end to end --

EngineConfig E2eConfig(bool coalesce) {
  EngineConfig cfg;
  cfg.num_workers = 4;
  cfg.replication = 3;
  // Large network batches lengthen the per-key runs the packer sees (a
  // flush per stratum rather than every few tuples).
  cfg.network_batch_size = 1024;
  cfg.coalesce_deltas = coalesce;
  cfg.verify_invariants = true;  // Δ-conservation etc. must hold either way
  return cfg;
}

GraphData DenseGraph(uint64_t seed = 23) {
  GraphGenOptions opt;
  opt.num_vertices = 120;
  opt.num_edges = 1800;  // dense: many same-destination contributions
  opt.seed = seed;
  return GenerateRmatGraph(opt);
}

struct E2eRun {
  std::vector<int64_t> distances;
  std::vector<double> ranks;
  int strata = 0;
  int64_t tuples_sent = 0;
  int64_t bytes_sent = 0;
  int64_t deltas_coalesced = 0;
  int64_t coalesce_bytes_saved = 0;
};

E2eRun RunSssp(const GraphData& graph, bool coalesce,
               const FaultSchedule& faults = FaultSchedule{}) {
  Cluster cluster(E2eConfig(coalesce));
  EXPECT_TRUE(LoadGraphTables(&cluster, graph).ok());
  SsspConfig cfg;
  cfg.source = 1;
  // Expose the raw candidate stream to the shuffle (the preaggregation
  // group-by would otherwise collapse duplicates before the rehash).
  cfg.preaggregate = false;
  EXPECT_TRUE(RegisterSsspUdfs(cluster.udfs(), cfg).ok());
  auto plan = BuildSsspDeltaPlan(cfg);
  EXPECT_TRUE(plan.ok()) << plan.status().ToString();
  QueryOptions options;
  options.faults = faults;
  auto run = cluster.Run(*plan, options);
  EXPECT_TRUE(run.ok()) << run.status().ToString();
  E2eRun out;
  auto dist = DistancesFromState(run->fixpoint_state, graph.num_vertices);
  EXPECT_TRUE(dist.ok());
  out.distances = *dist;
  out.strata = run->strata_executed;
  out.tuples_sent = run->profile.tuples_sent;
  out.bytes_sent = run->total_bytes_sent;
  out.deltas_coalesced = run->profile.deltas_coalesced;
  out.coalesce_bytes_saved = run->profile.coalesce_bytes_saved;
  return out;
}

E2eRun RunPageRank(const GraphData& graph, bool coalesce) {
  Cluster cluster(E2eConfig(coalesce));
  EXPECT_TRUE(LoadGraphTables(&cluster, graph).ok());
  PageRankConfig cfg;
  cfg.threshold = 1e-6;
  cfg.preaggregate = false;  // raw contribution stream at the shuffle
  EXPECT_TRUE(RegisterPageRankUdfs(cluster.udfs(), cfg).ok());
  auto plan = BuildPageRankDeltaPlan(cfg);
  EXPECT_TRUE(plan.ok()) << plan.status().ToString();
  auto run = cluster.Run(*plan);
  EXPECT_TRUE(run.ok()) << run.status().ToString();
  E2eRun out;
  auto ranks = RanksFromState(run->fixpoint_state, graph.num_vertices);
  EXPECT_TRUE(ranks.ok());
  out.ranks = *ranks;
  out.tuples_sent = run->profile.tuples_sent;
  out.bytes_sent = run->total_bytes_sent;
  out.deltas_coalesced = run->profile.deltas_coalesced;
  out.coalesce_bytes_saved = run->profile.coalesce_bytes_saved;
  return out;
}

TEST(CoalesceE2E, SsspIdenticalOnVsOffAndShipsLess) {
  GraphData graph = DenseGraph();
  E2eRun on = RunSssp(graph, true);
  E2eRun off = RunSssp(graph, false);
  // Integer mins are order- and multiplicity-insensitive: exact equality.
  EXPECT_EQ(on.distances, off.distances);
  EXPECT_EQ(on.distances, ReferenceSssp(graph, 1));
  EXPECT_LT(on.tuples_sent, off.tuples_sent);
  EXPECT_LT(on.bytes_sent, off.bytes_sent);
  EXPECT_GT(on.deltas_coalesced, 0);
  EXPECT_GT(on.coalesce_bytes_saved, 0);
  EXPECT_EQ(off.deltas_coalesced, 0);
  EXPECT_EQ(off.coalesce_bytes_saved, 0);
}

TEST(CoalesceE2E, PageRankMatchesOnVsOffAndShipsLess) {
  GraphData graph = DenseGraph(31);
  E2eRun on = RunPageRank(graph, true);
  E2eRun off = RunPageRank(graph, false);
  ASSERT_EQ(on.ranks.size(), off.ranks.size());
  for (size_t i = 0; i < on.ranks.size(); ++i) {
    // Same tolerance the chaos sweep uses for PageRank: cross-sender FP
    // summation order is nondeterministic run to run either way.
    EXPECT_NEAR(on.ranks[i], off.ranks[i], 1e-6) << "vertex " << i;
  }
  EXPECT_LT(on.tuples_sent, off.tuples_sent);
  EXPECT_LT(on.bytes_sent, off.bytes_sent);
  EXPECT_GT(on.coalesce_bytes_saved, 0);
}

// Re-run with the full seed pool by `ctest -L chaos` (the chaos_sweep
// entry's --gtest_filter=ChaosSweep* picks this up).
TEST(ChaosSweepCoalesceTest, OnAndOffConvergeIdenticallyUnderFaults) {
  // Larger and sparser than the DenseGraph micro-benchmarks: more strata
  // before convergence leaves room to schedule crashes.
  GraphGenOptions opt;
  opt.num_vertices = 400;
  opt.num_edges = 1600;
  opt.seed = 47;
  GraphData graph = GenerateRmatGraph(opt);
  const std::vector<int64_t> ref = ReferenceSssp(graph, 1);
  // Unfaulted reference run to learn the convergence stratum: crashes must
  // be scheduled well before it or end-of-run schedule validation rejects
  // the run (same recipe as the main chaos sweep).
  E2eRun baseline = RunSssp(graph, true);
  ASSERT_EQ(baseline.distances, ref);
  ChaosProfile profile;
  profile.max_crash_stratum = std::max(0, std::min(3, baseline.strata - 5));
  const char* env = std::getenv("REX_CHAOS_SEEDS");
  const int seeds = env != nullptr && std::atoi(env) > 0 ? std::atoi(env) : 2;
  for (int i = 0; i < seeds; ++i) {
    const uint64_t seed = 4242u + static_cast<uint64_t>(i);
    FaultSchedule schedule = MakeChaosSchedule(seed, profile);
    SCOPED_TRACE("seed " + std::to_string(seed) + ": " +
                 schedule.ToString());
    E2eRun on = RunSssp(graph, true, schedule);
    E2eRun off = RunSssp(graph, false, schedule);
    EXPECT_EQ(on.distances, off.distances);
    EXPECT_EQ(on.distances, ref);
  }
}

}  // namespace
}  // namespace rex
