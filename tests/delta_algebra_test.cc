// Property tests for the weighted ℤ-set delta algebra (DESIGN.md
// "Weighted deltas"): the laws the ℤ-set fold's weight arithmetic relies
// on, serde round trips for weighted/composite deltas, and a reference
// weighted-fold oracle the fold must agree with on random streams.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <random>
#include <string>
#include <vector>

#include "common/delta.h"
#include "common/serde.h"
#include "exec/coalesce.h"

namespace rex {
namespace {

Tuple T(int64_t k, int64_t v) { return Tuple{Value(k), Value(v)}; }

// ---------------------------------------------------------------------------
// ℤ-set laws on SignedWeight(): the algebra every stateful operator and the
// fold agree on.
// ---------------------------------------------------------------------------

TEST(DeltaAlgebra, SignConvention) {
  EXPECT_EQ(Delta::Insert(T(1, 2)).SignedWeight(), 1);
  EXPECT_EQ(Delta::Delete(T(1, 2)).SignedWeight(), -1);
  EXPECT_EQ(Delta::Weighted(T(1, 2), 5).SignedWeight(), 5);
  EXPECT_EQ(Delta::Weighted(T(1, 2), -5).SignedWeight(), -5);
  // Canonical form: the op carries the sign, weight stays >= 0.
  EXPECT_EQ(Delta::Weighted(T(1, 2), -5).op, DeltaOp::kDelete);
  EXPECT_EQ(Delta::Weighted(T(1, 2), -5).weight, 5);
}

TEST(DeltaAlgebra, DeleteIsWeightMinusOne) {
  // -() ≡ weight -1: same signed multiplicity, and the canonical Weighted
  // constructor reproduces Delete exactly.
  Delta del = Delta::Delete(T(7, 7));
  Delta w = Delta::Weighted(T(7, 7), -1);
  EXPECT_EQ(del, w);
  EXPECT_EQ(del.SignedWeight(), w.SignedWeight());
}

TEST(DeltaAlgebra, WeightAdditionCommutesAndAssociates) {
  std::mt19937_64 rng(42);
  std::uniform_int_distribution<int64_t> wdist(-6, 6);
  for (int trial = 0; trial < 200; ++trial) {
    int64_t a = wdist(rng), b = wdist(rng), c = wdist(rng);
    // The net multiplicity of a same-tuple stream is the sum of signed
    // weights, independent of order and grouping.
    auto net = [](std::vector<int64_t> ws) {
      int64_t n = 0;
      for (int64_t w : ws) n += Delta::Weighted(Tuple{Value(1)}, w).SignedWeight();
      return n;
    };
    EXPECT_EQ(net({a, b}), net({b, a}));
    EXPECT_EQ(net({a, b, c}), net({c, b, a}));
    EXPECT_EQ(net({a, b, c}), net({a, c, b}));
  }
}

TEST(DeltaAlgebra, NegatedIsInverse) {
  std::vector<Delta> cases = {
      Delta::Insert(T(1, 2)),
      Delta::Delete(T(3, 4)),
      Delta::Weighted(T(5, 6), 4),
      Delta::Weighted(T(5, 6), -3),
      Delta::Replace(T(7, 1), T(7, 2)),
      Delta::Update(T(9, 9)),
  };
  for (const Delta& d : cases) {
    Delta neg = d.Negated();
    // Negation flips the signed multiplicity — except for ->(t'), which is
    // the cardinality-neutral composite {-old, +new} and inverts by
    // swapping its tuples instead.
    if (d.op != DeltaOp::kReplace) {
      EXPECT_EQ(neg.SignedWeight(), -d.SignedWeight()) << d.ToString();
    }
    // Either way, negation is an involution.
    EXPECT_EQ(neg.Negated(), d) << d.ToString();
  }
  // Replace is the composite {-old, +new}; its inverse swaps the roles.
  Delta r = Delta::Replace(T(7, 1), T(7, 2));
  Delta rn = r.Negated();
  EXPECT_EQ(rn.op, DeltaOp::kReplace);
  EXPECT_EQ(rn.tuple, T(7, 1));
  EXPECT_EQ(rn.old_tuple, T(7, 2));
}

// ---------------------------------------------------------------------------
// Serde round trips: weighted, composite, and opaque deltas survive the wire
// and the checkpoint encoding bit-for-bit.
// ---------------------------------------------------------------------------

TEST(DeltaAlgebra, SerdeRoundTripsEveryShape) {
  std::vector<Delta> cases = {
      Delta::Insert(T(1, 2)),
      Delta::Delete(T(3, 4)),
      Delta::Replace(T(5, 1), T(5, 9)),  // non-empty old_tuple
      Delta::Update(T(6, 0)),
      Delta::Weighted(T(7, 7), 12),
      Delta::Weighted(T(8, 8), -3),
  };
  Delta heavy_update = Delta::Update(T(9, 9));
  heavy_update.weight = 1 << 20;  // opaque δ weight rides through
  cases.push_back(heavy_update);
  for (const Delta& d : cases) {
    auto back = DeserializeDelta(SerializeDelta(d));
    ASSERT_TRUE(back.ok()) << d.ToString() << ": " << back.status().ToString();
    EXPECT_EQ(*back, d) << d.ToString();
  }
}

TEST(DeltaAlgebra, SerdeWeightOneCostsNothing) {
  // The common case (weight 1, no old tuple) must not pay for the
  // generalization: its encoding is one head byte plus the tuple.
  Delta d = Delta::Insert(T(1, 2));
  EXPECT_EQ(SerializeDelta(d).size(), 1 + SerializeTuple(d.tuple).size());
  Delta w = Delta::Weighted(T(1, 2), 3);
  EXPECT_EQ(SerializeDelta(w).size(),
            1 + 8 + SerializeTuple(w.tuple).size());
}

TEST(DeltaAlgebra, SerdeRejectsMalformedHead) {
  // Unknown op nibble and unknown flag bits must fail loudly, not
  // misparse (checkpoint corruption shows up here).
  std::string bytes = SerializeDelta(Delta::Insert(T(1, 2)));
  for (char head : {0x04, 0x07}) {  // ops 4 and 7: not a DeltaOp
    bytes[0] = head;
    auto res = DeserializeDelta(bytes);
    ASSERT_FALSE(res.ok()) << "op " << static_cast<int>(head);
    EXPECT_EQ(res.status().code(), StatusCode::kTypeError);
  }
  bytes[0] = static_cast<char>(0x40);  // unknown flag bit
  EXPECT_FALSE(DeserializeDelta(bytes).ok());
}

// ---------------------------------------------------------------------------
// The fold vs a reference weighted fold: on random streams, the fold's
// output applied as a ℤ-set equals the input applied as a ℤ-set, per key.
// ---------------------------------------------------------------------------

/// Reference semantics: per key, tuple → net signed multiplicity. Replace
/// is the composite {-1·old, +1·new}; δ() is opaque and excluded (the
/// fold passes it through, which OpaqueUpdatesPassThroughWithWeight checks).
using ZSet = std::map<std::string, int64_t>;

ZSet FoldReference(const DeltaVec& deltas) {
  ZSet net;
  auto add = [&net](const Tuple& t, int64_t w) {
    std::string key = SerializeTuple(t);
    net[key] += w;
    if (net[key] == 0) net.erase(key);
  };
  for (const Delta& d : deltas) {
    switch (d.op) {
      case DeltaOp::kInsert:
        add(d.tuple, d.weight);
        break;
      case DeltaOp::kDelete:
        add(d.tuple, -d.weight);
        break;
      case DeltaOp::kReplace:
        add(d.old_tuple, -1);
        add(d.tuple, 1);
        break;
      default:
        break;
    }
  }
  return net;
}

DeltaVec RandomStream(std::mt19937_64* rng, int length, int num_keys) {
  std::uniform_int_distribution<int64_t> key(0, num_keys - 1);
  std::uniform_int_distribution<int64_t> val(0, 3);
  std::uniform_int_distribution<int> kind(0, 4);
  std::uniform_int_distribution<int64_t> wdist(1, 4);
  // Track one live value per key so replaces/deletes refer to live tuples
  // (the stream-consistency contract the fold's soundness needs).
  std::map<int64_t, int64_t> live;
  DeltaVec out;
  for (int i = 0; i < length; ++i) {
    int64_t k = key(*rng);
    auto it = live.find(k);
    switch (kind(*rng)) {
      case 0: {  // weighted insert
        int64_t v = val(*rng);
        out.push_back(Delta::Weighted(T(k, v), wdist(*rng)));
        live[k] = v;
        break;
      }
      case 1:  // delete the live tuple
        if (it != live.end()) {
          out.push_back(Delta::Delete(T(k, it->second)));
          live.erase(it);
        }
        break;
      case 2:  // replace the live tuple
        if (it != live.end()) {
          int64_t v = val(*rng);
          out.push_back(Delta::Replace(T(k, it->second), T(k, v)));
          live[k] = v;
        }
        break;
      case 3: {  // insert then revise in the same stream
        int64_t v = val(*rng);
        out.push_back(Delta::Insert(T(k, v)));
        out.push_back(Delta::Replace(T(k, v), T(k, (v + 1) % 4)));
        live[k] = (v + 1) % 4;
        break;
      }
      default: {  // inverse pair: net zero
        int64_t v = val(*rng);
        out.push_back(Delta::Insert(T(k, v)));
        out.push_back(Delta::Delete(T(k, v)));
        break;
      }
    }
  }
  return out;
}

TEST(DeltaAlgebra, CoalescerMatchesWeightedFoldOnRandomStreams) {
  std::mt19937_64 rng(20260808);
  for (int trial = 0; trial < 60; ++trial) {
    DeltaVec in = RandomStream(&rng, 40, 6);
    DeltaVec out = *CoalesceDeltas(in, {0});
    EXPECT_EQ(FoldReference(out), FoldReference(in)) << "trial " << trial;
    EXPECT_LE(out.size(), in.size());
  }
}

TEST(DeltaAlgebra, BatchPlusNegationCoalescesToNothing) {
  std::mt19937_64 rng(7);
  for (int trial = 0; trial < 40; ++trial) {
    DeltaVec batch = RandomStream(&rng, 25, 5);
    DeltaVec stream = batch;
    for (auto it = batch.rbegin(); it != batch.rend(); ++it) {
      stream.push_back(it->Negated());
    }
    DeltaVec out = *CoalesceDeltas(stream, {0});
    EXPECT_TRUE(FoldReference(out).empty())
        << "trial " << trial << ": " << out.size() << " net survivors";
  }
}

TEST(DeltaAlgebra, ZeroWeightIsEliminated) {
  DeltaVec in;
  in.push_back(Delta::Weighted(T(1, 1), 0));
  Delta zero_update = Delta::Update(T(2, 2));
  zero_update.weight = 0;
  in.push_back(zero_update);
  DeltaVec out = *CoalesceDeltas(std::move(in), {0});
  EXPECT_TRUE(out.empty());
}

TEST(DeltaAlgebra, OpaqueUpdatesPassThroughWithWeight) {
  Delta u = Delta::Update(T(3, 5));
  u.weight = 9;
  DeltaVec out = *CoalesceDeltas({u, Delta::Insert(T(3, 5))}, {0});
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0], u);  // weight untouched, order preserved
}

TEST(DeltaAlgebra, WeightedNetRendersAsDeletesThenInserts) {
  // A key whose net is {-2·a, +3·b} must come back as canonical weighted
  // deltas, not as a replace (replace is reserved for the exact -1/+1 pair).
  DeltaVec in;
  in.push_back(Delta::Weighted(T(1, 10), -2));
  in.push_back(Delta::Weighted(T(1, 20), 3));
  DeltaVec out = *CoalesceDeltas(std::move(in), {0});
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0], Delta::Weighted(T(1, 10), -2));
  EXPECT_EQ(out[1], Delta::Weighted(T(1, 20), 3));
}

}  // namespace
}  // namespace rex
