// Deltas: annotated tuples, the unit of incremental computation in REX.
//
// Definition 1 of the paper: a delta is a pair (α, t) where t is a tuple and
// α is one of
//   +()      insert t into operator state
//   -()      delete t from operator state
//   ->(t')   t replaces existing tuple t'
//   δ(E)     an arbitrary programmable update, interpreted by user-defined
//            delta handlers in downstream stateful operators
//
// Stateless operators propagate annotations unchanged; stateful operators
// (join, group-by, while/fixpoint) revise their internal state per the rules
// in §3.3 or via the four delta-handler hooks (see exec/uda.h).
#ifndef REX_COMMON_DELTA_H_
#define REX_COMMON_DELTA_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/tuple.h"

namespace rex {

/// The annotation α of Definition 1, plus one wire-only pseudo-annotation.
enum class DeltaOp : uint8_t {
  kInsert = 0,   // +()
  kDelete = 1,   // -()
  kReplace = 2,  // ->(t')
  kUpdate = 3,   // δ(E)
  /// Wire-format run of same-key +()/δ() deltas packed by the coalescer
  /// (exec/coalesce.h): the key is carried once, the per-key payload
  /// sequence rides in a list field. Exists only between a RehashOp
  /// sender's FlushTo and the receiving RehashOp's network port, which
  /// expands it back before pushing downstream — no other operator ever
  /// sees it.
  kBatch = 4,
};

const char* DeltaOpName(DeltaOp op);

/// An annotated tuple carrying an integer ℤ-set multiplicity.
///
/// The weight generalizes Definition 1 to DBSP-style ℤ-sets: a delta stands
/// for `weight` copies of its tuple. The annotation fixes the sign
/// convention — `+()` with weight w contributes +w, `-()` with weight w
/// contributes -w — so `Delete(t)` is exactly `Weighted(t, -1)` under
/// SignedWeight(). `->(t')` is the composite {-1·t', +1·t} and always has
/// weight 1; for δ(E) the weight rides along opaquely (its meaning belongs
/// to the delta handler, like the payload itself). Weight-zero deltas are
/// no-ops and are eliminated by the coalescer and stateful operators.
struct Delta {
  DeltaOp op = DeltaOp::kInsert;
  /// The tuple t: the inserted tuple, the tuple to delete, the replacement
  /// value, or — for δ(E) — the key plus the update payload E encoded as
  /// ordinary fields (the payload's meaning is owned by the delta handler
  /// that interprets it).
  Tuple tuple;
  /// For kReplace only: the existing tuple t' being replaced.
  Tuple old_tuple;
  /// ℤ-set multiplicity (always >= 1 in canonical form; the op carries the
  /// sign). Non-canonical negative weights are accepted as input and mean
  /// the op's inverse: Insert(t) with weight -w ≡ Delete(t) with weight w.
  int64_t weight = 1;

  static Delta Insert(Tuple t) {
    return Delta{DeltaOp::kInsert, std::move(t), {}, 1};
  }
  static Delta Delete(Tuple t) {
    return Delta{DeltaOp::kDelete, std::move(t), {}, 1};
  }
  static Delta Replace(Tuple old_t, Tuple new_t) {
    return Delta{DeltaOp::kReplace, std::move(new_t), std::move(old_t), 1};
  }
  static Delta Update(Tuple t) {
    return Delta{DeltaOp::kUpdate, std::move(t), {}, 1};
  }
  /// Canonical ℤ-set constructor: w > 0 → insert with weight w, w < 0 →
  /// delete with weight -w, w == 0 → weightless insert (a no-op everywhere).
  /// INT64_MIN has no negation in int64; it saturates to a delete of weight
  /// INT64_MAX rather than invoking signed-overflow UB. Ingress points
  /// (serde, the coalescer, join canonicalization) reject INT64_MIN outright
  /// so saturation only arises on locally constructed pathological weights.
  static Delta Weighted(Tuple t, int64_t w) {
    if (w < 0) {
      const int64_t mag = w == INT64_MIN ? INT64_MAX : -w;
      return Delta{DeltaOp::kDelete, std::move(t), {}, mag};
    }
    return Delta{DeltaOp::kInsert, std::move(t), {}, w};
  }

  /// The signed ℤ-set multiplicity: -weight for deletes, +weight otherwise.
  /// A (non-canonical) delete of weight INT64_MIN saturates to INT64_MAX.
  int64_t SignedWeight() const {
    if (op != DeltaOp::kDelete) return weight;
    return weight == INT64_MIN ? INT64_MAX : -weight;
  }

  /// Canonical set-plane sign: a +() of weight -w becomes a -() of weight
  /// w and vice versa. Other ops are left alone. Fails on INT64_MIN, which
  /// has no negation.
  Status CanonicalizeSign();

  /// The inverse delta: applying a batch then its negation is the identity.
  Delta Negated() const;

  /// Returns a copy with the same annotation but a different tuple
  /// (stateless operators transform t and keep α; §3.3).
  Delta WithTuple(Tuple t) const;

  bool operator==(const Delta& other) const {
    return op == other.op && weight == other.weight && tuple == other.tuple &&
           old_tuple == other.old_tuple;
  }

  std::string ToString() const;
  size_t ByteSize() const {
    return 1 + tuple.ByteSize() + old_tuple.ByteSize() +
           (weight == 1 ? 0 : 8);
  }
};

using DeltaVec = std::vector<Delta>;

/// Wraps plain tuples as insertions (the base, non-incremental case).
DeltaVec AsInsertions(std::vector<Tuple> tuples);

}  // namespace rex

#endif  // REX_COMMON_DELTA_H_
