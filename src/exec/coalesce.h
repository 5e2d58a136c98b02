// The per-key ℤ-set fold: collapses a delta stream to its net effect
// (DBSP-style consolidation). Its one engine caller is the serving cursor,
// which folds a lagging subscriber's missed epochs into one net diff
// (serve/serve.cc). The shuffle, the fixpoint flush and the group-by's
// emission do not fold: pre-aggregation already hands them each key at
// most once per batch, and consolidating a ℤ-set whose keys are distinct
// is the identity (DESIGN.md "Where a key's contributions fold").
//
// Per key, every insert/delete/replace delta is folded into a ℤ-set net —
// tuple → signed multiplicity — where +t adds its weight, -t subtracts it,
// and ->(t') is the composite {-1·t', +1·t}. Terms that reach weight zero
// are eliminated; what survives is rendered back as canonical deltas (one
// -1/+1 pair becomes ->(t'), everything else weighted deletes then
// inserts). The chain rules all fall out as special cases of weight
// addition:
//    +t  then -t        annihilate            (+1 - 1 = 0)
//    -t  then +t        annihilate            (t was live upstream)
//    -t  then +t'       fold to ->(t') t'     (net {-t, +t'})
//    +a  then ->(a→b)   fold to +b
//    ->(a→b) then ->(b→c)  fold to ->(a→c); dropped entirely if a == c
//    ->(a→b) then -b    fold to -a
// Sound for any consumer that applies deltas to keyed state, under the
// stream-consistency contract every producer in this engine honors: a
// -() or ->(old) only refers to a tuple that is live downstream. δ()
// deltas are opaque handler payloads and never participate (they ride
// through untouched, except weight zero, which is a no-op and is dropped).
#ifndef REX_EXEC_COALESCE_H_
#define REX_EXEC_COALESCE_H_

#include <vector>

#include "common/delta.h"
#include "common/status.h"

namespace rex {

/// Folds `in` to its net effect per key. `key_fields` are the field
/// positions forming the key; empty means the whole tuple is the key (chain
/// rules across distinct tuples cannot fire). A delta too short for a key
/// field has no key to fold under and passes through as-is. Survivors keep
/// their original relative order (a fold leaves the composed delta at the
/// key's earlier position), so a stream whose keys are distinct comes back
/// unchanged.
///
/// Fails with InvalidArgument instead of invoking signed-overflow UB when
/// a key's accumulated ℤ-set weight leaves the int64 range (hostile or
/// pathological long-lived accumulations — exactly the regime standing
/// queries create), or when an input delta carries the non-negatable
/// weight INT64_MIN.
Result<DeltaVec> CoalesceDeltas(DeltaVec in,
                                const std::vector<int>& key_fields);

}  // namespace rex

#endif  // REX_EXEC_COALESCE_H_
