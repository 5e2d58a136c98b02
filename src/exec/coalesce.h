// Delta coalescing: fold a delta stream to its net effect before it is
// flushed or shuffled (DBSP-style Z-set normalization before exchange).
//
// Three independent mechanisms, each sound under a different contract:
//
//  1. Weight algebra (always on). Per key, every insert/delete/replace
//     delta is folded into a ℤ-set net — tuple → signed multiplicity —
//     where +t adds its weight, -t subtracts it, and ->(t') is the
//     composite {-1·t', +1·t}. Terms that reach weight zero are eliminated;
//     what survives is rendered back as canonical deltas (one -1/+1 pair
//     becomes ->(t'), everything else weighted deletes then inserts). The
//     old chain rules all fall out as special cases of weight addition:
//        +t  then -t        annihilate            (+1 - 1 = 0)
//        -t  then +t        annihilate            (t was live upstream)
//        -t  then +t'       fold to ->(t') t'     (net {-t, +t'})
//        +a  then ->(a→b)   fold to +b
//        ->(a→b) then ->(b→c)  fold to ->(a→c); dropped entirely if a == c
//        ->(a→b) then -b    fold to -a
//     Sound for any consumer that applies deltas to keyed state, under the
//     stream-consistency contract every producer in this engine honors: a
//     -() or ->(old) only refers to a tuple that is live downstream.
//     δ() deltas are opaque handler payloads and never participate (their
//     weight rides through untouched, except weight zero which is a no-op
//     and is dropped).
//
//  2. Idempotent dedupe (opt-in, plan-declared). Exact repeats of a key's
//     live +()/δ() deltas are dropped. Only sound when the consumer's
//     application is idempotent — e.g. SSSP's min-keeping handler, where a
//     second δ(v, d) can never improve on the first — and unsound for
//     counting or summing consumers, which is why the plan must declare it
//     (RehashOp::Params::idempotent_updates).
//
//  3. Run packing (opt-in, wire only). Each key whose surviving deltas are
//     a uniform run of +() or δ() is shipped as one kBatch delta carrying
//     the key once and the per-key payload sequence as a list. The per-key
//     payload order is preserved exactly, so any per-group downstream fold
//     (including order-sensitive floating-point sums) sees an unchanged
//     sequence; only the cross-key interleave changes, which no per-group
//     fold observes. The receiving RehashOp expands before pushing
//     downstream, so kBatch never reaches another operator.
//
// Fold-free streams skip all three. When every delta is a +()/-()/δ() of
// positive weight with no old tuple and no two deltas share a key, each
// key's net is its single delta rendered as itself, no same-key run exists
// to pack and no repeat exists to dedupe: the fold is the identity (DBSP:
// consolidating a ℤ-set whose keys are distinct changes nothing). One
// hashing pass proves it and the stream is returned untouched.
#ifndef REX_EXEC_COALESCE_H_
#define REX_EXEC_COALESCE_H_

#include <cstdint>
#include <vector>

#include "common/delta.h"
#include "common/status.h"

namespace rex {

struct CoalesceOptions {
  /// Field positions forming the key all rules group by. Empty = the whole
  /// tuple is the key (chain rules across distinct tuples cannot fire).
  std::vector<int> key_fields;
  /// Mechanism 2: drop exact repeats of live +()/δ() deltas within a key.
  bool dedupe_idempotent = false;
  /// Mechanism 3: pack each key's uniform +()/δ() run into one kBatch
  /// delta. Only for streams headed to a RehashOp network port.
  bool pack_runs = false;
};

struct CoalesceStats {
  int64_t deltas_in = 0;
  int64_t deltas_out = 0;
  /// Deltas removed by the algebra and dedupe (packing does not "fold";
  /// its payloads are all still delivered).
  int64_t folded = 0;
  /// Wire bytes saved end to end: ByteSize(in) - ByteSize(out), including
  /// the key-sharing savings of packing.
  int64_t bytes_saved = 0;
};

class DeltaCoalescer {
 public:
  explicit DeltaCoalescer(CoalesceOptions options)
      : options_(std::move(options)) {}

  const CoalesceOptions& options() const { return options_; }

  /// Folds `in` to its net effect. Survivors keep their original relative
  /// order (a fold leaves the composed delta at the earlier position);
  /// streams nothing applies to come back untouched. `stats` accumulates
  /// (never resets), so one struct can meter a whole query.
  ///
  /// Fails with InvalidArgument instead of invoking signed-overflow UB when
  /// a key's accumulated ℤ-set weight leaves the int64 range (hostile or
  /// pathological long-lived accumulations — exactly the regime standing
  /// queries create), or when an input delta carries the non-negatable
  /// weight INT64_MIN.
  Result<DeltaVec> Coalesce(DeltaVec in, CoalesceStats* stats) const;

  /// Expands kBatch deltas produced by pack_runs back into the original
  /// per-key delta sequences. Cheap no-op for streams without kBatch.
  /// Fails on a structurally malformed batch (engine bug or corruption).
  static Result<DeltaVec> Expand(DeltaVec in);

 private:
  DeltaVec PackRuns(DeltaVec in) const;

  CoalesceOptions options_;
};

}  // namespace rex

#endif  // REX_EXEC_COALESCE_H_
