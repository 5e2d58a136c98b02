// Incremental checkpoint store (§4.3).
//
// At the end of every stratum each worker replicates the Δᵢ set processed by
// its local fixpoint to the replica workers of its range (replication factor
// from the partition map). On failure, recovery replays the checkpointed Δ
// sets from stratum 0 through the last completed stratum to reconstruct a
// consistent mutable state, then the computation resumes — instead of
// restarting from scratch.
//
// The store simulates the replicated DHT: entries are serialized (so
// checkpoint byte volume is measured honestly), each holder keeps its own
// copy guarded by its own checksum, and a reader may only access entries
// for which it holds a copy (it was the writer or one of the writer's
// chosen replicas). A copy that fails its integrity check on read is
// repaired from a surviving checksum-valid replica; when every copy of an
// entry is bad the read fails with StatusCode::kDataLoss and recovery
// degrades to the restart strategy.
//
// Holders of one entry share a single immutable payload: the simulated
// DHT lives in one process, so a private copy per holder would only
// multiply memory. Bytes never change after Put, which lets Read verify
// under the store lock and deserialize after releasing it. Metering still
// counts one copy per holder, as a real DHT would ship.
#ifndef REX_STORAGE_CHECKPOINT_STORE_H_
#define REX_STORAGE_CHECKPOINT_STORE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "common/metrics.h"
#include "common/status.h"
#include "common/tuple.h"

namespace rex {

class CheckpointStore {
 public:
  /// `num_workers` bounds worker-id validation in Put/Read; -1 (the
  /// default, for store-only unit tests) checks only for negative ids.
  explicit CheckpointStore(int num_workers = -1) : num_workers_(num_workers) {}

  /// Replicates `delta_set` — the Δ tuples fixpoint `fixpoint_id` on
  /// `owner` processed during `stratum` — to `replicas` (every holder
  /// points at one serialized payload under its own checksum). Returns
  /// InvalidArgument, naming the offending ids, for negative or
  /// out-of-range fixpoint/stratum/worker ids instead of silently creating
  /// map entries.
  ///
  /// By default a re-Put of the same (owner, replicas) group overwrites its
  /// entry (a re-executed stratum replaces its Δ set). With `append` the
  /// delta set becomes a NEW entry ordered after the existing ones — base-
  /// update seeds extend a completed stratum's history without erasing it.
  Status Put(int fixpoint_id, int stratum, int owner,
             const std::vector<int>& replicas,
             const std::vector<Tuple>& delta_set, bool append = false);

  /// All Δ tuples for `fixpoint_id` in `stratum` that `reader` may access
  /// (union over writers whose replica set includes the reader). The caller
  /// filters by current key ownership. The reader's copy of each entry is
  /// checksum-verified; a bad copy is repaired in place from the first
  /// valid copy (any holder), and if no copy of an entry is valid the read
  /// fails with kDataLoss. Deserialization runs outside the store lock.
  /// Ids are validated as in Put.
  Result<std::vector<Tuple>> Read(int fixpoint_id, int stratum, int reader);

  /// Highest stratum for which ALL live writers' checkpoints exist (i.e.
  /// the last globally completed checkpoint), or -1 if none.
  int LastCompleteStratum(int fixpoint_id) const;

  /// Drops every entry of strata > `stratum` (all fixpoints): a mid-stratum
  /// failure aborts the partially executed stratum, and any checkpoints some
  /// workers already wrote for it must not survive into re-execution.
  void TruncateAfter(int stratum);

  /// Recovery access grant (the DHT re-replicating after membership
  /// change): every entry gains the `takeover_readers` as replicas and is
  /// topped back up to `replication` copies from `live` workers; new copies
  /// are sourced from the first checksum-valid surviving copy, repairing
  /// invalid live copies along the way. Returns NodeFailure if any entry
  /// has no live copy left (owner and all replicas dead), and kDataLoss if
  /// an entry's surviving copies all fail their integrity check.
  /// Re-replication traffic is metered under kRecoveryRefetchBytes, never
  /// under the steady-state checkpoint counters.
  Status GrantRecoveryAccess(const std::vector<int>& live,
                             const std::vector<int>& takeover_readers,
                             int replication);

  /// Chaos fault injection: flips a byte in the copies held by `holder`
  /// (-1 = every holder) in up to `max_entries` entries, in deterministic
  /// store order. Each victim gets a private rotten copy; the shared
  /// payload other holders point at is never written. Returns the number
  /// of entries actually corrupted.
  int CorruptCopies(int holder, int max_entries);

  /// Chaos invariant: every entry of strata <= `last_stratum` must be
  /// readable from at least min(min_copies, live.size()) live workers.
  /// Copy counts ignore checksums — a corrupt copy is repairable, which is
  /// the read path's job, not a replication violation.
  Status VerifyReadable(const std::vector<int>& live, int min_copies) const;

  /// Drops all entries (between queries / runs).
  void Clear();

  int64_t total_bytes() const;
  int64_t total_entries() const;
  MetricsRegistry& metrics() { return metrics_; }

 private:
  /// One holder's copy of an entry. Holders share the immutable payload
  /// Put built; `checksum` is what this holder's bytes must hash to, so a
  /// rotten copy is detected per holder.
  struct Copy {
    std::shared_ptr<const std::string> bytes;
    uint64_t checksum = 0;

    bool Valid() const;
  };
  struct Entry {
    int owner;
    std::vector<int> replicas;
    std::map<int, Copy> copies;  // holder -> its copy
  };
  // (fixpoint, stratum) -> entries from each writer.
  using Key = std::pair<int, int>;

  Status ValidateIds(const char* op, int fixpoint_id, int stratum,
                     int worker) const;
  /// First checksum-valid copy of `e` (any holder), or null.
  static const Copy* FindValidCopy(const Entry& e);

  const int num_workers_;
  mutable std::mutex mutex_;
  std::map<Key, std::vector<Entry>> entries_;
  MetricsRegistry metrics_;
};

namespace metrics {
/// Checkpoint copies rebuilt from a surviving replica after failing their
/// integrity check on read.
inline constexpr const char kCheckpointRepairs[] =
    "recovery.checkpoint_repairs";
}  // namespace metrics

}  // namespace rex

#endif  // REX_STORAGE_CHECKPOINT_STORE_H_
