// Per-worker execution context handed to every operator at Open().
#ifndef REX_EXEC_EXEC_CONTEXT_H_
#define REX_EXEC_EXEC_CONTEXT_H_

#include <cstdint>

#include "cluster/partition_map.h"
#include "cluster/vote_board.h"
#include "common/metrics.h"
#include "exec/udf_registry.h"
#include "net/network.h"
#include "storage/checkpoint_store.h"
#include "storage/table.h"

namespace rex {

/// Engine-wide knobs. Defaults reflect REX's evaluated configuration.
struct EngineConfig {
  int num_workers = 4;
  /// Total copies of each datum / checkpoint entry (paper: 3).
  int replication = 3;
  int vnodes_per_worker = 16;

  /// Deltas per network message; REX passes batched messages (§4.1).
  size_t network_batch_size = 1024;

  /// UDC input batching (§4.2): table-UDF invocations take sequences of
  /// tuples, amortizing invocation overhead. 1 disables batching.
  size_t udf_batch_size = 64;
  /// Emulated per-invocation overhead of the reflection call, in "work
  /// units" of busy CPU; lets the batching ablation show the effect.
  int udf_invoke_overhead = 0;

  /// Cache results of deterministic functions (§5.1).
  bool cache_deterministic_udfs = true;

  /// Replicate fixpoint Δ sets each stratum (incremental recovery, §4.3).
  bool checkpoint_deltas = true;

  /// Safety valve for diverging queries.
  int max_strata = 10000;

  /// Failure detector: missed probe rounds before a worker is suspected,
  /// and further missed rounds before a suspected worker is declared dead.
  int heartbeat_suspect_rounds = 1;
  int heartbeat_confirm_rounds = 1;

  /// Retransmission attempts per message before the sender declares the
  /// peer unreachable. Sized above the largest injected drop window so the
  /// ack/retransmit protocol, not test tolerance, survives chaos drops.
  int send_retry_budget = 16;

  /// Per-inbox flow-control bound (messages); 0 disables backpressure.
  size_t channel_capacity = 1024;

  /// Recovery passes attempted (with backoff) before the query fails; a
  /// checkpoint DataLoss inside the budget degrades to restart strategy.
  int recovery_retry_budget = 8;

  /// Chaos-harness invariant checkers (debug/test builds): after every
  /// stratum the driver verifies the in-flight message count, checkpoint
  /// readability under the current failure set, and Δ-conservation —
  /// replaying all checkpointed Δ sets reproduces each fixpoint's mutable
  /// state bit-for-bit.
  bool verify_invariants = false;
};

class TraceRing;

/// Everything an operator needs from its hosting worker.
struct ExecContext {
  int worker_id = 0;
  Network* network = nullptr;
  const PartitionMap* pmap = nullptr;  // the query's partition snapshot
  UdfRegistry* udfs = nullptr;
  StorageCatalog* storage = nullptr;
  MetricsRegistry* metrics = nullptr;  // this worker's registry
  VoteBoard* votes = nullptr;
  CheckpointStore* checkpoints = nullptr;
  const EngineConfig* config = nullptr;

  int current_stratum = 0;

  /// This worker's incarnation number (bumped on every revive). Stamped on
  /// fixpoint votes so the board can ignore votes from a previous life.
  int incarnation = 0;

  /// Non-null while a recovery reload is in progress: the partition
  /// snapshot that was in effect before the failure (scans use it to find
  /// rows whose ownership moved).
  const PartitionMap* old_pmap = nullptr;

  /// True while guided-replay recovery re-runs checkpointed strata through
  /// the loop body: fixpoints feed state from checkpoints, discard arriving
  /// deltas (they are regenerations of history), and suppress voting and
  /// re-checkpointing.
  bool replay_mode = false;

  /// This worker's bounded event trace (owned by the WorkerNode); operators
  /// record notable events (checkpoint writes). May be null in bare-metal
  /// operator tests.
  TraceRing* trace = nullptr;
};

}  // namespace rex

#endif  // REX_EXEC_EXEC_CONTEXT_H_
