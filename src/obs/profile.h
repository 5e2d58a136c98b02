// Structured per-run query profiles (the observability layer's core
// artifact).
//
// The paper's evaluation is built entirely on per-run measurements:
// Δ-set cardinality per stratum (Fig. 3), per-node bytes shipped
// (Fig. 11), recovery-phase timing (Fig. 12). The driver assembles a
// QueryProfile after every Cluster::Run so those numbers exist as a
// machine-readable artifact of each run rather than ad-hoc printf series,
// and the bench binaries serialize them into BENCH_<name>.json for the
// perf trajectory.
#ifndef REX_OBS_PROFILE_H_
#define REX_OBS_PROFILE_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/metrics.h"
#include "obs/json.h"

namespace rex {

/// One recursion step as the driver saw it.
struct StratumProfile {
  int stratum = 0;
  double seconds = 0;
  int64_t bytes_sent = 0;      // cross-worker bytes during this stratum
  int64_t delta_tuples = 0;    // Δᵢ cardinality: tuples derived (all fixpoints)
  int64_t changed_tuples = 0;  // tuples whose tracked value changed
  int64_t state_size = 0;      // mutable-set size after the stratum
  double max_change = 0;       // largest numeric change observed
};

/// Δ-set size per stratum for one fixpoint operator (Fig. 3's per-algorithm
/// Δᵢ series, split out per fixpoint when a plan has several).
struct FixpointStratumProfile {
  int fixpoint_id = 0;
  int stratum = 0;
  int64_t delta_tuples = 0;
  int64_t state_size = 0;
};

/// Per-port operator execution stats, collected worker-side.
struct OperatorPortProfile {
  int port = 0;
  int64_t batches = 0;
  int64_t tuples = 0;
  int64_t puncts = 0;
  int64_t consume_nanos = 0;  // inclusive of downstream push time
};

struct OperatorProfile {
  int worker = 0;
  int op_id = 0;
  std::string name;
  int64_t deltas_emitted = 0;
  std::vector<OperatorPortProfile> ports;
};

/// One recovery pass (a Recover retry loop iteration): what ran and how
/// long it took (Fig. 12's recovery-phase timing).
struct RecoveryPassProfile {
  int pass = 0;  // 1-based across the whole run
  double seconds = 0;
  std::string strategy;    // "restart" | "incremental" | "replay"
  int resume_stratum = 0;  // stratum the run resumed at afterwards
  int live_workers = 0;
  int revived_workers = 0;
};

struct WorkerProfile {
  int worker = 0;
  bool live_at_end = true;
  int64_t bytes_sent = 0;  // cross-worker bytes (Fig. 11's per-node meter)
  std::vector<std::pair<std::string, int64_t>> counters;
  std::vector<std::pair<std::string, TimerStats>> timers;
};

struct QueryProfile {
  static constexpr int kSchemaVersion = 1;

  std::string name;  // series / run label (benches fill this in)
  double total_seconds = 0;
  int strata_executed = 0;
  bool recovered = false;
  int recoveries = 0;

  std::vector<StratumProfile> strata;
  std::vector<FixpointStratumProfile> fixpoint_deltas;
  std::vector<WorkerProfile> workers;
  /// bytes_matrix[from][to]: cross-worker bytes per (sender, receiver).
  std::vector<std::vector<int64_t>> bytes_matrix;
  std::vector<OperatorProfile> operators;
  std::vector<RecoveryPassProfile> recovery_passes;

  int64_t checkpoint_bytes = 0;
  int64_t checkpoint_tuples = 0;
  int64_t recovery_refetch_bytes = 0;

  /// Failure-detection and delivery-protocol meters (Fig. 12 reports the
  /// detection component of recovery latency explicitly).
  int64_t detection_latency_ticks = 0;  // probe rounds spent noticing deaths
  int64_t retransmits = 0;              // sends retried after a lossy link
  int64_t checkpoint_repairs = 0;       // copies rebuilt after checksum fail

  int64_t tuples_sent = 0;  // deltas that crossed the network

  /// Serialized checkpoint bytes, one copy per holder. Payloads are
  /// stored as serialized, so `ckpt_stored_bytes` equals `ckpt_raw_bytes`;
  /// it stays because perfbench/src/harness.cc reads it.
  int64_t ckpt_raw_bytes = 0;
  int64_t ckpt_stored_bytes = 0;

  Json ToJson() const;
};

/// Schema check shared by the golden-sample test and downstream tooling:
/// verifies that `profile` (one element of a BENCH report's "runs" array,
/// or a bare profile) has every required field with the right JSON type.
Status ValidateProfileJson(const Json& profile);

/// Validates a whole BENCH_<name>.json document (bench/schema_version/runs,
/// then every run's profile schema).
Status ValidateBenchReportJson(const Json& report);

/// Serializes a bench report {bench, schema_version, runs:[profile...]}.
Json BenchReportToJson(const std::string& bench_name,
                       const std::vector<QueryProfile>& runs);

/// Writes the bench report to `path` (pretty-printed, trailing newline).
Status WriteBenchReportFile(const std::string& path,
                            const std::string& bench_name,
                            const std::vector<QueryProfile>& runs);

}  // namespace rex

#endif  // REX_OBS_PROFILE_H_
