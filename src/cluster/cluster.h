// The Cluster: REX's shared-nothing runtime in one process.
//
// Owns the network, the worker threads, shared storage, the UDF registry,
// the checkpoint store, and the query-requestor logic: stratified recursion
// with per-stratum quiescence barriers, fixpoint vote collection, implicit
// and explicit termination conditions, failure injection, and both recovery
// strategies of §6.6 (restart and incremental).
#ifndef REX_CLUSTER_CLUSTER_H_
#define REX_CLUSTER_CLUSTER_H_

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "cluster/failure_detector.h"
#include "cluster/worker.h"
#include "obs/profile.h"
#include "optimizer/stats.h"
#include "sim/chaos_injector.h"
#include "sim/fault_schedule.h"
#include "storage/table.h"

namespace rex {

/// Deterministic failure injection: kill `worker` at the boundary just
/// before `before_stratum` begins. (The single-failure special case of a
/// FaultSchedule, kept for convenience; Run() validates it and converts it
/// into a one-event schedule.)
struct FailureInjection {
  int worker = -1;  // -1 = no failure
  int before_stratum = -1;
  RecoveryStrategy strategy = RecoveryStrategy::kIncremental;
};

struct QueryOptions {
  /// Explicit termination condition (§3.4): called after each stratum with
  /// its aggregated vote; return true to stop. Null = implicit fixpoint
  /// termination (stop when no new tuples were derived).
  std::function<bool(int stratum, const VoteStats&)> terminate;
  int max_strata = -1;  // -1: use EngineConfig::max_strata
  FailureInjection failure;
  /// Seeded multi-fault schedule (chaos harness). Validated against the
  /// cluster before the run; crash and restore events that never fire make
  /// the run fail (a schedule must not silently miss the query).
  FaultSchedule faults;
};

struct StratumReport {
  int stratum = 0;
  VoteStats stats;
  double seconds = 0;
  int64_t bytes_sent = 0;  // network bytes during this stratum
};

struct QueryRunResult {
  /// Union of sink results across workers (non-recursive output).
  std::vector<Tuple> results;
  /// Union of fixpoint state relations across workers (recursive output).
  std::vector<Tuple> fixpoint_state;
  std::vector<StratumReport> strata;
  int strata_executed = 0;
  double total_seconds = 0;
  int64_t total_bytes_sent = 0;
  bool recovered = false;
  /// Number of recovery passes the run performed (one failure handled
  /// during recovery adds another pass).
  int recoveries = 0;
  /// What the chaos injector actually did (zeroed when no schedule ran).
  ChaosStats chaos;
  /// Structured observability artifact assembled by the driver after the
  /// run: per-stratum timing/Δ cardinality, per-fixpoint Δ series,
  /// per-worker counters + timers, the (sender, receiver) byte matrix,
  /// per-operator port stats, recovery-pass timings, checkpoint volume.
  QueryProfile profile;
};

class Cluster {
 public:
  explicit Cluster(EngineConfig config);
  ~Cluster();

  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  /// Spawns the worker threads. Call once before Run.
  Status Start();
  void Shutdown();

  const EngineConfig& config() const { return config_; }
  StorageCatalog* storage() { return &storage_; }
  UdfRegistry* udfs() { return &udfs_; }
  Network* network() { return network_.get(); }
  CheckpointStore* checkpoints() { return &checkpoints_; }
  WorkerNode* worker(int i) { return workers_[static_cast<size_t>(i)].get(); }
  int num_workers() const { return config_.num_workers; }
  std::vector<int> LiveWorkers() const;

  /// Creates and registers a table partitioned on `key_column`.
  Status CreateTable(const std::string& name, Schema schema, int key_column,
                     std::vector<Tuple> rows);

  /// Optimizes nothing — executes the given physical plan (the optimizer
  /// and RQL layers produce PlanSpecs; algorithms may hand-build them).
  /// On any error the driver and worker trace rings are dumped to the log
  /// before the Status propagates. Equivalent to RunResident(0, ...).
  Result<QueryRunResult> Run(const PlanSpec& spec,
                             const QueryOptions& options = {});

  /// Multi-query residency (serving layer). Each query id owns its own
  /// vote board, checkpoint store, resume point, and one LocalPlan slot per
  /// worker; execution is still serialized — the driver activates one
  /// resident at a time while the network is quiescent, because the
  /// message fabric carries op ids without query ids. RunResident runs
  /// `spec` under `query_id`, leaves the plan installed and converged
  /// (standing query), and clears any poison/staleness on that resident.
  Result<QueryRunResult> RunResident(int query_id, const PlanSpec& spec,
                                     const QueryOptions& options = {});

  /// Evicts a resident query: drops its plans from all workers and frees
  /// its boards. Query 0 (the legacy slot) can be evicted too; a later
  /// Run()/RunResident(0, ...) re-creates it.
  Status EvictResident(int query_id);

  /// Number of queries currently resident (installed plans).
  int ResidentCount() const { return static_cast<int>(residents_.size()); }

  /// True if `query_id`'s last ApplyBaseUpdate failed mid-flight, leaving
  /// tables/operator state half-applied: further updates are refused with
  /// FailedPrecondition until a fresh RunResident re-derives everything
  /// from the (already mutated) base tables.
  bool IsPoisoned(int query_id) const;

  /// True if another resident's recovery changed cluster membership while
  /// `query_id` was inactive — its installed plans may reference dead
  /// workers or a superseded partition map. ApplyBaseUpdate refuses stale
  /// residents; RunResident refreshes them.
  bool IsStale(int query_id) const;

  /// A direct revision of operator-held base state (an immutable join
  /// side's buckets). Deltas are routed to the primary owner of
  /// PartitionHash(tuple, route_fields) — the same placement the rows had
  /// when the scan loaded them — and applied while the network is
  /// quiescent, exactly like plan installation.
  struct StatePatch {
    int op_id = -1;
    int port = 0;
    std::vector<int> route_fields;
    DeltaVec deltas;
  };

  /// An incremental base-data update against the last converged Run (§3.2's
  /// "refinement of state" driven from the outside): weighted ℤ-set
  /// mutations of base tables, matching patches for operator state
  /// materialized from those tables, and per-fixpoint perturbation Δ seeds
  /// computed by the caller from the converged state.
  struct BaseUpdate {
    /// Table name -> weighted row mutations (kept consistent with
    /// `patches`; recovery reloads operator state from these tables).
    std::map<std::string, std::vector<DistributedTable::WeightedRow>> tables;
    std::vector<StatePatch> patches;
    /// Fixpoint op id -> perturbation Δ set, routed by the fixpoint's own
    /// partition fields and applied against its converged state.
    std::map<int, DeltaVec> seeds;
    /// Optional chaos during re-convergence.
    FaultSchedule faults;
    /// Explicit termination override (defaults to implicit fixpoint
    /// termination) and stratum budget for the re-convergence.
    std::function<bool(int stratum, const VoteStats&)> terminate;
    int max_strata = -1;
  };

  /// Applies `update` and re-converges the still-installed plan from the
  /// stratum after the converged run's last, rather than from scratch: the
  /// seeds' propagations flush as the resumed stratum's Δ set and the loop
  /// runs until quiescent again. Requires a prior successful recursive
  /// Run() on this cluster. Failures during re-convergence recover through
  /// the normal machinery (seeds are checkpointed with the converged
  /// history, so incremental recovery replays them; a restart recovery
  /// recomputes from the already-updated tables). The returned profile's
  /// tuples_sent / total_bytes_sent count only this update's traffic.
  /// Equivalent to ApplyBaseUpdate(0, update).
  Result<QueryRunResult> ApplyBaseUpdate(const BaseUpdate& update);

  /// Per-resident variant: applies `update` against `query_id`'s converged
  /// plan. Refuses poisoned or stale residents with FailedPrecondition
  /// BEFORE mutating any base table. A failure after mutation begins
  /// poisons the resident (tables/operator state may be half-applied) so a
  /// follow-up ApplyBaseUpdate or Run reuse cannot silently compute against
  /// inconsistent state; RunResident clears the poison by re-deriving from
  /// the (already mutated) tables. On success the returned profile's
  /// traffic / checkpoint counters cover only this update.
  Result<QueryRunResult> ApplyBaseUpdate(int query_id,
                                         const BaseUpdate& update);

  /// Applies weighted base-table mutations without touching any resident
  /// (the serving layer applies the shared table mutation exactly once per
  /// epoch, then fans per-query patches/seeds out via ApplyBaseUpdate with
  /// empty `tables`).
  Status MutateTables(
      const std::map<std::string,
                     std::vector<DistributedTable::WeightedRow>>& tables);

  /// The driver's bounded event trace (crashes, restores, recovery passes,
  /// stratum starts).
  TraceRing* trace() { return &trace_; }

  /// Brings previously failed workers back (fresh, empty state) so the
  /// same cluster can run further experiments.
  Status ReviveFailedWorkers();

  /// Sum of per-worker metric `name` across all workers.
  int64_t WorkerMetric(const std::string& name) const;

  /// Runtime monitoring (§5.1): the measured cost profile of a table UDF
  /// from its execution counters — per-tuple cost expressed in the cost
  /// model's work units (basic-tuple equivalents under `calib`), and its
  /// observed fanout. NotFound until the UDF has actually run.
  Result<UdfCostProfile> MeasuredUdfProfile(
      const std::string& udf_name, const NodeCalibration& calib) const;

 private:
  /// Everything one resident query owns: its plan spec, termination boards
  /// (query 0 aliases the legacy cluster-lifetime members so existing
  /// accessors keep working), and the incremental resume point captured
  /// after its last converged run.
  struct ResidentQuery {
    PlanSpec spec;
    /// Owned boards for query ids != 0; null for query 0 (legacy members).
    std::unique_ptr<VoteBoard> owned_votes;
    std::unique_ptr<CheckpointStore> owned_checkpoints;
    // -- incremental base-update resume point: -1 = nothing to resume
    // (no converged run, or the last run was non-recursive / failed).
    int resume_stratum = -1;
    const PartitionMap* pmap = nullptr;
    std::vector<int> live;
    /// Set while/after a base update mutates state and fails: the
    /// resident's derived state no longer matches its tables.
    bool poisoned = false;
    std::string poison_reason;
    /// Set when another resident's recovery changed membership while this
    /// one was inactive.
    bool stale = false;
  };

  VoteBoard* VotesFor(ResidentQuery* q) {
    return q->owned_votes != nullptr ? q->owned_votes.get() : &votes_;
  }
  CheckpointStore* CheckpointsFor(ResidentQuery* q) {
    return q->owned_checkpoints != nullptr ? q->owned_checkpoints.get()
                                           : &checkpoints_;
  }
  /// Finds-or-creates the resident slot for `query_id` (boards are created
  /// for non-zero ids).
  ResidentQuery* Resident(int query_id);
  /// Switches the active resident: repoints the driver's board pointers and
  /// every live worker's context. Network must be quiescent.
  void ActivateResident(int query_id);
  /// Marks every resident except `except_query` stale (membership moved
  /// under them).
  void MarkOthersStale(int except_query);

  /// Cumulative-counter snapshot taken before an incremental update so the
  /// returned profile reports only the update's own traffic / checkpoint
  /// activity (counters live across the cluster's lifetime).
  struct ProfileBaseline {
    int64_t tuples_sent = 0;
    int64_t checkpoint_bytes = 0;
    int64_t checkpoint_tuples = 0;
    int64_t recovery_refetch_bytes = 0;
    int64_t checkpoint_repairs = 0;
    int64_t retransmits = 0;
    int64_t ckpt_raw_bytes = 0;
  };
  ProfileBaseline SnapshotBaseline() const;
  static void SubtractBaseline(const ProfileBaseline& base, QueryProfile* p);

  Result<QueryRunResult> RunInternal(const PlanSpec& spec,
                                     const QueryOptions& options);
  /// The requestor's stratum loop, shared by RunInternal (from stratum 0)
  /// and ApplyBaseUpdate (from the converged run's resume stratum): drives
  /// strata with boundary/mid-stratum fault handling and recovery until
  /// termination. On return `*next_stratum` is the stratum a future
  /// incremental update would resume at.
  Status DriveStrata(const PlanSpec& spec, const QueryOptions& options,
                     RecoveryStrategy strategy, ChaosInjector* injector,
                     bool has_fixpoint, int start_stratum,
                     const PartitionMap** pmap, std::vector<int>* live,
                     QueryRunResult* out, int* next_stratum);
  /// Unions sink results and fixpoint state into `out` (quiescent network).
  void CollectResults(const std::vector<int>& live, QueryRunResult* out);
  /// Fills out->profile from the post-run state (network quiescent).
  void AssembleProfile(const std::vector<int>& live, QueryRunResult* out);
  /// Logs the driver's and every running worker's trace ring (error path).
  void DumpTraces() const;
  Status Broadcast(const ControlMsg& c, const std::vector<int>& targets);
  Status CheckWorkerErrors(const std::vector<int>& live) const;
  /// Simulates a crash: stops the worker thread and closes its inbox,
  /// telling nobody. The driver only learns about it when the failure
  /// detector notices the missing heartbeats (DetectFailures).
  Status InjectBoundaryCrash(int w);
  /// Acts on a death declared by the failure detector: records the failure
  /// in the driver's membership view and joins the dead worker's thread.
  void ConfirmDead(int w);
  /// Runs heartbeat probe rounds (ping broadcast -> quiescence -> detector
  /// tick) until no worker is left in the suspected state; confirms every
  /// death the detector declares. Returns the workers newly declared dead.
  std::vector<int> DetectFailures();
  /// Replaces a failed worker with a fresh node (next incarnation) and
  /// reopens its inbox.
  Status ReviveWorker(int w);
  const PartitionMap* PushPartitionMap(std::vector<int> live);

  /// One full recovery: installs/restores state on the live set, retrying
  /// when the injector fails further workers during recovery itself.
  /// `resume_stratum` is the stratum about to (re-)execute; on return it is
  /// 0 if the strategy (or a checkpoint-less failure) forced a restart.
  /// `revived` lists workers freshly brought back this boundary.
  Status Recover(const PlanSpec& spec, RecoveryStrategy strategy,
                 ChaosInjector* injector, std::vector<int> revived,
                 const PartitionMap** pmap, std::vector<int>* live,
                 int* resume_stratum, QueryRunResult* out);

  /// Guided replay (fresh plans + re-run of checkpointed strata with
  /// fixpoints fed from the store): rebuilds derived state Δ-restoration
  /// alone cannot (persistent group-bys, stateful join handlers). Returns
  /// NodeFailure if a worker dies during the replay (caller retries).
  Status GuidedReplay(const PlanSpec& spec, const PartitionMap* pmap,
                      const std::vector<int>& live, int last_complete);

  /// Post-stratum runtime invariants (chaos harness): exact in-flight
  /// count, checkpoint readability under the current failure set, and
  /// Δ-conservation of every live fixpoint.
  Status CheckRuntimeInvariants(const std::vector<int>& live, int stratum);

  EngineConfig config_;
  std::unique_ptr<Network> network_;
  /// Declared before workers_ so worker threads (which report heartbeats
  /// into the detector via the network's sink) are joined before the
  /// detector is destroyed.
  std::unique_ptr<FailureDetector> detector_;
  StorageCatalog storage_;
  UdfRegistry udfs_;
  VoteBoard votes_;
  CheckpointStore checkpoints_;
  std::vector<std::unique_ptr<WorkerNode>> workers_;
  std::vector<bool> failed_;
  /// Partition snapshots must outlive every worker context that references
  /// them, so superseded maps are retained for the cluster's lifetime.
  std::vector<std::unique_ptr<PartitionMap>> pmap_history_;
  TraceRing trace_{"driver"};
  bool started_ = false;

  // -- multi-query residency ------------------------------------------------
  std::map<int, ResidentQuery> residents_;
  int active_query_ = 0;
  /// Boards of the active resident; every internal driver path
  /// (DriveStrata, Recover, invariants, profile assembly) goes through
  /// these so a resident switch is a pointer swap.
  VoteBoard* active_votes_ = &votes_;
  CheckpointStore* active_checkpoints_ = &checkpoints_;
};

}  // namespace rex

#endif  // REX_CLUSTER_CLUSTER_H_
