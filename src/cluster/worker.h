// A worker node: one thread consuming its network inbox and driving its
// LocalPlan. All operator state is touched only from the worker thread
// (driver-side mutations happen strictly while the network is quiescent and
// are published through the inbox channel's mutex).
#ifndef REX_CLUSTER_WORKER_H_
#define REX_CLUSTER_WORKER_H_

#include <map>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>

#include "engine/local_plan.h"
#include "obs/trace_ring.h"

namespace rex {

class WorkerNode {
 public:
  /// `incarnation` is this worker's life number (0 for the original
  /// process, bumped by the failure detector on each revive); it is stamped
  /// on heartbeat replies and fixpoint votes.
  WorkerNode(int id, Network* network, StorageCatalog* storage,
             UdfRegistry* udfs, VoteBoard* votes,
             CheckpointStore* checkpoints, const EngineConfig* config,
             int incarnation = 0);
  ~WorkerNode();

  int id() const { return id_; }
  int incarnation() const { return ctx_.incarnation; }

  /// Instantiates the plan for the currently active query against this
  /// worker's context. Must be called while the network is quiescent
  /// (driver thread).
  Status InstallPlan(const PlanSpec& spec, const PartitionMap* pmap);

  /// Multi-plan residency (serving layer): a worker keeps one LocalPlan per
  /// registered query id, but exactly one is ACTIVE at any time — the
  /// message fabric carries op ids without query ids, and the vote board /
  /// checkpoint store are keyed (fixpoint, stratum), so execution is
  /// serialized per query and the driver switches residents only while the
  /// network is quiescent. Activation repoints the shared ExecContext at
  /// the query's own vote board and checkpoint store and selects its plan
  /// (null until InstallPlan runs for that query).
  void ActivateQuery(int query_id, VoteBoard* votes,
                     CheckpointStore* checkpoints, const PartitionMap* pmap);
  int active_query() const { return active_query_; }
  bool HasPlan(int query_id) const {
    return plans_.count(query_id) > 0 && plans_.at(query_id) != nullptr;
  }
  /// Drops a resident plan (eviction). Driver thread, network quiescent;
  /// dropping the active query leaves it planless until InstallPlan.
  void DropPlan(int query_id);

  /// Publishes new partition snapshots for an upcoming kRecoverPrepare.
  /// Driver thread, network quiescent.
  void StageRecovery(const PartitionMap* new_pmap,
                     const PartitionMap* old_pmap, int last_stratum);

  void Start();
  /// Closes the inbox and joins the thread (both for failure simulation
  /// and orderly shutdown).
  void Stop();
  bool running() const { return thread_.joinable(); }

  /// First operator/dispatch error observed (Status::OK if none). Driver
  /// thread, network quiescent.
  const Status& error() const { return error_; }
  void ClearError() { error_ = Status::OK(); }

  LocalPlan* plan() { return plan_; }
  MetricsRegistry* metrics() { return &metrics_; }
  ExecContext* ctx() { return &ctx_; }
  /// Bounded event trace: dispatches, control verbs, checkpoint writes.
  /// Dumped to the log when this worker records its first error.
  TraceRing* trace() { return &trace_; }

 private:
  void RunLoop();
  Status Dispatch(Message& msg);
  Status ValidateTarget(const Message& msg) const;
  Status HandleControl(const ControlMsg& c);

  int id_;
  Network* network_;
  /// Highest sequence number dispatched per sender; duplicate deliveries
  /// (chaos injection: "TCP retransmissions") are discarded exactly-once.
  std::unordered_map<int, uint64_t> last_seq_;
  MetricsRegistry metrics_;
  TraceRing trace_;
  /// Hot-path metric handles, resolved once at construction (a name lookup
  /// per message would take the registry mutex on every dispatch).
  Counter* dup_discarded_ = nullptr;
  Timer* dispatch_timer_ = nullptr;
  ExecContext ctx_;
  /// Resident plans by query id; `plan_` aliases the active one.
  std::map<int, std::unique_ptr<LocalPlan>> plans_;
  int active_query_ = 0;
  LocalPlan* plan_ = nullptr;
  std::thread thread_;
  Status error_;

  // Staged recovery parameters (read inside kRecoverPrepare handling).
  const PartitionMap* staged_pmap_ = nullptr;
  const PartitionMap* staged_old_pmap_ = nullptr;
  int staged_last_stratum_ = -1;
};

}  // namespace rex

#endif  // REX_CLUSTER_WORKER_H_
