#include "cluster/worker.h"

#include "common/logging.h"

namespace rex {

WorkerNode::WorkerNode(int id, Network* network, StorageCatalog* storage,
                       UdfRegistry* udfs, VoteBoard* votes,
                       CheckpointStore* checkpoints,
                       const EngineConfig* config, int incarnation)
    : id_(id),
      network_(network),
      trace_("worker " + std::to_string(id)) {
  ctx_.worker_id = id;
  ctx_.incarnation = incarnation;
  ctx_.network = network;
  ctx_.storage = storage;
  ctx_.udfs = udfs;
  ctx_.metrics = &metrics_;
  ctx_.votes = votes;
  ctx_.checkpoints = checkpoints;
  ctx_.config = config;
  ctx_.trace = &trace_;
  dup_discarded_ = metrics_.GetCounter(metrics::kDupDiscarded);
  dispatch_timer_ = metrics_.GetTimer(metrics::kDispatchTimer);
}

WorkerNode::~WorkerNode() { Stop(); }

Status WorkerNode::InstallPlan(const PlanSpec& spec,
                               const PartitionMap* pmap) {
  ctx_.pmap = pmap;
  ctx_.old_pmap = nullptr;
  ctx_.current_stratum = 0;
  ctx_.replay_mode = false;  // an aborted replay must not leak into a retry
  REX_ASSIGN_OR_RETURN(plans_[active_query_],
                       LocalPlan::Instantiate(spec, &ctx_));
  plan_ = plans_[active_query_].get();
  error_ = Status::OK();
  return Status::OK();
}

void WorkerNode::ActivateQuery(int query_id, VoteBoard* votes,
                               CheckpointStore* checkpoints,
                               const PartitionMap* pmap) {
  active_query_ = query_id;
  ctx_.votes = votes;
  ctx_.checkpoints = checkpoints;
  if (pmap != nullptr) ctx_.pmap = pmap;
  ctx_.old_pmap = nullptr;
  auto it = plans_.find(query_id);
  plan_ = it == plans_.end() ? nullptr : it->second.get();
}

void WorkerNode::DropPlan(int query_id) {
  auto it = plans_.find(query_id);
  if (it == plans_.end()) return;
  if (query_id == active_query_) plan_ = nullptr;
  plans_.erase(it);
}

void WorkerNode::StageRecovery(const PartitionMap* new_pmap,
                               const PartitionMap* old_pmap,
                               int last_stratum) {
  staged_pmap_ = new_pmap;
  staged_old_pmap_ = old_pmap;
  staged_last_stratum_ = last_stratum;
}

void WorkerNode::Start() {
  thread_ = std::thread([this] { RunLoop(); });
}

void WorkerNode::Stop() {
  network_->channel(id_)->Close();
  if (thread_.joinable()) thread_.join();
}

void WorkerNode::RunLoop() {
  Channel* inbox = network_->channel(id_);
  while (true) {
    std::optional<Message> msg = inbox->Pop();
    if (!msg.has_value()) return;  // closed and drained
    if (msg->seq != 0) {
      // TCP-like exactly-once per sender: discard non-increasing sequence
      // numbers (chaos-injected duplicate deliveries).
      uint64_t& last = last_seq_[msg->from_worker];
      if (msg->seq <= last) {
        dup_discarded_->Add(1);
        network_->OnMessageProcessed();
        continue;
      }
      last = msg->seq;
    }
    if (msg->kind == Message::Kind::kControl &&
        msg->control.kind == ControlMsg::Kind::kPing) {
      // Liveness probes are answered even when a pending error suppresses
      // normal dispatch: an errored-but-running worker must not be
      // mistaken for a dead one by the failure detector.
      (void)network_->Send(Message::Heartbeat(id_, ctx_.incarnation));
      network_->OnMessageProcessed();
      continue;
    }
    if (error_.ok()) {
      Status st = Dispatch(*msg);
      if (!st.ok()) {
        // Record the first failure and keep draining so the driver's
        // quiescence wait terminates; it surfaces the error afterwards.
        error_ = st;
        trace_.Record(TraceEvent::Kind::kError, 0, 0, 0, st.ToString());
        REX_LOG(Error) << "worker " << id_ << ": " << st.ToString();
        REX_LOG(Error) << trace_.Dump();
      }
    }
    network_->OnMessageProcessed();
  }
}

Status WorkerNode::Dispatch(Message& msg) {
  ScopedTimer timed(dispatch_timer_);
  switch (msg.kind) {
    case Message::Kind::kControl:
      trace_.Record(TraceEvent::Kind::kControl,
                    static_cast<int>(msg.control.kind), 0,
                    msg.control.stratum);
      return HandleControl(msg.control);
    case Message::Kind::kData: {
      if (plan_ == nullptr) return Status::Internal("data before plan");
      REX_RETURN_NOT_OK(ValidateTarget(msg));
      trace_.Record(TraceEvent::Kind::kDispatchData, msg.target_op,
                    msg.target_port,
                    static_cast<int64_t>(msg.deltas.size()));
      return plan_->op(msg.target_op)
          ->Consume(msg.target_port, std::move(msg.deltas));
    }
    case Message::Kind::kPunctuation: {
      if (plan_ == nullptr) return Status::Internal("punct before plan");
      REX_RETURN_NOT_OK(ValidateTarget(msg));
      trace_.Record(TraceEvent::Kind::kDispatchPunct, msg.target_op,
                    msg.target_port, 0);
      return plan_->op(msg.target_op)->OnPunct(msg.target_port, msg.punct);
    }
    case Message::Kind::kHeartbeat:
      // Heartbeats are routed synchronously to the driver's sink inside
      // Send and never reach an inbox.
      return Status::Internal("heartbeat message in worker inbox");
  }
  return Status::Internal("unknown message kind");
}

/// Bounds-checks a data/punctuation message's target before indexing into
/// the plan: a corrupted or mis-routed message must surface as a worker
/// error, not undefined behavior.
Status WorkerNode::ValidateTarget(const Message& msg) const {
  if (msg.target_op < 0 || msg.target_op >= plan_->size()) {
    return Status::Internal(
        "dispatch: message from worker " + std::to_string(msg.from_worker) +
        " targets op " + std::to_string(msg.target_op) + " but plan has " +
        std::to_string(plan_->size()) + " operators");
  }
  const Operator* op = plan_->op(msg.target_op);
  if (msg.target_port < 0 || msg.target_port >= op->num_ports()) {
    return Status::Internal(
        "dispatch: message from worker " + std::to_string(msg.from_worker) +
        " targets port " + std::to_string(msg.target_port) + " of op " +
        std::to_string(msg.target_op) + " (" + op->name() + ") which has " +
        std::to_string(op->num_ports()) + " ports");
  }
  return Status::OK();
}

Status WorkerNode::HandleControl(const ControlMsg& c) {
  switch (c.kind) {
    case ControlMsg::Kind::kStartStratum:
      ctx_.current_stratum = c.stratum;
      return plan_->StartStratum(c.stratum);
    case ControlMsg::Kind::kRecoverPrepare: {
      ctx_.pmap = staged_pmap_;
      ctx_.old_pmap = staged_old_pmap_;
      REX_RETURN_NOT_OK(plan_->OnMembershipChange());
      REX_RETURN_NOT_OK(plan_->ResetTransientState());
      if (staged_last_stratum_ >= 0) {
        // Stratum 0 completed before the failure, so every stream-once
        // wave (base case, immutable inputs) was delivered cluster-wide.
        // Survivors keep port_closed_ across ResetTransientState; a
        // revived worker's fresh plan must be primed the same way or its
        // open ports stall every subsequent punctuation wave.
        REX_RETURN_NOT_OK(plan_->MarkDeliveredStreamsClosed());
      }
      for (FixpointOp* fp : plan_->fixpoints()) {
        REX_RETURN_NOT_OK(fp->RestoreFromCheckpoints(staged_last_stratum_));
      }
      return Status::OK();
    }
    case ControlMsg::Kind::kRecoverReload: {
      REX_RETURN_NOT_OK(plan_->RecoveryReload());
      ctx_.old_pmap = nullptr;  // reload done; back to normal routing
      return Status::OK();
    }
    case ControlMsg::Kind::kReplayStratum: {
      // Guided replay: stratum 0 re-runs the base case; stratum s >= 1
      // seeds the fixpoints with the checkpointed Δ set of stratum s-1 and
      // flushes it through the loop body so derived state (persistent
      // group-bys, stateful join handlers) is rebuilt. Fixpoints discard
      // the deltas that come back around (ctx_.replay_mode).
      ctx_.replay_mode = true;
      ctx_.current_stratum = c.stratum;
      if (c.stratum >= 1) {
        for (FixpointOp* fp : plan_->fixpoints()) {
          REX_RETURN_NOT_OK(fp->ApplyCheckpointStratum(c.stratum - 1));
        }
      }
      return plan_->StartStratum(c.stratum);
    }
    case ControlMsg::Kind::kReplayEnd: {
      // Apply the final checkpointed Δ set so pending_ holds exactly what
      // the resumed stratum must flush, then return to normal execution.
      for (FixpointOp* fp : plan_->fixpoints()) {
        REX_RETURN_NOT_OK(fp->ApplyCheckpointStratum(c.stratum));
      }
      ctx_.replay_mode = false;
      return Status::OK();
    }
    case ControlMsg::Kind::kPing:
      // Answered on the RunLoop fast path (before the error check); reaching
      // Dispatch is harmless — just reply again.
      return network_->Send(Message::Heartbeat(id_, ctx_.incarnation));
    case ControlMsg::Kind::kNone:
      return Status::OK();
  }
  return Status::Internal("unknown control kind");
}

}  // namespace rex
