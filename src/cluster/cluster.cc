#include "cluster/cluster.h"

#include <algorithm>
#include <chrono>

#include "common/logging.h"

namespace rex {

namespace {
double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}
}  // namespace

Cluster::Cluster(EngineConfig config)
    : config_(config),
      checkpoints_(config.num_workers) {
  network_ = std::make_unique<Network>(config_.num_workers,
                                       config_.channel_capacity,
                                       config_.send_retry_budget);
  FailureDetector::Config fd_config;
  fd_config.suspect_after = config_.heartbeat_suspect_rounds;
  fd_config.confirm_after = config_.heartbeat_confirm_rounds;
  detector_ =
      std::make_unique<FailureDetector>(config_.num_workers, fd_config);
  network_->set_heartbeat_sink(detector_.get());
  failed_.assign(static_cast<size_t>(config_.num_workers), false);
  for (int i = 0; i < config_.num_workers; ++i) {
    workers_.push_back(std::make_unique<WorkerNode>(
        i, network_.get(), &storage_, &udfs_, &votes_, &checkpoints_,
        &config_));
  }
  Status st = RegisterBuiltins(&udfs_);
  if (!st.ok()) REX_LOG(Error) << "builtin registration: " << st.ToString();
}

Cluster::~Cluster() { Shutdown(); }

Status Cluster::Start() {
  if (started_) return Status::OK();
  for (auto& w : workers_) w->Start();
  started_ = true;
  return Status::OK();
}

void Cluster::Shutdown() {
  for (auto& w : workers_) w->Stop();
  started_ = false;
}

std::vector<int> Cluster::LiveWorkers() const {
  std::vector<int> live;
  for (int i = 0; i < num_workers(); ++i) {
    if (!failed_[static_cast<size_t>(i)]) live.push_back(i);
  }
  return live;
}

Status Cluster::CreateTable(const std::string& name, Schema schema,
                            int key_column, std::vector<Tuple> rows) {
  auto table = std::make_shared<DistributedTable>(name, std::move(schema),
                                                  key_column);
  table->AppendRows(std::move(rows));
  return storage_.AddTable(std::move(table));
}

Status Cluster::Broadcast(const ControlMsg& c,
                          const std::vector<int>& targets) {
  for (int w : targets) {
    REX_RETURN_NOT_OK(network_->Send(Message::Control(w, c)));
  }
  return Status::OK();
}

Status Cluster::CheckWorkerErrors(const std::vector<int>& live) const {
  for (int w : live) {
    const Status& st = workers_[static_cast<size_t>(w)]->error();
    if (!st.ok()) return st;
  }
  return Status::OK();
}

const PartitionMap* Cluster::PushPartitionMap(std::vector<int> live) {
  pmap_history_.push_back(std::make_unique<PartitionMap>(
      std::move(live), config_.replication, config_.vnodes_per_worker));
  return pmap_history_.back().get();
}

Status Cluster::InjectBoundaryCrash(int w) {
  REX_LOG(Info) << "injecting failure of worker " << w;
  // Only the victim is touched: its inbox closes and its thread exits.
  // Nobody is told — the failure detector must notice the silence, and
  // the trace ring records the crash only once detection confirms it
  // (the ring is the driver's view, and the driver was not told either).
  network_->Crash(w);
  workers_[static_cast<size_t>(w)]->Stop();
  return Status::OK();
}

void Cluster::ConfirmDead(int w) {
  REX_LOG(Info) << "failure detector confirmed death of worker " << w;
  trace_.Record(TraceEvent::Kind::kCrash, w, 1, 0, "detected");
  failed_[static_cast<size_t>(w)] = true;
  network_->MarkFailed(w);
  workers_[static_cast<size_t>(w)]->Stop();
}

std::vector<int> Cluster::DetectFailures() {
  std::vector<int> newly_dead;
  bool keep_probing = true;
  while (keep_probing) {
    detector_->BeginRound();
    ControlMsg ping;
    ping.kind = ControlMsg::Kind::kPing;
    for (int w = 0; w < num_workers(); ++w) {
      if (failed_[static_cast<size_t>(w)] || detector_->IsDead(w)) continue;
      // A ping to a crashed worker lands in a closed channel and is
      // dropped; the missing heartbeat is the signal.
      (void)network_->Send(Message::Control(w, ping));
    }
    network_->WaitQuiescent();
    for (int w : detector_->Tick()) {
      ConfirmDead(w);
      newly_dead.push_back(w);
    }
    // A suspicion must resolve to alive or dead before execution resumes:
    // the quiescence barrier and Recover() act on detected membership.
    keep_probing = detector_->AnySuspected();
  }
  return newly_dead;
}

Status Cluster::ReviveWorker(int w) {
  if (!failed_[static_cast<size_t>(w)]) return Status::OK();
  REX_LOG(Info) << "restoring worker " << w << " (fresh replacement node)";
  trace_.Record(TraceEvent::Kind::kRestore, w, 0, 0);
  // The replacement is a new incarnation: late votes and straggler
  // messages from the previous life are rejected by board and channel.
  // Every resident's board learns the new incarnation — a stale vote must
  // be rejected no matter which query it targets.
  const int incarnation = detector_->Revive(w);
  votes_.SetIncarnation(w, incarnation);
  for (auto& [qid, q] : residents_) {
    if (q.owned_votes != nullptr) q.owned_votes->SetIncarnation(w, incarnation);
  }
  // Destroy the dead node FIRST: its destructor closes the inbox, which
  // must happen before Restore() reopens it for the replacement.
  workers_[static_cast<size_t>(w)] = std::make_unique<WorkerNode>(
      w, network_.get(), &storage_, &udfs_, &votes_, &checkpoints_,
      &config_, incarnation);
  // The fresh node boots pointed at the legacy (query 0) boards; align it
  // with whichever resident is currently active.
  if (active_query_ != 0) {
    workers_[static_cast<size_t>(w)]->ActivateQuery(
        active_query_, active_votes_, active_checkpoints_, nullptr);
  }
  network_->Restore(w);
  if (started_) workers_[static_cast<size_t>(w)]->Start();
  failed_[static_cast<size_t>(w)] = false;
  // The replacement holds no plan for any resident; everyone except the
  // active query (whose ongoing recovery reinstalls it) is now stale.
  MarkOthersStale(active_query_);
  return Status::OK();
}

Status Cluster::ReviveFailedWorkers() {
  bool any_revived = false;
  for (int i = 0; i < num_workers(); ++i) {
    if (failed_[static_cast<size_t>(i)]) any_revived = true;
    REX_RETURN_NOT_OK(ReviveWorker(i));
  }
  // No recovery pass follows a driver-initiated revive: even the active
  // resident's plan is missing on the replacements, so nobody may resume
  // incrementally until a fresh RunResident.
  if (any_revived) MarkOthersStale(/*except_query=*/-1);
  return Status::OK();
}

void Cluster::MarkOthersStale(int except_query) {
  for (auto& [qid, q] : residents_) {
    if (qid == except_query) continue;
    q.stale = true;
  }
}

Status Cluster::GuidedReplay(const PlanSpec& spec, const PartitionMap* pmap,
                             const std::vector<int>& live,
                             int last_complete) {
  // Fresh plans on every live worker: the replay re-derives every
  // operator's state (fixpoints from the checkpoint store, everything else
  // from re-running the waves), so nothing stale can survive.
  for (int w : live) {
    REX_RETURN_NOT_OK(
        workers_[static_cast<size_t>(w)]->InstallPlan(spec, pmap));
  }
  for (int s = 0; s <= last_complete; ++s) {
    ControlMsg c;
    c.kind = ControlMsg::Kind::kReplayStratum;
    c.stratum = s;
    REX_RETURN_NOT_OK(Broadcast(c, live));
    network_->WaitQuiescent();
    // A crash during replay is only visible as silence; probe before
    // trusting the stratum's results.
    if (!DetectFailures().empty()) {
      return Status::NodeFailure("worker failed during replay recovery");
    }
    REX_RETURN_NOT_OK(CheckWorkerErrors(live));
  }
  ControlMsg end;
  end.kind = ControlMsg::Kind::kReplayEnd;
  end.stratum = last_complete;
  REX_RETURN_NOT_OK(Broadcast(end, live));
  network_->WaitQuiescent();
  REX_RETURN_NOT_OK(CheckWorkerErrors(live));
  return Status::OK();
}

Status Cluster::Recover(const PlanSpec& spec, RecoveryStrategy strategy,
                        ChaosInjector* injector, std::vector<int> revived,
                        const PartitionMap** pmap, std::vector<int>* live,
                        int* resume_stratum, QueryRunResult* out) {
  out->recovered = true;
  // Set when a crash interrupts a plain incremental recovery: the
  // survivors' operator state is half-restored, so the retry rebuilds
  // everything with guided replay instead.
  bool force_replay = false;
  // Set when checkpoint integrity fails beyond repair (every copy of some
  // entry corrupt): the remaining passes fall back to the restart strategy.
  bool degrade_to_restart = false;
  int attempts = 0;
  while (true) {
    if (attempts >= config_.recovery_retry_budget) {
      return Status::NodeFailure(
          "recovery retry budget (" +
          std::to_string(config_.recovery_retry_budget) + ") exhausted");
    }
    if (attempts > 0) {
      // Simulated exponential backoff between passes (accounted in ticks,
      // not wall-clock: chaos runs stay deterministic).
      const int64_t backoff_ticks = int64_t{1} << std::min(attempts - 1, 6);
      REX_LOG(Info) << "recovery pass " << attempts + 1 << " after backoff of "
                    << backoff_ticks << " tick(s)";
    }
    ++attempts;
    *live = LiveWorkers();
    if (live->empty()) return Status::NodeFailure("all workers failed");
    const PartitionMap* old_pmap = *pmap;
    *pmap = PushPartitionMap(*live);
    out->recoveries += 1;
    const auto t_pass = std::chrono::steady_clock::now();
    trace_.Record(TraceEvent::Kind::kRecoverBegin, out->recoveries, 0,
                  static_cast<int64_t>(live->size()));
    if (injector != nullptr) {
      injector->NoteRecoveryRound();
      injector->BeginRecovery();
    }

    const int last_complete = *resume_stratum - 1;
    const RecoveryStrategy pass_strategy =
        degrade_to_restart ? RecoveryStrategy::kRestart : strategy;
    bool restarted = false;
    bool used_replay = false;
    Status st;
    if (pass_strategy == RecoveryStrategy::kRestart || last_complete < 0 ||
        !config_.checkpoint_deltas) {
      // Restart — or nothing usable checkpointed: discard all work and
      // re-run from stratum 0 on the current live set.
      active_votes_->Reset();
      active_checkpoints_->Clear();
      for (int w : *live) {
        st = workers_[static_cast<size_t>(w)]->InstallPlan(spec, *pmap);
        if (!st.ok()) break;
      }
      restarted = true;
    } else {
      // Incremental (§4.3). First the DHT side: takeover nodes (freshly
      // revived replacements in particular) gain read access to every
      // checkpoint entry they inherit, and copy counts are topped back up.
      st = active_checkpoints_->GrantRecoveryAccess(*live, revived,
                                            config_.replication);
      if (st.ok()) {
        if (spec.NeedsReplayRecovery() || force_replay) {
          used_replay = true;
          st = GuidedReplay(spec, *pmap, *live, last_complete);
        } else {
          // Phase 1 — new snapshot, reset transient state, restore
          // fixpoint state from checkpoints of strata [0, last_complete].
          // A revived worker starts from a fresh plan.
          for (int w : revived) {
            st = workers_[static_cast<size_t>(w)]->InstallPlan(spec, *pmap);
            if (!st.ok()) break;
          }
          if (st.ok()) {
            for (int w : *live) {
              workers_[static_cast<size_t>(w)]->StageRecovery(
                  *pmap, old_pmap, last_complete);
            }
            ControlMsg prep;
            prep.kind = ControlMsg::Kind::kRecoverPrepare;
            st = Broadcast(prep, *live);
          }
          if (st.ok()) {
            network_->WaitQuiescent();
            st = CheckWorkerErrors(*live);
          }
          if (st.ok()) {
            // Phase 2 — stream immutable rows of moved ranges to their
            // takeover nodes.
            ControlMsg reload;
            reload.kind = ControlMsg::Kind::kRecoverReload;
            st = Broadcast(reload, *live);
          }
          if (st.ok()) {
            network_->WaitQuiescent();
            st = CheckWorkerErrors(*live);
          }
        }
      }
    }
    if (injector != nullptr) injector->EndRecovery();

    RecoveryPassProfile pass;
    pass.pass = out->recoveries;
    pass.seconds = SecondsSince(t_pass);
    pass.strategy = restarted ? "restart"
                    : used_replay ? "replay"
                                  : "incremental";
    pass.resume_stratum = restarted ? 0 : *resume_stratum;
    pass.live_workers = static_cast<int>(live->size());
    pass.revived_workers = static_cast<int>(revived.size());
    out->profile.recovery_passes.push_back(pass);
    trace_.Record(TraceEvent::Kind::kRecoverEnd, out->recoveries, 0,
                  pass.resume_stratum, pass.strategy);

    // Did more workers die during the recovery itself (or was a
    // during-recovery crash scheduled that the traffic never triggered)?
    // Deaths are only visible through the failure detector: crash them
    // silently, probe, and compare the live set against confirmed deaths.
    if (injector != nullptr) {
      for (int w : injector->TakeUnfiredRecoveryCrashes()) {
        if (failed_[static_cast<size_t>(w)]) continue;
        network_->Crash(w);
        workers_[static_cast<size_t>(w)]->Stop();
      }
      DetectFailures();
    }
    std::vector<int> died;
    for (int w : *live) {
      if (failed_[static_cast<size_t>(w)]) died.push_back(w);
    }
    if (!died.empty()) {
      REX_LOG(Info) << "chaos: " << died.size()
                    << " worker(s) failed during recovery; retrying";
      for (int w : died) {
        revived.erase(std::remove(revived.begin(), revived.end(), w),
                      revived.end());
      }
      if (!restarted && pass_strategy != RecoveryStrategy::kRestart) {
        force_replay = true;
      }
      continue;  // retry against the shrunken live set
    }

    if (!st.ok()) {
      if (st.code() == StatusCode::kDataLoss && !restarted) {
        // Every copy of some checkpoint entry failed its integrity check:
        // the Δ history is unusable. Degrade gracefully to a restart pass
        // instead of failing the query.
        REX_LOG(Warn) << "checkpoint integrity lost (" << st.ToString()
                      << "); degrading to restart strategy";
        trace_.Record(TraceEvent::Kind::kRecoverBegin, out->recoveries, 1, 0,
                      "degrade-to-restart");
        degrade_to_restart = true;
        continue;
      }
      return st;
    }
    if (restarted) *resume_stratum = 0;
    // Membership (and the partition map) moved under every inactive
    // resident: their installed plans may reference dead workers. They must
    // be re-derived before serving again.
    MarkOthersStale(active_query_);
    return Status::OK();
  }
}

Status Cluster::CheckRuntimeInvariants(const std::vector<int>& live,
                                       int stratum) {
  REX_RETURN_NOT_OK(network_->CheckInvariants());
  if (!config_.checkpoint_deltas) return Status::OK();
  // Every checkpoint entry must still be readable from enough live nodes.
  REX_RETURN_NOT_OK(
      active_checkpoints_->VerifyReadable(live, config_.replication));
  // Δ conservation: replaying the store reproduces each live fixpoint's
  // mutable state (and pending Δ set) bit-for-bit.
  for (int w : live) {
    LocalPlan* plan = workers_[static_cast<size_t>(w)]->plan();
    if (plan == nullptr) continue;
    for (FixpointOp* fp : plan->fixpoints()) {
      REX_RETURN_NOT_OK(fp->VerifyCheckpointConservation(stratum));
    }
  }
  return Status::OK();
}

Result<QueryRunResult> Cluster::Run(const PlanSpec& spec,
                                    const QueryOptions& options) {
  return RunResident(0, spec, options);
}

Cluster::ResidentQuery* Cluster::Resident(int query_id) {
  auto it = residents_.find(query_id);
  if (it != residents_.end()) return &it->second;
  ResidentQuery q;
  if (query_id != 0) {
    q.owned_votes = std::make_unique<VoteBoard>();
    q.owned_checkpoints =
        std::make_unique<CheckpointStore>(config_.num_workers);
    // A board created mid-life must reject votes from incarnations the
    // cluster has already declared dead.
    for (int w = 0; w < num_workers(); ++w) {
      const int inc = workers_[static_cast<size_t>(w)]->incarnation();
      if (inc > 0) q.owned_votes->SetIncarnation(w, inc);
    }
  }
  return &residents_.emplace(query_id, std::move(q)).first->second;
}

void Cluster::ActivateResident(int query_id) {
  ResidentQuery* q = Resident(query_id);
  active_query_ = query_id;
  active_votes_ = VotesFor(q);
  active_checkpoints_ = CheckpointsFor(q);
  for (int w = 0; w < num_workers(); ++w) {
    if (failed_[static_cast<size_t>(w)]) continue;
    workers_[static_cast<size_t>(w)]->ActivateQuery(
        query_id, active_votes_, active_checkpoints_, q->pmap);
  }
}

Result<QueryRunResult> Cluster::RunResident(int query_id,
                                            const PlanSpec& spec,
                                            const QueryOptions& options) {
  ActivateResident(query_id);
  Result<QueryRunResult> res = RunInternal(spec, options);
  if (!res.ok()) {
    REX_LOG(Error) << "query failed: " << res.status().ToString();
    DumpTraces();
  }
  return res;
}

Status Cluster::EvictResident(int query_id) {
  auto it = residents_.find(query_id);
  if (it == residents_.end()) {
    return Status::NotFound("no resident query " + std::to_string(query_id));
  }
  for (auto& w : workers_) w->DropPlan(query_id);
  if (active_query_ == query_id) {
    // Fall back to the legacy boards; there is no active plan until the
    // next RunResident.
    active_query_ = 0;
    active_votes_ = &votes_;
    active_checkpoints_ = &checkpoints_;
  }
  residents_.erase(it);
  return Status::OK();
}

bool Cluster::IsPoisoned(int query_id) const {
  auto it = residents_.find(query_id);
  return it != residents_.end() && it->second.poisoned;
}

bool Cluster::IsStale(int query_id) const {
  auto it = residents_.find(query_id);
  return it != residents_.end() && it->second.stale;
}

void Cluster::DumpTraces() const {
  REX_LOG(Error) << trace_.Dump();
  for (const auto& w : workers_) {
    if (w->trace()->total_recorded() > 0) {
      REX_LOG(Error) << w->trace()->Dump();
    }
  }
}

void Cluster::AssembleProfile(const std::vector<int>& live,
                              QueryRunResult* out) {
  QueryProfile& p = out->profile;
  p.total_seconds = out->total_seconds;
  p.strata_executed = out->strata_executed;
  p.recovered = out->recovered;
  p.recoveries = out->recoveries;

  for (const StratumReport& r : out->strata) {
    StratumProfile s;
    s.stratum = r.stratum;
    s.seconds = r.seconds;
    s.bytes_sent = r.bytes_sent;
    s.delta_tuples = r.stats.new_tuples;
    s.changed_tuples = r.stats.changed_tuples;
    s.state_size = r.stats.state_size;
    s.max_change = r.stats.max_change;
    p.strata.push_back(s);
  }

  for (const auto& [key, stats] : active_votes_->SnapshotTotals()) {
    FixpointStratumProfile f;
    f.fixpoint_id = key.first;
    f.stratum = key.second;
    f.delta_tuples = stats.new_tuples;
    f.state_size = stats.state_size;
    p.fixpoint_deltas.push_back(f);
  }

  for (int w = 0; w < num_workers(); ++w) {
    WorkerProfile wp;
    wp.worker = w;
    wp.live_at_end = !failed_[static_cast<size_t>(w)];
    wp.bytes_sent = network_->BytesSentBy(w);
    MetricsRegistry* m = workers_[static_cast<size_t>(w)]->metrics();
    wp.counters = m->Snapshot();
    wp.timers = m->TimersSnapshot();
    p.workers.push_back(std::move(wp));
  }

  p.bytes_matrix = network_->BytesMatrix();

  for (int w : live) {
    LocalPlan* plan = workers_[static_cast<size_t>(w)]->plan();
    if (plan == nullptr) continue;
    for (LocalOperatorStats& s : plan->StatsSnapshot()) {
      OperatorProfile op;
      op.worker = w;
      op.op_id = s.op_id;
      op.name = s.name;
      op.deltas_emitted = s.deltas_emitted;
      for (size_t port = 0; port < s.ports.size(); ++port) {
        OperatorPortProfile pp;
        pp.port = static_cast<int>(port);
        pp.batches = s.ports[port].batches;
        pp.tuples = s.ports[port].tuples;
        pp.puncts = s.ports[port].puncts;
        pp.consume_nanos = s.ports[port].consume_nanos;
        op.ports.push_back(pp);
      }
      p.operators.push_back(std::move(op));
    }
  }

  MetricsRegistry& ckpt = active_checkpoints_->metrics();
  p.checkpoint_bytes = ckpt.Value(metrics::kCheckpointBytes);
  p.checkpoint_tuples = ckpt.Value(metrics::kCheckpointTuples);
  p.recovery_refetch_bytes = ckpt.Value(metrics::kRecoveryRefetchBytes);
  p.checkpoint_repairs = ckpt.Value(metrics::kCheckpointRepairs);
  p.ckpt_raw_bytes = ckpt.Value(metrics::kCheckpointRawBytes);
  p.ckpt_stored_bytes = p.ckpt_raw_bytes;
  p.detection_latency_ticks = detector_->detection_latency_ticks();
  p.retransmits = network_->metrics().Value(metrics::kRetransmits);

  p.tuples_sent = network_->metrics().Value(metrics::kTuplesSent);
}

Status Cluster::DriveStrata(const PlanSpec& spec, const QueryOptions& options,
                            RecoveryStrategy strategy, ChaosInjector* injector,
                            bool has_fixpoint, int start_stratum,
                            const PartitionMap** pmap, std::vector<int>* live,
                            QueryRunResult* out, int* next_stratum) {
  const int max_strata =
      options.max_strata > 0 ? options.max_strata : config_.max_strata;
  // A restart recovery resets `stratum` to 0; the budget stays anchored at
  // the original start so a restarted incremental update keeps a full
  // allowance.
  const int stratum_limit = start_stratum + max_strata;
  int stratum = start_stratum;
  while (true) {
    if (injector != nullptr) {
      // ---- boundary fault events ----------------------------------------
      // Crashes only stop the victim; the driver learns about them from
      // the failure detector below, never from the injector.
      for (int w : injector->TakeDueCrashes(stratum)) {
        if (failed_[static_cast<size_t>(w)]) continue;
        REX_RETURN_NOT_OK(InjectBoundaryCrash(w));
      }
      for (const auto& [holder, max_entries] :
           injector->TakeDueCorruptions(stratum)) {
        active_checkpoints_->CorruptCopies(holder, max_entries);
      }
      std::vector<int> revived;
      for (int w : injector->TakeRestores(stratum)) {
        REX_RETURN_NOT_OK(ReviveWorker(w));
        revived.push_back(w);
      }
      const std::vector<int> dead = DetectFailures();
      if (!dead.empty() || !revived.empty()) {
        REX_RETURN_NOT_OK(Recover(spec, strategy, injector,
                                  std::move(revived), pmap, live, &stratum,
                                  out));
      }
      injector->BeginStratum(stratum);
    }

    const auto t_stratum = std::chrono::steady_clock::now();
    const int64_t bytes_before = network_->TotalBytesSent();
    trace_.Record(TraceEvent::Kind::kStratumStart, 0, 0, stratum);

    ControlMsg start;
    start.kind = ControlMsg::Kind::kStartStratum;
    start.stratum = stratum;
    REX_RETURN_NOT_OK(Broadcast(start, *live));
    network_->WaitQuiescent();
    REX_RETURN_NOT_OK(network_->CheckInvariants());

    if (injector != nullptr) {
      // ---- mid-stratum failure: abort and re-execute the stratum --------
      // A mid-stratum crash (fired by the injector inside Send, or overdue
      // because the message threshold was never reached) only silences the
      // victim; probe to find out who actually died.
      for (int w : injector->TakeOverdueMidStratumCrashes(stratum)) {
        if (failed_[static_cast<size_t>(w)]) continue;
        network_->Crash(w);
        workers_[static_cast<size_t>(w)]->Stop();
      }
      const std::vector<int> mid = DetectFailures();
      if (!mid.empty()) {
        for (int w : mid) {
          REX_LOG(Info) << "chaos: aborting stratum " << stratum
                        << " after mid-stratum failure of worker " << w;
        }
        // Survivors may already have voted for / checkpointed the aborted
        // stratum; neither may survive into its re-execution.
        active_votes_->ClearFromStratum(stratum);
        active_checkpoints_->TruncateAfter(stratum - 1);
        REX_RETURN_NOT_OK(Recover(spec, strategy, injector, {}, pmap, live,
                                  &stratum, out));
        continue;  // re-execute (stratum was reset to 0 on restart)
      }
    }

    REX_RETURN_NOT_OK(CheckWorkerErrors(*live));
    if (config_.verify_invariants && has_fixpoint) {
      REX_RETURN_NOT_OK(CheckRuntimeInvariants(*live, stratum));
    }

    StratumReport report;
    report.stratum = stratum;
    report.stats = active_votes_->TotalForStratum(stratum);
    report.seconds = SecondsSince(t_stratum);
    report.bytes_sent = network_->TotalBytesSent() - bytes_before;
    out->strata.push_back(report);
    out->strata_executed += 1;

    bool stop = false;
    if (!has_fixpoint) {
      stop = true;  // a single non-recursive wave
    } else if (options.terminate) {
      stop = options.terminate(stratum, report.stats);
    } else {
      stop = report.stats.new_tuples == 0;  // implicit fixpoint
    }
    if (stop) break;
    ++stratum;
    if (stratum >= stratum_limit) {
      REX_LOG(Warn) << "query hit max_strata=" << max_strata;
      break;
    }
  }

  if (injector != nullptr) {
    out->chaos = injector->stats();
    // A crash/restore scheduled past the query's convergence never fired —
    // the scenario silently tested nothing. Make that loud.
    if (!injector->AllMandatoryEventsFired()) {
      return Status::InvalidArgument(
          "fault schedule events never fired (scheduled past convergence?): " +
          injector->UnfiredEventsToString());
    }
  }
  *next_stratum = stratum + 1;
  return Status::OK();
}

void Cluster::CollectResults(const std::vector<int>& live,
                             QueryRunResult* out) {
  // Collect results at the requestor: union of per-node sink outputs and
  // fixpoint state relations (safe: network is quiescent).
  for (int w : live) {
    LocalPlan* plan = workers_[static_cast<size_t>(w)]->plan();
    for (SinkOp* sink : plan->sinks()) {
      for (const Tuple& t : sink->results()) out->results.push_back(t);
    }
    for (FixpointOp* fp : plan->fixpoints()) {
      for (Tuple& t : fp->StateTuples()) {
        out->fixpoint_state.push_back(std::move(t));
      }
    }
  }
}

Result<QueryRunResult> Cluster::RunInternal(const PlanSpec& spec,
                                            const QueryOptions& options) {
  if (!started_) REX_RETURN_NOT_OK(Start());
  REX_RETURN_NOT_OK(spec.Validate());
  // A new run invalidates this resident's previous resume point and clears
  // any poison/staleness: the plan is re-derived from the current tables.
  ResidentQuery* rq = Resident(active_query_);
  rq->resume_stratum = -1;
  rq->poisoned = false;
  rq->poison_reason.clear();
  rq->stale = false;

  // ---- fault-schedule assembly + validation ------------------------------
  FaultSchedule schedule = options.faults;
  const FailureInjection& fi = options.failure;
  if (fi.worker != -1 || fi.before_stratum != -1) {
    if (fi.worker < 0 || fi.worker >= num_workers()) {
      return Status::InvalidArgument(
          "failure injection: worker " + std::to_string(fi.worker) +
          " out of range [0, " + std::to_string(num_workers()) + ")");
    }
    if (fi.before_stratum < 0) {
      return Status::InvalidArgument(
          "failure injection: before_stratum must be >= 0 when a victim "
          "worker is set");
    }
    FaultEvent e;
    e.kind = FaultEvent::Kind::kCrash;
    e.worker = fi.worker;
    e.at_stratum = fi.before_stratum;
    e.after_messages = -1;
    schedule.events.push_back(e);
    schedule.strategy = fi.strategy;
  }
  if (!schedule.empty()) {
    REX_RETURN_NOT_OK(schedule.Validate(num_workers(), config_.replication));
  }

  QueryRunResult out;
  const auto t_query = std::chrono::steady_clock::now();

  active_votes_->Reset();
  active_checkpoints_->Clear();

  std::vector<int> live = LiveWorkers();
  if (live.empty()) return Status::NodeFailure("no live workers");
  const PartitionMap* pmap = PushPartitionMap(live);
  for (int w : live) {
    REX_RETURN_NOT_OK(
        workers_[static_cast<size_t>(w)]->InstallPlan(spec, pmap));
  }

  bool has_fixpoint = false;
  for (const PlanNodeSpec& n : spec.nodes()) {
    if (n.type == PlanNodeSpec::Type::kFixpoint) has_fixpoint = true;
  }

  // The injector lives on the driver's stack for exactly this run; clear
  // the network hook on every exit path.
  std::unique_ptr<ChaosInjector> injector;
  struct InjectorGuard {
    Network* net = nullptr;
    ~InjectorGuard() {
      if (net != nullptr) net->set_fault_injector(nullptr);
    }
  } injector_guard;
  if (!schedule.empty()) {
    injector = std::make_unique<ChaosInjector>(schedule, network_.get());
    network_->set_fault_injector(injector.get());
    injector_guard.net = network_.get();
  }

  int next_stratum = 0;
  REX_RETURN_NOT_OK(DriveStrata(spec, options, schedule.strategy,
                                injector.get(), has_fixpoint,
                                /*start_stratum=*/0, &pmap, &live, &out,
                                &next_stratum));

  CollectResults(live, &out);
  out.total_seconds = SecondsSince(t_query);
  out.total_bytes_sent = network_->TotalBytesSent();
  AssembleProfile(live, &out);

  // Capture the resume point for incremental base-table updates: the plan
  // stays installed and converged, so ApplyBaseUpdate can seed a
  // perturbation Δ and continue the stratum sequence from here.
  if (has_fixpoint) {
    rq->spec = spec;
    rq->resume_stratum = next_stratum;
    rq->pmap = pmap;
    rq->live = live;
  }
  return out;
}

Result<QueryRunResult> Cluster::ApplyBaseUpdate(const BaseUpdate& update) {
  return ApplyBaseUpdate(0, update);
}

Status Cluster::MutateTables(
    const std::map<std::string, std::vector<DistributedTable::WeightedRow>>&
        tables) {
  for (const auto& [name, rows] : tables) {
    REX_ASSIGN_OR_RETURN(std::shared_ptr<DistributedTable> table,
                         storage_.GetTable(name));
    REX_RETURN_NOT_OK(table->ApplyWeighted(rows).status());
  }
  return Status::OK();
}

Cluster::ProfileBaseline Cluster::SnapshotBaseline() const {
  ProfileBaseline b;
  b.tuples_sent = network_->metrics().Value(metrics::kTuplesSent);
  b.retransmits = network_->metrics().Value(metrics::kRetransmits);
  MetricsRegistry& ckpt = active_checkpoints_->metrics();
  b.checkpoint_bytes = ckpt.Value(metrics::kCheckpointBytes);
  b.checkpoint_tuples = ckpt.Value(metrics::kCheckpointTuples);
  b.recovery_refetch_bytes = ckpt.Value(metrics::kRecoveryRefetchBytes);
  b.checkpoint_repairs = ckpt.Value(metrics::kCheckpointRepairs);
  b.ckpt_raw_bytes = ckpt.Value(metrics::kCheckpointRawBytes);
  return b;
}

void Cluster::SubtractBaseline(const ProfileBaseline& base, QueryProfile* p) {
  // A revived worker restarts its registry from zero, which can make the
  // cumulative sum dip below the baseline; clamp rather than report a
  // negative count.
  auto diff = [](int64_t now, int64_t before) {
    return std::max<int64_t>(0, now - before);
  };
  p->tuples_sent = diff(p->tuples_sent, base.tuples_sent);
  p->checkpoint_bytes = diff(p->checkpoint_bytes, base.checkpoint_bytes);
  p->checkpoint_tuples = diff(p->checkpoint_tuples, base.checkpoint_tuples);
  p->recovery_refetch_bytes =
      diff(p->recovery_refetch_bytes, base.recovery_refetch_bytes);
  p->checkpoint_repairs =
      diff(p->checkpoint_repairs, base.checkpoint_repairs);
  p->retransmits = diff(p->retransmits, base.retransmits);
  p->ckpt_raw_bytes = diff(p->ckpt_raw_bytes, base.ckpt_raw_bytes);
  p->ckpt_stored_bytes = p->ckpt_raw_bytes;
}

Result<QueryRunResult> Cluster::ApplyBaseUpdate(int query_id,
                                                const BaseUpdate& update) {
  auto res_it = residents_.find(query_id);
  ResidentQuery* rq = res_it == residents_.end() ? nullptr : &res_it->second;
  if (rq != nullptr && rq->poisoned) {
    return Status::FailedPrecondition(
        "resident query " + std::to_string(query_id) +
        " is poisoned by a half-applied base update (" + rq->poison_reason +
        "); re-derive it with a fresh RunResident before further updates");
  }
  if (rq == nullptr || rq->resume_stratum < 1 || rq->pmap == nullptr) {
    return Status::InvalidArgument(
        "ApplyBaseUpdate requires a converged recursive Run for query " +
        std::to_string(query_id));
  }
  if (rq->stale) {
    return Status::FailedPrecondition(
        "resident query " + std::to_string(query_id) +
        " is stale: cluster membership changed while it was inactive; "
        "re-derive it with a fresh RunResident");
  }
  FaultSchedule schedule = update.faults;
  if (!schedule.empty()) {
    REX_RETURN_NOT_OK(schedule.Validate(num_workers(), config_.replication));
  }
  ActivateResident(query_id);
  std::vector<int> live = rq->live;
  const PartitionMap* pmap = rq->pmap;
  const int resume_at = rq->resume_stratum;
  REX_RETURN_NOT_OK(CheckWorkerErrors(live));

  // Everything after this point mutates shared state (tables, operator
  // buckets, checkpointed seeds). Poison the resident now and lift the
  // poison only on success, so ANY failure — not just one inside the
  // re-convergence drive — leaves the resident refusing further work
  // instead of silently computing against half-applied state.
  rq->poisoned = true;
  rq->poison_reason = "base update in flight";
  rq->resume_stratum = -1;
  auto poison = [&](const Status& why) {
    rq->poison_reason = why.ToString();
  };

  QueryRunResult out;
  const auto t_query = std::chrono::steady_clock::now();
  // Cumulative counters are snapshotted so the returned profile honestly
  // reports only this update's traffic and checkpoint volume
  // (the incremental-vs-from-scratch comparison depends on it).
  const ProfileBaseline baseline = SnapshotBaseline();
  const int64_t bytes_before = network_->TotalBytesSent();

  // 1. Base tables: the durable ℤ-set mutation. Recovery paths (takeover
  // reloads, restarts, guided replay) re-read these, so they must change
  // before any re-execution can happen.
  for (const auto& [name, rows] : update.tables) {
    auto table = storage_.GetTable(name);
    if (!table.ok()) {
      poison(table.status());
      return table.status();
    }
    auto net = (*table)->ApplyWeighted(rows);
    if (!net.ok()) {
      poison(net.status());
      return net.status();
    }
  }

  // 2. Operator state patches: revise materialized base state (immutable
  // join sides) in place on the workers that hold it. Driver-side direct
  // calls while the network is quiescent, like plan installation; routing
  // matches the placement the rows had when the scan loaded them.
  for (const StatePatch& patch : update.patches) {
    std::map<int, DeltaVec> by_worker;
    for (const Delta& d : patch.deltas) {
      const uint64_t h = PartitionHash(d.tuple, patch.route_fields);
      by_worker[pmap->PrimaryOwner(h)].push_back(d);
    }
    for (auto& [w, deltas] : by_worker) {
      LocalPlan* plan = workers_[static_cast<size_t>(w)]->plan();
      if (plan == nullptr || patch.op_id < 0 || patch.op_id >= plan->size()) {
        Status st = Status::InvalidArgument(
            "state patch targets unknown operator " +
            std::to_string(patch.op_id));
        poison(st);
        return st;
      }
      Status st = plan->op(patch.op_id)->Consume(patch.port,
                                                 std::move(deltas));
      if (!st.ok()) {
        poison(st);
        return st;
      }
    }
  }

  // 3. Perturbation Δ seeds, applied against each fixpoint's converged
  // state. The seeds' arrivals are checkpoint-appended to the converged
  // run's final stratum, so a crash anywhere in the re-convergence replays
  // them (TruncateAfter never drops a completed stratum).
  const int checkpoint_stratum = resume_at - 1;
  for (const auto& [op_id, deltas] : update.seeds) {
    bool found = false;
    for (int w : live) {
      LocalPlan* plan = workers_[static_cast<size_t>(w)]->plan();
      if (plan == nullptr) continue;
      for (FixpointOp* fp : plan->fixpoints()) {
        if (fp->id() != op_id) continue;
        found = true;
        DeltaVec mine;
        for (const Delta& d : deltas) {
          const uint64_t h = PartitionHash(d.tuple, fp->RouteFields());
          if (pmap->PrimaryOwner(h) == w) mine.push_back(d);
        }
        if (!mine.empty()) {
          Status st = fp->SeedBaseUpdate(mine, checkpoint_stratum);
          if (!st.ok()) {
            poison(st);
            return st;
          }
        }
      }
    }
    if (!found) {
      Status st = Status::InvalidArgument(
          "seeds target unknown fixpoint op " + std::to_string(op_id));
      poison(st);
      return st;
    }
  }

  // 4. Re-converge from the stratum after the converged run's last.
  std::unique_ptr<ChaosInjector> injector;
  struct InjectorGuard {
    Network* net = nullptr;
    ~InjectorGuard() {
      if (net != nullptr) net->set_fault_injector(nullptr);
    }
  } injector_guard;
  if (!schedule.empty()) {
    injector = std::make_unique<ChaosInjector>(schedule, network_.get());
    network_->set_fault_injector(injector.get());
    injector_guard.net = network_.get();
  }
  QueryOptions options;
  options.terminate = update.terminate;
  options.max_strata = update.max_strata;
  int next_stratum = resume_at;
  Status drive = DriveStrata(rq->spec, options, schedule.strategy,
                             injector.get(), /*has_fixpoint=*/true,
                             resume_at, &pmap, &live, &out, &next_stratum);
  if (!drive.ok()) {
    REX_LOG(Error) << "base update failed: " << drive.ToString();
    DumpTraces();
    poison(drive);  // state is suspect; require a fresh RunResident
    return drive;
  }

  CollectResults(live, &out);
  out.total_seconds = SecondsSince(t_query);
  out.total_bytes_sent = network_->TotalBytesSent() - bytes_before;
  AssembleProfile(live, &out);
  SubtractBaseline(baseline, &out.profile);

  // Chain: a further update resumes after this re-convergence.
  rq->poisoned = false;
  rq->poison_reason.clear();
  rq->resume_stratum = next_stratum;
  rq->pmap = pmap;
  rq->live = live;
  return out;
}

Result<UdfCostProfile> Cluster::MeasuredUdfProfile(
    const std::string& udf_name, const NodeCalibration& calib) const {
  const int64_t in = WorkerMetric("udf." + udf_name + ".in");
  if (in <= 0) {
    return Status::NotFound("UDF '" + udf_name +
                            "' has not executed; no runtime profile");
  }
  const int64_t nanos = WorkerMetric("udf." + udf_name + ".nanos");
  const int64_t out = WorkerMetric("udf." + udf_name + ".out");
  UdfCostProfile profile;
  const double secs_per_tuple =
      static_cast<double>(nanos) / 1e9 / static_cast<double>(in);
  profile.cost_per_tuple = secs_per_tuple * calib.cpu_tuples_per_sec;
  profile.fanout = static_cast<double>(out) / static_cast<double>(in);
  profile.selectivity =
      std::min(1.0, static_cast<double>(out) / static_cast<double>(in));
  auto def = udfs_.GetTable(udf_name);
  if (def.ok()) profile.deterministic = (*def)->deterministic;
  return profile;
}

int64_t Cluster::WorkerMetric(const std::string& name) const {
  int64_t total = 0;
  for (const auto& w : workers_) total += w->metrics()->Value(name);
  return total;
}

}  // namespace rex
