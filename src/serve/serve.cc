#include "serve/serve.h"

#include <algorithm>
#include <set>
#include <utility>

#include "common/logging.h"
#include "exec/coalesce.h"
#include "rql/compiler.h"
#include "rql/parser.h"

namespace rex {

std::vector<Tuple> ResultBatch::ModifiedKeys(
    const std::vector<int>& key_fields) const {
  // A ->(old) carries the same key in tuple and old_tuple by construction
  // (the diff is keyed), so projecting `tuple` alone covers every op.
  std::vector<Tuple> keys;
  std::set<std::string> seen;
  for (const Delta& d : diffs) {
    Tuple k = key_fields.empty() ? d.tuple : d.tuple.Project(key_fields);
    if (seen.insert(k.ToString()).second) keys.push_back(std::move(k));
  }
  return keys;
}

ServingSession::ServingSession(Cluster* cluster, ServeOptions options)
    : cluster_(cluster), options_(std::move(options)) {
  diffs_pushed_ = metrics_.GetCounter(metrics::kServeDiffsPushed);
  snapshots_pushed_ = metrics_.GetCounter(metrics::kServeSnapshotsPushed);
  sheds_ = metrics_.GetCounter(metrics::kServeSheds);
  queue_blocks_ = metrics_.GetCounter(metrics::kServeQueueBlocks);
  failovers_ = metrics_.GetCounter(metrics::kServeEpochFailovers);
  epochs_counter_ = metrics_.GetCounter(metrics::kServeEpochs);
  subscribers_gauge_ = metrics_.GetCounter(metrics::kServeSubscribers);
  push_timer_ = metrics_.GetTimer(metrics::kServePushTimer);
}

ServingSession::~ServingSession() {
  for (auto& [sid, sub] : subscribers_) sub.channel->Close();
}

Result<int> ServingSession::Register(StandingQuerySpec spec) {
  if (static_cast<int>(queries_.size()) >= options_.max_queries) {
    return Status::ResourceExhausted(
        "serving session at admission cap (" +
        std::to_string(options_.max_queries) + " standing queries)");
  }
  if (!spec.snapshot) {
    return Status::InvalidArgument("standing query '" + spec.name +
                                   "' has no snapshot extractor");
  }
  const int query_id = next_query_id_++;
  Query q;
  q.spec = std::move(spec);
  queries_.emplace(query_id, std::move(q));
  Result<DeltaVec> first = RunFresh(query_id, "register");
  if (!first.ok()) {
    queries_.erase(query_id);
    (void)cluster_->EvictResident(query_id);
    return first.status();
  }
  return query_id;
}

Result<int> ServingSession::RegisterRql(const std::string& statement) {
  REX_ASSIGN_OR_RETURN(rql::Query parsed, rql::Parse(statement));
  if (parsed.register_name.empty()) {
    return Status::InvalidArgument(
        "RegisterRql expects 'REGISTER <name> AS <query>'");
  }
  rql::CompileContext ctx;
  ctx.storage = cluster_->storage();
  ctx.udfs = cluster_->udfs();
  ctx.calibration = ClusterCalibration::Uniform(cluster_->num_workers());
  REX_ASSIGN_OR_RETURN(rql::CompiledQuery compiled,
                       rql::CompileQuery(parsed, ctx));
  StandingQuerySpec spec;
  spec.name = parsed.register_name;
  spec.plan = std::move(compiled.spec);
  // Generic path: the whole output row is the key (duplicate rows collapse
  // to set semantics) and every epoch re-derives with a fresh RunResident —
  // no build_update, so the session's failover path IS the steady state.
  const bool recursive = compiled.recursive;
  spec.snapshot =
      [recursive](const QueryRunResult& r) -> Result<std::vector<Tuple>> {
    return recursive ? r.fixpoint_state : r.results;
  };
  return Register(std::move(spec));
}

Status ServingSession::Unregister(int query_id) {
  auto it = queries_.find(query_id);
  if (it == queries_.end()) {
    return Status::NotFound("no standing query " + std::to_string(query_id));
  }
  for (int sid : it->second.subscribers) {
    auto s = subscribers_.find(sid);
    if (s == subscribers_.end()) continue;
    s->second.channel->Close();
    subscribers_.erase(s);
  }
  queries_.erase(it);
  subscribers_gauge_->Set(static_cast<int64_t>(subscribers_.size()));
  return cluster_->EvictResident(query_id);
}

Result<int> ServingSession::Subscribe(int query_id) {
  auto it = queries_.find(query_id);
  if (it == queries_.end()) {
    return Status::NotFound("no standing query " + std::to_string(query_id));
  }
  const int sid = next_subscriber_id_++;
  Subscriber sub;
  sub.query_id = query_id;
  sub.channel = std::make_unique<Channel>();
  // The session never pushes into a full channel (it folds into pending
  // instead), so the +1 headroom means Push below can't block or shed; the
  // counters are wired anyway so any future blocking shows up in metrics.
  sub.channel->SetCapacity(options_.subscriber_queue_capacity + 1);
  sub.channel->SetBackpressureCounters(queue_blocks_, sheds_);
  DeltaVec snapshot;
  snapshot.reserve(it->second.result.size());
  for (const auto& [key, row] : it->second.result) {
    snapshot.push_back(Delta::Insert(row));
  }
  Message first = Message::Data(query_id, sid, query_id, /*port=*/1,
                                std::move(snapshot));
  first.seq = static_cast<uint64_t>(epoch_);
  sub.channel->Push(std::move(first));
  snapshots_pushed_->Increment();
  it->second.subscribers.push_back(sid);
  subscribers_.emplace(sid, std::move(sub));
  subscribers_gauge_->Set(static_cast<int64_t>(subscribers_.size()));
  return sid;
}

Status ServingSession::Unsubscribe(int subscriber_id) {
  auto it = subscribers_.find(subscriber_id);
  if (it == subscribers_.end()) {
    return Status::NotFound("no subscriber " + std::to_string(subscriber_id));
  }
  auto q = queries_.find(it->second.query_id);
  if (q != queries_.end()) {
    auto& subs = q->second.subscribers;
    subs.erase(std::remove(subs.begin(), subs.end(), subscriber_id),
               subs.end());
  }
  it->second.channel->Close();
  subscribers_.erase(it);
  subscribers_gauge_->Set(static_cast<int64_t>(subscribers_.size()));
  return Status::OK();
}

Status ServingSession::ApplyUpdate(const std::vector<EdgeMutation>& edges,
                                   const FaultSchedule& faults) {
  if (queries_.empty()) {
    return Status::InvalidArgument(
        "ApplyUpdate with no standing queries registered");
  }
  const int64_t next_epoch = epoch_ + 1;

  // Stage 1: build every incremental update against pre-mutation state, so
  // a builder error aborts the epoch before anything moved.
  std::map<int, Cluster::BaseUpdate> updates;
  for (auto& [qid, q] : queries_) {
    if (!q.spec.build_update) continue;
    REX_ASSIGN_OR_RETURN(updates[qid], q.spec.build_update(edges));
  }

  // Stage 2: the shared base-table mutation, applied exactly once per
  // epoch no matter how many standing queries read the graph.
  std::map<std::string, std::vector<DistributedTable::WeightedRow>> tables;
  auto& rows = tables["graph"];
  for (const EdgeMutation& e : edges) {
    if (e.weight == 0) continue;
    rows.push_back({Tuple{Value(e.src), Value(e.dst)}, e.weight});
  }
  if (!rows.empty()) {
    REX_RETURN_NOT_OK(cluster_->MutateTables(tables));
  }
  for (auto& [qid, q] : queries_) {
    if (q.spec.on_tables_mutated) q.spec.on_tables_mutated(edges);
  }

  // Stage 3: re-converge each query — incrementally where possible, by
  // failover re-run otherwise — and fan its net result diff out. The
  // chaos schedule (if any) rides on the first convergence only; a crash
  // it injects still marks the other residents stale, which routes them
  // through the failover path below.
  bool faults_pending = !faults.empty();
  for (auto& [qid, q] : queries_) {
    DeltaVec diffs;
    bool incremental_ok = false;
    auto u = updates.find(qid);
    if (u != updates.end()) {
      Cluster::BaseUpdate update = std::move(u->second);
      update.tables.clear();  // stage 2 already applied the shared mutation
      if (faults_pending) {
        update.faults = faults;
        faults_pending = false;
      }
      Result<QueryRunResult> res = cluster_->ApplyBaseUpdate(qid, update);
      if (res.ok()) {
        Result<std::vector<Tuple>> snap = q.spec.snapshot(*res);
        if (snap.ok()) {
          if (q.spec.on_converged) {
            REX_RETURN_NOT_OK(q.spec.on_converged(*res));
          }
          res->profile.name =
              q.spec.name + "/epoch" + std::to_string(next_epoch);
          epoch_profiles_.push_back(std::move(res->profile));
          diffs = DiffAndStore(&q, *snap);
          incremental_ok = true;
        }
      }
      if (!incremental_ok) {
        REX_LOG(Warn) << "serve: epoch " << next_epoch << " query '"
                      << q.spec.name << "' incremental update failed ("
                      << res.status().ToString()
                      << "); failing over to a fresh run";
      }
    }
    if (!incremental_ok) {
      if (u != updates.end()) failovers_->Increment();
      // Failover (or the generic re-run path): revive anything a crash
      // schedule left dead, then re-derive from the already-mutated
      // tables. Subscribers only ever see the completed epoch.
      REX_RETURN_NOT_OK(cluster_->ReviveFailedWorkers());
      const std::string label = "epoch" + std::to_string(next_epoch);
      REX_ASSIGN_OR_RETURN(diffs, RunFresh(qid, label.c_str()));
    }
    ScopedTimer timed(push_timer_);
    PushToSubscribers(qid, next_epoch, std::move(diffs));
  }

  epoch_ = next_epoch;
  epochs_counter_->Increment();
  return Status::OK();
}

Result<DeltaVec> ServingSession::RunFresh(int query_id, const char* label) {
  Query& q = queries_.at(query_id);
  REX_ASSIGN_OR_RETURN(QueryRunResult run,
                       cluster_->RunResident(query_id, q.spec.plan,
                                             q.spec.options));
  REX_ASSIGN_OR_RETURN(std::vector<Tuple> rows, q.spec.snapshot(run));
  if (q.spec.on_converged) REX_RETURN_NOT_OK(q.spec.on_converged(run));
  run.profile.name = q.spec.name + "/" + label;
  epoch_profiles_.push_back(std::move(run.profile));
  return DiffAndStore(&q, rows);
}

DeltaVec ServingSession::DiffAndStore(Query* q,
                                      const std::vector<Tuple>& rows) {
  std::map<std::string, Tuple> next;
  for (const Tuple& t : rows) next[KeyOf(*q, t)] = t;
  DeltaVec diffs;
  for (const auto& [key, old_row] : q->result) {
    auto it = next.find(key);
    if (it == next.end()) {
      diffs.push_back(Delta::Delete(old_row));
    } else if (!(it->second == old_row)) {
      diffs.push_back(Delta::Replace(old_row, it->second));
    }
  }
  for (const auto& [key, new_row] : next) {
    if (q->result.find(key) == q->result.end()) {
      diffs.push_back(Delta::Insert(new_row));
    }
  }
  q->result = std::move(next);
  return diffs;
}

void ServingSession::PushToSubscribers(int query_id, int64_t epoch,
                                       DeltaVec diffs) {
  // Epochs that leave the result relation untouched push nothing: an empty
  // batch carries no information a cursor consumer can act on.
  if (diffs.empty()) return;
  Query& q = queries_.at(query_id);
  for (int sid : q.subscribers) {
    Subscriber& sub = subscribers_.at(sid);
    const bool lagging =
        sub.pending_snapshot || !sub.pending.empty() ||
        sub.channel->size() >= options_.subscriber_queue_capacity;
    if (!lagging) {
      Message m = Message::Data(query_id, sid, query_id, /*port=*/0, diffs);
      m.seq = static_cast<uint64_t>(epoch);
      sub.channel->Push(std::move(m));
      diffs_pushed_->Add(static_cast<int64_t>(diffs.size()));
      continue;
    }
    // Cursor overflow: fold this epoch into the subscriber's single
    // pending batch instead of growing the queue. The fold is a ℤ-set
    // coalesce keyed like the result relation, so N missed epochs always
    // collapse to one net diff.
    sheds_->Increment();
    sub.pending_epoch = epoch;
    if (sub.pending_snapshot) continue;  // snapshot already supersedes all
    sub.pending.insert(sub.pending.end(), diffs.begin(), diffs.end());
    Result<DeltaVec> folded =
        CoalesceDeltas(std::move(sub.pending), q.spec.key_fields);
    if (folded.ok()) {
      sub.pending = std::move(*folded);
    } else {
      // Weight overflow across folded epochs (pathological): degrade to a
      // full snapshot at next Poll rather than ship a wrong net diff.
      sub.pending.clear();
      sub.pending_snapshot = true;
    }
  }
}

std::optional<ResultBatch> ServingSession::Poll(int subscriber_id) {
  auto it = subscribers_.find(subscriber_id);
  if (it == subscribers_.end()) return std::nullopt;
  Subscriber& sub = it->second;
  if (std::optional<Message> m = sub.channel->TryPop()) {
    ResultBatch batch;
    batch.epoch = static_cast<int64_t>(m->seq);
    batch.snapshot = (m->target_port & 1) != 0;
    batch.coalesced = (m->target_port & 2) != 0;
    batch.diffs = std::move(m->deltas);
    return batch;
  }
  // Queue drained: deliver the overflow fold (strictly newer than anything
  // that was queued, so ordering is preserved).
  if (sub.pending_snapshot) {
    ResultBatch batch;
    batch.epoch = sub.pending_epoch;
    batch.snapshot = true;
    batch.coalesced = true;
    const Query& q = queries_.at(sub.query_id);
    batch.diffs.reserve(q.result.size());
    for (const auto& [key, row] : q.result) {
      batch.diffs.push_back(Delta::Insert(row));
    }
    sub.pending_snapshot = false;
    sub.pending_epoch = -1;
    snapshots_pushed_->Increment();
    return batch;
  }
  if (!sub.pending.empty()) {
    ResultBatch batch;
    batch.epoch = sub.pending_epoch;
    batch.coalesced = true;
    batch.diffs = std::move(sub.pending);
    sub.pending.clear();
    sub.pending_epoch = -1;
    diffs_pushed_->Add(static_cast<int64_t>(batch.diffs.size()));
    return batch;
  }
  return std::nullopt;
}

Result<std::vector<Tuple>> ServingSession::CurrentResult(
    int query_id) const {
  auto it = queries_.find(query_id);
  if (it == queries_.end()) {
    return Status::NotFound("no standing query " + std::to_string(query_id));
  }
  std::vector<Tuple> rows;
  rows.reserve(it->second.result.size());
  for (const auto& [key, row] : it->second.result) rows.push_back(row);
  return rows;
}

const std::string& ServingSession::query_name(int query_id) const {
  static const std::string kUnknown = "<unregistered>";
  auto it = queries_.find(query_id);
  return it == queries_.end() ? kUnknown : it->second.spec.name;
}

std::string ServingSession::KeyOf(const Query& q, const Tuple& t) const {
  if (q.spec.key_fields.empty()) return t.ToString();
  return t.Project(q.spec.key_fields).ToString();
}

Result<StandingQuerySpec> MakePageRankStandingQuery(
    const GraphData& graph, const PageRankConfig& config) {
  struct State {
    Adjacency adj;
    std::vector<double> ranks;
    int64_t num_vertices = 0;
    double damping = 0.85;
  };
  auto st = std::make_shared<State>();
  st->adj = AdjacencyFromGraph(graph);
  st->num_vertices = graph.num_vertices;
  st->damping = config.damping;

  StandingQuerySpec spec;
  REX_ASSIGN_OR_RETURN(spec.plan, BuildPageRankDeltaPlan(config));
  spec.name = "pagerank" + config.name_suffix;
  spec.key_fields = {0};
  const PlanSpec plan = spec.plan;  // builder closure needs the node ids
  spec.snapshot =
      [st](const QueryRunResult& r) -> Result<std::vector<Tuple>> {
    REX_ASSIGN_OR_RETURN(std::vector<double> ranks,
                         RanksFromState(r.fixpoint_state, st->num_vertices));
    std::vector<Tuple> rows;
    rows.reserve(static_cast<size_t>(st->num_vertices));
    for (int64_t v = 0; v < st->num_vertices; ++v) {
      rows.push_back(Tuple{Value(v), Value(ranks[static_cast<size_t>(v)])});
    }
    return rows;
  };
  spec.on_converged = [st](const QueryRunResult& r) -> Status {
    REX_ASSIGN_OR_RETURN(st->ranks,
                         RanksFromState(r.fixpoint_state, st->num_vertices));
    return Status::OK();
  };
  spec.build_update = [st, plan](const std::vector<EdgeMutation>& edges) {
    return BuildPageRankBaseUpdate(plan, edges, st->ranks, st->adj,
                                   st->damping);
  };
  spec.on_tables_mutated = [st](const std::vector<EdgeMutation>& edges) {
    ApplyEdgeMutations(&st->adj, edges);
  };
  return spec;
}

Result<StandingQuerySpec> MakeSsspStandingQuery(const GraphData& graph,
                                                const SsspConfig& config) {
  struct State {
    Adjacency adj;
    std::vector<int64_t> dist;
    int64_t num_vertices = 0;
    int64_t source = 0;
  };
  auto st = std::make_shared<State>();
  st->adj = AdjacencyFromGraph(graph);
  st->num_vertices = graph.num_vertices;
  st->source = config.source;

  StandingQuerySpec spec;
  REX_ASSIGN_OR_RETURN(spec.plan, BuildSsspDeltaPlan(config));
  spec.name = "sssp" + config.name_suffix;
  spec.key_fields = {0};
  const PlanSpec plan = spec.plan;
  spec.snapshot =
      [st](const QueryRunResult& r) -> Result<std::vector<Tuple>> {
    REX_ASSIGN_OR_RETURN(
        std::vector<int64_t> dist,
        DistancesFromState(r.fixpoint_state, st->num_vertices));
    std::vector<Tuple> rows;
    rows.reserve(static_cast<size_t>(st->num_vertices));
    for (int64_t v = 0; v < st->num_vertices; ++v) {
      rows.push_back(Tuple{Value(v), Value(dist[static_cast<size_t>(v)])});
    }
    return rows;
  };
  spec.on_converged = [st](const QueryRunResult& r) -> Status {
    REX_ASSIGN_OR_RETURN(
        st->dist, DistancesFromState(r.fixpoint_state, st->num_vertices));
    return Status::OK();
  };
  spec.build_update = [st, plan](const std::vector<EdgeMutation>& edges) {
    return BuildSsspBaseUpdate(plan, edges, st->dist, st->adj, st->source);
  };
  spec.on_tables_mutated = [st](const std::vector<EdgeMutation>& edges) {
    ApplyEdgeMutations(&st->adj, edges);
  };
  return spec;
}

}  // namespace rex
