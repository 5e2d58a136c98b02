#include "workloads.h"

#include <cmath>
#include <cstdio>
#include <map>
#include <random>
#include <set>
#include <vector>

#include "algos/pagerank.h"
#include "algos/reference.h"
#include "algos/sssp.h"
#include "rql/compiler.h"
#include "serve/serve.h"

namespace perfbench {
namespace {

using rex::Cluster;
using rex::GraphData;
using rex::QueryRunResult;
using rex::Status;

constexpr int kWorkers = 4;
constexpr double kDamping = 0.85;

rex::EngineConfig ClusterConfig() {
  rex::EngineConfig cfg;
  cfg.num_workers = kWorkers;
  cfg.replication = 3;
  return cfg;
}

/// Builds and starts a round's cluster on `graph`, one span per layer.
Status BuildCluster(Tracer* tracer, const GraphData& graph,
                    std::unique_ptr<Cluster>* cluster) {
  {
    Tracer::Scope span(tracer, "cluster.construct");
    *cluster = std::make_unique<Cluster>(ClusterConfig());
    REX_RETURN_NOT_OK((*cluster)->Start());
  }
  Tracer::Scope span(tracer, "storage.load");
  return rex::LoadGraphTables(cluster->get(), graph);
}

/// The converged ranks must lie within `tolerance[v]` of `reference`.
std::string CheckRanks(const std::vector<double>& ranks,
                       const std::vector<double>& reference,
                       const std::vector<double>& tolerance) {
  if (ranks.size() != reference.size()) return "rank vector size differs";
  for (size_t v = 0; v < ranks.size(); ++v) {
    if (!(std::fabs(ranks[v] - reference[v]) <= tolerance[v])) {
      char buf[160];
      std::snprintf(buf, sizeof(buf),
                    "vertex %zu rank %.12g, reference %.12g (tolerance %.3g)",
                    v, ranks[v], reference[v], tolerance[v]);
      return buf;
    }
  }
  return "";
}

std::string CheckDistances(const std::vector<int64_t>& dist,
                           const std::vector<int64_t>& reference) {
  if (dist.size() != reference.size()) return "distance vector size differs";
  for (size_t v = 0; v < dist.size(); ++v) {
    if (dist[v] != reference[v]) {
      return "vertex " + std::to_string(v) + " distance " +
             std::to_string(dist[v]) + ", reference " +
             std::to_string(reference[v]);
    }
  }
  return "";
}

/// Per-vertex PageRank tolerance for a propagation threshold. A vertex
/// keeps (unpropagated) diffs below `threshold` that shrink by `damping`
/// per stratum, so its residual is below threshold / (1 - d); spread
/// through the graph, residuals of that size perturb rank r_v by at most
/// r_v / (1 - d) times it. `converges` re-convergences each leave such a
/// residual.
std::vector<double> RankTolerance(const std::vector<double>& reference,
                                  double threshold, int converges) {
  std::vector<double> tol(reference.size());
  const double scale =
      converges * threshold / ((1 - kDamping) * (1 - kDamping));
  for (size_t v = 0; v < reference.size(); ++v) {
    tol[v] = scale * reference[v] + 1e-9;
  }
  return tol;
}

std::vector<double> ExactPageRank(const GraphData& graph) {
  return rex::ReferencePageRank(graph, kDamping, 1e-12, 1000);
}

/// Generator seed of one round's inputs (graph, mutation stream). Every
/// round draws its own, so a run's percentiles pool several inputs rather
/// than measuring one input several times.
uint64_t RoundSeed(uint64_t seed, int round) {
  return seed * 1000 + static_cast<uint64_t>(round);
}

// ------------------------------------------------------- RQL query loops --

constexpr char kPageRankRql[] =
    "WITH PR (v, diff) AS ("
    "  SELECT v, 0.15 FROM vertices"
    ") UNION ALL UNTIL FIXPOINT BY v USING PRFix ("
    "  SELECT nbr, sum(share) FROM ("
    "    SELECT PRJoin(v, diff).{nbr, share}"
    "    FROM graph, PR WHERE graph.src = PR.v GROUP BY src)"
    "  GROUP BY nbr)";

constexpr char kSsspRql[] =
    "WITH SP (v, dist) AS ("
    "  SELECT v, 0 FROM vertices WHERE v = 0"
    ") UNION UNTIL FIXPOINT BY v USING SPFix ("
    "  SELECT nbr, min(cand) FROM ("
    "    SELECT SPJoin(v, dist).{nbr, cand}"
    "    FROM graph, SP WHERE graph.src = SP.v GROUP BY src)"
    "  GROUP BY nbr)";

enum class QueryKind { kPageRank, kSssp, kRecovery };

/// pagerank, sssp and recovery: RQL text -> CompileRql -> Cluster::Run,
/// repeated on one loaded cluster per round.
class QueryWorkload : public Workload {
 public:
  QueryWorkload(Context* ctx, QueryKind kind) : ctx_(ctx), kind_(kind) {}

  Status PrepareRound(int round) override {
    graph_ = MakeGraph(round);
    if (kind_ == QueryKind::kSssp) {
      ref_dist_ = rex::ReferenceSssp(graph_, 0);
    } else {
      ref_ranks_ = ExactPageRank(graph_);
      tolerance_ = RankTolerance(ref_ranks_, kThreshold, 1);
    }
    clean_counts_.clear();
    crash_counts_.clear();
    return Status::OK();
  }

  Status SetUp(int round) override {
    Tracer* tracer = &ctx_->tracer;
    {
      Tracer::Scope span(tracer, "data.generate");
      graph_ = MakeGraph(round);
    }
    REX_RETURN_NOT_OK(BuildCluster(tracer, graph_, &cluster_));
    {
      Tracer::Scope span(tracer, "udf.register");
      if (kind_ == QueryKind::kSssp) {
        rex::SsspConfig cfg;
        cfg.source = 0;
        REX_RETURN_NOT_OK(rex::RegisterSsspUdfs(cluster_->udfs(), cfg));
      } else {
        rex::PageRankConfig cfg;
        cfg.threshold = kThreshold;
        REX_RETURN_NOT_OK(rex::RegisterPageRankUdfs(cluster_->udfs(), cfg));
      }
    }
    differ_ = CounterDiffer();
    // Warm-up: the first queries on a fresh cluster run several times
    // slower than the rest. Recovery warms up with one clean query (its
    // answer and stratum count fix the crash point) and one crashed one.
    Tracer::Scope span(tracer, "warmup");
    for (int i = 0; i < 2; ++i) {
      const bool crash = kind_ == QueryKind::kRecovery && i == 1;
      OpResult r = Execute(-(round + 1), crash);
      if (!r.ok) return Status::Internal("warm-up query: " + r.error);
    }
    return Status::OK();
  }

  OpResult RunOp(int64_t op, bool /*last*/) override {
    return Execute(op, kind_ == QueryKind::kRecovery);
  }

  void TearDown() override { cluster_.reset(); }

  const char* op_label() const override { return "query"; }

 private:
  static constexpr double kThreshold = 1e-4;

  GraphData MakeGraph(int round) const {
    const uint64_t seed = RoundSeed(ctx_->seed, round);
    return kind_ == QueryKind::kSssp ? rex::GenerateTwitterLike(0.1, seed)
                                     : rex::GenerateDbpediaLike(0.025, seed);
  }

  /// One query; `op` < 0 marks a warm-up (no per-layer numbers).
  OpResult Execute(int64_t op, bool crash) {
    Tracer* tracer = &ctx_->tracer;
    rex::QueryOptions options;
    if (crash) {
      // Victims rotate through the workers from a seeded start, so every
      // run crashes each worker equally often.
      options.failure.worker =
          static_cast<int>((ctx_->seed + crashes_++) % kWorkers);
      options.failure.before_stratum = crash_stratum_;
      options.failure.strategy = rex::RecoveryStrategy::kIncremental;
    }
    rex::rql::CompileContext cc;
    cc.storage = cluster_->storage();
    cc.udfs = cluster_->udfs();
    const char* text =
        kind_ == QueryKind::kSssp ? kSsspRql : kPageRankRql;

    differ_.BeginOp(cluster_.get());
    OpResult r;
    rex::Result<QueryRunResult> run = Status::Internal("not run");
    double run_ms = 0;
    const Clock::time_point t0 = Clock::now();
    {
      rex::Result<rex::rql::CompiledQuery> compiled =
          Status::Internal("not compiled");
      {
        Tracer::Scope span(tracer, "rql.compile");
        compiled = rex::rql::CompileRql(text, cc);
      }
      if (compiled.ok()) {
        Tracer::Scope span(tracer, "cluster.run");
        const Clock::time_point t1 = Clock::now();
        run = cluster_->Run(compiled->spec, options);
        run_ms = MsSince(t1);
      } else {
        run = compiled.status();
      }
    }
    r.ms = MsSince(t0);

    if (run.ok()) {
      r.error = Check(*run, crash);
      const OpCounters counters = differ_.Diff(cluster_.get(), run->profile);
      if (r.error.empty()) r.error = CheckRepeats(*run, counters, crash);
      if (tracer->enabled() && op >= 0) {
        AddQueryLayers(&ctx_->ledger, op, counters, run->profile, run_ms,
                       cluster_.get());
        if (crash) TimeCheckpointReads(FixpointIds(*run));
      }
    } else {
      r.error = run.status().ToString();
    }
    if (crash) {
      Tracer::Scope span(tracer, "cluster.revive");
      Status st = cluster_->ReviveFailedWorkers();
      if (!st.ok() && r.error.empty()) r.error = st.ToString();
    }
    r.ok = r.error.empty();
    return r;
  }

  /// Fixpoint op ids whose checkpoints the store holds after `run`.
  static std::set<int> FixpointIds(const QueryRunResult& run) {
    std::set<int> ids;
    for (const rex::FixpointStratumProfile& f : run.profile.fixpoint_deltas) {
      ids.insert(f.fixpoint_id);
    }
    return ids;
  }

  /// Reads back every checkpointed (fixpoint, stratum) from every live
  /// worker: the checkpoint read path recovery replays through.
  void TimeCheckpointReads(const std::set<int>& fixpoints) {
    Tracer::Scope span(&ctx_->tracer, "storage.ckpt_read");
    rex::CheckpointStore* store = cluster_->checkpoints();
    for (int fp : fixpoints) {
      const int last = store->LastCompleteStratum(fp);
      for (int s = 0; s <= last; ++s) {
        for (int reader : cluster_->LiveWorkers()) {
          (void)store->Read(fp, s, reader);
        }
      }
    }
  }

  /// The answer check ("" = correct).
  std::string Check(const QueryRunResult& run, bool crash) {
    if (kind_ == QueryKind::kSssp) {
      auto dist = rex::DistancesFromState(run.fixpoint_state,
                                          graph_.num_vertices);
      if (!dist.ok()) return dist.status().ToString();
      return CheckDistances(*dist, ref_dist_);
    }
    auto ranks = rex::RanksFromState(run.fixpoint_state, graph_.num_vertices);
    if (!ranks.ok()) return ranks.status().ToString();
    std::string err = CheckRanks(*ranks, ref_ranks_, tolerance_);
    if (!err.empty() || kind_ != QueryKind::kRecovery) return err;
    if (!crash) {
      // The clean warm-up answer, and a late stratum to crash before.
      clean_ranks_ = *ranks;
      crash_stratum_ = run.strata_executed * 2 / 3;
      return "";
    }
    if (!run.recovered || run.profile.recovery_passes.size() != 1) {
      return "expected exactly one recovery pass, got " +
             std::to_string(run.profile.recovery_passes.size());
    }
    return CheckRanks(*ranks, clean_ranks_, tolerance_);
  }

  /// Deterministic per-op counts must repeat exactly across the run: the
  /// stratum count everywhere, Σ Δ tuples and tuples shipped when no
  /// worker crashes (recovery replays a varying share of the work).
  std::string CheckRepeats(const QueryRunResult& run, const OpCounters& c,
                           bool crash) {
    int64_t delta_tuples = 0;
    for (const rex::StratumProfile& s : run.profile.strata) {
      delta_tuples += s.delta_tuples;
    }
    std::vector<int64_t> counts = {run.strata_executed};
    if (!crash) {
      counts.push_back(delta_tuples);
      counts.push_back(c.Cluster(rex::metrics::kTuplesSent));
    }
    std::vector<int64_t>& expected = crash ? crash_counts_ : clean_counts_;
    if (expected.empty()) expected = counts;
    if (counts == expected) return "";
    std::string msg = "deterministic counts (strata, delta tuples, tuples "
                      "sent) changed:";
    for (size_t i = 0; i < counts.size(); ++i) {
      msg += ' ';
      msg += std::to_string(expected[i]);
      msg += "->";
      msg += std::to_string(counts[i]);
    }
    return msg;
  }

  Context* ctx_;
  QueryKind kind_;
  GraphData graph_;
  std::unique_ptr<Cluster> cluster_;
  CounterDiffer differ_;
  std::vector<double> ref_ranks_, tolerance_, clean_ranks_;
  std::vector<int64_t> ref_dist_;
  std::vector<int64_t> clean_counts_, crash_counts_;
  uint64_t crashes_ = 0;
  int crash_stratum_ = -1;
};

// ---------------------------------------------------------------- serving --

/// A subscriber's maintained view: vertex -> result row.
using View = std::map<int64_t, rex::Tuple>;

void ApplyBatch(View* view, const rex::ResultBatch& batch) {
  if (batch.snapshot) view->clear();
  for (const rex::Delta& d : batch.diffs) {
    const int64_t key = d.tuple.field(0).AsInt();
    if (d.op == rex::DeltaOp::kDelete) {
      view->erase(key);
    } else {
      (*view)[key] = d.tuple;
    }
  }
}

GraphData GraphFromAdjacency(const rex::Adjacency& adj) {
  GraphData g;
  g.num_vertices = static_cast<int64_t>(adj.size());
  for (size_t u = 0; u < adj.size(); ++u) {
    for (int64_t v : adj[u]) g.edges.emplace_back(static_cast<int64_t>(u), v);
  }
  return g;
}

/// PageRank and SSSP standing queries over one graph, one subscriber each;
/// every op is an update epoch of edge mutations followed by draining both
/// cursors.
class ServingWorkload : public Workload {
 public:
  explicit ServingWorkload(Context* ctx) : ctx_(ctx) {}

  /// The references depend on the mutated graph; CheckViews builds them.
  Status PrepareRound(int /*round*/) override { return Status::OK(); }

  Status SetUp(int round) override {
    Tracer* tracer = &ctx_->tracer;
    const uint64_t seed = RoundSeed(ctx_->seed, round);
    {
      Tracer::Scope span(tracer, "data.generate");
      graph_ = rex::GenerateDbpediaLike(0.025, seed);
    }
    REX_RETURN_NOT_OK(BuildCluster(tracer, graph_, &cluster_));
    rex::PageRankConfig pr_cfg;
    pr_cfg.threshold = kThreshold;
    rex::SsspConfig sssp_cfg;
    sssp_cfg.source = 0;
    {
      Tracer::Scope span(tracer, "udf.register");
      REX_RETURN_NOT_OK(rex::RegisterPageRankUdfs(cluster_->udfs(), pr_cfg));
      REX_RETURN_NOT_OK(rex::RegisterSsspUdfs(cluster_->udfs(), sssp_cfg));
    }
    {
      Tracer::Scope span(tracer, "serve.register");
      session_ = std::make_unique<rex::ServingSession>(cluster_.get());
      REX_ASSIGN_OR_RETURN(rex::StandingQuerySpec pr,
                           rex::MakePageRankStandingQuery(graph_, pr_cfg));
      REX_ASSIGN_OR_RETURN(rex::StandingQuerySpec sssp,
                           rex::MakeSsspStandingQuery(graph_, sssp_cfg));
      REX_ASSIGN_OR_RETURN(int pr_id, session_->Register(Instrument(pr)));
      REX_ASSIGN_OR_RETURN(int sssp_id,
                           session_->Register(Instrument(sssp)));
      REX_ASSIGN_OR_RETURN(pr_sub_, session_->Subscribe(pr_id));
      REX_ASSIGN_OR_RETURN(sssp_sub_, session_->Subscribe(sssp_id));
    }
    pr_view_.clear();
    sssp_view_.clear();
    Drain();
    adj_ = rex::AdjacencyFromGraph(graph_);
    rng_.seed(seed);
    register_tuples_ = 0;
    for (const rex::QueryProfile& p : session_->epoch_profiles()) {
      if (p.name == "pagerank/register") register_tuples_ = p.tuples_sent;
    }
    std::fprintf(stderr, "serving: after Register VmRSS %.1f MB\n",
                 CurrentRssMb());
    Tracer::Scope span(tracer, "warmup");
    OpResult warm = Epoch(-1, true);
    if (!warm.ok) return Status::Internal("warm-up epoch: " + warm.error);
    return Status::OK();
  }

  OpResult RunOp(int64_t op, bool last) override { return Epoch(op, last); }

  void TearDown() override {
    session_.reset();
    cluster_.reset();
  }

  const char* op_label() const override { return "epoch"; }

 private:
  // With 8 mutations at threshold 1e-8 an epoch either re-converges in
  // about 20 strata or in about 63, in proportions that vary with the seed
  // from 30% to 80%, which makes the median epoch jump between the two
  // modes. At 16 mutations and 1e-6, some 85% of epochs take 30-45 strata.
  static constexpr double kThreshold = 1e-6;
  static constexpr int kMutationsPerEpoch = 16;
  static constexpr int kCheckEvery = 8;

  /// Times the spec's snapshot and build_update closures (they run inside
  /// ApplyUpdate, on this thread).
  rex::StandingQuerySpec Instrument(rex::StandingQuerySpec spec) {
    Tracer* tracer = &ctx_->tracer;
    auto snapshot = std::move(spec.snapshot);
    spec.snapshot = [tracer, snapshot](const QueryRunResult& run) {
      Tracer::Scope span(tracer, "serve.snapshot");
      return snapshot(run);
    };
    if (spec.build_update) {
      auto build = std::move(spec.build_update);
      spec.build_update =
          [tracer, build](const std::vector<rex::EdgeMutation>& edges) {
            Tracer::Scope span(tracer, "algos.ivm_build");
            return build(edges);
          };
    }
    return spec;
  }

  /// Seeded batch against the adjacency mirror: every third mutation
  /// deletes an existing edge, the rest insert random edges.
  std::vector<rex::EdgeMutation> MakeBatch() {
    const auto n = static_cast<int64_t>(adj_.size());
    std::uniform_int_distribution<int64_t> vertex(0, n - 1);
    std::vector<rex::EdgeMutation> batch;
    for (int i = 0; i < kMutationsPerEpoch; ++i) {
      if (i % 3 != 0) {
        batch.push_back({vertex(rng_), vertex(rng_), 1});
        continue;
      }
      for (int tries = 0; tries < 32; ++tries) {
        const int64_t u = vertex(rng_);
        const auto& out = adj_[static_cast<size_t>(u)];
        if (out.empty()) continue;
        std::uniform_int_distribution<size_t> pick(0, out.size() - 1);
        batch.push_back({u, out[pick(rng_)], -1});
        break;
      }
    }
    return batch;
  }

  int64_t Drain() {
    int64_t rows = 0;
    for (auto [sub, view] : {std::pair{pr_sub_, &pr_view_},
                             std::pair{sssp_sub_, &sssp_view_}}) {
      while (auto batch = session_->Poll(sub)) {
        rows += static_cast<int64_t>(batch->diffs.size());
        ApplyBatch(view, *batch);
      }
    }
    return rows;
  }

  OpResult Epoch(int64_t op, bool last) {
    Tracer* tracer = &ctx_->tracer;
    const std::vector<rex::EdgeMutation> batch = MakeBatch();
    rex::ApplyEdgeMutations(&adj_, batch);
    rex::ServingSession* s = session_.get();
    rex::MetricsRegistry* sm = s->metrics();
    const size_t profiles_before = s->epoch_profiles().size();
    const int64_t push_before =
        sm->TimerValue(rex::metrics::kServePushTimer).total_nanos;
    const int64_t sheds_before = sm->Value(rex::metrics::kServeSheds);
    const int64_t failovers_before =
        sm->Value(rex::metrics::kServeEpochFailovers);

    OpResult r;
    Status st;
    int64_t rows = 0;
    const Clock::time_point t0 = Clock::now();
    {
      Tracer::Scope span(tracer, "serve.apply");
      st = s->ApplyUpdate(batch);
    }
    if (st.ok()) {
      Tracer::Scope span(tracer, "serve.poll");
      rows = Drain();
    }
    r.ms = MsSince(t0);
    if (!st.ok()) {
      r.error = st.ToString();
      return r;
    }

    // Per-query (strata, tuples shipped) of this epoch's convergence runs.
    std::map<std::string, std::pair<int64_t, int64_t>> work;
    for (size_t i = profiles_before; i < s->epoch_profiles().size(); ++i) {
      const rex::QueryProfile& p = s->epoch_profiles()[i];
      const std::string query = p.name.substr(0, p.name.find('/'));
      work[query].first += p.strata_executed;
      work[query].second += p.tuples_sent;
    }
    const int64_t epoch = s->epoch();
    if (epoch % kCheckEvery == 0 || last) r.error = CheckViews(epoch);
    r.ok = r.error.empty();

    if (tracer->enabled() && op >= 0) {
      const int64_t push_ns =
          sm->TimerValue(rex::metrics::kServePushTimer).total_nanos -
          push_before;
      std::map<std::string, double> m;
      m["serve.push_ms"] = static_cast<double>(push_ns) / 1e6;
      m["serve.diff_rows"] = static_cast<double>(rows);
      m["serve.sheds"] = static_cast<double>(
          sm->Value(rex::metrics::kServeSheds) - sheds_before);
      m["serve.failovers"] = static_cast<double>(
          sm->Value(rex::metrics::kServeEpochFailovers) - failovers_before);
      for (const auto& [query, w] : work) {
        m["serve.epoch_strata." + query] = static_cast<double>(w.first);
        m["serve.epoch_tuples." + query] = static_cast<double>(w.second);
      }
      if (register_tuples_ > 0) {
        m["serve.work_ratio"] = static_cast<double>(work["pagerank"].second) /
                                static_cast<double>(register_tuples_);
      }
      ctx_->ledger.AddAll(op, m);
    }
    if (last) {
      int64_t history = 0;
      for (const rex::QueryProfile& p : s->epoch_profiles()) {
        history += p.ckpt_stored_bytes;
      }
      if (tracer->enabled() && op >= 0) {
        ctx_->ledger.Add(op, "storage.ckpt_history_bytes",
                         static_cast<double>(history));
      }
      std::fprintf(stderr,
                   "serving: after epoch %lld VmRSS %.1f MB, checkpoint "
                   "history %.1f MB\n",
                   static_cast<long long>(epoch), CurrentRssMb(),
                   static_cast<double>(history) / (1024.0 * 1024.0));
    }
    return r;
  }

  /// Subscriber views must equal the reference answers on the mutated
  /// graph: SSSP exactly, PageRank within the threshold's tolerance.
  std::string CheckViews(int64_t epoch) const {
    const GraphData now = GraphFromAdjacency(adj_);
    const std::vector<double> ranks_ref = ExactPageRank(now);
    const std::vector<int64_t> dist_ref = rex::ReferenceSssp(now, 0);
    std::vector<double> ranks;
    std::vector<int64_t> dist;
    for (const auto& [v, row] : pr_view_) {
      ranks.push_back(row.field(1).AsDouble());
    }
    for (const auto& [v, row] : sssp_view_) {
      dist.push_back(row.field(1).AsInt());
    }
    if (static_cast<int64_t>(pr_view_.size()) != now.num_vertices ||
        static_cast<int64_t>(sssp_view_.size()) != now.num_vertices) {
      return "epoch " + std::to_string(epoch) + ": views miss vertices";
    }
    // The register run plus every epoch's re-convergence.
    std::string err = CheckRanks(
        ranks, ranks_ref,
        RankTolerance(ranks_ref, kThreshold, static_cast<int>(epoch) + 1));
    if (err.empty()) err = CheckDistances(dist, dist_ref);
    return err.empty() ? "" : "epoch " + std::to_string(epoch) + ": " + err;
  }

  Context* ctx_;
  GraphData graph_;
  std::unique_ptr<Cluster> cluster_;
  std::unique_ptr<rex::ServingSession> session_;
  int pr_sub_ = -1, sssp_sub_ = -1;
  View pr_view_, sssp_view_;
  rex::Adjacency adj_;
  std::mt19937_64 rng_;
  int64_t register_tuples_ = 0;
};

}  // namespace

std::unique_ptr<Workload> MakeWorkload(const std::string& name, Context* ctx) {
  if (name == "pagerank") {
    return std::make_unique<QueryWorkload>(ctx, QueryKind::kPageRank);
  }
  if (name == "sssp") {
    return std::make_unique<QueryWorkload>(ctx, QueryKind::kSssp);
  }
  if (name == "recovery") {
    return std::make_unique<QueryWorkload>(ctx, QueryKind::kRecovery);
  }
  if (name == "serving") return std::make_unique<ServingWorkload>(ctx);
  return nullptr;
}

}  // namespace perfbench
