// Observability-layer tests: the JSON writer/parser, Timer histograms,
// the bounded trace ring, dispatch-target hardening, and the QueryProfile
// the driver assembles after every run (including its serialized schema,
// checked against the committed golden sample).
#include <gtest/gtest.h>

#include <fstream>
#include <set>
#include <sstream>

#include "algos/pagerank.h"
#include "algos/sssp.h"
#include "obs/json.h"
#include "obs/profile.h"
#include "obs/trace_ring.h"

namespace rex {
namespace {

// ------------------------------------------------------------------- Json --

TEST(JsonTest, RoundTripPreservesTypesAndOrder) {
  Json obj = Json::Object();
  obj.Set("big", int64_t{1} << 62);
  obj.Set("neg", -7);
  obj.Set("pi", 3.25);
  obj.Set("s", std::string("quote \" slash \\ newline \n tab \t"));
  obj.Set("yes", true);
  obj.Set("nothing", Json());
  Json arr = Json::Array();
  arr.Append(1);
  arr.Append(2.5);
  arr.Append("x");
  obj.Set("arr", std::move(arr));

  auto parsed = Json::Parse(obj.Dump());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_TRUE(parsed->Get("big").is_int());
  EXPECT_EQ(parsed->Get("big").AsInt(), int64_t{1} << 62);
  EXPECT_EQ(parsed->Get("neg").AsInt(), -7);
  EXPECT_EQ(parsed->Get("pi").type(), Json::Type::kDouble);
  EXPECT_DOUBLE_EQ(parsed->Get("pi").AsDouble(), 3.25);
  EXPECT_EQ(parsed->Get("s").AsString(),
            "quote \" slash \\ newline \n tab \t");
  EXPECT_TRUE(parsed->Get("yes").AsBool());
  EXPECT_TRUE(parsed->Get("nothing").is_null());
  ASSERT_EQ(parsed->Get("arr").size(), 3u);
  EXPECT_TRUE(parsed->Get("arr").at(0).is_int());
  EXPECT_EQ(parsed->Get("arr").at(1).type(), Json::Type::kDouble);
  EXPECT_EQ(parsed->Get("arr").at(2).AsString(), "x");
  // Objects keep insertion order so reports diff cleanly.
  ASSERT_EQ(parsed->members().size(), 7u);
  EXPECT_EQ(parsed->members()[0].first, "big");
  EXPECT_EQ(parsed->members()[6].first, "arr");
}

TEST(JsonTest, SetReplacesInPlace) {
  Json obj = Json::Object();
  obj.Set("a", 1);
  obj.Set("b", 2);
  obj.Set("a", 10);
  ASSERT_EQ(obj.members().size(), 2u);
  EXPECT_EQ(obj.members()[0].first, "a");
  EXPECT_EQ(obj.Get("a").AsInt(), 10);
  // Missing keys come back as the null object, so lookups can chain.
  EXPECT_TRUE(obj.Get("missing").is_null());
  EXPECT_TRUE(obj.Get("missing").Get("deeper").is_null());
}

TEST(JsonTest, StrictParseRejectsGarbage) {
  EXPECT_FALSE(Json::Parse("").ok());
  EXPECT_FALSE(Json::Parse("1 2").ok());          // trailing garbage
  EXPECT_FALSE(Json::Parse("{\"a\": }").ok());    // missing value
  EXPECT_FALSE(Json::Parse("[1, 2").ok());        // unterminated
  EXPECT_FALSE(Json::Parse("{'a': 1}").ok());     // single quotes
  EXPECT_FALSE(Json::Parse("nul").ok());
  ASSERT_TRUE(Json::Parse("  {\"a\": [1, -2.5e3, null]}  ").ok());
}

TEST(JsonTest, CompactDumpHasNoNewlines) {
  Json obj = Json::Object();
  obj.Set("a", 1);
  Json arr = Json::Array();
  arr.Append(2);
  obj.Set("b", std::move(arr));
  const std::string compact = obj.Dump(-1);
  EXPECT_EQ(compact.find('\n'), std::string::npos);
  EXPECT_TRUE(Json::Parse(compact).ok());
}

// ------------------------------------------------------------------ Timer --

TEST(TimerTest, RecordsCountTotalMinMaxAndLog2Buckets) {
  Timer t;
  EXPECT_EQ(t.Snapshot().count, 0);
  EXPECT_EQ(t.Snapshot().min_nanos, 0);
  t.Record(0);
  t.Record(1);
  t.Record(1000);
  t.Record(int64_t{1} << 20);
  TimerStats s = t.Snapshot();
  EXPECT_EQ(s.count, 4);
  EXPECT_EQ(s.total_nanos, 0 + 1 + 1000 + (int64_t{1} << 20));
  EXPECT_EQ(s.min_nanos, 0);
  EXPECT_EQ(s.max_nanos, int64_t{1} << 20);
  EXPECT_DOUBLE_EQ(s.mean_nanos(),
                   static_cast<double>(s.total_nanos) / 4.0);
  ASSERT_EQ(s.histogram.size(), static_cast<size_t>(Timer::kBuckets));
  EXPECT_EQ(s.histogram[0], 2);   // 0ns and 1ns
  EXPECT_EQ(s.histogram[9], 1);   // 512 <= 1000 < 1024
  EXPECT_EQ(s.histogram[20], 1);  // exactly 2^20
  int64_t bucketed = 0;
  for (int64_t b : s.histogram) bucketed += b;
  EXPECT_EQ(bucketed, s.count);

  t.Reset();
  EXPECT_EQ(t.Snapshot().count, 0);
}

TEST(TimerTest, MinIsSeededByFirstSample) {
  Timer t;
  t.Record(500);  // a zero-initialized min would stay 0 here
  EXPECT_EQ(t.Snapshot().min_nanos, 500);
  t.Record(100);
  EXPECT_EQ(t.Snapshot().min_nanos, 100);
}

TEST(TimerTest, ScopedTimerRecordsAndNullDisables) {
  Timer t;
  { ScopedTimer scoped(&t); }
  EXPECT_EQ(t.Snapshot().count, 1);
  { ScopedTimer disabled(nullptr); }  // must not crash
  MetricsRegistry registry;
  Timer* named = registry.GetTimer("x.y");
  EXPECT_EQ(named, registry.GetTimer("x.y"));  // stable handle
  named->Record(7);
  EXPECT_EQ(registry.TimerValue("x.y").count, 1);
  EXPECT_EQ(registry.TimerValue("absent").count, 0);
  auto snapshot = registry.TimersSnapshot();
  ASSERT_EQ(snapshot.size(), 1u);
  EXPECT_EQ(snapshot[0].first, "x.y");
}

// -------------------------------------------------------------- TraceRing --

TEST(TraceRingTest, BoundedOverwriteKeepsNewestTail) {
  TraceRing ring("test-ring", /*capacity=*/4);
  for (int i = 0; i < 10; ++i) {
    ring.Record(TraceEvent::Kind::kStratumStart, 0, 0, i);
  }
  EXPECT_EQ(ring.total_recorded(), 10u);
  EXPECT_EQ(ring.dropped(), 6u);
  auto events = ring.Events();
  ASSERT_EQ(events.size(), 4u);
  EXPECT_EQ(events.front().n, 6);  // oldest retained
  EXPECT_EQ(events.back().n, 9);   // newest
  for (size_t i = 1; i < events.size(); ++i) {
    EXPECT_EQ(events[i].seq, events[i - 1].seq + 1);
  }
  ring.Clear();
  EXPECT_TRUE(ring.Events().empty());
  EXPECT_EQ(ring.total_recorded(), 0u);
}

TEST(TraceRingTest, FiltersByKindAndDumpsOwner) {
  TraceRing ring("worker 7");
  ring.Record(TraceEvent::Kind::kDispatchData, 2, 0, 100);
  ring.Record(TraceEvent::Kind::kControl, 1, 0, 3);
  ring.Record(TraceEvent::Kind::kCheckpointWrite, 4, 2, 55);
  ring.Record(TraceEvent::Kind::kError, 0, 0, 0, "boom");
  auto ckpts = ring.EventsOfKind(TraceEvent::Kind::kCheckpointWrite);
  ASSERT_EQ(ckpts.size(), 1u);
  EXPECT_EQ(ckpts[0].a, 4);
  EXPECT_EQ(ckpts[0].n, 55);
  EXPECT_TRUE(ring.EventsOfKind(TraceEvent::Kind::kCrash).empty());
  const std::string dump = ring.Dump();
  EXPECT_NE(dump.find("worker 7"), std::string::npos);
  EXPECT_NE(dump.find("boom"), std::string::npos);
}

// ---------------------------------------------- Dispatch target hardening --

EngineConfig SmallConfig() {
  EngineConfig cfg;
  cfg.num_workers = 3;
  return cfg;
}

/// Runs a trivial scan-sink query so every worker has an installed plan and
/// an idle, running thread; returns the cluster ready for raw sends.
void InstallTrivialPlan(Cluster* cluster) {
  ASSERT_TRUE(cluster
                  ->CreateTable("t", Schema{{"k", ValueType::kInt}}, 0,
                                {Tuple{Value(1)}, Tuple{Value(2)}})
                  .ok());
  PlanSpec plan;
  ScanOp::Params scan;
  scan.table = "t";
  plan.AddSink(plan.AddScan(scan));
  ASSERT_TRUE(cluster->Run(plan).ok());
}

TEST(DispatchHardeningTest, OutOfRangeTargetOpIsAWorkerError) {
  Cluster cluster(SmallConfig());
  InstallTrivialPlan(&cluster);

  DeltaVec payload{Delta::Insert(Tuple{Value(int64_t{7})})};
  ASSERT_TRUE(
      cluster.network()->Send(Message::Data(0, 1, 99, 0, payload)).ok());
  cluster.network()->WaitQuiescent();
  const Status& err = cluster.worker(1)->error();
  ASSERT_FALSE(err.ok());
  EXPECT_EQ(err.code(), StatusCode::kInternal);
  EXPECT_NE(err.message().find("targets op 99"), std::string::npos);
  EXPECT_NE(err.message().find("from worker 0"), std::string::npos);
  // The failed dispatch landed in the worker's trace ring.
  EXPECT_FALSE(cluster.worker(1)
                   ->trace()
                   ->EventsOfKind(TraceEvent::Kind::kError)
                   .empty());
  cluster.worker(1)->ClearError();
}

TEST(DispatchHardeningTest, NegativeOpAndBadPortAreWorkerErrors) {
  Cluster cluster(SmallConfig());
  InstallTrivialPlan(&cluster);

  DeltaVec payload{Delta::Insert(Tuple{Value(int64_t{7})})};
  ASSERT_TRUE(
      cluster.network()->Send(Message::Data(0, 1, -1, 0, payload)).ok());
  cluster.network()->WaitQuiescent();
  ASSERT_FALSE(cluster.worker(1)->error().ok());
  EXPECT_EQ(cluster.worker(1)->error().code(), StatusCode::kInternal);
  cluster.worker(1)->ClearError();

  // Valid op, out-of-range port: caught before the operator indexes.
  ASSERT_TRUE(
      cluster.network()->Send(Message::Data(0, 2, 0, 5, payload)).ok());
  cluster.network()->WaitQuiescent();
  const Status& err = cluster.worker(2)->error();
  ASSERT_FALSE(err.ok());
  EXPECT_EQ(err.code(), StatusCode::kInternal);
  EXPECT_NE(err.message().find("targets port 5"), std::string::npos);
  cluster.worker(2)->ClearError();
}

// ----------------------------------------------------------- QueryProfile --

TEST(ProfileTest, StrataDeltaCardinalitiesMatchDeltaTuplesMetric) {
  GraphData graph = GenerateRmatGraph({});
  Cluster cluster(SmallConfig());
  ASSERT_TRUE(LoadGraphTables(&cluster, graph).ok());
  PageRankConfig cfg;
  cfg.threshold = 0.01;
  cfg.relative = true;
  ASSERT_TRUE(RegisterPageRankUdfs(cluster.udfs(), cfg).ok());
  auto plan = BuildPageRankDeltaPlan(cfg);
  ASSERT_TRUE(plan.ok());
  auto run = cluster.Run(*plan);
  ASSERT_TRUE(run.ok()) << run.status().ToString();

  const QueryProfile& p = run->profile;
  ASSERT_EQ(p.strata.size(), static_cast<size_t>(run->strata_executed));
  // Every flush FixpointOp::StartStratum counts into kDeltaTuples is the
  // Δ set derived during the previous stratum, and the final (converged)
  // stratum derives nothing — so the per-stratum Δ cardinalities the
  // profile reports must sum to exactly the metric.
  int64_t profile_deltas = 0;
  for (const StratumProfile& s : p.strata) profile_deltas += s.delta_tuples;
  EXPECT_GT(profile_deltas, 0);
  EXPECT_EQ(profile_deltas, cluster.WorkerMetric(metrics::kDeltaTuples));
  // The per-fixpoint series partitions the same totals.
  int64_t fixpoint_deltas = 0;
  for (const FixpointStratumProfile& f : p.fixpoint_deltas) {
    fixpoint_deltas += f.delta_tuples;
  }
  EXPECT_EQ(fixpoint_deltas, profile_deltas);
}

TEST(ProfileTest, DriverAssemblesWorkersOperatorsAndByteMatrix) {
  GraphData graph = GenerateRmatGraph({});
  Cluster cluster(SmallConfig());
  ASSERT_TRUE(LoadGraphTables(&cluster, graph).ok());
  SsspConfig cfg;
  cfg.source = 1;
  ASSERT_TRUE(RegisterSsspUdfs(cluster.udfs(), cfg).ok());
  auto plan = BuildSsspDeltaPlan(cfg);
  ASSERT_TRUE(plan.ok());
  auto run = cluster.Run(*plan);
  ASSERT_TRUE(run.ok()) << run.status().ToString();

  const QueryProfile& p = run->profile;
  EXPECT_DOUBLE_EQ(p.total_seconds, run->total_seconds);
  EXPECT_EQ(p.strata_executed, run->strata_executed);

  ASSERT_EQ(p.workers.size(), 3u);
  int64_t worker_bytes = 0;
  bool dispatch_timed = false;
  for (const WorkerProfile& w : p.workers) {
    EXPECT_TRUE(w.live_at_end);
    worker_bytes += w.bytes_sent;
    for (const auto& [name, stats] : w.timers) {
      if (name == metrics::kDispatchTimer && stats.count > 0) {
        dispatch_timed = true;
      }
    }
  }
  EXPECT_EQ(worker_bytes, run->total_bytes_sent);
  EXPECT_TRUE(dispatch_timed);

  // The (sender, receiver) matrix accounts for every metered byte; the
  // diagonal is zero because loopback delivery is unmetered (§6.5).
  ASSERT_EQ(p.bytes_matrix.size(), 3u);
  int64_t matrix_bytes = 0;
  for (size_t from = 0; from < p.bytes_matrix.size(); ++from) {
    ASSERT_EQ(p.bytes_matrix[from].size(), 3u);
    EXPECT_EQ(p.bytes_matrix[from][from], 0);
    for (int64_t cell : p.bytes_matrix[from]) matrix_bytes += cell;
  }
  EXPECT_EQ(matrix_bytes, run->total_bytes_sent);

  // Operator stats cover every worker's plan, with consumed-tuple counts.
  ASSERT_FALSE(p.operators.empty());
  int64_t tuples_consumed = 0;
  int64_t timed_ops = 0;
  for (const OperatorProfile& op : p.operators) {
    EXPECT_FALSE(op.name.empty());
    for (const OperatorPortProfile& port : op.ports) {
      tuples_consumed += port.tuples;
      if (port.consume_nanos > 0) timed_ops += 1;
    }
  }
  EXPECT_GT(tuples_consumed, 0);
  EXPECT_GT(timed_ops, 0);
}

TEST(ProfileTest, RecoveryPassesAreProfiled) {
  GraphData graph = GenerateRmatGraph({});
  EngineConfig cfg4;
  cfg4.num_workers = 4;
  cfg4.replication = 3;
  Cluster cluster(cfg4);
  ASSERT_TRUE(LoadGraphTables(&cluster, graph).ok());
  SsspConfig cfg;
  cfg.source = 1;
  ASSERT_TRUE(RegisterSsspUdfs(cluster.udfs(), cfg).ok());
  auto plan = BuildSsspDeltaPlan(cfg);
  ASSERT_TRUE(plan.ok());

  QueryOptions options;
  options.failure.worker = 1;
  options.failure.before_stratum = 2;
  options.failure.strategy = RecoveryStrategy::kIncremental;
  auto run = cluster.Run(*plan, options);
  ASSERT_TRUE(run.ok()) << run.status().ToString();

  const QueryProfile& p = run->profile;
  EXPECT_TRUE(p.recovered);
  ASSERT_EQ(p.recovery_passes.size(), static_cast<size_t>(run->recoveries));
  ASSERT_GE(p.recovery_passes.size(), 1u);
  const RecoveryPassProfile& pass = p.recovery_passes[0];
  EXPECT_EQ(pass.pass, 1);
  EXPECT_GE(pass.seconds, 0);
  EXPECT_TRUE(pass.strategy == "incremental" || pass.strategy == "replay")
      << pass.strategy;
  EXPECT_EQ(pass.resume_stratum, 2);
  EXPECT_EQ(pass.live_workers, 3);
  // The crashed worker is marked dead in the worker profiles.
  EXPECT_FALSE(p.workers[1].live_at_end);
  EXPECT_GT(p.checkpoint_bytes, 0);
  EXPECT_GT(p.checkpoint_tuples, 0);
  // Payloads are stored as serialized: stored equals raw, and raw matches
  // the checkpoint_bytes meter.
  EXPECT_GT(p.ckpt_raw_bytes, 0);
  EXPECT_EQ(p.ckpt_stored_bytes, p.ckpt_raw_bytes);
  EXPECT_EQ(p.ckpt_raw_bytes, p.checkpoint_bytes);
}

TEST(ProfileTest, ToJsonValidatesAndRoundTrips) {
  GraphData graph = GenerateRmatGraph({});
  Cluster cluster(SmallConfig());
  ASSERT_TRUE(LoadGraphTables(&cluster, graph).ok());
  SsspConfig cfg;
  ASSERT_TRUE(RegisterSsspUdfs(cluster.udfs(), cfg).ok());
  auto plan = BuildSsspDeltaPlan(cfg);
  ASSERT_TRUE(plan.ok());
  auto run = cluster.Run(*plan);
  ASSERT_TRUE(run.ok());

  QueryProfile profile = run->profile;
  profile.name = "unit-test";
  Json j = profile.ToJson();
  Status valid = ValidateProfileJson(j);
  EXPECT_TRUE(valid.ok()) << valid.ToString();

  auto parsed = Json::Parse(j.Dump());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  Status still_valid = ValidateProfileJson(*parsed);
  EXPECT_TRUE(still_valid.ok()) << still_valid.ToString();
  EXPECT_EQ(parsed->Get("name").AsString(), "unit-test");
  EXPECT_EQ(parsed->Get("schema_version").AsInt(),
            QueryProfile::kSchemaVersion);
  EXPECT_EQ(parsed->Get("strata").size(), profile.strata.size());

  // A whole bench report wraps runs of these profiles.
  Json report = BenchReportToJson("unit", {profile, profile});
  Status report_valid = ValidateBenchReportJson(report);
  EXPECT_TRUE(report_valid.ok()) << report_valid.ToString();

  // Validation genuinely rejects schema drift.
  Json broken = profile.ToJson();
  broken.Set("strata", "not an array");
  EXPECT_FALSE(ValidateProfileJson(broken).ok());
}

TEST(ProfileTest, GoldenSampleReportMatchesSchema) {
  const std::string path =
      std::string(REX_TESTDATA_DIR) + "/BENCH_sample.json";
  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << "missing golden sample: " << path;
  std::stringstream buf;
  buf << in.rdbuf();
  auto parsed = Json::Parse(buf.str());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  Status valid = ValidateBenchReportJson(*parsed);
  EXPECT_TRUE(valid.ok()) << valid.ToString();
  ASSERT_GE(parsed->Get("runs").size(), 1u);
  // The committed sample carries real per-stratum Δ series (the fields the
  // paper's figures are plotted from — see EXPERIMENTS.md).
  const Json& first = parsed->Get("runs").at(0);
  EXPECT_GE(first.Get("strata").size(), 1u);
  EXPECT_GE(first.Get("workers").size(), 1u);
  // Checkpoint byte accounting is part of the schema: raw and stored
  // volumes are both present, non-negative, and stored never exceeds raw
  // (the sample predates uncompressed storage, where the two are equal).
  EXPECT_GE(first.Get("ckpt_raw_bytes").AsInt(), 0);
  EXPECT_LE(first.Get("ckpt_stored_bytes").AsInt(),
            first.Get("ckpt_raw_bytes").AsInt());
}

TEST(ProfileTest, GoldenIvmSampleShowsIncrementalAdvantage) {
  // The committed bench_ivm_updates report (tests/testdata, regenerate
  // with REX_BENCH_SCALE=0.05 ./bench/bench_ivm_updates). Beyond schema
  // validity, the sample pins the property the bench exists to show: the
  // incremental base-update run ships strictly fewer tuples and executes
  // strictly fewer strata than the from-scratch run on the mutated graph.
  const std::string path =
      std::string(REX_TESTDATA_DIR) + "/BENCH_ivm_sample.json";
  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << "missing golden sample: " << path;
  std::stringstream buf;
  buf << in.rdbuf();
  auto parsed = Json::Parse(buf.str());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  Status valid = ValidateBenchReportJson(*parsed);
  EXPECT_TRUE(valid.ok()) << valid.ToString();
  ASSERT_EQ(parsed->Get("runs").size(), 2u);
  const Json* incremental = nullptr;
  const Json* scratch = nullptr;
  for (size_t i = 0; i < parsed->Get("runs").size(); ++i) {
    const Json& run = parsed->Get("runs").at(i);
    if (run.Get("name").AsString() == "incremental") incremental = &run;
    if (run.Get("name").AsString() == "from-scratch") scratch = &run;
  }
  ASSERT_NE(incremental, nullptr);
  ASSERT_NE(scratch, nullptr);
  EXPECT_GT(incremental->Get("tuples_sent").AsInt(), 0);
  EXPECT_LT(incremental->Get("tuples_sent").AsInt(),
            scratch->Get("tuples_sent").AsInt());
  EXPECT_LT(incremental->Get("strata_executed").AsInt(),
            scratch->Get("strata_executed").AsInt());
}

TEST(ProfileTest, GoldenServingSampleCoversBothStandingQueries) {
  // The committed bench_serving report (tests/testdata, regenerate with
  // REX_BENCH_SCALE=0.05 ./bench/bench_serving). The sample pins the
  // serving session's report shape: one profile per query per epoch
  // ("<query>/epoch<k>") plus the "<query>/register" initial runs, for
  // both standing queries over the shared graph.
  const std::string path =
      std::string(REX_TESTDATA_DIR) + "/BENCH_serving_sample.json";
  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << "missing golden sample: " << path;
  std::stringstream buf;
  buf << in.rdbuf();
  auto parsed = Json::Parse(buf.str());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  Status valid = ValidateBenchReportJson(*parsed);
  EXPECT_TRUE(valid.ok()) << valid.ToString();
  std::set<std::string> queries;
  int epoch_profiles = 0;
  bool saw_register = false;
  for (size_t i = 0; i < parsed->Get("runs").size(); ++i) {
    const Json& run = parsed->Get("runs").at(i);
    const std::string name = run.Get("name").AsString();
    const size_t slash = name.find('/');
    ASSERT_NE(slash, std::string::npos) << "unlabelled serving run " << name;
    queries.insert(name.substr(0, slash));
    if (name.substr(slash + 1) == "register") saw_register = true;
    if (name.compare(slash + 1, 5, "epoch") == 0) ++epoch_profiles;
  }
  EXPECT_TRUE(queries.count("pagerank"));
  EXPECT_TRUE(queries.count("sssp"));
  EXPECT_TRUE(saw_register);
  EXPECT_GE(epoch_profiles, 2);
}

// ----------------------------------------------- Trace ring x chaos runs --

TEST(TraceRingChaosTest, DriverRingCapturesCrashRestoreRecovery) {
  GraphData graph = GenerateRmatGraph({});
  EngineConfig cfg4;
  cfg4.num_workers = 4;
  cfg4.replication = 3;
  Cluster cluster(cfg4);
  ASSERT_TRUE(LoadGraphTables(&cluster, graph).ok());
  SsspConfig cfg;
  cfg.source = 1;
  ASSERT_TRUE(RegisterSsspUdfs(cluster.udfs(), cfg).ok());
  auto plan = BuildSsspDeltaPlan(cfg);
  ASSERT_TRUE(plan.ok());

  QueryOptions options;
  options.faults.seed = 11;
  options.faults.strategy = RecoveryStrategy::kIncremental;
  FaultEvent c1;
  c1.kind = FaultEvent::Kind::kCrash;
  c1.worker = 1;
  c1.at_stratum = 1;
  FaultEvent c2;
  c2.kind = FaultEvent::Kind::kCrash;
  c2.worker = 3;
  c2.at_stratum = 2;
  FaultEvent r1;
  r1.kind = FaultEvent::Kind::kRestore;
  r1.worker = 1;
  r1.at_stratum = 3;
  options.faults.events = {c1, c2, r1};
  auto run = cluster.Run(*plan, options);
  ASSERT_TRUE(run.ok()) << run.status().ToString();

  TraceRing* trace = cluster.trace();
  auto crashes = trace->EventsOfKind(TraceEvent::Kind::kCrash);
  ASSERT_EQ(crashes.size(), 2u);
  EXPECT_EQ(crashes[0].a, 1);
  EXPECT_EQ(crashes[1].a, 3);
  auto restores = trace->EventsOfKind(TraceEvent::Kind::kRestore);
  ASSERT_EQ(restores.size(), 1u);
  EXPECT_EQ(restores[0].a, 1);

  auto begins = trace->EventsOfKind(TraceEvent::Kind::kRecoverBegin);
  auto ends = trace->EventsOfKind(TraceEvent::Kind::kRecoverEnd);
  EXPECT_EQ(begins.size(), ends.size());
  EXPECT_EQ(static_cast<int>(ends.size()), run->recoveries);
  ASSERT_GE(begins.size(), 1u);
  // The causal order survives in the ring: crash, then the recovery pass
  // brackets, with stratum starts resuming after each recovery.
  EXPECT_LT(crashes[0].seq, begins[0].seq);
  EXPECT_LT(begins[0].seq, ends[0].seq);
  EXPECT_LT(restores[0].seq, ends.back().seq);
  EXPECT_FALSE(
      trace->EventsOfKind(TraceEvent::Kind::kStratumStart).empty());

  // Worker rings saw the recovery conversation and checkpoint writes.
  bool any_checkpoint = false;
  bool any_control = false;
  for (int w : cluster.LiveWorkers()) {
    TraceRing* wt = cluster.worker(w)->trace();
    any_checkpoint |=
        !wt->EventsOfKind(TraceEvent::Kind::kCheckpointWrite).empty();
    any_control |= !wt->EventsOfKind(TraceEvent::Kind::kControl).empty();
  }
  EXPECT_TRUE(any_checkpoint);
  EXPECT_TRUE(any_control);
}

}  // namespace
}  // namespace rex
