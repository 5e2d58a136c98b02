// Chaos harness tests: seeded multi-fault schedules, network fault
// injection, and runtime invariant checkers (DESIGN.md "Fault model &
// chaos harness").
//
// The ChaosSweep* tests compare every faulted run against the no-failure
// reference of the same query. SSSP distances are integers and the min
// aggregate is order-independent, so the comparison is exact; the
// floating-point algorithms tolerate tiny summation-order differences
// (reorder windows and cross-sender interleaving permute FP additions) and
// compare within 1e-6 of the reference.
//
// Seed counts: the default sweep is small so the tier-1 suite stays fast;
// `ctest -L chaos` re-runs these tests with REX_CHAOS_SEEDS=13, i.e.
// 13 seeds x 4 algorithms x 2 recovery strategies = 104 schedules. To
// reproduce one failing schedule, re-run with the printed seed, e.g.
//   REX_CHAOS_SEEDS=1 REX_CHAOS_SEED_BASE=<seed> ./build/tests/rex_tests \
//     --gtest_filter='ChaosSweep*<Algo>*'
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <functional>
#include <string>
#include <vector>

#include "algos/adsorption.h"
#include "algos/ivm.h"
#include "algos/kmeans.h"
#include "algos/pagerank.h"
#include "algos/reference.h"
#include "algos/sssp.h"
#include "sim/fault_schedule.h"

namespace rex {
namespace {

int EnvInt(const char* name, int fallback) {
  const char* env = std::getenv(name);
  if (env == nullptr) return fallback;
  int v = std::atoi(env);
  return v > 0 ? v : fallback;
}

int SweepSeeds() { return EnvInt("REX_CHAOS_SEEDS", 3); }

EngineConfig ChaosConfig() {
  EngineConfig cfg;
  cfg.num_workers = 4;
  cfg.replication = 3;
  cfg.network_batch_size = 64;
  cfg.verify_invariants = true;  // invariant checkers active on every run
  return cfg;
}

/// Everything a chaos comparison needs from one query run.
struct ChaosRun {
  bool ok = false;
  std::string error;
  std::vector<double> values;  // algorithm output, flattened
  int strata = 0;
  int recoveries = 0;
  ChaosStats chaos;
  int64_t dup_discarded = 0;  // receiver-side dedup counter
  int64_t detection_latency_ticks = 0;
  int64_t retransmits = 0;
  int64_t checkpoint_repairs = 0;
  std::vector<int> live_after;
};

void FillCommon(ChaosRun* out, const Cluster& cluster,
                const QueryRunResult& run) {
  out->strata = run.strata_executed;
  out->recoveries = run.recoveries;
  out->chaos = run.chaos;
  out->dup_discarded =
      const_cast<Cluster&>(cluster).WorkerMetric(metrics::kDupDiscarded);
  out->detection_latency_ticks = run.profile.detection_latency_ticks;
  out->retransmits = run.profile.retransmits;
  out->checkpoint_repairs = run.profile.checkpoint_repairs;
  out->live_after = cluster.LiveWorkers();
}

ChaosRun RunPageRankChaos(const FaultSchedule& faults) {
  ChaosRun out;
  GraphGenOptions opt;
  opt.num_vertices = 350;
  opt.num_edges = 1800;
  opt.seed = 17;
  GraphData graph = GenerateRmatGraph(opt);
  Cluster cluster(ChaosConfig());
  if (Status st = LoadGraphTables(&cluster, graph); !st.ok()) {
    out.error = st.ToString();
    return out;
  }
  PageRankConfig cfg;
  cfg.threshold = 1e-6;
  if (Status st = RegisterPageRankUdfs(cluster.udfs(), cfg); !st.ok()) {
    out.error = st.ToString();
    return out;
  }
  auto plan = BuildPageRankDeltaPlan(cfg);
  if (!plan.ok()) {
    out.error = plan.status().ToString();
    return out;
  }
  QueryOptions options;
  options.faults = faults;
  auto run = cluster.Run(*plan, options);
  if (!run.ok()) {
    out.error = run.status().ToString();
    return out;
  }
  auto ranks = RanksFromState(run->fixpoint_state, graph.num_vertices);
  if (!ranks.ok()) {
    out.error = ranks.status().ToString();
    return out;
  }
  out.values = *ranks;
  FillCommon(&out, cluster, *run);
  out.ok = true;
  return out;
}

ChaosRun RunSsspChaos(const FaultSchedule& faults) {
  ChaosRun out;
  GraphGenOptions opt;
  opt.num_vertices = 400;
  opt.num_edges = 1600;
  opt.seed = 321;
  GraphData graph = GenerateRmatGraph(opt);
  Cluster cluster(ChaosConfig());
  if (Status st = LoadGraphTables(&cluster, graph); !st.ok()) {
    out.error = st.ToString();
    return out;
  }
  SsspConfig cfg;
  cfg.source = 2;
  if (Status st = RegisterSsspUdfs(cluster.udfs(), cfg); !st.ok()) {
    out.error = st.ToString();
    return out;
  }
  auto plan = BuildSsspDeltaPlan(cfg);
  if (!plan.ok()) {
    out.error = plan.status().ToString();
    return out;
  }
  QueryOptions options;
  options.faults = faults;
  auto run = cluster.Run(*plan, options);
  if (!run.ok()) {
    out.error = run.status().ToString();
    return out;
  }
  auto dist = DistancesFromState(run->fixpoint_state, graph.num_vertices);
  if (!dist.ok()) {
    out.error = dist.status().ToString();
    return out;
  }
  out.values.assign(dist->begin(), dist->end());  // small ints: exact
  FillCommon(&out, cluster, *run);
  out.ok = true;
  return out;
}

ChaosRun RunKMeansChaos(const FaultSchedule& faults) {
  ChaosRun out;
  GeoGenOptions geo;
  geo.num_base_points = 600;
  geo.num_clusters = 5;
  geo.cluster_stddev = 0.3;
  geo.seed = 4242;
  KMeansConfig cfg;
  cfg.k = 5;
  Cluster cluster(ChaosConfig());
  if (Status st = LoadPointsTable(&cluster, GenerateGeoPoints(geo));
      !st.ok()) {
    out.error = st.ToString();
    return out;
  }
  if (Status st = RegisterKMeansUdfs(cluster.udfs(), cfg); !st.ok()) {
    out.error = st.ToString();
    return out;
  }
  auto plan = BuildKMeansDeltaPlan(cfg);
  if (!plan.ok()) {
    out.error = plan.status().ToString();
    return out;
  }
  QueryOptions options;
  options.faults = faults;
  auto run = cluster.Run(*plan, options);
  if (!run.ok()) {
    out.error = run.status().ToString();
    return out;
  }
  auto centroids = CentroidsFromState(run->fixpoint_state);
  if (!centroids.ok()) {
    out.error = centroids.status().ToString();
    return out;
  }
  for (const auto& [x, y] : *centroids) {
    out.values.push_back(x);
    out.values.push_back(y);
  }
  FillCommon(&out, cluster, *run);
  out.ok = true;
  return out;
}

ChaosRun RunAdsorptionChaos(const FaultSchedule& faults) {
  ChaosRun out;
  GraphGenOptions opt;
  opt.num_vertices = 250;
  opt.num_edges = 1500;
  opt.seed = 91;
  GraphData graph = GenerateRmatGraph(opt);
  Cluster cluster(ChaosConfig());
  if (Status st = LoadGraphTables(&cluster, graph); !st.ok()) {
    out.error = st.ToString();
    return out;
  }
  AdsorptionConfig acfg;
  acfg.num_labels = 3;
  acfg.threshold = 1e-6;
  if (Status st = RegisterAdsorptionUdfs(cluster.udfs(), acfg); !st.ok()) {
    out.error = st.ToString();
    return out;
  }
  auto plan = BuildAdsorptionDeltaPlan(acfg);
  if (!plan.ok()) {
    out.error = plan.status().ToString();
    return out;
  }
  QueryOptions options;
  options.faults = faults;
  auto run = cluster.Run(*plan, options);
  if (!run.ok()) {
    out.error = run.status().ToString();
    return out;
  }
  auto weights =
      AdsorptionFromState(run->fixpoint_state, graph.num_vertices, 3);
  if (!weights.ok()) {
    out.error = weights.status().ToString();
    return out;
  }
  for (const auto& row : *weights) {
    out.values.insert(out.values.end(), row.begin(), row.end());
  }
  FillCommon(&out, cluster, *run);
  out.ok = true;
  return out;
}

using RunFn = ChaosRun (*)(const FaultSchedule&);

struct SweepCase {
  const char* algo;
  RunFn run;
  /// 0 = exact comparison (integer results); > 0 = FP tolerance.
  double tolerance;
  RecoveryStrategy strategy;
};

std::string SweepName(const ::testing::TestParamInfo<SweepCase>& info) {
  return std::string(info.param.algo) +
         (info.param.strategy == RecoveryStrategy::kRestart ? "Restart"
                                                            : "Incremental");
}

class ChaosSweepTest : public ::testing::TestWithParam<SweepCase> {};

TEST_P(ChaosSweepTest, SeededSchedulesMatchNoFailureReference) {
  const SweepCase& sc = GetParam();
  ChaosRun ref = sc.run(FaultSchedule{});
  ASSERT_TRUE(ref.ok) << ref.error;
  ASSERT_GE(ref.strata, 5)
      << sc.algo << ": the reference converges too fast for chaos "
      << "schedules to fire before the end of the query";

  // Crashes (and the restores that trail them by <= 2 strata) must land
  // well before the reference convergence stratum, or the end-of-run
  // mandatory-event validation rejects the schedule.
  ChaosProfile profile;
  profile.max_crash_stratum = std::max(0, std::min(3, ref.strata - 5));

  const int seeds = SweepSeeds();
  // Distinct seed pool per (algo, strategy) combination so the full sweep
  // explores more schedules; REX_CHAOS_SEED_BASE pins a failing seed.
  uint64_t base = 7919u * (static_cast<uint64_t>(
                               std::hash<std::string>{}(sc.algo)) %
                           1000u) +
                  (sc.strategy == RecoveryStrategy::kRestart ? 500000u : 0u);
  base = static_cast<uint64_t>(EnvInt("REX_CHAOS_SEED_BASE",
                                      static_cast<int>(base % 1000000u)));

  ChaosStats total;
  for (int i = 0; i < seeds; ++i) {
    const uint64_t seed = base + static_cast<uint64_t>(i);
    FaultSchedule schedule = MakeChaosSchedule(seed, profile);
    schedule.strategy = sc.strategy;
    SCOPED_TRACE("seed " + std::to_string(seed) + ": " +
                 schedule.ToString());
    ChaosRun got = sc.run(schedule);
    ASSERT_TRUE(got.ok) << got.error;
    ASSERT_EQ(got.values.size(), ref.values.size());
    for (size_t j = 0; j < ref.values.size(); ++j) {
      if (sc.tolerance == 0) {
        ASSERT_EQ(got.values[j], ref.values[j]) << "position " << j;
      } else {
        ASSERT_NEAR(got.values[j], ref.values[j], sc.tolerance)
            << "position " << j;
      }
    }
    // Every schedule anchors on >= 1 crash; the driver must actually have
    // recovered (mandatory-event validation guarantees the crash fired).
    EXPECT_GE(got.chaos.crashes, 1);
    EXPECT_GE(got.recoveries, 1);
    total.crashes += got.chaos.crashes;
    total.mid_stratum_crashes += got.chaos.mid_stratum_crashes;
    total.recovery_crashes += got.chaos.recovery_crashes;
    total.restores += got.chaos.restores;
    total.recovery_rounds += got.chaos.recovery_rounds;
    total.messages_dropped += got.chaos.messages_dropped;
    total.messages_duplicated += got.chaos.messages_duplicated;
    total.batches_reordered += got.chaos.batches_reordered;
  }
  EXPECT_GE(total.crashes, seeds);
  std::printf(
      "[chaos] %s/%s seeds=%d crashes=%d mid=%d rec=%d restores=%d "
      "rounds=%d dropped=%lld dup=%lld reordered=%lld\n",
      sc.algo,
      sc.strategy == RecoveryStrategy::kRestart ? "restart" : "incremental",
      seeds, total.crashes, total.mid_stratum_crashes,
      total.recovery_crashes, total.restores, total.recovery_rounds,
      static_cast<long long>(total.messages_dropped),
      static_cast<long long>(total.messages_duplicated),
      static_cast<long long>(total.batches_reordered));
}

INSTANTIATE_TEST_SUITE_P(
    ChaosSweeps, ChaosSweepTest,
    ::testing::Values(
        SweepCase{"PageRank", RunPageRankChaos, 1e-6,
                  RecoveryStrategy::kIncremental},
        SweepCase{"PageRank", RunPageRankChaos, 1e-6,
                  RecoveryStrategy::kRestart},
        SweepCase{"Sssp", RunSsspChaos, 0.0,
                  RecoveryStrategy::kIncremental},
        SweepCase{"Sssp", RunSsspChaos, 0.0, RecoveryStrategy::kRestart},
        SweepCase{"KMeans", RunKMeansChaos, 1e-6,
                  RecoveryStrategy::kIncremental},
        SweepCase{"KMeans", RunKMeansChaos, 1e-6,
                  RecoveryStrategy::kRestart},
        SweepCase{"Adsorption", RunAdsorptionChaos, 1e-6,
                  RecoveryStrategy::kIncremental},
        SweepCase{"Adsorption", RunAdsorptionChaos, 1e-6,
                  RecoveryStrategy::kRestart}),
    SweepName);

// ---------------------------------------------------------------------------
// Directed schedules: each fault kind is exercised deterministically, so
// the acceptance guarantees (crash during recovery, duplication after
// restore, ...) never depend on what the seeded sweep happens to draw.
// ---------------------------------------------------------------------------

void ExpectExactSssp(const ChaosRun& got, const ChaosRun& ref) {
  ASSERT_EQ(got.values.size(), ref.values.size());
  for (size_t j = 0; j < ref.values.size(); ++j) {
    ASSERT_EQ(got.values[j], ref.values[j]) << "vertex " << j;
  }
}

TEST(ChaosSweepDirected, CrashDuringRecoveryIsRecoveredFrom) {
  ChaosRun ref = RunSsspChaos(FaultSchedule{});
  ASSERT_TRUE(ref.ok) << ref.error;

  FaultSchedule schedule;
  schedule.strategy = RecoveryStrategy::kIncremental;
  FaultEvent crash;
  crash.kind = FaultEvent::Kind::kCrash;
  crash.worker = 1;
  crash.at_stratum = 2;
  schedule.events.push_back(crash);
  FaultEvent second;  // fails while worker 1's recovery is in progress
  second.kind = FaultEvent::Kind::kCrash;
  second.worker = 2;
  second.at_stratum = 2;
  second.during_recovery = true;
  second.after_messages = 1;
  schedule.events.push_back(second);

  ChaosRun got = RunSsspChaos(schedule);
  ASSERT_TRUE(got.ok) << got.error;
  ExpectExactSssp(got, ref);
  EXPECT_EQ(got.chaos.crashes, 2);
  EXPECT_EQ(got.chaos.recovery_crashes, 1);
  EXPECT_GE(got.recoveries, 2);  // the interrupted pass plus the retry
  EXPECT_EQ(got.live_after.size(), 2u);
  // Both deaths were discovered by the probe-round detector, never
  // announced: the profile carries the rounds spent noticing them.
  EXPECT_GE(got.detection_latency_ticks, 2);
}

TEST(ChaosSweepDirected, DuplicationAfterRestoreIsDeduplicated) {
  ChaosRun ref = RunSsspChaos(FaultSchedule{});
  ASSERT_TRUE(ref.ok) << ref.error;

  FaultSchedule schedule;
  schedule.strategy = RecoveryStrategy::kIncremental;
  FaultEvent crash;
  crash.kind = FaultEvent::Kind::kCrash;
  crash.worker = 1;
  crash.at_stratum = 1;
  schedule.events.push_back(crash);
  FaultEvent restore;
  restore.kind = FaultEvent::Kind::kRestore;
  restore.worker = 1;
  restore.at_stratum = 2;
  schedule.events.push_back(restore);
  FaultEvent dup;  // double-deliver traffic to the restored node
  dup.kind = FaultEvent::Kind::kDuplicate;
  dup.worker = 1;
  dup.at_stratum = 2;
  dup.count = 25;
  schedule.events.push_back(dup);

  ChaosRun got = RunSsspChaos(schedule);
  ASSERT_TRUE(got.ok) << got.error;
  ExpectExactSssp(got, ref);
  EXPECT_EQ(got.chaos.restores, 1);
  EXPECT_GE(got.chaos.messages_duplicated, 1);
  // Exactly-once: every duplicated copy was discarded by the receiver's
  // per-sender sequence check.
  EXPECT_EQ(got.dup_discarded, got.chaos.messages_duplicated);
  EXPECT_EQ(got.live_after.size(), 4u);  // full strength after restore
}

TEST(ChaosSweepDirected, MidStratumCrashWithDropsAbortsTheStratum) {
  ChaosRun ref = RunSsspChaos(FaultSchedule{});
  ASSERT_TRUE(ref.ok) << ref.error;

  FaultSchedule schedule;
  schedule.strategy = RecoveryStrategy::kIncremental;
  FaultEvent crash;
  crash.kind = FaultEvent::Kind::kCrash;
  crash.worker = 1;
  crash.at_stratum = 2;
  crash.after_messages = 60;  // mid-stratum, after 60 data sends
  schedule.events.push_back(crash);
  FaultEvent drop;  // messages to the doomed node vanish first
  drop.kind = FaultEvent::Kind::kDrop;
  drop.worker = 1;
  drop.at_stratum = 2;
  drop.count = 10;
  schedule.events.push_back(drop);

  ChaosRun got = RunSsspChaos(schedule);
  ASSERT_TRUE(got.ok) << got.error;
  ExpectExactSssp(got, ref);
  EXPECT_EQ(got.chaos.mid_stratum_crashes, 1);
  EXPECT_GE(got.chaos.messages_dropped, 1);
  EXPECT_GE(got.recoveries, 1);
}

TEST(ChaosSweepDirected, ReorderWindowLeavesAnswerWithinTolerance) {
  ChaosRun ref = RunPageRankChaos(FaultSchedule{});
  ASSERT_TRUE(ref.ok) << ref.error;

  FaultSchedule schedule;  // no crash at all: pure message-level fault
  FaultEvent reorder;
  reorder.kind = FaultEvent::Kind::kReorder;
  reorder.worker = -1;
  reorder.at_stratum = 1;
  reorder.count = 50;
  schedule.events.push_back(reorder);
  schedule.seed = 99;  // seeds the injector's permutations

  ChaosRun got = RunPageRankChaos(schedule);
  ASSERT_TRUE(got.ok) << got.error;
  ASSERT_EQ(got.values.size(), ref.values.size());
  for (size_t j = 0; j < ref.values.size(); ++j) {
    ASSERT_NEAR(got.values[j], ref.values[j], 1e-6) << "vertex " << j;
  }
  EXPECT_GE(got.chaos.batches_reordered, 1);
  EXPECT_EQ(got.chaos.crashes, 0);
  EXPECT_EQ(got.recoveries, 0);
}

TEST(ChaosSweepDirected, TwoCrashesOneRestoreEndsAtExpectedStrength) {
  ChaosRun ref = RunSsspChaos(FaultSchedule{});
  ASSERT_TRUE(ref.ok) << ref.error;

  FaultSchedule schedule;
  schedule.strategy = RecoveryStrategy::kIncremental;
  FaultEvent c1;
  c1.kind = FaultEvent::Kind::kCrash;
  c1.worker = 1;
  c1.at_stratum = 1;
  schedule.events.push_back(c1);
  FaultEvent c2;
  c2.kind = FaultEvent::Kind::kCrash;
  c2.worker = 3;
  c2.at_stratum = 2;
  schedule.events.push_back(c2);
  FaultEvent restore;
  restore.kind = FaultEvent::Kind::kRestore;
  restore.worker = 1;
  restore.at_stratum = 3;
  schedule.events.push_back(restore);

  ChaosRun got = RunSsspChaos(schedule);
  ASSERT_TRUE(got.ok) << got.error;
  ExpectExactSssp(got, ref);
  EXPECT_EQ(got.chaos.crashes, 2);
  EXPECT_EQ(got.chaos.restores, 1);
  // Workers 0, 2 survived; worker 1 came back; worker 3 stayed down.
  EXPECT_EQ(got.live_after, (std::vector<int>{0, 1, 2}));
}

TEST(ChaosSweepDirected, DropWindowToLiveTargetIsRetransmitted) {
  ChaosRun ref = RunSsspChaos(FaultSchedule{});
  ASSERT_TRUE(ref.ok) << ref.error;

  // A pure lossy-link schedule: messages to a healthy worker are dropped,
  // nobody ever crashes, and the answer is still exact because the sender
  // retransmits until the window is exhausted.
  FaultSchedule schedule;
  FaultEvent drop;
  drop.kind = FaultEvent::Kind::kDrop;
  drop.worker = 2;
  drop.at_stratum = 1;
  drop.count = 10;
  schedule.events.push_back(drop);

  ChaosRun got = RunSsspChaos(schedule);
  ASSERT_TRUE(got.ok) << got.error;
  ExpectExactSssp(got, ref);
  EXPECT_GE(got.chaos.messages_dropped, 1);
  EXPECT_GE(got.retransmits, 1);
  EXPECT_EQ(got.chaos.crashes, 0);
  EXPECT_EQ(got.recoveries, 0);
  EXPECT_EQ(got.live_after.size(), 4u);
}

TEST(ChaosSweepDirected, CorruptedCheckpointCopiesAreRepaired) {
  ChaosRun ref = RunSsspChaos(FaultSchedule{});
  ASSERT_TRUE(ref.ok) << ref.error;

  // Worker 2 (a survivor) silently corrupts its checkpoint copies at the
  // stratum-2 boundary; worker 1 crashes at the same boundary, so recovery
  // replay must read through the corruption and repair from replicas.
  FaultSchedule schedule;
  schedule.strategy = RecoveryStrategy::kIncremental;
  FaultEvent crash;
  crash.kind = FaultEvent::Kind::kCrash;
  crash.worker = 1;
  crash.at_stratum = 2;
  schedule.events.push_back(crash);
  FaultEvent corrupt;
  corrupt.kind = FaultEvent::Kind::kCorruptCheckpoint;
  corrupt.worker = 2;
  corrupt.at_stratum = 2;
  corrupt.count = 4;
  schedule.events.push_back(corrupt);

  ChaosRun got = RunSsspChaos(schedule);
  ASSERT_TRUE(got.ok) << got.error;
  ExpectExactSssp(got, ref);
  EXPECT_EQ(got.chaos.crashes, 1);
  EXPECT_EQ(got.chaos.corruptions, 1);
  EXPECT_GE(got.recoveries, 1);
  EXPECT_GE(got.checkpoint_repairs, 1);
}

TEST(ChaosSweepDirected, AllCopiesCorruptDegradesToRestart) {
  ChaosRun ref = RunSsspChaos(FaultSchedule{});
  ASSERT_TRUE(ref.ok) << ref.error;

  // Every holder's copy of the first few entries rots, so the incremental
  // replay hits kDataLoss; the recovery retry loop degrades to the restart
  // strategy and the query still converges to the reference answer.
  FaultSchedule schedule;
  schedule.strategy = RecoveryStrategy::kIncremental;
  FaultEvent crash;
  crash.kind = FaultEvent::Kind::kCrash;
  crash.worker = 1;
  crash.at_stratum = 2;
  schedule.events.push_back(crash);
  FaultEvent corrupt;
  corrupt.kind = FaultEvent::Kind::kCorruptCheckpoint;
  corrupt.worker = -1;  // every holder: unrepairable
  corrupt.at_stratum = 2;
  corrupt.count = 3;
  schedule.events.push_back(corrupt);

  ChaosRun got = RunSsspChaos(schedule);
  ASSERT_TRUE(got.ok) << got.error;
  ExpectExactSssp(got, ref);
  EXPECT_EQ(got.chaos.crashes, 1);
  EXPECT_GE(got.recoveries, 2);  // the failed incremental pass + restart
  EXPECT_EQ(got.live_after.size(), 3u);
}

TEST(ChaosSweepDirected, SameSeedIsDeterministic) {
  ChaosProfile profile;
  profile.max_crash_stratum = 2;
  for (uint64_t seed = 1; seed <= 40; ++seed) {
    FaultSchedule a = MakeChaosSchedule(seed, profile);
    FaultSchedule b = MakeChaosSchedule(seed, profile);
    EXPECT_EQ(a.ToString(), b.ToString()) << "seed " << seed;
  }
  // And the engine answer under one fixed schedule is reproducible
  // run-to-run (exact, because SSSP is integer-valued).
  FaultSchedule schedule = MakeChaosSchedule(7, profile);
  ChaosRun first = RunSsspChaos(schedule);
  ASSERT_TRUE(first.ok) << first.error;
  ChaosRun second = RunSsspChaos(schedule);
  ASSERT_TRUE(second.ok) << second.error;
  ExpectExactSssp(second, first);
  EXPECT_EQ(first.chaos.crashes, second.chaos.crashes);
  EXPECT_EQ(first.chaos.restores, second.chaos.restores);
}

// ---------------------------------------------------------------------------
// Schedule validation: malformed schedules are rejected up front with a
// clear error instead of silently running failure-free.
// ---------------------------------------------------------------------------

FaultEvent Crash(int worker, int stratum, int after_messages = -1) {
  FaultEvent e;
  e.kind = FaultEvent::Kind::kCrash;
  e.worker = worker;
  e.at_stratum = stratum;
  e.after_messages = after_messages;
  return e;
}

TEST(FaultScheduleValidation, WorkerIdOutOfRange) {
  FaultSchedule s;
  s.events.push_back(Crash(4, 1));
  Status st = s.Validate(/*num_workers=*/4, /*replication=*/3);
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(st.message().find("out of range"), std::string::npos);
}

TEST(FaultScheduleValidation, TooManySimultaneousFailures) {
  FaultSchedule s;  // replication 3 tolerates 2 concurrent failures, not 3
  s.events.push_back(Crash(0, 1));
  s.events.push_back(Crash(1, 1));
  s.events.push_back(Crash(2, 2));
  Status st = s.Validate(4, 3);
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(st.message().find("replication"), std::string::npos);
}

TEST(FaultScheduleValidation, RestoreMakesRoomForAnotherCrash) {
  FaultSchedule s;
  s.events.push_back(Crash(0, 1));
  s.events.push_back(Crash(1, 1));
  FaultEvent restore;
  restore.kind = FaultEvent::Kind::kRestore;
  restore.worker = 0;
  restore.at_stratum = 2;
  s.events.push_back(restore);
  s.events.push_back(Crash(2, 3));  // legal: only 2 down at once
  EXPECT_TRUE(s.Validate(4, 3).ok());
}

TEST(FaultScheduleValidation, RestoreOfLiveWorkerRejected) {
  FaultSchedule s;
  FaultEvent restore;
  restore.kind = FaultEvent::Kind::kRestore;
  restore.worker = 2;
  restore.at_stratum = 1;
  s.events.push_back(restore);
  Status st = s.Validate(4, 3);
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(st.message().find("not failed"), std::string::npos);
}

TEST(FaultScheduleValidation, DropToLiveTargetIsLegal) {
  // Drops no longer require a doomed target: the sender's retransmission
  // protocol survives a lossy link to a perfectly healthy worker.
  FaultSchedule s;
  FaultEvent drop;
  drop.kind = FaultEvent::Kind::kDrop;
  drop.worker = 1;
  drop.at_stratum = 2;
  drop.count = 5;
  s.events.push_back(drop);  // nobody crashes mid-stratum 2
  s.events.push_back(Crash(1, 3));
  EXPECT_TRUE(s.Validate(4, 3).ok());
  // A degenerate window is still rejected.
  s.events[0].count = 0;
  Status st = s.Validate(4, 3);
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(st.message().find(">= 1"), std::string::npos);
}

TEST(FaultScheduleValidation, CorruptionCountMustBePositive) {
  FaultSchedule s;
  FaultEvent corrupt;
  corrupt.kind = FaultEvent::Kind::kCorruptCheckpoint;
  corrupt.worker = -1;  // every holder: legal
  corrupt.at_stratum = 1;
  corrupt.count = 0;
  s.events.push_back(corrupt);
  Status st = s.Validate(4, 3);
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  corrupt.count = 2;
  s.events[0] = corrupt;
  EXPECT_TRUE(s.Validate(4, 3).ok());
}

TEST(FaultScheduleValidation, DuplicateRequiresRestoredTarget) {
  FaultSchedule s;
  FaultEvent dup;
  dup.kind = FaultEvent::Kind::kDuplicate;
  dup.worker = 1;
  dup.at_stratum = 1;
  dup.count = 5;
  s.events.push_back(dup);  // worker 1 never crashed or restored
  Status st = s.Validate(4, 3);
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(st.message().find("restored"), std::string::npos);
}

TEST(FaultScheduleValidation, CrashDuringRecoveryNeedsPrecedingCrash) {
  FaultSchedule s;
  FaultEvent e = Crash(1, 1, /*after_messages=*/3);
  e.during_recovery = true;
  s.events.push_back(e);
  Status st = s.Validate(4, 3);
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(st.message().find("preceding crash"), std::string::npos);
}

TEST(FaultScheduleValidation, GeneratedSchedulesAlwaysValidate) {
  ChaosProfile profile;
  for (uint64_t seed = 0; seed < 300; ++seed) {
    FaultSchedule s = MakeChaosSchedule(seed, profile);
    Status st = s.Validate(profile.num_workers, profile.replication);
    EXPECT_TRUE(st.ok()) << "seed " << seed << ": " << st.ToString() << "\n"
                         << s.ToString();
  }
}

// ---------------------------------------------------------------------------
// Legacy FailureInjection validation (the single-failure front door must
// reject bad input instead of silently running failure-free).
// ---------------------------------------------------------------------------

Result<QueryRunResult> RunSsspWithInjection(FailureInjection failure) {
  GraphGenOptions opt;
  opt.num_vertices = 400;
  opt.num_edges = 1600;
  opt.seed = 321;
  GraphData graph = GenerateRmatGraph(opt);
  Cluster cluster(ChaosConfig());
  REX_RETURN_NOT_OK(LoadGraphTables(&cluster, graph));
  SsspConfig cfg;
  cfg.source = 2;
  REX_RETURN_NOT_OK(RegisterSsspUdfs(cluster.udfs(), cfg));
  REX_ASSIGN_OR_RETURN(PlanSpec plan, BuildSsspDeltaPlan(cfg));
  QueryOptions options;
  options.failure = failure;
  return cluster.Run(plan, options);
}

TEST(FailureInjectionValidation, WorkerOutOfRangeRejected) {
  FailureInjection failure;
  failure.worker = 7;  // cluster has 4 workers
  failure.before_stratum = 1;
  auto run = RunSsspWithInjection(failure);
  ASSERT_FALSE(run.ok());
  EXPECT_EQ(run.status().code(), StatusCode::kInvalidArgument);
}

TEST(FailureInjectionValidation, MissingStratumRejected) {
  FailureInjection failure;
  failure.worker = 1;  // worker set but no stratum: ambiguous, not "never"
  failure.before_stratum = -1;
  auto run = RunSsspWithInjection(failure);
  ASSERT_FALSE(run.ok());
  EXPECT_EQ(run.status().code(), StatusCode::kInvalidArgument);
}

TEST(FailureInjectionValidation, StratumPastConvergenceRejected) {
  FailureInjection failure;
  failure.worker = 1;
  failure.before_stratum = 500;  // the query converges long before this
  failure.strategy = RecoveryStrategy::kIncremental;
  auto run = RunSsspWithInjection(failure);
  ASSERT_FALSE(run.ok());
  EXPECT_EQ(run.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(run.status().message().find("never fired"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Chaos during incremental re-convergence (Cluster::ApplyBaseUpdate). The
// base-update path resumes the stratum loop past the converged run's last
// stratum, so fault events use ABSOLUTE stratum numbers >= the resume
// point (handed to the schedule builder as `resume`). Every run is checked
// against the from-scratch ReferenceSssp oracle on the mutated graph —
// stronger than the no-failure-reference comparison above, because a fault
// that silently corrupted the converged baseline would also surface here.
// ---------------------------------------------------------------------------

struct IvmChaosRun {
  bool ok = false;
  std::string error;
  std::vector<int64_t> dist;    // incremental result after re-convergence
  std::vector<int64_t> oracle;  // ReferenceSssp on the mutated graph
  int resume = 0;
  int strata = 0;
  int recoveries = 0;
  ChaosStats chaos;
};

/// Converges SSSP once, mutates the graph (several shortest-path-tree edge
/// deletions plus a fresh two-hop detour off the source), and re-converges
/// through ApplyBaseUpdate under the schedule `make_faults(resume)`.
IvmChaosRun RunSsspUpdateChaos(
    const std::function<FaultSchedule(int resume)>& make_faults) {
  IvmChaosRun out;
  GraphGenOptions opt;
  opt.num_vertices = 400;
  opt.num_edges = 1600;
  opt.seed = 321;
  GraphData graph = GenerateRmatGraph(opt);
  Cluster cluster(ChaosConfig());
  if (Status st = LoadGraphTables(&cluster, graph); !st.ok()) {
    out.error = st.ToString();
    return out;
  }
  SsspConfig cfg;
  cfg.source = 2;
  if (Status st = RegisterSsspUdfs(cluster.udfs(), cfg); !st.ok()) {
    out.error = st.ToString();
    return out;
  }
  auto plan = BuildSsspDeltaPlan(cfg);
  if (!plan.ok()) {
    out.error = plan.status().ToString();
    return out;
  }
  auto run = cluster.Run(*plan);
  if (!run.ok()) {
    out.error = run.status().ToString();
    return out;
  }
  auto dist = DistancesFromState(run->fixpoint_state, graph.num_vertices);
  if (!dist.ok()) {
    out.error = dist.status().ToString();
    return out;
  }
  out.resume = run->strata_executed;

  // Deterministic mutation batch: sever the first six tree edges (their
  // whole downstream subtrees must re-derive, which keeps the resumed loop
  // busy for several strata) and add a detour the oracle must also see.
  Adjacency adj = AdjacencyFromGraph(graph);
  std::vector<EdgeMutation> batch;
  int deletions = 0;
  for (const auto& [src, dst] : graph.edges) {
    if ((*dist)[static_cast<size_t>(src)] != -1 &&
        (*dist)[static_cast<size_t>(dst)] ==
            (*dist)[static_cast<size_t>(src)] + 1) {
      batch.push_back({src, dst, -1});
      if (++deletions == 6) break;
    }
  }
  batch.push_back({cfg.source, 399, 1});
  batch.push_back({399, 7, 1});

  auto update = BuildSsspBaseUpdate(*plan, batch, *dist, adj, cfg.source);
  if (!update.ok()) {
    out.error = update.status().ToString();
    return out;
  }
  update->faults = make_faults(out.resume);
  auto inc = cluster.ApplyBaseUpdate(*update);
  if (!inc.ok()) {
    out.error = inc.status().ToString();
    return out;
  }
  auto got = DistancesFromState(inc->fixpoint_state, graph.num_vertices);
  if (!got.ok()) {
    out.error = got.status().ToString();
    return out;
  }
  out.dist = *got;
  out.strata = inc->strata_executed;
  out.recoveries = inc->recoveries;
  out.chaos = inc->chaos;

  ApplyEdgeMutations(&adj, batch);
  GraphData mutated;
  mutated.num_vertices = graph.num_vertices;
  for (size_t u = 0; u < adj.size(); ++u) {
    for (int64_t v : adj[u]) {
      mutated.edges.emplace_back(static_cast<int64_t>(u), v);
    }
  }
  out.oracle = ReferenceSssp(mutated, cfg.source);
  out.ok = true;
  return out;
}

void ExpectMatchesIvmOracle(const IvmChaosRun& got) {
  ASSERT_EQ(got.dist.size(), got.oracle.size());
  for (size_t j = 0; j < got.oracle.size(); ++j) {
    ASSERT_EQ(got.dist[j], got.oracle[j]) << "vertex " << j;
  }
}

TEST(ChaosSweepIvm, NoFaultBaselineMatchesOracle) {
  IvmChaosRun got =
      RunSsspUpdateChaos([](int) { return FaultSchedule{}; });
  ASSERT_TRUE(got.ok) << got.error;
  ExpectMatchesIvmOracle(got);
  EXPECT_EQ(got.chaos.crashes, 0);
  EXPECT_EQ(got.recoveries, 0);
  // The subtree severed by the tree-edge deletions takes more than one
  // stratum to re-derive — the chaos schedules below rely on that window.
  EXPECT_GE(got.strata, 2);
}

TEST(ChaosSweepIvm, BoundaryCrashDuringReconvergenceMatchesOracle) {
  IvmChaosRun got = RunSsspUpdateChaos([](int resume) {
    FaultSchedule schedule;
    schedule.strategy = RecoveryStrategy::kIncremental;
    FaultEvent crash;  // boundary crash as the resumed loop starts
    crash.kind = FaultEvent::Kind::kCrash;
    crash.worker = 1;
    crash.at_stratum = resume;
    schedule.events.push_back(crash);
    return schedule;
  });
  ASSERT_TRUE(got.ok) << got.error;
  ExpectMatchesIvmOracle(got);
  EXPECT_EQ(got.chaos.crashes, 1);
  EXPECT_GE(got.recoveries, 1);
}

TEST(ChaosSweepIvm, MidStratumCrashWithDropsMatchesOracle) {
  IvmChaosRun got = RunSsspUpdateChaos([](int resume) {
    FaultSchedule schedule;
    schedule.strategy = RecoveryStrategy::kIncremental;
    FaultEvent drop;  // re-derivation traffic to a SURVIVOR is lossy, so
    drop.kind = FaultEvent::Kind::kDrop;  // retransmission is exercised
    drop.worker = 3;  // independently of the crash below
    drop.at_stratum = resume;
    drop.count = 8;
    schedule.events.push_back(drop);
    FaultEvent crash;  // and worker 1 dies mid-stratum
    crash.kind = FaultEvent::Kind::kCrash;
    crash.worker = 1;
    crash.at_stratum = resume;
    crash.after_messages = 2;
    schedule.events.push_back(crash);
    return schedule;
  });
  ASSERT_TRUE(got.ok) << got.error;
  ExpectMatchesIvmOracle(got);
  EXPECT_EQ(got.chaos.mid_stratum_crashes, 1);
  EXPECT_GE(got.chaos.messages_dropped, 1);
  EXPECT_GE(got.recoveries, 1);
}

TEST(ChaosSweepIvm, RestartRecoveryRecomputesFromUpdatedTables) {
  // A restart-strategy recovery during re-convergence recomputes from the
  // already-mutated tables, so it must land on the mutated-graph oracle,
  // not the pre-update converged state.
  IvmChaosRun got = RunSsspUpdateChaos([](int resume) {
    FaultSchedule schedule;
    schedule.strategy = RecoveryStrategy::kRestart;
    FaultEvent crash;
    crash.kind = FaultEvent::Kind::kCrash;
    crash.worker = 2;
    crash.at_stratum = resume;
    schedule.events.push_back(crash);
    return schedule;
  });
  ASSERT_TRUE(got.ok) << got.error;
  ExpectMatchesIvmOracle(got);
  EXPECT_EQ(got.chaos.crashes, 1);
  EXPECT_GE(got.recoveries, 1);
}

TEST(ChaosSweepIvm, ReorderWindowDuringReconvergenceStaysExact) {
  IvmChaosRun got = RunSsspUpdateChaos([](int resume) {
    FaultSchedule schedule;  // pure message-level fault, nobody crashes
    schedule.seed = 99;
    FaultEvent reorder;
    reorder.kind = FaultEvent::Kind::kReorder;
    reorder.worker = -1;
    reorder.at_stratum = resume;
    reorder.count = 40;
    schedule.events.push_back(reorder);
    return schedule;
  });
  ASSERT_TRUE(got.ok) << got.error;
  ExpectMatchesIvmOracle(got);  // min-merge is order-independent: exact
  EXPECT_EQ(got.chaos.crashes, 0);
  EXPECT_EQ(got.recoveries, 0);
}

}  // namespace
}  // namespace rex
