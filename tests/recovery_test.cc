// Failure-injection and recovery tests (§4.3, §6.6): both strategies must
// produce exactly the no-failure answer, and the incremental strategy must
// avoid re-deriving completed strata.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "algos/pagerank.h"
#include "algos/reference.h"
#include "algos/sssp.h"

namespace rex {
namespace {

EngineConfig RecoveryConfig() {
  EngineConfig cfg;
  cfg.num_workers = 4;
  cfg.replication = 3;
  cfg.network_batch_size = 64;
  return cfg;
}

GraphData RecoveryGraph() {
  GraphGenOptions opt;
  opt.num_vertices = 400;
  opt.num_edges = 1600;
  opt.seed = 321;
  return GenerateRmatGraph(opt);
}

QueryRunResult RunSsspWithFailure(const GraphData& graph,
                                  FailureInjection failure) {
  Cluster cluster(RecoveryConfig());
  EXPECT_TRUE(LoadGraphTables(&cluster, graph).ok());
  SsspConfig cfg;
  cfg.source = 2;
  EXPECT_TRUE(RegisterSsspUdfs(cluster.udfs(), cfg).ok());
  auto plan = BuildSsspDeltaPlan(cfg);
  EXPECT_TRUE(plan.ok());
  QueryOptions options;
  options.failure = failure;
  auto run = cluster.Run(*plan, options);
  EXPECT_TRUE(run.ok()) << run.status().ToString();
  return run.ok() ? std::move(run).value() : QueryRunResult{};
}

class SsspRecoveryTest : public ::testing::TestWithParam<int> {};

TEST_P(SsspRecoveryTest, IncrementalRecoveryMatchesBfs) {
  GraphData graph = RecoveryGraph();
  FailureInjection failure;
  failure.worker = 1;
  failure.before_stratum = GetParam();
  failure.strategy = RecoveryStrategy::kIncremental;
  QueryRunResult run = RunSsspWithFailure(graph, failure);
  EXPECT_TRUE(run.recovered);
  auto dist = DistancesFromState(run.fixpoint_state, graph.num_vertices);
  ASSERT_TRUE(dist.ok()) << dist.status().ToString();
  EXPECT_EQ(*dist, ReferenceSssp(graph, 2));
}

TEST_P(SsspRecoveryTest, RestartRecoveryMatchesBfs) {
  GraphData graph = RecoveryGraph();
  FailureInjection failure;
  failure.worker = 2;
  failure.before_stratum = GetParam();
  failure.strategy = RecoveryStrategy::kRestart;
  QueryRunResult run = RunSsspWithFailure(graph, failure);
  EXPECT_TRUE(run.recovered);
  auto dist = DistancesFromState(run.fixpoint_state, graph.num_vertices);
  ASSERT_TRUE(dist.ok());
  EXPECT_EQ(*dist, ReferenceSssp(graph, 2));
}

INSTANTIATE_TEST_SUITE_P(FailureStrata, SsspRecoveryTest,
                         ::testing::Values(0, 1, 2, 3, 5));

TEST(RecoveryTest, IncrementalDoesLessWorkThanRestart) {
  GraphData graph = RecoveryGraph();
  auto work_with = [&](RecoveryStrategy strategy) -> int64_t {
    Cluster cluster(RecoveryConfig());
    EXPECT_TRUE(LoadGraphTables(&cluster, graph).ok());
    SsspConfig cfg;
    cfg.source = 2;
    EXPECT_TRUE(RegisterSsspUdfs(cluster.udfs(), cfg).ok());
    auto plan = BuildSsspDeltaPlan(cfg);
    EXPECT_TRUE(plan.ok());
    QueryOptions options;
    options.failure.worker = 1;
    options.failure.before_stratum = 4;
    options.failure.strategy = strategy;
    auto run = cluster.Run(*plan, options);
    EXPECT_TRUE(run.ok()) << run.status().ToString();
    // Strata actually executed is the work proxy: restart repeats 0..3.
    return run.ok() ? run->strata_executed : -1;
  };
  int64_t incremental = work_with(RecoveryStrategy::kIncremental);
  int64_t restart = work_with(RecoveryStrategy::kRestart);
  EXPECT_LT(incremental, restart);
}

TEST(RecoveryTest, PageRankIncrementalMatchesNoFailure) {
  GraphData graph = RecoveryGraph();
  PageRankConfig cfg;
  cfg.threshold = 1e-7;

  auto ranks_with = [&](FailureInjection failure) -> std::vector<double> {
    Cluster cluster(RecoveryConfig());
    EXPECT_TRUE(LoadGraphTables(&cluster, graph).ok());
    EXPECT_TRUE(RegisterPageRankUdfs(cluster.udfs(), cfg).ok());
    auto plan = BuildPageRankDeltaPlan(cfg);
    EXPECT_TRUE(plan.ok());
    QueryOptions options;
    options.failure = failure;
    auto run = cluster.Run(*plan, options);
    EXPECT_TRUE(run.ok()) << run.status().ToString();
    auto ranks = RanksFromState(run->fixpoint_state, graph.num_vertices);
    EXPECT_TRUE(ranks.ok());
    return ranks.ok() ? *ranks : std::vector<double>();
  };

  std::vector<double> baseline = ranks_with(FailureInjection{});
  FailureInjection failure;
  failure.worker = 0;
  failure.before_stratum = 3;
  failure.strategy = RecoveryStrategy::kIncremental;
  std::vector<double> recovered = ranks_with(failure);
  ASSERT_EQ(baseline.size(), recovered.size());
  for (size_t v = 0; v < baseline.size(); ++v) {
    EXPECT_NEAR(baseline[v], recovered[v], 1e-6) << "vertex " << v;
  }
}

TEST(RecoveryTest, CheckpointVolumeTracksDeltaSets) {
  GraphData graph = RecoveryGraph();
  Cluster cluster(RecoveryConfig());
  ASSERT_TRUE(LoadGraphTables(&cluster, graph).ok());
  SsspConfig cfg;
  cfg.source = 2;
  ASSERT_TRUE(RegisterSsspUdfs(cluster.udfs(), cfg).ok());
  auto plan = BuildSsspDeltaPlan(cfg);
  ASSERT_TRUE(plan.ok());
  auto run = cluster.Run(*plan);
  ASSERT_TRUE(run.ok());
  // Checkpoints were written for every completed stratum.
  EXPECT_GT(cluster.checkpoints()->total_entries(), 0);
  int64_t tuples = cluster.checkpoints()
                       ->metrics()
                       .Value(metrics::kCheckpointTuples);
  // Sum of per-stratum Δ counts equals the checkpointed tuple count (every
  // vertex is derived at least once, improved distances re-checkpointed).
  int64_t derived = 0;
  for (const auto& r : run->strata) derived += r.stats.new_tuples;
  EXPECT_EQ(tuples, derived);
}

TEST(RecoveryTest, CheckpointingCanBeDisabled) {
  GraphData graph = RecoveryGraph();
  EngineConfig cfg = RecoveryConfig();
  cfg.checkpoint_deltas = false;
  Cluster cluster(cfg);
  ASSERT_TRUE(LoadGraphTables(&cluster, graph).ok());
  SsspConfig scfg;
  scfg.source = 2;
  ASSERT_TRUE(RegisterSsspUdfs(cluster.udfs(), scfg).ok());
  auto plan = BuildSsspDeltaPlan(scfg);
  ASSERT_TRUE(plan.ok());
  auto run = cluster.Run(*plan);
  ASSERT_TRUE(run.ok());
  EXPECT_EQ(cluster.checkpoints()->total_entries(), 0);
}

TEST(CheckpointStoreTest, AccessControlHonorsReplicaSets) {
  CheckpointStore store;
  store.Put(/*fixpoint=*/7, /*stratum=*/0, /*owner=*/1, /*replicas=*/{1, 2},
            {Tuple{Value(10)}, Tuple{Value(11)}});
  auto own = store.Read(7, 0, 1);
  ASSERT_TRUE(own.ok());
  EXPECT_EQ(own->size(), 2u);
  auto replica = store.Read(7, 0, 2);
  ASSERT_TRUE(replica.ok());
  EXPECT_EQ(replica->size(), 2u);
  auto outsider = store.Read(7, 0, 3);
  ASSERT_TRUE(outsider.ok());
  EXPECT_TRUE(outsider->empty());
}

TEST(CheckpointStoreTest, OverwriteOnReexecution) {
  CheckpointStore store;
  store.Put(1, 2, 0, {0, 1}, {Tuple{Value(1)}});
  store.Put(1, 2, 0, {0, 1}, {Tuple{Value(2)}, Tuple{Value(3)}});
  auto read = store.Read(1, 2, 0);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read->size(), 2u);
  EXPECT_EQ(store.LastCompleteStratum(1), 2);
  EXPECT_EQ(store.LastCompleteStratum(9), -1);
}

TEST(CheckpointStoreTest, GrantRecoveryAccessAdmitsTakeoverReaders) {
  CheckpointStore store;
  store.Put(/*fixpoint=*/3, /*stratum=*/0, /*owner=*/1, /*replicas=*/{1, 2},
            {Tuple{Value(5)}});
  // Worker 3 holds no copy: the DHT refuses it anything to read.
  auto before = store.Read(3, 0, 3);
  ASSERT_TRUE(before.ok());
  EXPECT_TRUE(before->empty());

  // Worker 1 fails; worker 3 takes over its ranges. The recovery grant
  // re-replicates the entry to the takeover reader and meters the copy
  // traffic as recovery refetch, not steady-state checkpointing.
  const int64_t checkpoint_bytes =
      store.metrics().GetCounter(metrics::kCheckpointBytes)->value();
  ASSERT_TRUE(store.GrantRecoveryAccess(/*live=*/{0, 2, 3},
                                        /*takeover_readers=*/{3},
                                        /*replication=*/3)
                  .ok());
  auto after = store.Read(3, 0, 3);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after->size(), 1u);
  EXPECT_GT(
      store.metrics().GetCounter(metrics::kRecoveryRefetchBytes)->value(), 0);
  EXPECT_EQ(store.metrics().GetCounter(metrics::kCheckpointBytes)->value(),
            checkpoint_bytes);
}

TEST(CheckpointStoreTest, GrantRecoveryAccessFailsWithoutLiveCopy) {
  CheckpointStore store;
  store.Put(4, 0, 1, {1, 2}, {Tuple{Value(8)}});
  // Owner and every replica are dead: the Δ set is unrecoverable and
  // incremental recovery must be refused loudly.
  Status st = store.GrantRecoveryAccess(/*live=*/{0, 3},
                                        /*takeover_readers=*/{3},
                                        /*replication=*/3);
  EXPECT_EQ(st.code(), StatusCode::kNodeFailure);
}

TEST(CheckpointStoreTest, ReplicaChoiceSurvivesPartitionMapChange) {
  // The writer picked replicas under the original partition map. After a
  // failure installs a new map, the surviving original replicas keep their
  // copies: a grant adds readers, never revokes them.
  CheckpointStore store;
  store.Put(6, 0, 0, {0, 2}, {Tuple{Value(1)}});
  store.Put(6, 1, 0, {0, 2}, {Tuple{Value(2)}});
  ASSERT_TRUE(store.GrantRecoveryAccess(/*live=*/{0, 2, 3},
                                        /*takeover_readers=*/{3},
                                        /*replication=*/3)
                  .ok());
  for (int stratum : {0, 1}) {
    auto replica = store.Read(6, stratum, 2);
    ASSERT_TRUE(replica.ok());
    EXPECT_EQ(replica->size(), 1u) << "stratum " << stratum;
    auto takeover = store.Read(6, stratum, 3);
    ASSERT_TRUE(takeover.ok());
    EXPECT_EQ(takeover->size(), 1u) << "stratum " << stratum;
  }
  // A second membership change (worker 2 fails next) still finds enough
  // live copies because the first grant topped the entry back up.
  ASSERT_TRUE(store.VerifyReadable(/*live=*/{0, 3}, /*min_copies=*/2).ok());
}

TEST(CheckpointStoreTest, TruncateAfterDropsAbortedStrata) {
  CheckpointStore store;
  store.Put(1, 0, 0, {0, 1}, {Tuple{Value(1)}});
  store.Put(1, 1, 0, {0, 1}, {Tuple{Value(2)}});
  store.Put(1, 2, 0, {0, 1}, {Tuple{Value(3)}});
  EXPECT_EQ(store.LastCompleteStratum(1), 2);
  store.TruncateAfter(0);
  EXPECT_EQ(store.LastCompleteStratum(1), 0);
  auto gone = store.Read(1, 1, 0);
  ASSERT_TRUE(gone.ok());
  EXPECT_TRUE(gone->empty());
  auto kept = store.Read(1, 0, 0);
  ASSERT_TRUE(kept.ok());
  EXPECT_EQ(kept->size(), 1u);
}

TEST(CheckpointStoreTest, VerifyReadableFlagsUnderReplication) {
  CheckpointStore store;
  store.Put(2, 0, 1, {1, 2}, {Tuple{Value(9)}});
  EXPECT_TRUE(store.VerifyReadable({0, 1, 2, 3}, 2).ok());
  // With both copy holders dead the invariant checker must trip.
  EXPECT_FALSE(store.VerifyReadable({0, 3}, 2).ok());
  // min_copies is clamped to the live count: a 1-node rump cluster with
  // its single copy alive still passes.
  EXPECT_TRUE(store.VerifyReadable({1}, 2).ok());
}

TEST(CheckpointStoreTest, PutRejectsInvalidIds) {
  CheckpointStore store(/*num_workers=*/4);
  const std::vector<Tuple> rows = {Tuple{Value(1)}};
  Status st = store.Put(-1, 0, 0, {0, 1}, rows);
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(st.message().find("fixpoint_id=-1"), std::string::npos);
  st = store.Put(1, -2, 0, {0, 1}, rows);
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(st.message().find("stratum=-2"), std::string::npos);
  st = store.Put(1, 0, 4, {0, 1}, rows);  // owner out of range
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(st.message().find("worker=4"), std::string::npos);
  st = store.Put(1, 0, 0, {0, 9}, rows);  // replica out of range
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(st.message().find("worker=9"), std::string::npos);
  // Nothing was silently created by the rejected calls.
  EXPECT_EQ(store.total_entries(), 0);
  EXPECT_TRUE(store.Put(1, 0, 0, {0, 1}, rows).ok());
}

TEST(CheckpointStoreTest, ReadRejectsInvalidIds) {
  CheckpointStore store(/*num_workers=*/4);
  ASSERT_TRUE(store.Put(1, 0, 0, {0, 1}, {Tuple{Value(1)}}).ok());
  EXPECT_EQ(store.Read(-1, 0, 0).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(store.Read(1, -1, 0).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(store.Read(1, 0, -3).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(store.Read(1, 0, 4).status().code(),
            StatusCode::kInvalidArgument);
  // The unbounded store (unit-test default) still rejects negatives.
  CheckpointStore unbounded;
  EXPECT_EQ(unbounded.Read(1, 0, -1).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_TRUE(unbounded.Read(1, 0, 400).ok());  // no upper bound configured
}

TEST(CheckpointStoreTest, CorruptCopyIsRepairedFromReplica) {
  CheckpointStore store;
  ASSERT_TRUE(
      store.Put(5, 0, 1, {1, 2}, {Tuple{Value(10)}, Tuple{Value(11)}}).ok());
  // Rot worker 1's copy only; worker 2 still holds a checksum-valid one.
  EXPECT_EQ(store.CorruptCopies(/*holder=*/1, /*max_entries=*/10), 1);
  auto read = store.Read(5, 0, 1);
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_EQ(read->size(), 2u);
  EXPECT_EQ(
      store.metrics().GetCounter(metrics::kCheckpointRepairs)->value(), 1);
  EXPECT_GT(
      store.metrics().GetCounter(metrics::kRecoveryRefetchBytes)->value(), 0);
  // The repair is durable: a second read verifies clean with no new repair.
  ASSERT_TRUE(store.Read(5, 0, 1).ok());
  EXPECT_EQ(
      store.metrics().GetCounter(metrics::kCheckpointRepairs)->value(), 1);
}

TEST(CheckpointStoreTest, AllCopiesCorruptReadFailsWithDataLoss) {
  CheckpointStore store;
  ASSERT_TRUE(store.Put(5, 0, 1, {1, 2}, {Tuple{Value(10)}}).ok());
  EXPECT_EQ(store.CorruptCopies(/*holder=*/-1, /*max_entries=*/10), 1);
  auto read = store.Read(5, 0, 2);
  ASSERT_FALSE(read.ok());
  EXPECT_EQ(read.status().code(), StatusCode::kDataLoss);
  // And the recovery grant refuses to re-replicate from rotten copies.
  Status st = store.GrantRecoveryAccess(/*live=*/{0, 2, 3},
                                        /*takeover_readers=*/{3},
                                        /*replication=*/3);
  EXPECT_EQ(st.code(), StatusCode::kDataLoss);
}

TEST(CheckpointStoreTest, GrantRepairsInvalidLiveCopies) {
  CheckpointStore store;
  ASSERT_TRUE(store.Put(8, 0, 1, {1, 2}, {Tuple{Value(3)}}).ok());
  EXPECT_EQ(store.CorruptCopies(/*holder=*/2, /*max_entries=*/10), 1);
  // The grant sources new copies from a live checksum-valid copy (worker
  // 1's) and repairs worker 2's rotten copy from it along the way.
  ASSERT_TRUE(store.GrantRecoveryAccess(/*live=*/{0, 1, 2, 3},
                                        /*takeover_readers=*/{3},
                                        /*replication=*/3)
                  .ok());
  EXPECT_GE(
      store.metrics().GetCounter(metrics::kCheckpointRepairs)->value(), 1);
  auto takeover = store.Read(8, 0, 3);
  ASSERT_TRUE(takeover.ok());
  EXPECT_EQ(takeover->size(), 1u);
  auto repaired = store.Read(8, 0, 2);
  ASSERT_TRUE(repaired.ok());
  EXPECT_EQ(repaired->size(), 1u);
}

TEST(CheckpointStoreTest, CorruptionStaysWithTheVictimHolder) {
  // The holders share one payload; rotting holder 1's copy must not reach
  // the bytes holder 2 reads.
  CheckpointStore store;
  const std::vector<Tuple> rows = {Tuple{Value(10)}, Tuple{Value(11)}};
  ASSERT_TRUE(store.Put(5, 0, 1, {1, 2, 3}, rows).ok());
  EXPECT_EQ(store.CorruptCopies(/*holder=*/1, /*max_entries=*/10), 1);
  auto neighbour = store.Read(5, 0, 2);
  ASSERT_TRUE(neighbour.ok()) << neighbour.status().ToString();
  EXPECT_EQ(*neighbour, rows);
  EXPECT_EQ(
      store.metrics().GetCounter(metrics::kCheckpointRepairs)->value(), 0);
  auto victim = store.Read(5, 0, 1);
  ASSERT_TRUE(victim.ok()) << victim.status().ToString();
  EXPECT_EQ(*victim, rows);
  EXPECT_EQ(
      store.metrics().GetCounter(metrics::kCheckpointRepairs)->value(), 1);
}

TEST(CheckpointStoreTest, ConcurrentReadsSeeOneWholeTupleSet) {
  // Readers decode outside the store lock while the writer rots copies and
  // overwrites the entry. Every read must return exactly one of the two
  // tuple sets: rotting the shared payload instead of a private copy
  // would fail reads on every holder. Under ThreadSanitizer the test also
  // checks that decoding outside the lock races with none of this.
  CheckpointStore store(/*num_workers=*/3);
  const std::vector<Tuple> first = {Tuple{Value(1)}, Tuple{Value(2)}};
  const std::vector<Tuple> second = {Tuple{Value(3), Value(4.5)},
                                     Tuple{Value(5), Value(6.5)},
                                     Tuple{Value(7), Value(8.5)}};
  const std::vector<int> holders = {0, 1, 2};
  ASSERT_TRUE(store.Put(9, 0, 0, holders, first).ok());

  std::atomic<bool> done{false};
  std::atomic<int> started{0};
  std::atomic<int> bad_reads{0};
  std::atomic<int> reads{0};
  std::vector<std::thread> readers;
  for (int reader : holders) {
    readers.emplace_back([&, reader] {
      started.fetch_add(1);
      while (!done.load()) {
        auto got = store.Read(9, 0, reader);
        if (!got.ok() || (*got != first && *got != second)) {
          bad_reads.fetch_add(1);
        }
        reads.fetch_add(1);
      }
    });
  }
  while (started.load() < static_cast<int>(holders.size())) {
    std::this_thread::yield();
  }
  for (int i = 0; i < 300; ++i) {
    store.CorruptCopies(/*holder=*/i % 3, /*max_entries=*/1);
    EXPECT_TRUE(store.Put(9, 0, 0, holders, i % 2 == 0 ? second : first)
                    .ok());
  }
  done.store(true);
  for (std::thread& t : readers) t.join();
  EXPECT_EQ(bad_reads.load(), 0);
  EXPECT_GT(reads.load(), 0);
}

TEST(PartitionMapTest, TakeoverGoesToFormerReplica) {
  PartitionMap pmap({0, 1, 2, 3, 4}, /*replication=*/3);
  Rng rng(5);
  for (int i = 0; i < 500; ++i) {
    uint64_t h = rng.Next();
    auto owners = pmap.Owners(h);
    ASSERT_EQ(owners.size(), 3u);
    int failed = owners[0];
    PartitionMap next = pmap.WithoutWorker(failed);
    int new_owner = next.PrimaryOwner(h);
    // Consistent hashing: the new primary was one of the old replicas.
    EXPECT_TRUE(new_owner == owners[1] || new_owner == owners[2])
        << "hash " << h;
  }
}

TEST(PartitionMapTest, SurvivorRangesDoNotMove) {
  PartitionMap pmap({0, 1, 2, 3}, 3);
  PartitionMap without = pmap.WithoutWorker(2);
  Rng rng(9);
  for (int i = 0; i < 500; ++i) {
    uint64_t h = rng.Next();
    int before = pmap.PrimaryOwner(h);
    if (before != 2) EXPECT_EQ(without.PrimaryOwner(h), before);
  }
}

TEST(PartitionMapTest, ReasonableBalance) {
  PartitionMap pmap({0, 1, 2, 3, 4, 5, 6, 7}, 3, /*vnodes=*/64);
  std::vector<int> counts(8, 0);
  Rng rng(77);
  const int n = 20000;
  for (int i = 0; i < n; ++i) counts[static_cast<size_t>(
      pmap.PrimaryOwner(rng.Next()))] += 1;
  for (int c : counts) {
    EXPECT_GT(c, n / 8 / 3) << "severely unbalanced ring";
    EXPECT_LT(c, n / 8 * 3);
  }
}

TEST(TableTest, TakeoverRequiresReplica) {
  DistributedTable table("t", Schema{{"k", ValueType::kInt}}, 0);
  std::vector<Tuple> rows;
  for (int64_t i = 0; i < 200; ++i) rows.push_back(Tuple{Value(i)});
  table.AppendRows(std::move(rows));

  // Replication 1: a failure loses data — TakeoverRows must refuse.
  PartitionMap thin({0, 1, 2}, /*replication=*/1);
  PartitionMap thin_after = thin.WithoutWorker(0);
  bool any_error = false;
  for (int w : thin_after.workers()) {
    auto got = table.TakeoverRows(w, thin, thin_after);
    if (!got.ok()) any_error = true;
  }
  EXPECT_TRUE(any_error);

  // Replication 3: every moved row is available on its takeover node.
  PartitionMap fat({0, 1, 2}, 3);
  PartitionMap fat_after = fat.WithoutWorker(0);
  size_t moved = 0;
  for (int w : fat_after.workers()) {
    auto got = table.TakeoverRows(w, fat, fat_after);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    moved += got->size();
  }
  EXPECT_EQ(moved, table.PrimaryRows(0, fat).size());
}

}  // namespace
}  // namespace rex
