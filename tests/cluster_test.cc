// Cluster/engine behavior tests: error propagation from worker threads,
// stratum caps, explicit termination conditions (§3.4), cluster reuse
// across queries, and worker revival.
#include <gtest/gtest.h>

#include <mutex>
#include <string>
#include <vector>

#include "algos/pagerank.h"
#include "algos/reference.h"
#include "algos/sssp.h"

namespace rex {
namespace {

EngineConfig SmallConfig() {
  EngineConfig cfg;
  cfg.num_workers = 3;
  return cfg;
}

TEST(ClusterTest, UdfErrorsPropagateToDriver) {
  Cluster cluster(SmallConfig());
  ASSERT_TRUE(cluster
                  .CreateTable("t", Schema{{"k", ValueType::kInt}}, 0,
                               {Tuple{Value(1)}, Tuple{Value(2)}})
                  .ok());
  TableUdf bomb;
  bomb.name = "bomb";
  bomb.fn = [](const Delta& d) -> Result<DeltaVec> {
    if (d.tuple.field(0) == Value(2)) {
      return Status::Internal("user code exploded");
    }
    return DeltaVec{d};
  };
  ASSERT_TRUE(cluster.udfs()->RegisterTable(bomb).ok());

  PlanSpec plan;
  ScanOp::Params scan;
  scan.table = "t";
  int top = plan.AddScan(scan);
  top = plan.AddApplyFn(top, "bomb");
  plan.AddSink(top);
  auto run = cluster.Run(plan);
  ASSERT_FALSE(run.ok());
  EXPECT_EQ(run.status().code(), StatusCode::kInternal);
  EXPECT_NE(run.status().message().find("exploded"), std::string::npos);
}

TEST(ClusterTest, UnknownUdfFailsAtPlanInstall) {
  Cluster cluster(SmallConfig());
  ASSERT_TRUE(cluster
                  .CreateTable("t", Schema{{"k", ValueType::kInt}}, 0, {})
                  .ok());
  PlanSpec plan;
  ScanOp::Params scan;
  scan.table = "t";
  int top = plan.AddScan(scan);
  top = plan.AddApplyFn(top, "no_such_fn");
  plan.AddSink(top);
  auto run = cluster.Run(plan);
  ASSERT_FALSE(run.ok());
  EXPECT_EQ(run.status().code(), StatusCode::kNotFound);
}

TEST(ClusterTest, MaxStrataCapsDivergentQueries) {
  GraphData graph = GenerateRmatGraph({});
  Cluster cluster(SmallConfig());
  ASSERT_TRUE(LoadGraphTables(&cluster, graph).ok());
  PageRankConfig cfg;
  cfg.threshold = 0.0;  // propagate every change — effectively divergent
  ASSERT_TRUE(RegisterPageRankUdfs(cluster.udfs(), cfg).ok());
  auto plan = BuildPageRankDeltaPlan(cfg);
  ASSERT_TRUE(plan.ok());
  QueryOptions options;
  options.max_strata = 7;
  auto run = cluster.Run(*plan, options);
  ASSERT_TRUE(run.ok());
  EXPECT_EQ(run->strata_executed, 7);
}

TEST(ClusterTest, ExplicitTerminationCondition) {
  // §3.4: "How many pages have their PageRank changed by more than 1%
  // between iterations n and n-1?" — stop when fewer than 50 did.
  GraphData graph = GenerateRmatGraph({});
  Cluster cluster(SmallConfig());
  ASSERT_TRUE(LoadGraphTables(&cluster, graph).ok());
  PageRankConfig cfg;
  cfg.threshold = 0.01;
  cfg.relative = true;
  ASSERT_TRUE(RegisterPageRankUdfs(cluster.udfs(), cfg).ok());
  auto plan = BuildPageRankDeltaPlan(cfg);
  ASSERT_TRUE(plan.ok());
  QueryOptions options;
  options.terminate = [](int stratum, const VoteStats& stats) {
    return stratum > 0 && stats.changed_tuples < 400;
  };
  auto run = cluster.Run(*plan, options);
  ASSERT_TRUE(run.ok());
  EXPECT_LT(run->strata.back().stats.changed_tuples, 400);
  // And it genuinely stopped early: an unconditional run goes further.
  Cluster cluster2(SmallConfig());
  ASSERT_TRUE(LoadGraphTables(&cluster2, graph).ok());
  ASSERT_TRUE(RegisterPageRankUdfs(cluster2.udfs(), cfg).ok());
  auto full = cluster2.Run(*plan);
  ASSERT_TRUE(full.ok());
  EXPECT_GT(full->strata_executed, run->strata_executed);
}

TEST(ClusterTest, BackToBackQueriesOnOneCluster) {
  GraphData graph = GenerateRmatGraph({});
  Cluster cluster(SmallConfig());
  ASSERT_TRUE(LoadGraphTables(&cluster, graph).ok());
  SsspConfig cfg;
  cfg.source = 3;
  ASSERT_TRUE(RegisterSsspUdfs(cluster.udfs(), cfg).ok());
  auto plan = BuildSsspDeltaPlan(cfg);
  ASSERT_TRUE(plan.ok());
  std::vector<int64_t> ref = ReferenceSssp(graph, 3);
  for (int round = 0; round < 3; ++round) {
    auto run = cluster.Run(*plan);
    ASSERT_TRUE(run.ok()) << "round " << round;
    auto dist = DistancesFromState(run->fixpoint_state, graph.num_vertices);
    ASSERT_TRUE(dist.ok());
    EXPECT_EQ(*dist, ref) << "round " << round;
  }
}

TEST(ClusterTest, ReviveFailedWorkersRestoresFullCluster) {
  GraphData graph = GenerateRmatGraph({});
  Cluster cluster(SmallConfig());
  ASSERT_TRUE(LoadGraphTables(&cluster, graph).ok());
  SsspConfig cfg;
  cfg.source = 1;
  ASSERT_TRUE(RegisterSsspUdfs(cluster.udfs(), cfg).ok());
  auto plan = BuildSsspDeltaPlan(cfg);
  ASSERT_TRUE(plan.ok());

  QueryOptions with_failure;
  with_failure.failure.worker = 0;
  with_failure.failure.before_stratum = 2;
  with_failure.failure.strategy = RecoveryStrategy::kIncremental;
  auto run1 = cluster.Run(*plan, with_failure);
  ASSERT_TRUE(run1.ok());
  EXPECT_EQ(cluster.LiveWorkers().size(), 2u);

  ASSERT_TRUE(cluster.ReviveFailedWorkers().ok());
  EXPECT_EQ(cluster.LiveWorkers().size(), 3u);
  auto run2 = cluster.Run(*plan);
  ASSERT_TRUE(run2.ok());
  auto dist = DistancesFromState(run2->fixpoint_state, graph.num_vertices);
  ASSERT_TRUE(dist.ok());
  EXPECT_EQ(*dist, ReferenceSssp(graph, 1));
}

TEST(ClusterTest, RunOnEmptyTableTerminates) {
  Cluster cluster(SmallConfig());
  ASSERT_TRUE(cluster
                  .CreateTable("graph",
                               Schema{{"src", ValueType::kInt},
                                      {"dst", ValueType::kInt}},
                               0, {})
                  .ok());
  ASSERT_TRUE(cluster
                  .CreateTable("vertices", Schema{{"v", ValueType::kInt}},
                               0, {})
                  .ok());
  SsspConfig cfg;
  ASSERT_TRUE(RegisterSsspUdfs(cluster.udfs(), cfg).ok());
  auto plan = BuildSsspDeltaPlan(cfg);
  ASSERT_TRUE(plan.ok());
  auto run = cluster.Run(*plan);
  ASSERT_TRUE(run.ok());
  EXPECT_TRUE(run->fixpoint_state.empty());
  EXPECT_EQ(run->strata_executed, 1);  // base case derives nothing
}

TEST(ClusterTest, RuntimeUdfMonitoringFeedsProfiles) {
  Cluster cluster(SmallConfig());
  std::vector<Tuple> rows;
  for (int64_t i = 0; i < 500; ++i) rows.push_back(Tuple{Value(i)});
  ASSERT_TRUE(
      cluster.CreateTable("t", Schema{{"k", ValueType::kInt}}, 0, rows)
          .ok());
  TableUdf fanout2;
  fanout2.name = "fanout2";
  fanout2.deterministic = false;
  fanout2.fn = [](const Delta& d) -> Result<DeltaVec> {
    return DeltaVec{d, d};  // two outputs per input
  };
  ASSERT_TRUE(cluster.udfs()->RegisterTable(fanout2).ok());

  NodeCalibration calib;
  EXPECT_FALSE(cluster.MeasuredUdfProfile("fanout2", calib).ok());

  PlanSpec plan;
  ScanOp::Params scan;
  scan.table = "t";
  int top = plan.AddScan(scan);
  top = plan.AddApplyFn(top, "fanout2");
  plan.AddSink(top);
  ASSERT_TRUE(cluster.Run(plan).ok());

  auto profile = cluster.MeasuredUdfProfile("fanout2", calib);
  ASSERT_TRUE(profile.ok()) << profile.status().ToString();
  EXPECT_NEAR(profile->fanout, 2.0, 1e-9);
  EXPECT_GT(profile->cost_per_tuple, 0.0);
  EXPECT_FALSE(profile->deterministic);
}

TEST(ClusterTest, PerStratumReportsAreConsistent) {
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
  ASSERT_TRUE(run.ok());
  ASSERT_EQ(run->strata.size(), static_cast<size_t>(run->strata_executed));
  int64_t bytes = 0;
  for (size_t i = 0; i < run->strata.size(); ++i) {
    EXPECT_EQ(run->strata[i].stratum, static_cast<int>(i));
    EXPECT_GE(run->strata[i].seconds, 0);
    bytes += run->strata[i].bytes_sent;
  }
  EXPECT_EQ(bytes, run->total_bytes_sent);
  EXPECT_EQ(run->strata.back().stats.new_tuples, 0);  // implicit fixpoint
}


// -- Network fail/restore plumbing (chaos harness substrate) ---------------

Message OneTupleMsg(int from, int to) {
  return Message::Data(from, to, 0, 0,
                       DeltaVec{Delta::Update(Tuple{Value(int64_t{7})})});
}

TEST(NetworkTest, RestoreReopensInboxAfterMultiFailure) {
  Network net(3);
  ASSERT_TRUE(net.Send(OneTupleMsg(0, 1)).ok());
  EXPECT_EQ(net.channel(1)->size(), 1u);
  const int64_t metered = net.BytesSentBy(0);
  EXPECT_GT(metered, 0);
  net.channel(1)->TryPop();
  net.OnMessageProcessed();

  // Fail two of three workers: inboxes close, only worker 0 stays live.
  net.MarkFailed(1);
  net.MarkFailed(2);
  EXPECT_TRUE(net.IsFailed(1));
  EXPECT_TRUE(net.IsFailed(2));
  EXPECT_EQ(net.LiveWorkers(), std::vector<int>{0});
  EXPECT_TRUE(net.channel(1)->closed());
  EXPECT_TRUE(net.channel(2)->closed());

  // Sends to failed workers drop on the floor: no queueing, no metering.
  ASSERT_TRUE(net.Send(OneTupleMsg(0, 1)).ok());
  EXPECT_EQ(net.channel(1)->size(), 0u);
  EXPECT_EQ(net.BytesSentBy(0), metered);

  // Restore one: its inbox reopens and delivery resumes; the other one
  // stays dead.
  net.Restore(1);
  EXPECT_FALSE(net.IsFailed(1));
  EXPECT_FALSE(net.channel(1)->closed());
  EXPECT_EQ(net.LiveWorkers(), (std::vector<int>{0, 1}));
  ASSERT_TRUE(net.Send(OneTupleMsg(0, 1)).ok());
  EXPECT_EQ(net.channel(1)->size(), 1u);
  EXPECT_EQ(net.BytesSentBy(0), 2 * metered);
  ASSERT_TRUE(net.Send(OneTupleMsg(0, 2)).ok());
  EXPECT_EQ(net.channel(2)->size(), 0u);

  // Metering stays consistent: exactly the delivered cross-worker bytes.
  EXPECT_EQ(net.TotalBytesSent(), net.BytesSentBy(0));
  net.channel(1)->TryPop();
  net.OnMessageProcessed();
  net.WaitQuiescent();  // drained: the in-flight count is exactly zero
  EXPECT_TRUE(net.CheckInvariants().ok());
}

TEST(NetworkTest, SequenceNumbersKeepIncreasingAcrossRestore) {
  // The receiver-side duplicate filter keeps per-sender high-water marks;
  // a restored node must not reuse old sequence numbers or its first real
  // messages would be discarded as duplicates.
  Network net(2);
  ASSERT_TRUE(net.Send(OneTupleMsg(0, 1)).ok());
  auto before = net.channel(1)->TryPop();
  ASSERT_TRUE(before.has_value());
  net.OnMessageProcessed();

  net.MarkFailed(1);
  ASSERT_TRUE(net.Send(OneTupleMsg(0, 1)).ok());  // dropped, burns a seq
  net.Restore(1);
  ASSERT_TRUE(net.Send(OneTupleMsg(0, 1)).ok());
  auto after = net.channel(1)->TryPop();
  ASSERT_TRUE(after.has_value());
  net.OnMessageProcessed();
  EXPECT_GT(after->seq, before->seq);
}

TEST(ChannelTest, ReopenDiscardsStaleMessagesAndBumpsIncarnation) {
  // Regression: a revived worker must never consume a batch addressed to
  // its previous life. Reopen discards anything still queued and bumps the
  // incarnation so stale stamped stragglers are rejected on Push.
  Channel ch;
  const int first_life = ch.incarnation();
  Message stale = OneTupleMsg(0, 1);
  stale.dest_incarnation = first_life;
  ASSERT_TRUE(ch.Push(stale));
  EXPECT_EQ(ch.size(), 1u);

  ch.Close();
  ch.Reopen();
  EXPECT_EQ(ch.size(), 0u);  // the pre-crash message is gone
  EXPECT_GT(ch.incarnation(), first_life);

  Message straggler = OneTupleMsg(0, 1);
  straggler.dest_incarnation = first_life;  // stamped for the old life
  EXPECT_FALSE(ch.Push(straggler));
  EXPECT_EQ(ch.size(), 0u);

  Message fresh = OneTupleMsg(0, 1);
  fresh.dest_incarnation = ch.incarnation();
  EXPECT_TRUE(ch.Push(fresh));
  Message unstamped = OneTupleMsg(0, 1);  // dest_incarnation = -1: bypass
  EXPECT_TRUE(ch.Push(unstamped));
  EXPECT_EQ(ch.size(), 2u);
}

TEST(NetworkTest, BoundedChannelShedsAfterGracePeriod) {
  Network net(2, /*channel_capacity=*/1);
  ASSERT_TRUE(net.Send(OneTupleMsg(0, 1)).ok());
  // The inbox is full and nobody is consuming: the next data send blocks
  // for the flow-control grace period, then sheds — it is enqueued past
  // capacity and counted — instead of deadlocking the sender forever.
  ASSERT_TRUE(net.Send(OneTupleMsg(0, 1)).ok());
  EXPECT_EQ(net.channel(1)->size(), 2u);
  EXPECT_GE(net.metrics().Value(metrics::kBackpressureBlocks), 1);
  EXPECT_GE(net.metrics().Value(metrics::kBackpressureSheds), 1);
  while (net.channel(1)->TryPop().has_value()) net.OnMessageProcessed();
  net.WaitQuiescent();
  EXPECT_TRUE(net.CheckInvariants().ok());
}

/// Drops the first `n` sends it sees, then delivers everything.
class DropNTimesInjector : public FaultInjector {
 public:
  explicit DropNTimesInjector(int n) : remaining_(n) {}
  Action OnSend(Message* /*msg*/) override {
    if (remaining_ > 0) {
      --remaining_;
      return Action::kDrop;
    }
    return Action::kDeliver;
  }

 private:
  int remaining_;
};

TEST(NetworkTest, DroppedSendIsRetransmittedUntilDelivered) {
  Network net(2, /*channel_capacity=*/0, /*retry_budget=*/8);
  DropNTimesInjector injector(3);
  net.set_fault_injector(&injector);
  ASSERT_TRUE(net.Send(OneTupleMsg(0, 1)).ok());
  // Three drops, three backed-off retransmissions, one delivery.
  EXPECT_EQ(net.channel(1)->size(), 1u);
  EXPECT_EQ(net.metrics().Value(metrics::kRetransmits), 3);
  EXPECT_GT(net.metrics().Value(metrics::kBackoffTicks), 0);
  EXPECT_EQ(net.metrics().Value(metrics::kUnreachable), 0);
  net.channel(1)->TryPop();
  net.OnMessageProcessed();
  net.WaitQuiescent();
  EXPECT_TRUE(net.CheckInvariants().ok());
}

TEST(NetworkTest, RetryBudgetBoundsRetransmissions) {
  Network net(2, /*channel_capacity=*/0, /*retry_budget=*/2);
  DropNTimesInjector injector(100);  // a link that never heals
  net.set_fault_injector(&injector);
  ASSERT_TRUE(net.Send(OneTupleMsg(0, 1)).ok());  // OK, like a crashed peer
  EXPECT_EQ(net.channel(1)->size(), 0u);
  EXPECT_EQ(net.metrics().Value(metrics::kRetransmits), 2);
  EXPECT_EQ(net.metrics().Value(metrics::kUnreachable), 1);
  net.WaitQuiescent();  // the abandoned message left no in-flight residue
  EXPECT_TRUE(net.CheckInvariants().ok());
}

/// Delivers everything and counts the data messages it sees. Every worker
/// thread sends, hence the lock.
class RecordingInjector : public FaultInjector {
 public:
  struct Counts {
    int64_t data_messages = 0;
    int64_t empty_payloads = 0;
    int64_t cross_worker_tuples = 0;
  };

  Action OnSend(Message* msg) override {
    if (msg->kind != Message::Kind::kData) return Action::kDeliver;
    std::lock_guard<std::mutex> lock(mutex_);
    ++counts_.data_messages;
    if (msg->deltas.empty()) ++counts_.empty_payloads;
    if (msg->from_worker >= 0 && msg->from_worker != msg->to_worker) {
      counts_.cross_worker_tuples += static_cast<int64_t>(msg->deltas.size());
    }
    return Action::kDeliver;
  }

  Counts counts() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return counts_;
  }

 private:
  mutable std::mutex mutex_;
  Counts counts_;
};

TEST(ClusterTest, EveryDataMessageCarriesItsPayloadInDeltas) {
  // The rehash sender, the receiving worker and the fault injector see one
  // message shape: a data message's payload is its `deltas`. So a reorder
  // window can permute every payload, and net.tuples_sent is exactly the
  // deltas that crossed between workers.
  GraphData graph = GenerateRmatGraph({});
  EngineConfig cfg4;
  cfg4.num_workers = 4;
  Cluster cluster(cfg4);
  ASSERT_TRUE(LoadGraphTables(&cluster, graph).ok());
  PageRankConfig cfg;
  ASSERT_TRUE(RegisterPageRankUdfs(cluster.udfs(), cfg).ok());
  auto plan = BuildPageRankDeltaPlan(cfg);
  ASSERT_TRUE(plan.ok());

  RecordingInjector recorder;
  cluster.network()->set_fault_injector(&recorder);
  auto run = cluster.Run(*plan);
  cluster.network()->set_fault_injector(nullptr);
  ASSERT_TRUE(run.ok()) << run.status().ToString();

  const RecordingInjector::Counts seen = recorder.counts();
  EXPECT_GT(seen.data_messages, 0);
  EXPECT_EQ(seen.empty_payloads, 0);
  EXPECT_GT(run->profile.tuples_sent, 0);
  EXPECT_EQ(seen.cross_worker_tuples, run->profile.tuples_sent);
}

TEST(ClusterTest, RehashDeliversItsLocalShareAsOneBatchPerInput) {
  // A rehash hands the rows its own worker owns downstream once per input
  // batch, not one row at a time: the group-by it feeds consumes at most
  // one batch per batch the rehash consumed on either port.
  GraphGenOptions opt;
  opt.num_vertices = 400;
  opt.num_edges = 2400;
  opt.seed = 11;
  GraphData graph = GenerateRmatGraph(opt);
  EngineConfig cfg4;
  cfg4.num_workers = 4;
  cfg4.replication = 3;
  Cluster cluster(cfg4);
  ASSERT_TRUE(LoadGraphTables(&cluster, graph).ok());
  PageRankConfig cfg;
  cfg.threshold = 1e-7;
  ASSERT_TRUE(RegisterPageRankUdfs(cluster.udfs(), cfg).ok());
  auto plan = BuildPageRankDeltaPlan(cfg);
  ASSERT_TRUE(plan.ok());

  int rehash = -1;
  int group_by = -1;
  for (const PlanNodeSpec& node : plan->nodes()) {
    if (node.type == PlanNodeSpec::Type::kRehash) rehash = node.id;
  }
  for (const PlanNodeSpec& node : plan->nodes()) {
    if (node.type == PlanNodeSpec::Type::kGroupBy && !node.inputs.empty() &&
        node.inputs[0].from == rehash) {
      group_by = node.id;
    }
  }
  ASSERT_GE(rehash, 0);
  ASSERT_GE(group_by, 0);

  auto run = cluster.Run(*plan);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  auto port_batches = [](const OperatorProfile& op, size_t port) {
    return op.ports.size() > port ? op.ports[port].batches : int64_t{0};
  };
  int workers_checked = 0;
  for (const OperatorProfile& gb : run->profile.operators) {
    if (gb.op_id != group_by) continue;
    for (const OperatorProfile& rh : run->profile.operators) {
      if (rh.op_id != rehash || rh.worker != gb.worker) continue;
      const int64_t rehash_inputs = port_batches(rh, 0) + port_batches(rh, 1);
      EXPECT_GT(port_batches(gb, 0), 0) << "worker " << gb.worker;
      EXPECT_LE(port_batches(gb, 0), rehash_inputs) << "worker " << gb.worker;
      ++workers_checked;
    }
  }
  EXPECT_EQ(workers_checked, 4);

  auto ranks = RanksFromState(run->fixpoint_state, graph.num_vertices);
  ASSERT_TRUE(ranks.ok()) << ranks.status().ToString();
  const std::vector<double> ref = ReferencePageRank(graph, 0.85, 1e-12, 500);
  ASSERT_EQ(ranks->size(), ref.size());
  for (size_t v = 0; v < ref.size(); ++v) {
    EXPECT_NEAR((*ranks)[v], ref[v], 1e-4) << "vertex " << v;
  }
}

TEST(ClusterTest, FusedPreAggregateCountsEveryJoinRow) {
  // The join folds its rows straight into its same-worker pre-aggregate
  // (DESIGN.md "Group-join"). Summed over workers, the pre-aggregate still
  // counts every row the join wrote, and both equal what the unfused
  // pipeline counted on this graph: 208,927 rows over 90 strata.
  GraphGenOptions opt;
  opt.num_vertices = 400;
  opt.num_edges = 2400;
  opt.seed = 16;
  GraphData graph = GenerateRmatGraph(opt);
  EngineConfig cfg4;
  cfg4.num_workers = 4;
  Cluster cluster(cfg4);
  ASSERT_TRUE(LoadGraphTables(&cluster, graph).ok());
  PageRankConfig cfg;
  cfg.threshold = 1e-7;
  ASSERT_TRUE(RegisterPageRankUdfs(cluster.udfs(), cfg).ok());
  auto plan = BuildPageRankDeltaPlan(cfg);
  ASSERT_TRUE(plan.ok());
  int join = -1;
  int pre = -1;
  for (const PlanNodeSpec& node : plan->nodes()) {
    if (node.type == PlanNodeSpec::Type::kHashJoin) join = node.id;
  }
  for (const PlanNodeSpec& node : plan->nodes()) {
    if (node.type == PlanNodeSpec::Type::kGroupBy && !node.inputs.empty() &&
        node.inputs[0].from == join) {
      pre = node.id;
    }
  }
  ASSERT_GE(join, 0);
  ASSERT_GE(pre, 0);

  auto run = cluster.Run(*plan);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  EXPECT_EQ(run->strata_executed, 90);
  int64_t emitted = 0;
  int64_t consumed = 0;
  for (const OperatorProfile& op : run->profile.operators) {
    if (op.op_id == join) emitted += op.deltas_emitted;
    if (op.op_id != pre) continue;
    ASSERT_FALSE(op.ports.empty());
    consumed += op.ports[0].tuples;
    // The fold runs inside the join's Consume, not the group-by's.
    EXPECT_EQ(op.ports[0].consume_nanos, 0) << "worker " << op.worker;
  }
  EXPECT_EQ(consumed, emitted);
  EXPECT_EQ(emitted, 208927);
}

TEST(ClusterTest, SinkKeepsTheMultiplicityOfCoalescedDuplicates) {
  // Identical rows are a bag, not a set: 40 distinct rows, each stored
  // twice, reach the sink as 80 rows, straight from the rehash or through
  // a join. A sink also adds one copy per unit of a +()'s weight
  // (SinkOpTest.WeightsAreMultiplicities).
  std::vector<Tuple> rows;
  for (int64_t i = 0; i < 40; ++i) {
    const Tuple row{Value(i), Value(i % 8)};
    rows.push_back(row);
    rows.push_back(row);
  }
  std::vector<Tuple> names;
  for (int64_t k = 0; k < 8; ++k) {
    names.push_back(Tuple{Value(k), Value("n" + std::to_string(k))});
  }
  Cluster cluster(SmallConfig());
  ASSERT_TRUE(cluster
                  .CreateTable("t",
                               Schema{{"id", ValueType::kInt},
                                      {"k", ValueType::kInt}},
                               0, rows)
                  .ok());
  ASSERT_TRUE(cluster
                  .CreateTable("names",
                               Schema{{"k", ValueType::kInt},
                                      {"name", ValueType::kString}},
                               0, names)
                  .ok());
  ScanOp::Params scan_t;
  scan_t.table = "t";
  RehashOp::Params by_k;
  by_k.key_fields = {1};

  PlanSpec direct;
  direct.AddSink(direct.AddRehash(direct.AddScan(scan_t), by_k));
  auto run = cluster.Run(direct);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  EXPECT_EQ(run->results.size(), 80u);

  PlanSpec joined;
  const int left = joined.AddRehash(joined.AddScan(scan_t), by_k);
  ScanOp::Params scan_names;
  scan_names.table = "names";
  RehashOp::Params by_name_k;
  by_name_k.key_fields = {0};
  const int right = joined.AddRehash(joined.AddScan(scan_names), by_name_k);
  HashJoinOp::Params jp;
  jp.left_keys = {1};
  jp.right_keys = {0};
  joined.AddSink(joined.AddHashJoin(left, right, jp));
  run = cluster.Run(joined);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  EXPECT_EQ(run->results.size(), 80u);
}

TEST(ClusterTest, MultiFailureLiveWorkersAfterPartialRestore) {
  // Two crashes and one restore within a single query: LiveWorkers()
  // reflects exactly the final membership, and the revived node's inbox
  // works again (a follow-up query uses all live nodes and matches the
  // reference answer).
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
  EXPECT_EQ(cluster.LiveWorkers(), (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(run->chaos.crashes, 2);
  EXPECT_EQ(run->chaos.restores, 1);

  auto dist = DistancesFromState(run->fixpoint_state, graph.num_vertices);
  ASSERT_TRUE(dist.ok());
  EXPECT_EQ(*dist, ReferenceSssp(graph, 1));

  // The restored worker participates in the next query (its inbox must
  // accept traffic again) and the answer still matches.
  auto run2 = cluster.Run(*plan);
  ASSERT_TRUE(run2.ok()) << run2.status().ToString();
  auto dist2 = DistancesFromState(run2->fixpoint_state, graph.num_vertices);
  ASSERT_TRUE(dist2.ok());
  EXPECT_EQ(*dist2, ReferenceSssp(graph, 1));
}

}  // namespace
}  // namespace rex
