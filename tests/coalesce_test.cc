// The per-key ℤ-set fold (exec/coalesce.h), and end to end where the
// engine folds a key's contributions: in pre-aggregation below the
// shuffle, while a shuffle routes rows unchanged.
//
// Equivalence strength follows each algorithm's determinism envelope: SSSP
// distances are integers folded through order-independent mins, so the
// pre-aggregation on/off comparison is exact; PageRank sums doubles whose
// cross-sender arrival order is already nondeterministic run to run, so
// on/off agrees within the same 1e-6 tolerance the chaos sweep uses. The
// ChaosSweepCoalesce test is re-run by `ctest -L chaos` with the full
// REX_CHAOS_SEEDS count (see tests/CMakeLists.txt).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "algos/pagerank.h"
#include "algos/reference.h"
#include "algos/sssp.h"
#include "common/rng.h"
#include "common/serde.h"
#include "exec/coalesce.h"
#include "sim/fault_schedule.h"

namespace rex {
namespace {

Delta I(int64_t k, int64_t v) { return Delta::Insert(Tuple{Value(k), Value(v)}); }
Delta D(int64_t k, int64_t v) { return Delta::Delete(Tuple{Value(k), Value(v)}); }
Delta R(int64_t k, int64_t old_v, int64_t new_v) {
  return Delta::Replace(Tuple{Value(k), Value(old_v)},
                        Tuple{Value(k), Value(new_v)});
}
Delta U(int64_t k, int64_t v) { return Delta::Update(Tuple{Value(k), Value(v)}); }

/// The fold keyed on field 0.
Result<DeltaVec> Fold(DeltaVec in) {
  return CoalesceDeltas(std::move(in), {0});
}

Delta W(int64_t k, int64_t v, int64_t w) {
  Delta d = Delta::Insert(Tuple{Value(k), Value(v)});
  d.weight = w;
  return d;
}

// ---------------------------------------------------------------- algebra --

// Regression: folding two near-INT64_MAX weights used to be signed-overflow
// UB in the ℤ-set accumulator; it must now surface InvalidArgument. Runs
// under REX_SANITIZE=undefined in CI, which would abort on the old code.
TEST(DeltaCoalescerTest, WeightOverflowSurfacesInvalidArgument) {
  auto res = Fold({W(1, 10, INT64_MAX - 1), W(1, 10, INT64_MAX - 1)});
  ASSERT_FALSE(res.ok());
  EXPECT_EQ(res.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(res.status().message().find("overflow"), std::string::npos);
}

TEST(DeltaCoalescerTest, NegativeWeightOverflowSurfacesInvalidArgument) {
  Delta d1 = D(2, 20);
  d1.weight = INT64_MAX;
  Delta d2 = D(2, 20);
  d2.weight = 2;
  auto res = Fold({d1, d2});
  ASSERT_FALSE(res.ok());
  EXPECT_EQ(res.status().code(), StatusCode::kInvalidArgument);
}

TEST(DeltaCoalescerTest, NearMaxWeightsThatCancelStillCoalesce) {
  Delta ins = W(3, 30, INT64_MAX - 1);
  Delta del = D(3, 30);
  del.weight = INT64_MAX - 1;
  DeltaVec out = *Fold({ins, del});
  EXPECT_TRUE(out.empty());
}

TEST(DeltaCoalescerTest, Int64MinWeightRejectedAtIngress) {
  Delta d = W(4, 40, INT64_MIN);
  auto res = Fold({d});
  ASSERT_FALSE(res.ok());
  EXPECT_EQ(res.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(res.status().message().find("INT64_MIN"), std::string::npos);
}

TEST(DeltaSerdeTest, Int64MinWeightRejectedOnDeserialize) {
  Delta d = W(5, 50, 7);
  BufferWriter w;
  w.PutDelta(d);
  std::string bytes = w.bytes();
  // Patch the serialized weight (i64 immediately after the head byte) to
  // INT64_MIN and expect the reader to refuse it.
  ASSERT_GE(bytes.size(), 9u);
  uint64_t min_bits = 0x8000000000000000ULL;
  for (int i = 0; i < 8; ++i) {
    bytes[1 + i] = static_cast<char>((min_bits >> (8 * i)) & 0xff);
  }
  BufferReader r(bytes.data(), bytes.size());
  auto res = r.GetDelta();
  ASSERT_FALSE(res.ok());
  EXPECT_EQ(res.status().code(), StatusCode::kParseError);
}

TEST(DeltaCoalescerTest, InsertThenDeleteAnnihilates) {
  DeltaVec out = *Fold({I(1, 10), D(1, 10)});
  EXPECT_TRUE(out.empty());
}

TEST(DeltaCoalescerTest, DeleteThenReinsertAnnihilates) {
  DeltaVec out = *Fold({D(1, 10), I(1, 10)});
  EXPECT_TRUE(out.empty());
}

TEST(DeltaCoalescerTest, DeleteThenInsertOfNewValueFoldsToReplace) {
  DeltaVec out = *Fold({D(1, 10), I(1, 11)});
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0], R(1, 10, 11));
}

TEST(DeltaCoalescerTest, FiveRevisionsFoldToOneDelta) {
  // A key revised five times ships one net delta, not five: a lagging
  // subscriber's missed epochs collapse the same way.
  DeltaVec out =
      *Fold({I(7, 0), R(7, 0, 1), R(7, 1, 2), R(7, 2, 3), R(7, 3, 4)});
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0], I(7, 4));
}

TEST(DeltaCoalescerTest, ReplaceChainsCompose) {
  DeltaVec out = *Fold({R(3, 1, 2), R(3, 2, 5), R(3, 5, 9)});
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0], R(3, 1, 9));
}

TEST(DeltaCoalescerTest, ReplaceRoundTripDropsEntirely) {
  DeltaVec out = *Fold({R(3, 1, 2), R(3, 2, 1)});
  EXPECT_TRUE(out.empty());
}

TEST(DeltaCoalescerTest, ReplaceThenDeleteFoldsToDeleteOfOriginal) {
  DeltaVec out = *Fold({R(4, 1, 2), D(4, 2)});
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0], D(4, 1));
}

TEST(DeltaCoalescerTest, InsertThenReplaceChainFoldsToInsertOfLast) {
  DeltaVec out = *Fold({I(5, 1), R(5, 1, 2)});
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0], I(5, 2));
}

TEST(DeltaCoalescerTest, ReplaceChainOutputKeepsComposedOldTuple) {
  // {D(k,a), I(k,b)} folds to ->(a→b); the survivor must carry a as its
  // old tuple (not empty), or downstream keyed state deletes nothing.
  DeltaVec out = *Fold({D(4, 1), I(4, 2), U(9, 9)});
  ASSERT_EQ(out.size(), 2u);
  ASSERT_EQ(out[0].op, DeltaOp::kReplace);
  EXPECT_EQ(out[0].old_tuple, (Tuple{Value(int64_t{4}), Value(int64_t{1})}));
  auto back = DeserializeDelta(SerializeDelta(out[0]));
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, out[0]);
}

TEST(DeltaCoalescerTest, UntouchedStreamComesBackVerbatim) {
  // δ() streams and cross-key traffic that nothing folds must keep their
  // exact order (downstream FP folds are order-sensitive).
  DeltaVec in = {U(1, 10), U(2, 20), U(1, 11), I(3, 30), U(2, 21)};
  DeltaVec expect = in;
  DeltaVec out = *Fold(std::move(in));
  EXPECT_EQ(out, expect);
}

TEST(DeltaCoalescerTest, ChainsAreIndependentPerKey) {
  DeltaVec out = *Fold({I(1, 10), I(2, 20), R(1, 10, 11), D(2, 20)});
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0], I(1, 11));
}

TEST(DeltaCoalescerTest, DedupeOffKeepsRepeats) {
  // The fold never dedupes: δ() is opaque, so an exact repeat survives.
  DeltaVec in = {U(1, 5), U(1, 5)};
  DeltaVec expect = in;
  DeltaVec out = *Fold(std::move(in));
  EXPECT_EQ(out, expect);
}

// ------------------------------------------------------ fold-free streams --

/// A stream no key repeats in, of deltas with weights 1-3: a mix of
/// +()/-()/δ(), or only +()/-(), or only δ(). Keyed streams (key = field 0)
/// draw distinct int or string keys; keyless streams draw distinct whole
/// tuples, so field 0 alone may repeat.
DeltaVec RandomFoldFreeStream(Rng* rng, bool keyed) {
  static constexpr DeltaOp kOps[] = {DeltaOp::kInsert, DeltaOp::kDelete,
                                     DeltaOp::kUpdate};
  const uint64_t mix = rng->NextBelow(3);
  const uint64_t first_op = mix == 2 ? 2 : 0;
  const uint64_t num_ops = mix == 0 ? 3 : mix == 1 ? 2 : 1;
  const uint64_t n = 1 + rng->NextBelow(200);
  const bool string_keys = rng->NextBelow(2) == 0;
  std::set<std::pair<uint64_t, uint64_t>> used;
  DeltaVec out;
  while (out.size() < n) {
    const uint64_t k = rng->NextBelow(keyed ? 4 * n : 8);
    const uint64_t v = rng->NextBelow(keyed ? 5 : 4 * n);
    if (!used.insert({k, keyed ? 0 : v}).second) continue;
    Value key = string_keys ? Value("k" + std::to_string(k))
                            : Value(static_cast<int64_t>(k));
    Delta d;
    d.op = kOps[first_op + rng->NextBelow(num_ops)];
    d.tuple = Tuple{std::move(key), Value(static_cast<int64_t>(v))};
    d.weight = 1 + static_cast<int64_t>(rng->NextBelow(3));
    out.push_back(std::move(d));
  }
  return out;
}

TEST(DeltaCoalescerTest, FoldFreeStreamsComeBackUntouched) {
  // Consolidating a ℤ-set whose keys are distinct is the identity: each
  // key's net is its one delta, rendered as itself in place.
  Rng rng(0xF01DF4EE);
  for (int trial = 0; trial < 40; ++trial) {
    const bool keyed = trial % 2 == 0;
    const DeltaVec in = RandomFoldFreeStream(&rng, keyed);
    const std::vector<int> keys =
        keyed ? std::vector<int>{0} : std::vector<int>{};
    auto out = CoalesceDeltas(in, keys);
    ASSERT_TRUE(out.ok()) << out.status().ToString();
    EXPECT_EQ(*out, in) << "trial " << trial;
  }
}

TEST(DeltaCoalescerTest, FoldFreeCheckFallsThroughToTheFold) {
  // One delta that breaks the fold-free shape (a repeated key, weight 0, a
  // negative weight, a replace) changes the stream, as each case pins.
  struct Case {
    const char* name;
    DeltaVec in;
    DeltaVec expect;
  };
  const std::vector<Case> cases = {
      // Key 1's second term renders at the key's first position.
      {"repeated key",
       {I(1, 10), I(2, 20), I(1, 11)},
       {I(1, 10), I(1, 11), I(2, 20)}},
      {"weight 0", {I(1, 10), W(2, 20, 0), I(3, 30)}, {I(1, 10), I(3, 30)}},
      {"negative-weight insert",
       {I(1, 10), W(2, 20, -2)},
       {I(1, 10),
        Delta{DeltaOp::kDelete, Tuple{Value(int64_t{2}), Value(int64_t{20})},
              {}, 2}}},
      // ->(t -> t) nets to nothing.
      {"replace", {I(2, 20), R(1, 10, 10)}, {I(2, 20)}},
  };
  for (const Case& c : cases) {
    auto out = Fold(c.in);
    ASSERT_TRUE(out.ok()) << c.name << ": " << out.status().ToString();
    EXPECT_EQ(*out, c.expect) << c.name;
  }
}

TEST(DeltaCoalescerTest, DeltaMissingItsKeyFieldShipsUnfolded) {
  // Keyed on field 1, a one-field tuple has no key to fold under: it ships
  // as-is while the in-range pair around it still annihilates.
  const Delta short_tuple = Delta::Insert(Tuple{Value(int64_t{7})});
  auto out = CoalesceDeltas({I(1, 10), short_tuple, D(1, 10)}, {1});
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_EQ(*out, DeltaVec{short_tuple});
}

// ----------------------------------------------------------- end to end --

// Pre-aggregation on vs off: the plan's pre-aggregate folds each key's
// contributions below the shuffle; without it, every join row crosses the
// shuffle unchanged and the final group-by folds it.

EngineConfig E2eConfig() {
  EngineConfig cfg;
  cfg.num_workers = 4;
  cfg.replication = 3;
  cfg.network_batch_size = 1024;
  cfg.verify_invariants = true;  // Δ-conservation etc. must hold either way
  return cfg;
}

GraphData DenseGraph(uint64_t seed = 23) {
  GraphGenOptions opt;
  opt.num_vertices = 120;
  opt.num_edges = 1800;  // dense: many same-destination contributions
  opt.seed = seed;
  return GenerateRmatGraph(opt);
}

struct E2eRun {
  std::vector<int64_t> distances;
  std::vector<double> ranks;
  int strata = 0;
  int64_t tuples_sent = 0;
  int64_t bytes_sent = 0;
  /// Summed over workers: rows the join wrote, and rows the group-by behind
  /// the shuffle took on its input port.
  int64_t join_rows = 0;
  int64_t shuffled_rows = 0;
};

/// Fills `out`'s counts from `run` of `plan`.
void CountRun(const PlanSpec& plan, const QueryRunResult& run, E2eRun* out) {
  out->strata = run.strata_executed;
  out->tuples_sent = run.profile.tuples_sent;
  out->bytes_sent = run.total_bytes_sent;
  int join = -1;
  int rehash = -1;
  for (const PlanNodeSpec& node : plan.nodes()) {
    if (node.type == PlanNodeSpec::Type::kHashJoin) join = node.id;
    if (node.type == PlanNodeSpec::Type::kRehash) rehash = node.id;
  }
  int fin = -1;
  for (const PlanNodeSpec& node : plan.nodes()) {
    if (node.type == PlanNodeSpec::Type::kGroupBy && !node.inputs.empty() &&
        node.inputs[0].from == rehash) {
      fin = node.id;
    }
  }
  ASSERT_GE(join, 0);
  ASSERT_GE(fin, 0);
  for (const OperatorProfile& op : run.profile.operators) {
    if (op.op_id == join) out->join_rows += op.deltas_emitted;
    if (op.op_id == fin && !op.ports.empty()) {
      out->shuffled_rows += op.ports[0].tuples;
    }
  }
}

E2eRun RunSssp(const GraphData& graph, bool preaggregate,
               const FaultSchedule& faults = FaultSchedule{}) {
  Cluster cluster(E2eConfig());
  EXPECT_TRUE(LoadGraphTables(&cluster, graph).ok());
  SsspConfig cfg;
  cfg.source = 1;
  cfg.preaggregate = preaggregate;
  EXPECT_TRUE(RegisterSsspUdfs(cluster.udfs(), cfg).ok());
  auto plan = BuildSsspDeltaPlan(cfg);
  EXPECT_TRUE(plan.ok()) << plan.status().ToString();
  QueryOptions options;
  options.faults = faults;
  auto run = cluster.Run(*plan, options);
  EXPECT_TRUE(run.ok()) << run.status().ToString();
  E2eRun out;
  if (!run.ok()) return out;
  auto dist = DistancesFromState(run->fixpoint_state, graph.num_vertices);
  EXPECT_TRUE(dist.ok());
  if (dist.ok()) out.distances = *dist;
  CountRun(*plan, *run, &out);
  return out;
}

E2eRun RunPageRank(const GraphData& graph, bool preaggregate) {
  Cluster cluster(E2eConfig());
  EXPECT_TRUE(LoadGraphTables(&cluster, graph).ok());
  PageRankConfig cfg;
  cfg.threshold = 1e-6;
  cfg.preaggregate = preaggregate;
  EXPECT_TRUE(RegisterPageRankUdfs(cluster.udfs(), cfg).ok());
  auto plan = BuildPageRankDeltaPlan(cfg);
  EXPECT_TRUE(plan.ok()) << plan.status().ToString();
  auto run = cluster.Run(*plan);
  EXPECT_TRUE(run.ok()) << run.status().ToString();
  E2eRun out;
  if (!run.ok()) return out;
  auto ranks = RanksFromState(run->fixpoint_state, graph.num_vertices);
  EXPECT_TRUE(ranks.ok());
  if (ranks.ok()) out.ranks = *ranks;
  CountRun(*plan, *run, &out);
  return out;
}

TEST(CoalesceE2E, SsspIdenticalOnVsOffAndShipsLess) {
  GraphData graph = DenseGraph();
  E2eRun on = RunSssp(graph, /*preaggregate=*/true);
  E2eRun off = RunSssp(graph, /*preaggregate=*/false);
  // Integer mins are order- and multiplicity-insensitive: exact equality.
  EXPECT_EQ(on.distances, off.distances);
  EXPECT_EQ(on.distances, ReferenceSssp(graph, 1));
  EXPECT_EQ(on.strata, off.strata);
  EXPECT_LT(on.tuples_sent, off.tuples_sent);
  EXPECT_LT(on.bytes_sent, off.bytes_sent);
}

TEST(CoalesceE2E, PageRankMatchesOnVsOffAndShipsLess) {
  GraphData graph = DenseGraph(31);
  E2eRun on = RunPageRank(graph, /*preaggregate=*/true);
  E2eRun off = RunPageRank(graph, /*preaggregate=*/false);
  ASSERT_EQ(on.ranks.size(), off.ranks.size());
  for (size_t i = 0; i < on.ranks.size(); ++i) {
    // Same tolerance the chaos sweep uses for PageRank: cross-sender FP
    // summation order is nondeterministic run to run either way.
    EXPECT_NEAR(on.ranks[i], off.ranks[i], 1e-6) << "vertex " << i;
  }
  EXPECT_LT(on.tuples_sent, off.tuples_sent);
  EXPECT_LT(on.bytes_sent, off.bytes_sent);
}

TEST(ShuffleE2E, RoutesEveryJoinRowWithoutPreAggregation) {
  // A shuffle neither drops, merges nor packs rows: with pre-aggregation
  // off, the group-by behind it takes exactly the rows the join wrote,
  // repeated distance candidates and same-target PageRank shares included.
  GraphData graph = DenseGraph();
  E2eRun sssp = RunSssp(graph, /*preaggregate=*/false);
  EXPECT_GT(sssp.join_rows, 0);
  EXPECT_EQ(sssp.shuffled_rows, sssp.join_rows);
  E2eRun pagerank = RunPageRank(DenseGraph(31), /*preaggregate=*/false);
  EXPECT_GT(pagerank.join_rows, 0);
  EXPECT_EQ(pagerank.shuffled_rows, pagerank.join_rows);
}

// Re-run with the full seed pool by `ctest -L chaos` (the chaos_sweep
// entry's --gtest_filter=ChaosSweep* picks this up).
TEST(ChaosSweepCoalesceTest, OnAndOffConvergeIdenticallyUnderFaults) {
  // The pre-aggregation-off SSSP plan ships every distance candidate
  // through the shuffle; under every seeded fault schedule it must still
  // give the reference distances, as the pre-aggregated plan does.
  // Larger and sparser than the DenseGraph runs: more strata before
  // convergence leaves room to schedule crashes.
  GraphGenOptions opt;
  opt.num_vertices = 400;
  opt.num_edges = 1600;
  opt.seed = 47;
  GraphData graph = GenerateRmatGraph(opt);
  const std::vector<int64_t> ref = ReferenceSssp(graph, 1);
  // Unfaulted reference run to learn the convergence stratum: crashes must
  // be scheduled well before it or end-of-run schedule validation rejects
  // the run (same recipe as the main chaos sweep).
  E2eRun baseline = RunSssp(graph, /*preaggregate=*/false);
  ASSERT_EQ(baseline.distances, ref);
  ChaosProfile profile;
  profile.max_crash_stratum = std::max(0, std::min(3, baseline.strata - 5));
  const char* env = std::getenv("REX_CHAOS_SEEDS");
  const int seeds = env != nullptr && std::atoi(env) > 0 ? std::atoi(env) : 2;
  for (int i = 0; i < seeds; ++i) {
    const uint64_t seed = 4242u + static_cast<uint64_t>(i);
    FaultSchedule schedule = MakeChaosSchedule(seed, profile);
    SCOPED_TRACE("seed " + std::to_string(seed) + ": " +
                 schedule.ToString());
    E2eRun off = RunSssp(graph, /*preaggregate=*/false, schedule);
    E2eRun on = RunSssp(graph, /*preaggregate=*/true, schedule);
    EXPECT_EQ(off.distances, ref);
    EXPECT_EQ(on.distances, ref);
  }
}

}  // namespace
}  // namespace rex
