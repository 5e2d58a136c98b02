// Shared workload runners for the figure benchmarks: each runs one
// (platform, algorithm) configuration and returns per-iteration timings
// plus communication volume.
#ifndef REX_BENCH_WORKLOADS_H_
#define REX_BENCH_WORKLOADS_H_

#include <memory>
#include <utility>
#include <vector>

#include "algos/kmeans.h"
#include "algos/pagerank.h"
#include "algos/sssp.h"
#include "bench_common.h"
#include "mapreduce/mr_jobs.h"
#include "wrap/hadoop_wrap.h"

namespace rexbench {

using namespace rex;  // NOLINT: bench-local convenience

struct SeriesResult {
  std::vector<double> per_iteration_seconds;
  double total_seconds = 0;
  int64_t bytes_sent = 0;  // network/shuffle volume
  int iterations = 0;
  /// The run's structured profile (assembled by the driver for REX runs;
  /// synthesized from iteration reports for MapReduce runs).
  QueryProfile profile;
};

enum class RexMode { kDelta, kNoDelta, kWrap };

inline EngineConfig BenchEngineConfig(int workers) {
  EngineConfig cfg;
  cfg.num_workers = workers;
  cfg.replication = 3;
  return cfg;
}

inline MrConfig BenchMrConfig(int workers) {
  MrConfig cfg;
  cfg.num_map_tasks = workers;
  cfg.num_reduce_tasks = workers;
  cfg.parallelism = workers;
  cfg.startup_cost_ms = 20.0;
  return cfg;
}

/// REX PageRank in any of the three configurations of §6. `iterations`
/// bounds wrap/no-delta runs (delta terminates implicitly but is bounded
/// too, for the fixed-x-axis figures).
inline Result<SeriesResult> RunRexPageRank(const GraphData& graph,
                                           RexMode mode, int workers,
                                           int iterations) {
  Cluster cluster(BenchEngineConfig(workers));
  PageRankConfig cfg;
  cfg.threshold = 0.01;  // §6: "changed by more than 1%"
  cfg.relative = true;
  PlanSpec plan;
  if (mode == RexMode::kWrap) {
    REX_RETURN_NOT_OK(SetupWrapPageRank(&cluster, graph));
    REX_ASSIGN_OR_RETURN(plan, BuildWrapPageRankPlan());
  } else {
    REX_RETURN_NOT_OK(LoadGraphTables(&cluster, graph));
    REX_RETURN_NOT_OK(RegisterPageRankUdfs(cluster.udfs(), cfg));
    if (mode == RexMode::kDelta) {
      REX_ASSIGN_OR_RETURN(plan, BuildPageRankDeltaPlan(cfg));
    } else {
      REX_ASSIGN_OR_RETURN(plan, BuildPageRankFullPlan(cfg));
    }
  }
  QueryOptions options;
  if (mode == RexMode::kDelta) {
    // Delta terminates implicitly once nothing propagates (bounded for
    // the figure's fixed x-axis).
    options.max_strata = iterations + 1;
  } else {
    // "No-delta and wrap do not perform convergence testing" (§6):
    // fixed iteration count.
    options.terminate = [iterations](int stratum, const VoteStats&) {
      return stratum >= iterations;
    };
  }
  REX_ASSIGN_OR_RETURN(QueryRunResult run, cluster.Run(plan, options));
  SeriesResult out;
  for (const StratumReport& s : run.strata) {
    if (s.stratum == 0) continue;  // stratum 0 is the load/base step
    out.per_iteration_seconds.push_back(s.seconds);
  }
  out.total_seconds = run.total_seconds;
  out.bytes_sent = run.total_bytes_sent;
  out.iterations = static_cast<int>(out.per_iteration_seconds.size());
  out.profile = std::move(run.profile);
  return out;
}

inline Result<SeriesResult> RunRexSssp(const GraphData& graph, bool delta,
                                       int workers, int max_iterations) {
  Cluster cluster(BenchEngineConfig(workers));
  REX_RETURN_NOT_OK(LoadGraphTables(&cluster, graph));
  SsspConfig cfg;  // source vertex 0
  REX_RETURN_NOT_OK(RegisterSsspUdfs(cluster.udfs(), cfg));
  PlanSpec plan;
  if (delta) {
    REX_ASSIGN_OR_RETURN(plan, BuildSsspDeltaPlan(cfg));
  } else {
    REX_ASSIGN_OR_RETURN(plan, BuildSsspFullPlan(cfg));
  }
  QueryOptions options;
  options.max_strata = max_iterations + 1;
  REX_ASSIGN_OR_RETURN(QueryRunResult run, cluster.Run(plan, options));
  SeriesResult out;
  for (const StratumReport& s : run.strata) {
    if (s.stratum == 0) continue;
    out.per_iteration_seconds.push_back(s.seconds);
  }
  out.total_seconds = run.total_seconds;
  out.bytes_sent = run.total_bytes_sent;
  out.iterations = static_cast<int>(out.per_iteration_seconds.size());
  out.profile = std::move(run.profile);
  return out;
}

inline SeriesResult FromMrIterations(
    const std::vector<MrIterationReport>& iterations, double total,
    int64_t shuffle_bytes) {
  SeriesResult out;
  for (const MrIterationReport& it : iterations) {
    out.per_iteration_seconds.push_back(it.seconds);
  }
  out.total_seconds = total;
  out.bytes_sent = shuffle_bytes;
  out.iterations = static_cast<int>(iterations.size());
  // Synthesized minimal profile: MapReduce runs have no REX driver, but
  // the bench report keeps per-iteration wall time comparable.
  out.profile.total_seconds = total;
  out.profile.strata_executed = out.iterations;
  for (size_t i = 0; i < iterations.size(); ++i) {
    StratumProfile s;
    s.stratum = static_cast<int>(i);
    s.seconds = iterations[i].seconds;
    out.profile.strata.push_back(s);
  }
  return out;
}

inline Result<SeriesResult> RunMrPageRankSeries(const GraphData& graph,
                                                bool haloop, int workers,
                                                int iterations) {
  MetricsRegistry registry;
  MrPageRankOptions options;
  options.haloop = haloop;
  options.iterations = iterations;
  options.config = BenchMrConfig(workers);
  options.config.metrics = &registry;
  REX_ASSIGN_OR_RETURN(MrPageRankRun run, RunMrPageRank(graph, options));
  return FromMrIterations(run.iterations, run.total_seconds,
                          registry.Value(rex::metrics::kShuffleBytes));
}

inline Result<SeriesResult> RunMrSsspSeries(const GraphData& graph,
                                            bool haloop, int workers,
                                            int iterations,
                                            int64_t source = 0) {
  MetricsRegistry registry;
  MrSsspOptions options;
  options.haloop = haloop;
  options.iterations = iterations;
  options.source = source;
  options.config = BenchMrConfig(workers);
  options.config.metrics = &registry;
  REX_ASSIGN_OR_RETURN(MrSsspRun run, RunMrSssp(graph, options));
  return FromMrIterations(run.iterations, run.total_seconds,
                          registry.Value(rex::metrics::kShuffleBytes));
}

/// Emits cumulative + per-iteration rows for one series of a recursive
/// figure (the paper's (a)/(b) subfigure pair).
inline void EmitRecursiveSeries(const char* figure,
                                const std::string& series,
                                const SeriesResult& result) {
  RecordProfile(series, result.profile);
  double cumulative = 0;
  for (size_t i = 0; i < result.per_iteration_seconds.size(); ++i) {
    cumulative += result.per_iteration_seconds[i];
    Row(figure, series + "/cumulative", static_cast<double>(i + 1),
        cumulative, "s");
  }
  for (size_t i = 0; i < result.per_iteration_seconds.size(); ++i) {
    Row(figure, series + "/per-iter", static_cast<double>(i + 1),
        result.per_iteration_seconds[i], "s");
  }
}

}  // namespace rexbench

#endif  // REX_BENCH_WORKLOADS_H_
