// Figure 12: recovery from node failure — shortest path on the
// DBPedia-like graph with one worker killed before iteration k (k swept
// along the x-axis). Series: Restart (discard everything), Incremental
// (resume from the replicated Δ-set checkpoints, §4.3), and the
// no-failure baseline.
#include "workloads.h"

namespace rexbench {
namespace {

constexpr int kWorkers = 4;

GraphData& Graph() {
  static GraphData graph = GenerateDbpediaLike(DbpediaScale());
  return graph;
}

Result<double> RunWithFailure(const std::string& label,
                              FailureInjection failure) {
  Cluster cluster(BenchEngineConfig(kWorkers));
  REX_RETURN_NOT_OK(LoadGraphTables(&cluster, Graph()));
  SsspConfig cfg;
  REX_RETURN_NOT_OK(RegisterSsspUdfs(cluster.udfs(), cfg));
  REX_ASSIGN_OR_RETURN(PlanSpec plan, BuildSsspDeltaPlan(cfg));
  QueryOptions options;
  options.failure = failure;
  REX_ASSIGN_OR_RETURN(QueryRunResult run, cluster.Run(plan, options));
  // The replicated checkpoint volume the recovery resumes from (§4.3).
  Row("fig12", label + "/ckpt_raw_mb", failure.before_stratum,
      static_cast<double>(run.profile.ckpt_raw_bytes) / (1024.0 * 1024.0),
      "MB");
  RecordProfile(label, std::move(run.profile));
  return run.total_seconds;
}

void BM_Recovery(benchmark::State& state) {
  for (auto _ : state) {
    auto baseline = RunWithFailure("No-failure", FailureInjection{});
    if (!baseline.ok()) return;

    // Probe the query's iteration count to size the sweep.
    int max_k = 20;
    {
      auto probe = RunRexSssp(Graph(), true, kWorkers, 100);
      if (probe.ok()) max_k = std::min(20, probe->iterations);
    }
    for (int k = 1; k <= max_k; k += (k < 5 ? 1 : 3)) {
      Row("fig12", "No-failure", k, *baseline, "s");
      FailureInjection restart;
      restart.worker = 1;
      restart.before_stratum = k;
      restart.strategy = RecoveryStrategy::kRestart;
      auto r = RunWithFailure("Restart/k=" + std::to_string(k), restart);
      Row("fig12", "Restart", k, r.ok() ? *r : -1, "s");

      FailureInjection incremental = restart;
      incremental.strategy = RecoveryStrategy::kIncremental;
      auto i = RunWithFailure("Incremental/k=" + std::to_string(k),
                              incremental);
      Row("fig12", "Incremental", k, i.ok() ? *i : -1, "s");
    }
  }
}
BENCHMARK(BM_Recovery)->Unit(benchmark::kMillisecond)->Iterations(1);

}  // namespace
}  // namespace rexbench

int main(int argc, char** argv) {
  rexbench::PrintHeader(
      "Figure 12", "Recovery from node failure (shortest path, rf=3)");
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  rexbench::WriteBenchReport("fig12");
  return 0;
}
