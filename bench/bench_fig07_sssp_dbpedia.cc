// Figure 7: recursive behavior for shortest path on the DBPedia-like
// graph. Hadoop/HaLoop use relation-level Δᵢ (frontier) updates and run 6
// iterations (the paper's 99%-reachability cut); REX Δ runs ALL iterations
// to full reachability, with the post-frontier tail costing almost nothing
// (§6.3 "Improved Accuracy").
#include "workloads.h"

namespace rexbench {
namespace {

constexpr int kWorkers = 4;
constexpr int kCutIterations = 6;
constexpr int kFullIterations = 75;

GraphData& Graph() {
  static GraphData graph = GenerateDbpediaLike(DbpediaScale());
  return graph;
}

void BM_HadoopLB(benchmark::State& state) {
  for (auto _ : state) {
    auto r = RunMrSsspSeries(Graph(), false, kWorkers, kCutIterations);
    if (r.ok()) EmitRecursiveSeries("fig7", "HadoopLB", *r);
  }
}
BENCHMARK(BM_HadoopLB)->Unit(benchmark::kMillisecond)->Iterations(1);

void BM_HaLoopLB(benchmark::State& state) {
  for (auto _ : state) {
    auto r = RunMrSsspSeries(Graph(), true, kWorkers, kCutIterations);
    if (r.ok()) EmitRecursiveSeries("fig7", "HaLoopLB", *r);
  }
}
BENCHMARK(BM_HaLoopLB)->Unit(benchmark::kMillisecond)->Iterations(1);

void BM_RexNoDelta(benchmark::State& state) {
  for (auto _ : state) {
    auto r = RunRexSssp(Graph(), /*delta=*/false, kWorkers, kCutIterations);
    if (r.ok()) EmitRecursiveSeries("fig7", "REXnoDelta", *r);
  }
}
BENCHMARK(BM_RexNoDelta)->Unit(benchmark::kMillisecond)->Iterations(1);

void BM_RexDelta(benchmark::State& state) {
  for (auto _ : state) {
    auto r = RunRexSssp(Graph(), /*delta=*/true, kWorkers, kFullIterations);
    if (r.ok()) {
      EmitRecursiveSeries("fig7", "REXdelta", *r);
      // The accuracy point: total time of iterations 7..end.
      double tail = 0;
      for (size_t i = kCutIterations;
           i < r->per_iteration_seconds.size(); ++i) {
        tail += r->per_iteration_seconds[i];
      }
      Row("fig7", "REXdelta/tail7+", static_cast<double>(r->iterations),
          tail, "s");
    }
  }
}
BENCHMARK(BM_RexDelta)->Unit(benchmark::kMillisecond)->Iterations(1);

}  // namespace
}  // namespace rexbench

int main(int argc, char** argv) {
  rexbench::PrintHeader("Figure 7",
                        "Shortest path (DBPedia-like) — cumulative & "
                        "per-iteration; REX Δ runs to full reachability");
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  rexbench::WriteBenchReport("fig07");
  return 0;
}
