// Figure 6: recursive behavior for PageRank on the DBPedia-like graph.
// Series: Hadoop LB, HaLoop LB, REX wrap, REX no-Δ, REX Δ; (a) cumulative
// runtime and (b) runtime per iteration.
#include "workloads.h"

namespace rexbench {
namespace {

constexpr int kWorkers = 4;
constexpr int kIterations = 26;  // the paper plots 26 DBPedia iterations

GraphData& Graph() {
  static GraphData graph = GenerateDbpediaLike(DbpediaScale());
  return graph;
}

void BM_HadoopLB(benchmark::State& state) {
  for (auto _ : state) {
    auto r = RunMrPageRankSeries(Graph(), /*haloop=*/false, kWorkers,
                                 kIterations);
    if (r.ok()) EmitRecursiveSeries("fig6", "HadoopLB", *r);
  }
}
BENCHMARK(BM_HadoopLB)->Unit(benchmark::kMillisecond)->Iterations(1);

void BM_HaLoopLB(benchmark::State& state) {
  for (auto _ : state) {
    auto r = RunMrPageRankSeries(Graph(), /*haloop=*/true, kWorkers,
                                 kIterations);
    if (r.ok()) EmitRecursiveSeries("fig6", "HaLoopLB", *r);
  }
}
BENCHMARK(BM_HaLoopLB)->Unit(benchmark::kMillisecond)->Iterations(1);

void BM_RexWrap(benchmark::State& state) {
  for (auto _ : state) {
    auto r = RunRexPageRank(Graph(), RexMode::kWrap, kWorkers, kIterations);
    if (r.ok()) EmitRecursiveSeries("fig6", "REXwrap", *r);
  }
}
BENCHMARK(BM_RexWrap)->Unit(benchmark::kMillisecond)->Iterations(1);

void BM_RexNoDelta(benchmark::State& state) {
  for (auto _ : state) {
    auto r = RunRexPageRank(Graph(), RexMode::kNoDelta, kWorkers,
                            kIterations);
    if (r.ok()) EmitRecursiveSeries("fig6", "REXnoDelta", *r);
  }
}
BENCHMARK(BM_RexNoDelta)->Unit(benchmark::kMillisecond)->Iterations(1);

void BM_RexDelta(benchmark::State& state) {
  for (auto _ : state) {
    auto r = RunRexPageRank(Graph(), RexMode::kDelta, kWorkers, kIterations);
    if (r.ok()) EmitRecursiveSeries("fig6", "REXdelta", *r);
  }
}
BENCHMARK(BM_RexDelta)->Unit(benchmark::kMillisecond)->Iterations(1);

}  // namespace
}  // namespace rexbench

int main(int argc, char** argv) {
  rexbench::PrintHeader(
      "Figure 6", "PageRank (DBPedia-like) — cumulative & per-iteration");
  rexbench::Note("graph: " + std::to_string(rexbench::Graph().num_vertices) +
                 " vertices, " +
                 std::to_string(rexbench::Graph().edges.size()) + " edges");
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  rexbench::WriteBenchReport("fig06");
  return 0;
}
