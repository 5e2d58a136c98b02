// Figure 11: average network bandwidth per node during shortest-path and
// PageRank on the Twitter-like graph — REX Δ vs HaLoop LB vs Hadoop LB.
// REX bytes come from the interconnect's per-sender meter; Hadoop/HaLoop
// bytes are the total shuffled volume, both divided by node count and
// query duration exactly as §6.5 describes.
#include "workloads.h"

namespace rexbench {
namespace {

constexpr int kWorkers = 4;

GraphData& Graph() {
  static GraphData graph = GenerateTwitterLike(TwitterScale());
  return graph;
}

double MbPerSecPerNode(int64_t bytes, double seconds) {
  if (seconds <= 0) return 0;
  return static_cast<double>(bytes) / (1024.0 * 1024.0) / kWorkers /
         seconds;
}

/// §6.5's headline for bandwidth-limited environments is the data volume
/// itself; the MB/s rate also depends on the (very different) query
/// durations, so both are reported.
void EmitBoth(const char* figure, const std::string& series, int64_t bytes,
              double seconds) {
  Row(figure, series, 0, MbPerSecPerNode(bytes, seconds), "MB/s");
  Row(figure, series + "/total", 0,
      static_cast<double>(bytes) / (1024.0 * 1024.0), "MB");
}

void BM_PageRankBandwidth(benchmark::State& state) {
  for (auto _ : state) {
    auto rex = RunRexPageRank(Graph(), RexMode::kDelta, kWorkers, 31);
    if (rex.ok()) {
      RecordProfile("pagerank/REXdelta", rex->profile);
      EmitBoth("fig11b", "REXdelta", rex->bytes_sent, rex->total_seconds);
    }
    auto haloop = RunMrPageRankSeries(Graph(), true, kWorkers, 31);
    if (haloop.ok()) {
      RecordProfile("pagerank/HaLoopLB", haloop->profile);
      EmitBoth("fig11b", "HaLoopLB", haloop->bytes_sent,
               haloop->total_seconds);
    }
    auto hadoop = RunMrPageRankSeries(Graph(), false, kWorkers, 31);
    if (hadoop.ok()) {
      RecordProfile("pagerank/HadoopLB", hadoop->profile);
      EmitBoth("fig11b", "HadoopLB", hadoop->bytes_sent,
               hadoop->total_seconds);
    }
  }
}
BENCHMARK(BM_PageRankBandwidth)->Unit(benchmark::kMillisecond)->Iterations(1);

void BM_SsspBandwidth(benchmark::State& state) {
  for (auto _ : state) {
    auto rex = RunRexSssp(Graph(), /*delta=*/true, kWorkers, 15);
    if (rex.ok()) {
      RecordProfile("sssp/REXdelta", rex->profile);
      EmitBoth("fig11a", "REXdelta", rex->bytes_sent, rex->total_seconds);
    }
    auto haloop = RunMrSsspSeries(Graph(), true, kWorkers, 15);
    if (haloop.ok()) {
      RecordProfile("sssp/HaLoopLB", haloop->profile);
      EmitBoth("fig11a", "HaLoopLB", haloop->bytes_sent,
               haloop->total_seconds);
    }
    auto hadoop = RunMrSsspSeries(Graph(), false, kWorkers, 15);
    if (hadoop.ok()) {
      RecordProfile("sssp/HadoopLB", hadoop->profile);
      EmitBoth("fig11a", "HadoopLB", hadoop->bytes_sent,
               hadoop->total_seconds);
    }
  }
}
BENCHMARK(BM_SsspBandwidth)->Unit(benchmark::kMillisecond)->Iterations(1);

}  // namespace
}  // namespace rexbench

int main(int argc, char** argv) {
  rexbench::PrintHeader("Figure 11",
                        "Average bandwidth per node (Twitter-like)");
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  rexbench::WriteBenchReport("fig11");
  return 0;
}
