// rex_perfbench: runs one workload as a closed loop for a fixed time and
// prints its end-to-end metrics (or, traced, its per-layer ledger) with the
// result JSON as the last line of standard output.
//
//   rex_perfbench --workload <pagerank|sssp|serving|recovery> --seed <n>
//                 --seconds <s> --trace <0|1> [--trace-out <path>]
//
// A run is a sequence of rounds. Each round builds a fresh cluster (its
// set-up time is one setup_s sample), then runs kOpsPerRound measured ops.
// Rounds repeat until --seconds of measured time have passed and at least
// kMinRounds ran. On a shared host the hypervisor at times runs other
// guests on this machine's CPUs for seconds to minutes ("steal" time),
// which slows every op by up to half. So the end-to-end metrics come from
// the kCountedRounds rounds with the least stolen CPU time: each metric is
// the median over those rounds of the round's own figure. They rest on 100
// samples, and 10 of them lie beyond their round's p90.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "harness.h"
#include "workloads.h"

namespace perfbench {
namespace {

constexpr int kOpsPerRound = 20;
constexpr int kCountedRounds = 5;
constexpr int kMinRounds = 6;
/// No new round starts once the process is this old (the whole run must
/// end within three minutes).
constexpr double kRoundDeadlineS = 120;

struct Metric {
  const char* name;
  const char* unit;
};

constexpr Metric kEndToEnd[] = {
    {"op_ms_p50", "ms"},   {"op_ms_p90", "ms"}, {"ops_per_s", "1/s"},
    {"peak_rss_mb", "MB"}, {"setup_s", "s"},
};

/// The traced run's ledger. Names follow the layer (module) they measure.
constexpr Metric kPerLayer[] = {
    {"data.generate_ms", "ms"},
    {"storage.load_ms", "ms"},
    {"serve.register_ms", "ms"},
    {"rql.compile_ms", "ms"},
    {"cluster.run_ms", "ms"},
    {"cluster.strata", "count"},
    {"cluster.stratum_ms_p50", "ms"},
    {"cluster.worker_idle_frac", "ratio"},
    {"cluster.recovery_ms", "ms"},
    {"cluster.detection_ticks", "count"},
    {"cluster.revive_ms", "ms"},
    {"exec.scan.incl_ms", "ms"},
    {"exec.project.incl_ms", "ms"},
    {"exec.fixpoint.incl_ms", "ms"},
    {"exec.hashJoin.incl_ms", "ms"},
    {"exec.groupBy.incl_ms", "ms"},
    {"exec.rehash.incl_ms", "ms"},
    {"exec.delta_tuples", "count"},
    {"exec.deltas_coalesced", "count"},
    {"exec.coalesce_bytes_saved", "B"},
    {"exec.batch_row_frac", "ratio"},
    {"worker.dispatch_ms", "ms"},
    {"worker.dispatch_skew", "ratio"},
    {"net.tuples_sent", "count"},
    {"net.bytes_sent", "B"},
    {"net.messages_sent", "count"},
    {"net.bytes_skew", "ratio"},
    {"net.run_compress_ratio", "ratio"},
    {"net.backpressure_blocks", "count"},
    {"net.backpressure_sheds", "count"},
    {"net.retransmits", "count"},
    {"storage.ckpt_raw_bytes", "B"},
    {"storage.ckpt_stored_bytes", "B"},
    {"storage.ckpt_store_bytes", "B"},
    {"storage.refetch_bytes", "B"},
    {"storage.ckpt_repairs", "count"},
    {"storage.ckpt_read_ms", "ms"},
    {"storage.ckpt_history_bytes", "B"},
    {"serve.apply_ms", "ms"},
    {"serve.poll_ms", "ms"},
    {"serve.push_ms", "ms"},
    {"serve.snapshot_ms", "ms"},
    {"serve.diff_rows", "count"},
    {"serve.sheds", "count"},
    {"serve.failovers", "count"},
    {"algos.ivm_build_ms", "ms"},
    {"serve.epoch_strata.pagerank", "count"},
    {"serve.epoch_strata.sssp", "count"},
    {"serve.epoch_tuples.pagerank", "count"},
    {"serve.epoch_tuples.sssp", "count"},
    {"serve.work_ratio", "ratio"},
    {"trace.overhead_ms", "ms"},
};

/// Set-up spans that become per-layer metrics (one sample per round).
constexpr const char* kSetupLayers[] = {"data.generate_ms", "storage.load_ms",
                                        "serve.register_ms"};

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
  std::string trace_out;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  bool have_workload = false, have_seed = false, have_seconds = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = end != value.c_str() && *end == '\0';
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
      have_seconds = end != value.c_str() && *end == '\0' && args->seconds > 0;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return false;
      args->trace = value == "1";
    } else if (flag == "--trace-out") {
      args->trace_out = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && have_workload && have_seed && have_seconds;
}

int Run(const Args& args) {
  Context ctx;
  ctx.seed = args.seed;
  std::unique_ptr<Workload> workload = MakeWorkload(args.workload, &ctx);
  if (workload == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  const Clock::time_point start = Clock::now();
  struct Round {
    double setup_s, p50_ms, p90_ms, ops_per_s, steal;
  };
  std::vector<Round> rounds;
  std::vector<double> traced_ms, untraced_ms;
  int64_t attempted = 0, failed = 0, next_op = 0;
  double measured_s = 0, last_round_s = 0;
  for (int round = 0;; ++round) {
    const double age_s = MsSince(start) / 1e3;
    if (round >= kMinRounds &&
        (measured_s >= args.seconds ||
         age_s + last_round_s > kRoundDeadlineS)) {
      break;
    }
    rex::Status st = workload->PrepareRound(round);
    if (!st.ok()) {
      std::fprintf(stderr, "inputs of round %d: %s\n", round,
                   st.ToString().c_str());
      return 1;
    }
    const CpuTicks ticks_start = ReadCpuTicks();
    const Clock::time_point round_start = Clock::now();
    const int64_t setup_op = -(round + 1);
    ctx.tracer.set_enabled(args.trace);
    ctx.tracer.BeginOp(setup_op);
    st = workload->SetUp(round);
    const double setup_s = MsSince(round_start) / 1e3;
    if (!st.ok()) {
      std::fprintf(stderr, "set-up of round %d: %s\n", round,
                   st.ToString().c_str());
      return 1;
    }
    const std::map<std::string, double> setup = ctx.tracer.OpTotals(setup_op);
    for (const char* name : kSetupLayers) {
      auto it = setup.find(name);
      if (it != setup.end()) ctx.ledger.Add(setup_op, name, it->second);
    }

    std::vector<double> round_ms;
    int64_t round_ok = 0;
    const Clock::time_point loop_start = Clock::now();
    for (int i = 0; i < kOpsPerRound; ++i) {
      const int64_t op = next_op++;
      // Traced runs alternate traced and untraced ops, and flip the
      // pattern every round so that each position in a round is sampled
      // both ways; the difference of the two medians is the tracing
      // overhead.
      const bool traced = args.trace && (i + round) % 2 == 0;
      ctx.tracer.set_enabled(traced);
      ctx.tracer.BeginOp(op);
      const OpResult r = workload->RunOp(op, i == kOpsPerRound - 1);
      ++attempted;
      if (r.ok) {
        ++round_ok;
      } else {
        ++failed;
        std::fprintf(stderr, "%s %lld failed: %s\n", workload->op_label(),
                     static_cast<long long>(op), r.error.c_str());
      }
      round_ms.push_back(r.ms);
      (traced ? traced_ms : untraced_ms).push_back(r.ms);
      if (traced) ctx.ledger.AddAll(op, ctx.tracer.OpTotals(op));
    }
    const double loop_s = MsSince(loop_start) / 1e3;
    measured_s += loop_s;
    const Round r = {setup_s, Percentile(round_ms, 0.5),
                     Percentile(round_ms, 0.9),
                     static_cast<double>(round_ok) / loop_s,
                     StealShare(ticks_start, ReadCpuTicks())};
    rounds.push_back(r);
    std::fprintf(stderr,
                 "round %d: set-up %.3f s, p50 %.2f ms, p90 %.2f ms, %.3f "
                 "ops/s, %.1f%% of CPU time stolen\n",
                 round, r.setup_s, r.p50_ms, r.p90_ms, r.ops_per_s,
                 100 * r.steal);
    workload->TearDown();
    last_round_s = MsSince(round_start) / 1e3;
  }

  const std::string label = workload->op_label();
  std::printf("workload %s seed %llu: %zu rounds, %lld ops of one %s "
              "(%lld failed, fail_ratio %.4f), %.2f s measured\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed),
              rounds.size(), static_cast<long long>(attempted), label.c_str(),
              static_cast<long long>(failed),
              static_cast<double>(failed) / static_cast<double>(attempted),
              measured_s);

  rex::Json metrics = rex::Json::Object();
  auto emit = [&metrics](const Metric& m, double value, const char* note) {
    std::printf("  %-30s %14.6g %-6s%s\n", m.name, value, m.unit, note);
    rex::Json j = rex::Json::Object();
    j.Set("value", value);
    j.Set("unit", m.unit);
    metrics.Set(m.name, std::move(j));
  };
  if (!args.trace) {
    std::stable_sort(rounds.begin(), rounds.end(),
                     [](const Round& a, const Round& b) {
                       return a.steal < b.steal;
                     });
    rounds.resize(kCountedRounds);
    std::vector<double> setup_s, p50_ms, p90_ms, ops_per_s;
    for (const Round& r : rounds) {
      setup_s.push_back(r.setup_s);
      p50_ms.push_back(r.p50_ms);
      p90_ms.push_back(r.p90_ms);
      ops_per_s.push_back(r.ops_per_s);
    }
    const std::string of_rounds = " (median of the " +
                                  std::to_string(kCountedRounds) +
                                  " least-stolen rounds)";
    const std::string latency =
        " (" + label + "_ms_*, median of the " +
        std::to_string(kCountedRounds) + " least-stolen rounds of " +
        std::to_string(kOpsPerRound) + " ops)";
    emit(kEndToEnd[0], Percentile(p50_ms, 0.5), latency.c_str());
    emit(kEndToEnd[1], Percentile(p90_ms, 0.5), latency.c_str());
    emit(kEndToEnd[2], Percentile(ops_per_s, 0.5), of_rounds.c_str());
    emit(kEndToEnd[3], PeakRssMb(), "");
    emit(kEndToEnd[4], Percentile(setup_s, 0.5), of_rounds.c_str());
  } else {
    ctx.ledger.Add(next_op, "trace.overhead_ms",
                   Percentile(traced_ms, 0.5) - Percentile(untraced_ms, 0.5));
    std::printf("per-layer ledger: median per traced %s (%zu traced, %zu "
                "untraced); set-up rows per round. exec.*.incl_ms are "
                "inclusive of downstream push time: they overlap and must "
                "not be summed.\n",
                label.c_str(), traced_ms.size(), untraced_ms.size());
    for (const Metric& m : kPerLayer) {
      const size_t n = ctx.ledger.Samples(m.name);
      const bool inclusive = std::string(m.name).find(".incl_") !=
                             std::string::npos;
      const std::string note =
          n == 0 ? " (layer idle)"
                 : std::string(inclusive ? " (inclusive, " : " (") +
                       std::to_string(n) + " samples)";
      emit(m, ctx.ledger.Value(m.name), note.c_str());
    }
    if (!args.trace_out.empty()) {
      rex::Json artifact = rex::Json::Object();
      artifact.Set("workload", args.workload);
      artifact.Set("seed", static_cast<int64_t>(args.seed));
      artifact.Set("spans", ctx.tracer.ToJson());
      artifact.Set("ops", ctx.ledger.OpsJson());
      artifact.Set("ledger", metrics);
      std::ofstream out(args.trace_out);
      out << artifact.Dump(1) << "\n";
      if (!out) {
        std::fprintf(stderr, "could not write %s\n", args.trace_out.c_str());
      } else {
        std::printf("trace written to %s\n", args.trace_out.c_str());
      }
    }
  }

  rex::Json result = rex::Json::Object();
  result.Set("correct", failed == 0);
  result.Set("attempted", attempted);
  result.Set("failed", failed);
  result.Set("metrics", std::move(metrics));
  std::printf("%s\n", result.Dump(-1).c_str());
  return failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: %s --workload <pagerank|sssp|serving|recovery> "
                 "--seed <n> --seconds <s> --trace <0|1> "
                 "[--trace-out <path>]\n",
                 argv[0]);
    return 2;
  }
  return perfbench::Run(args);
}
