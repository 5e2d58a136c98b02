// Measurement plumbing shared by the benchmark's workloads: outside-in
// timing, in-memory spans, per-op differencing of the engine's
// lifetime-cumulative counters, and the per-layer ledger.
#ifndef REX_PERFBENCH_HARNESS_H_
#define REX_PERFBENCH_HARNESS_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "cluster/cluster.h"
#include "obs/json.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double MsSince(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

/// Nearest-rank percentile (q in (0, 1]) of `values`; 0 when empty.
double Percentile(std::vector<double> values, double q);

/// Peak (VmHWM) and current (VmRSS) resident set size of this process, in
/// MB.
double PeakRssMb();
double CurrentRssMb();

/// The machine-wide CPU time counters of /proc/stat, in clock ticks.
struct CpuTicks {
  int64_t steal = 0;  // time the hypervisor ran other guests instead
  int64_t total = 0;
};
/// Zero ticks when /proc/stat cannot be read.
CpuTicks ReadCpuTicks();
/// Share of the CPU time between two readings that was stolen.
double StealShare(const CpuTicks& from, const CpuTicks& to);

/// One timed call into a layer. `op` is the measured op the span belongs
/// to; set-up spans carry -(round + 1).
struct Span {
  int64_t id = 0;
  int64_t parent = -1;
  int64_t op = 0;
  std::string name;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

/// Keeps spans in memory while enabled; disabled, a Scope reads no clock.
/// Every span also adds its duration to `<name>_ms` of the current op.
class Tracer {
 public:
  class Scope {
   public:
    Scope(Tracer* tracer, const char* name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_;
    size_t index_ = 0;
  };

  void set_enabled(bool enabled) { enabled_ = enabled; }
  bool enabled() const { return enabled_; }
  void BeginOp(int64_t op) { op_ = op; }
  int64_t op() const { return op_; }

  /// Milliseconds of each span name recorded under `op`, keyed
  /// `<name>_ms`.
  std::map<std::string, double> OpTotals(int64_t op) const;
  rex::Json ToJson() const;

 private:
  bool enabled_ = false;
  int64_t op_ = 0;
  std::vector<Span> spans_;
  std::vector<size_t> open_;  // indices of the currently open spans
  Clock::time_point origin_ = Clock::now();
};

/// Per-layer numbers: every op (or set-up round) adds one sample per
/// metric; a metric reports the median of its samples.
class Ledger {
 public:
  void Add(int64_t op, const std::string& name, double value);
  void AddAll(int64_t op, const std::map<std::string, double>& values);
  /// Median of the samples of `name`, 0 when the layer never ran.
  double Value(const std::string& name) const;
  size_t Samples(const std::string& name) const;
  /// {op, metrics} per op, in op order.
  rex::Json OpsJson() const;

 private:
  std::map<std::string, std::vector<double>> samples_;
  std::map<int64_t, std::map<std::string, double>> by_op_;
};

/// The counters of one op: the engine's profile counters live as long as
/// the Cluster (and each worker's registry as long as its incarnation), so
/// each op's share is its snapshot minus the previous op's.
struct OpCounters {
  /// Per worker: registry counters and `worker.dispatch` nanos.
  std::vector<std::map<std::string, int64_t>> workers;
  std::vector<int64_t> dispatch_ns;
  std::vector<bool> live;
  std::vector<std::vector<int64_t>> bytes_matrix;
  /// Network registry, checkpoint store and failure-detector totals.
  std::map<std::string, int64_t> cluster;

  int64_t WorkerSum(const std::string& name) const;
  int64_t Cluster(const std::string& name) const;
};

class CounterDiffer {
 public:
  /// Call right before each op: a worker revived since the last op has a
  /// fresh registry, so its baseline restarts at zero.
  void BeginOp(rex::Cluster* cluster);
  /// The op's own counters; advances the baseline to `profile`.
  OpCounters Diff(rex::Cluster* cluster, const rex::QueryProfile& profile);

 private:
  OpCounters Snapshot(rex::Cluster* cluster,
                      const rex::QueryProfile& profile) const;

  std::vector<int> incarnation_;
  OpCounters base_;
};

/// Adds the cluster / exec / worker / net / storage metrics of one query op
/// (`run_ms` is the outside-timed Cluster::Run duration).
void AddQueryLayers(Ledger* ledger, int64_t op, const OpCounters& c,
                    const rex::QueryProfile& profile, double run_ms,
                    rex::Cluster* cluster);

}  // namespace perfbench

#endif  // REX_PERFBENCH_HARNESS_H_
