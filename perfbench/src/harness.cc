#include "harness.h"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <sstream>

namespace perfbench {

using rex::Json;

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const size_t index = rank < 1 ? 0 : static_cast<size_t>(rank) - 1;
  return values[std::min(index, values.size() - 1)];
}

namespace {

/// A "<key> <n> kB" line of /proc/self/status, in MB.
double ProcStatusMb(const std::string& key) {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind(key, 0) != 0) continue;
    std::istringstream fields(line.substr(key.size()));
    double kb = 0;
    fields >> kb;
    return kb / 1024.0;
  }
  return 0;
}

}  // namespace

double PeakRssMb() { return ProcStatusMb("VmHWM:"); }
double CurrentRssMb() { return ProcStatusMb("VmRSS:"); }

CpuTicks ReadCpuTicks() {
  // "cpu user nice system idle iowait irq softirq steal ..."
  std::ifstream stat("/proc/stat");
  std::string label;
  CpuTicks t;
  if (!(stat >> label) || label != "cpu") return t;
  int64_t value = 0;
  for (int i = 0; i < 8 && stat >> value; ++i) {
    t.total += value;
    if (i == 7) t.steal = value;
  }
  return t;
}

double StealShare(const CpuTicks& from, const CpuTicks& to) {
  const int64_t total = to.total - from.total;
  return total > 0 ? static_cast<double>(to.steal - from.steal) /
                         static_cast<double>(total)
                   : 0;
}

// ------------------------------------------------------------------ Tracer --

Tracer::Scope::Scope(Tracer* tracer, const char* name)
    : tracer_(tracer->enabled() ? tracer : nullptr) {
  if (tracer_ == nullptr) return;
  Span span;
  span.id = static_cast<int64_t>(tracer_->spans_.size());
  span.parent = tracer_->open_.empty()
                    ? -1
                    : tracer_->spans_[tracer_->open_.back()].id;
  span.op = tracer_->op_;
  span.name = name;
  index_ = tracer_->spans_.size();
  tracer_->open_.push_back(index_);
  span.start_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                      Clock::now() - tracer_->origin_)
                      .count();
  tracer_->spans_.push_back(std::move(span));
}

Tracer::Scope::~Scope() {
  if (tracer_ == nullptr) return;
  tracer_->spans_[index_].end_ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                           tracer_->origin_)
          .count();
  tracer_->open_.pop_back();
}

std::map<std::string, double> Tracer::OpTotals(int64_t op) const {
  std::map<std::string, double> totals;
  for (const Span& s : spans_) {
    if (s.op != op) continue;
    totals[s.name + "_ms"] += static_cast<double>(s.end_ns - s.start_ns) / 1e6;
  }
  return totals;
}

Json Tracer::ToJson() const {
  Json out = Json::Array();
  for (const Span& s : spans_) {
    Json j = Json::Object();
    j.Set("id", s.id);
    j.Set("parent", s.parent);
    j.Set("op", s.op);
    j.Set("name", s.name);
    j.Set("start_ns", s.start_ns);
    j.Set("end_ns", s.end_ns);
    out.Append(std::move(j));
  }
  return out;
}

// ------------------------------------------------------------------ Ledger --

void Ledger::Add(int64_t op, const std::string& name, double value) {
  samples_[name].push_back(value);
  by_op_[op][name] = value;
}

void Ledger::AddAll(int64_t op, const std::map<std::string, double>& values) {
  for (const auto& [name, value] : values) Add(op, name, value);
}

double Ledger::Value(const std::string& name) const {
  auto it = samples_.find(name);
  return it == samples_.end() ? 0 : Percentile(it->second, 0.5);
}

size_t Ledger::Samples(const std::string& name) const {
  auto it = samples_.find(name);
  return it == samples_.end() ? 0 : it->second.size();
}

Json Ledger::OpsJson() const {
  Json out = Json::Array();
  for (const auto& [op, values] : by_op_) {
    Json metrics = Json::Object();
    for (const auto& [name, value] : values) metrics.Set(name, value);
    Json j = Json::Object();
    j.Set("op", op);
    j.Set("metrics", std::move(metrics));
    out.Append(std::move(j));
  }
  return out;
}

// ---------------------------------------------------------- CounterDiffer --

int64_t OpCounters::WorkerSum(const std::string& name) const {
  int64_t sum = 0;
  for (const auto& counters : workers) {
    auto it = counters.find(name);
    if (it != counters.end()) sum += it->second;
  }
  return sum;
}

int64_t OpCounters::Cluster(const std::string& name) const {
  auto it = cluster.find(name);
  return it == cluster.end() ? 0 : it->second;
}

OpCounters CounterDiffer::Snapshot(rex::Cluster* cluster,
                                   const rex::QueryProfile& profile) const {
  OpCounters s;
  for (const rex::WorkerProfile& w : profile.workers) {
    s.workers.emplace_back(w.counters.begin(), w.counters.end());
    int64_t dispatch = 0;
    for (const auto& [name, timer] : w.timers) {
      if (name == rex::metrics::kDispatchTimer) dispatch = timer.total_nanos;
    }
    s.dispatch_ns.push_back(dispatch);
    s.live.push_back(w.live_at_end);
  }
  s.bytes_matrix = profile.bytes_matrix;
  for (const auto& [name, value] : cluster->network()->metrics().Snapshot()) {
    s.cluster[name] = value;
  }
  s.cluster["storage.ckpt_raw_bytes"] = profile.ckpt_raw_bytes;
  s.cluster["storage.ckpt_stored_bytes"] = profile.ckpt_stored_bytes;
  s.cluster["storage.refetch_bytes"] = profile.recovery_refetch_bytes;
  s.cluster["storage.ckpt_repairs"] = profile.checkpoint_repairs;
  s.cluster["cluster.detection_ticks"] = profile.detection_latency_ticks;
  return s;
}

void CounterDiffer::BeginOp(rex::Cluster* cluster) {
  const auto n = static_cast<size_t>(cluster->num_workers());
  incarnation_.resize(n, 0);
  base_.workers.resize(n);
  base_.dispatch_ns.resize(n, 0);
  for (size_t w = 0; w < n; ++w) {
    const int inc = cluster->worker(static_cast<int>(w))->incarnation();
    if (inc == incarnation_[w]) continue;
    incarnation_[w] = inc;
    base_.workers[w].clear();
    base_.dispatch_ns[w] = 0;
  }
}

OpCounters CounterDiffer::Diff(rex::Cluster* cluster,
                               const rex::QueryProfile& profile) {
  OpCounters cur = Snapshot(cluster, profile);
  OpCounters d = cur;
  for (size_t w = 0; w < d.workers.size() && w < base_.workers.size(); ++w) {
    for (auto& [name, value] : d.workers[w]) {
      auto it = base_.workers[w].find(name);
      if (it != base_.workers[w].end()) value -= it->second;
    }
    d.dispatch_ns[w] -= base_.dispatch_ns[w];
  }
  for (size_t i = 0; i < d.bytes_matrix.size() && i < base_.bytes_matrix.size();
       ++i) {
    for (size_t j = 0; j < d.bytes_matrix[i].size() &&
                       j < base_.bytes_matrix[i].size();
         ++j) {
      d.bytes_matrix[i][j] -= base_.bytes_matrix[i][j];
    }
  }
  for (auto& [name, value] : d.cluster) value -= base_.Cluster(name);
  base_ = std::move(cur);
  return d;
}

// ------------------------------------------------------------ query layers --

namespace {

/// max / mean over the non-empty entries of `values` (1 = balanced).
double Skew(const std::vector<double>& values) {
  double sum = 0, max = 0;
  for (double v : values) {
    sum += v;
    max = std::max(max, v);
  }
  return sum > 0 ? max * static_cast<double>(values.size()) / sum : 0;
}

double Ratio(int64_t num, int64_t den) {
  return den > 0 ? static_cast<double>(num) / static_cast<double>(den) : 0;
}

}  // namespace

void AddQueryLayers(Ledger* ledger, int64_t op, const OpCounters& c,
                    const rex::QueryProfile& profile, double run_ms,
                    rex::Cluster* cluster) {
  std::map<std::string, double> m;

  m["cluster.strata"] = profile.strata_executed;
  std::vector<double> stratum_ms;
  for (const rex::StratumProfile& s : profile.strata) {
    stratum_ms.push_back(s.seconds * 1e3);
  }
  m["cluster.stratum_ms_p50"] = Percentile(stratum_ms, 0.5);
  double recovery_s = 0;
  for (const rex::RecoveryPassProfile& r : profile.recovery_passes) {
    recovery_s += r.seconds;
  }
  m["cluster.recovery_ms"] = recovery_s * 1e3;
  m["cluster.detection_ticks"] =
      static_cast<double>(c.Cluster("cluster.detection_ticks"));

  // Σ consume_nanos per operator kind. consume_nanos includes the time the
  // operator spent pushing into its consumers, so these overlap.
  for (const char* name :
       {"scan", "project", "fixpoint", "hashJoin", "groupBy", "rehash"}) {
    int64_t nanos = 0;
    for (const rex::OperatorProfile& o : profile.operators) {
      if (o.name != name) continue;
      for (const rex::OperatorPortProfile& p : o.ports) {
        nanos += p.consume_nanos;
      }
    }
    m[std::string("exec.") + name + ".incl_ms"] =
        static_cast<double>(nanos) / 1e6;
  }
  m["exec.delta_tuples"] =
      static_cast<double>(c.WorkerSum(rex::metrics::kDeltaTuples));
  m["exec.deltas_coalesced"] =
      static_cast<double>(c.WorkerSum(rex::metrics::kDeltasCoalesced));
  m["exec.coalesce_bytes_saved"] =
      static_cast<double>(c.WorkerSum(rex::metrics::kCoalesceBytesSaved));
  const int64_t batch_rows = c.WorkerSum(rex::metrics::kBatchRows);
  m["exec.batch_row_frac"] = Ratio(
      batch_rows, batch_rows + c.WorkerSum(rex::metrics::kBatchFallbackRows));

  // Skews and idle time are over the workers live at the end of the op; a
  // worker that crashed mid-op still counts in the dispatch total.
  std::vector<double> dispatch_ms, sent_bytes;
  double all_dispatch_ms = 0, live_dispatch_ms = 0;
  for (size_t w = 0; w < c.workers.size(); ++w) {
    const double ms = static_cast<double>(c.dispatch_ns[w]) / 1e6;
    all_dispatch_ms += ms;
    if (!c.live[w]) continue;
    live_dispatch_ms += ms;
    dispatch_ms.push_back(ms);
    double row = 0;
    if (w < c.bytes_matrix.size()) {
      for (int64_t b : c.bytes_matrix[w]) row += static_cast<double>(b);
    }
    sent_bytes.push_back(row);
  }
  m["worker.dispatch_ms"] = all_dispatch_ms;
  m["worker.dispatch_skew"] = Skew(dispatch_ms);
  m["cluster.worker_idle_frac"] =
      run_ms > 0 && !dispatch_ms.empty()
          ? 1.0 - live_dispatch_ms /
                      (static_cast<double>(dispatch_ms.size()) * run_ms)
          : 0;

  for (const char* name :
       {"net.tuples_sent", "net.bytes_sent", "net.messages_sent",
        "net.backpressure_blocks", "net.backpressure_sheds",
        "net.retransmits", "storage.ckpt_raw_bytes",
        "storage.ckpt_stored_bytes", "storage.refetch_bytes",
        "storage.ckpt_repairs"}) {
    m[name] = static_cast<double>(c.Cluster(name));
  }
  m["net.bytes_skew"] = Skew(sent_bytes);
  m["net.run_compress_ratio"] =
      Ratio(c.WorkerSum(rex::metrics::kRunRawBytes),
            c.WorkerSum(rex::metrics::kRunCompressedBytes));
  m["storage.ckpt_store_bytes"] =
      static_cast<double>(cluster->checkpoints()->total_bytes());

  ledger->AddAll(op, m);
}

}  // namespace perfbench
