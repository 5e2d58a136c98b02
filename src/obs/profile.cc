#include "obs/profile.h"

#include <cstdio>

namespace rex {

namespace {

Json TimerStatsToJson(const TimerStats& t) {
  Json out = Json::Object();
  out.Set("count", t.count);
  out.Set("total_nanos", t.total_nanos);
  out.Set("min_nanos", t.min_nanos);
  out.Set("max_nanos", t.max_nanos);
  // Sparse histogram: {bucket -> count}; full 48-entry arrays of mostly
  // zeros would dominate the report.
  Json hist = Json::Array();
  for (size_t b = 0; b < t.histogram.size(); ++b) {
    if (t.histogram[b] == 0) continue;
    Json entry = Json::Object();
    entry.Set("log2_nanos", static_cast<int64_t>(b));
    entry.Set("count", t.histogram[b]);
    hist.Append(std::move(entry));
  }
  out.Set("histogram", std::move(hist));
  return out;
}

}  // namespace

Json QueryProfile::ToJson() const {
  Json out = Json::Object();
  out.Set("schema_version", static_cast<int64_t>(kSchemaVersion));
  out.Set("name", name);
  out.Set("total_seconds", total_seconds);
  out.Set("strata_executed", static_cast<int64_t>(strata_executed));
  out.Set("recovered", recovered);
  out.Set("recoveries", static_cast<int64_t>(recoveries));

  Json strata_json = Json::Array();
  for (const StratumProfile& s : strata) {
    Json row = Json::Object();
    row.Set("stratum", static_cast<int64_t>(s.stratum));
    row.Set("seconds", s.seconds);
    row.Set("bytes_sent", s.bytes_sent);
    row.Set("delta_tuples", s.delta_tuples);
    row.Set("changed_tuples", s.changed_tuples);
    row.Set("state_size", s.state_size);
    row.Set("max_change", s.max_change);
    strata_json.Append(std::move(row));
  }
  out.Set("strata", std::move(strata_json));

  Json fixpoints_json = Json::Array();
  for (const FixpointStratumProfile& f : fixpoint_deltas) {
    Json row = Json::Object();
    row.Set("fixpoint_id", static_cast<int64_t>(f.fixpoint_id));
    row.Set("stratum", static_cast<int64_t>(f.stratum));
    row.Set("delta_tuples", f.delta_tuples);
    row.Set("state_size", f.state_size);
    fixpoints_json.Append(std::move(row));
  }
  out.Set("fixpoint_deltas", std::move(fixpoints_json));

  Json workers_json = Json::Array();
  for (const WorkerProfile& w : workers) {
    Json row = Json::Object();
    row.Set("worker", static_cast<int64_t>(w.worker));
    row.Set("live_at_end", w.live_at_end);
    row.Set("bytes_sent", w.bytes_sent);
    Json counters = Json::Object();
    for (const auto& [name_, value] : w.counters) counters.Set(name_, value);
    row.Set("counters", std::move(counters));
    Json timers = Json::Object();
    for (const auto& [name_, stats] : w.timers) {
      timers.Set(name_, TimerStatsToJson(stats));
    }
    row.Set("timers", std::move(timers));
    workers_json.Append(std::move(row));
  }
  out.Set("workers", std::move(workers_json));

  Json matrix_json = Json::Array();
  for (const auto& from_row : bytes_matrix) {
    Json row = Json::Array();
    for (int64_t bytes : from_row) row.Append(bytes);
    matrix_json.Append(std::move(row));
  }
  out.Set("bytes_matrix", std::move(matrix_json));

  Json ops_json = Json::Array();
  for (const OperatorProfile& op : operators) {
    Json row = Json::Object();
    row.Set("worker", static_cast<int64_t>(op.worker));
    row.Set("op", static_cast<int64_t>(op.op_id));
    row.Set("name", op.name);
    row.Set("deltas_emitted", op.deltas_emitted);
    Json ports = Json::Array();
    for (const OperatorPortProfile& p : op.ports) {
      Json port = Json::Object();
      port.Set("port", static_cast<int64_t>(p.port));
      port.Set("batches", p.batches);
      port.Set("tuples", p.tuples);
      port.Set("puncts", p.puncts);
      port.Set("consume_nanos", p.consume_nanos);
      ports.Append(std::move(port));
    }
    row.Set("ports", std::move(ports));
    ops_json.Append(std::move(row));
  }
  out.Set("operators", std::move(ops_json));

  Json recoveries_json = Json::Array();
  for (const RecoveryPassProfile& r : recovery_passes) {
    Json row = Json::Object();
    row.Set("pass", static_cast<int64_t>(r.pass));
    row.Set("seconds", r.seconds);
    row.Set("strategy", r.strategy);
    row.Set("resume_stratum", static_cast<int64_t>(r.resume_stratum));
    row.Set("live_workers", static_cast<int64_t>(r.live_workers));
    row.Set("revived_workers", static_cast<int64_t>(r.revived_workers));
    recoveries_json.Append(std::move(row));
  }
  out.Set("recovery_passes", std::move(recoveries_json));

  Json checkpoint = Json::Object();
  checkpoint.Set("bytes", checkpoint_bytes);
  checkpoint.Set("tuples", checkpoint_tuples);
  checkpoint.Set("refetch_bytes", recovery_refetch_bytes);
  out.Set("checkpoint", std::move(checkpoint));

  out.Set("detection_latency_ticks", detection_latency_ticks);
  out.Set("retransmits", retransmits);
  out.Set("checkpoint_repairs", checkpoint_repairs);
  out.Set("tuples_sent", tuples_sent);
  out.Set("ckpt_raw_bytes", ckpt_raw_bytes);
  out.Set("ckpt_stored_bytes", ckpt_stored_bytes);
  return out;
}

namespace {

Status Require(const char* key, bool ok, const char* expected) {
  if (ok) return Status::OK();
  return Status::InvalidArgument(std::string("profile schema: field '") +
                                 key + "' missing or not " + expected);
}

Status RequireNumber(const Json& obj, const char* key) {
  return Require(key, obj.Get(key).is_number(), "a number");
}

Status RequireInt(const Json& obj, const char* key) {
  return Require(key, obj.Get(key).is_int(), "an integer");
}

Status RequireArray(const Json& obj, const char* key) {
  return Require(key, obj.Get(key).is_array(), "an array");
}

}  // namespace

Status ValidateProfileJson(const Json& profile) {
  if (!profile.is_object()) {
    return Status::InvalidArgument("profile schema: not an object");
  }
  REX_RETURN_NOT_OK(RequireInt(profile, "schema_version"));
  REX_RETURN_NOT_OK(
      Require("name", profile.Get("name").is_string(), "a string"));
  REX_RETURN_NOT_OK(RequireNumber(profile, "total_seconds"));
  REX_RETURN_NOT_OK(RequireInt(profile, "strata_executed"));
  REX_RETURN_NOT_OK(Require("recovered",
                            profile.Get("recovered").is_bool(), "a bool"));
  REX_RETURN_NOT_OK(RequireInt(profile, "recoveries"));
  REX_RETURN_NOT_OK(RequireArray(profile, "strata"));
  REX_RETURN_NOT_OK(RequireArray(profile, "fixpoint_deltas"));
  REX_RETURN_NOT_OK(RequireArray(profile, "workers"));
  REX_RETURN_NOT_OK(RequireArray(profile, "bytes_matrix"));
  REX_RETURN_NOT_OK(RequireArray(profile, "operators"));
  REX_RETURN_NOT_OK(RequireArray(profile, "recovery_passes"));
  REX_RETURN_NOT_OK(Require("checkpoint",
                            profile.Get("checkpoint").is_object(),
                            "an object"));

  for (const Json& s : profile.Get("strata").items()) {
    REX_RETURN_NOT_OK(RequireInt(s, "stratum"));
    REX_RETURN_NOT_OK(RequireNumber(s, "seconds"));
    REX_RETURN_NOT_OK(RequireInt(s, "bytes_sent"));
    REX_RETURN_NOT_OK(RequireInt(s, "delta_tuples"));
    REX_RETURN_NOT_OK(RequireInt(s, "state_size"));
  }
  for (const Json& f : profile.Get("fixpoint_deltas").items()) {
    REX_RETURN_NOT_OK(RequireInt(f, "fixpoint_id"));
    REX_RETURN_NOT_OK(RequireInt(f, "stratum"));
    REX_RETURN_NOT_OK(RequireInt(f, "delta_tuples"));
  }
  for (const Json& w : profile.Get("workers").items()) {
    REX_RETURN_NOT_OK(RequireInt(w, "worker"));
    REX_RETURN_NOT_OK(RequireInt(w, "bytes_sent"));
    REX_RETURN_NOT_OK(Require("counters", w.Get("counters").is_object(),
                              "an object"));
  }
  for (const Json& op : profile.Get("operators").items()) {
    REX_RETURN_NOT_OK(RequireInt(op, "worker"));
    REX_RETURN_NOT_OK(RequireInt(op, "op"));
    REX_RETURN_NOT_OK(
        Require("name", op.Get("name").is_string(), "a string"));
    REX_RETURN_NOT_OK(RequireArray(op, "ports"));
  }
  for (const Json& r : profile.Get("recovery_passes").items()) {
    REX_RETURN_NOT_OK(RequireInt(r, "pass"));
    REX_RETURN_NOT_OK(RequireNumber(r, "seconds"));
    REX_RETURN_NOT_OK(
        Require("strategy", r.Get("strategy").is_string(), "a string"));
  }
  const Json& ckpt = profile.Get("checkpoint");
  REX_RETURN_NOT_OK(RequireInt(ckpt, "bytes"));
  REX_RETURN_NOT_OK(RequireInt(ckpt, "tuples"));
  REX_RETURN_NOT_OK(RequireInt(profile, "detection_latency_ticks"));
  REX_RETURN_NOT_OK(RequireInt(profile, "retransmits"));
  REX_RETURN_NOT_OK(RequireInt(profile, "checkpoint_repairs"));
  REX_RETURN_NOT_OK(RequireInt(profile, "tuples_sent"));
  REX_RETURN_NOT_OK(RequireInt(profile, "ckpt_raw_bytes"));
  REX_RETURN_NOT_OK(RequireInt(profile, "ckpt_stored_bytes"));
  return Status::OK();
}

Status ValidateBenchReportJson(const Json& report) {
  if (!report.is_object()) {
    return Status::InvalidArgument("bench report schema: not an object");
  }
  REX_RETURN_NOT_OK(Require("bench", report.Get("bench").is_string(),
                            "a string"));
  REX_RETURN_NOT_OK(RequireInt(report, "schema_version"));
  REX_RETURN_NOT_OK(RequireArray(report, "runs"));
  for (const Json& run : report.Get("runs").items()) {
    REX_RETURN_NOT_OK(ValidateProfileJson(run));
  }
  return Status::OK();
}

Json BenchReportToJson(const std::string& bench_name,
                       const std::vector<QueryProfile>& runs) {
  Json out = Json::Object();
  out.Set("bench", bench_name);
  out.Set("schema_version",
          static_cast<int64_t>(QueryProfile::kSchemaVersion));
  Json runs_json = Json::Array();
  for (const QueryProfile& p : runs) runs_json.Append(p.ToJson());
  out.Set("runs", std::move(runs_json));
  return out;
}

Status WriteBenchReportFile(const std::string& path,
                            const std::string& bench_name,
                            const std::vector<QueryProfile>& runs) {
  const std::string text = BenchReportToJson(bench_name, runs).Dump(2) + "\n";
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return Status::IoError("cannot open " + path + " for writing");
  }
  const size_t written = std::fwrite(text.data(), 1, text.size(), f);
  const int close_rc = std::fclose(f);
  if (written != text.size() || close_rc != 0) {
    return Status::IoError("short write to " + path);
  }
  return Status::OK();
}

}  // namespace rex
