// Lightweight metrics: named atomic counters grouped into registries.
//
// Each worker node and the network layer own a MetricsRegistry; benches read
// them to report tuples processed, bytes shipped, strata executed, UDF
// invocations, checkpoint volume, etc. (these back Figure 11's bandwidth
// numbers and the Δ-set reporting for Figure 3).
#ifndef REX_COMMON_METRICS_H_
#define REX_COMMON_METRICS_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace rex {

/// A monotonically increasing (or explicitly settable) 64-bit counter.
class Counter {
 public:
  void Add(int64_t delta) { value_.fetch_add(delta, std::memory_order_relaxed); }
  void Increment() { Add(1); }
  void Set(int64_t v) { value_.store(v, std::memory_order_relaxed); }
  int64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

/// Point-in-time view of a Timer, including its log2-bucketed latency
/// histogram: bucket b counts samples with 2^b <= nanos < 2^(b+1)
/// (bucket 0 additionally holds 0-ns samples).
struct TimerStats {
  int64_t count = 0;
  int64_t total_nanos = 0;
  int64_t min_nanos = 0;  // 0 when count == 0
  int64_t max_nanos = 0;
  std::vector<int64_t> histogram;  // kTimerBuckets entries

  double mean_nanos() const {
    return count == 0 ? 0.0
                      : static_cast<double>(total_nanos) /
                            static_cast<double>(count);
  }
};

/// An accumulating wall-time recorder: count, total, min/max, and a
/// fixed-size log2 histogram. All updates are relaxed atomics so hot paths
/// can record without coordination; snapshots are approximate under
/// concurrency (exact once the network is quiescent, which is when the
/// profiler reads them).
class Timer {
 public:
  static constexpr int kBuckets = 48;  // 2^47 ns ≈ 39 hours: plenty

  void Record(int64_t nanos);

  TimerStats Snapshot() const;
  int64_t count() const { return count_.load(std::memory_order_relaxed); }
  int64_t total_nanos() const {
    return total_nanos_.load(std::memory_order_relaxed);
  }

  void Reset();

 private:
  std::atomic<int64_t> count_{0};
  std::atomic<int64_t> total_nanos_{0};
  std::atomic<int64_t> min_nanos_{0};
  std::atomic<int64_t> max_nanos_{0};
  std::atomic<int64_t> buckets_[kBuckets] = {};
};

/// RAII helper: records the elapsed wall time into `timer` on destruction.
/// A null timer disables measurement (no clock reads).
class ScopedTimer {
 public:
  explicit ScopedTimer(Timer* timer)
      : timer_(timer),
        start_(timer == nullptr ? std::chrono::steady_clock::time_point{}
                                : std::chrono::steady_clock::now()) {}
  ~ScopedTimer() {
    if (timer_ == nullptr) return;
    timer_->Record(std::chrono::duration_cast<std::chrono::nanoseconds>(
                       std::chrono::steady_clock::now() - start_)
                       .count());
  }
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

 private:
  Timer* timer_;
  std::chrono::steady_clock::time_point start_;
};

/// Thread-safe name -> Counter/Timer maps. Counter and Timer pointers
/// remain valid for the registry's lifetime, so hot paths can cache them.
class MetricsRegistry {
 public:
  /// Returns (creating if needed) the counter with the given name.
  Counter* GetCounter(const std::string& name);

  /// Returns (creating if needed) the timer with the given name.
  Timer* GetTimer(const std::string& name);

  /// Current value, 0 if the counter does not exist.
  int64_t Value(const std::string& name) const;

  /// Current timer stats; zeroed stats if the timer does not exist.
  TimerStats TimerValue(const std::string& name) const;

  /// Snapshot of all counters, sorted by name.
  std::vector<std::pair<std::string, int64_t>> Snapshot() const;

  /// Snapshot of all timers, sorted by name.
  std::vector<std::pair<std::string, TimerStats>> TimersSnapshot() const;

  /// Resets every counter and timer to zero (between benchmark runs).
  void Reset();

 private:
  mutable std::mutex mutex_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Timer>> timers_;
};

/// Common counter names used across the engine.
namespace metrics {
inline constexpr const char kTuplesSent[] = "net.tuples_sent";
inline constexpr const char kBytesSent[] = "net.bytes_sent";
inline constexpr const char kMessagesSent[] = "net.messages_sent";
inline constexpr const char kTuplesProcessed[] = "exec.tuples_processed";
inline constexpr const char kUdfCalls[] = "exec.udf_calls";
inline constexpr const char kUdfCacheHits[] = "exec.udf_cache_hits";
inline constexpr const char kStrataExecuted[] = "exec.strata";
inline constexpr const char kDeltaTuples[] = "exec.delta_tuples";
/// Nothing writes these two; kept because perfbench/src/harness.cc reads
/// them.
inline constexpr const char kDeltasCoalesced[] = "exec.deltas_coalesced";
inline constexpr const char kCoalesceBytesSaved[] =
    "exec.coalesce_bytes_saved";
/// Nothing writes this; kept because perfbench/src/harness.cc reads it.
inline constexpr const char kBatchRows[] = "exec.batch_rows";
/// Nothing writes this; kept because perfbench/src/harness.cc reads it.
inline constexpr const char kBatchFallbackRows[] = "exec.batch_fallback_rows";
inline constexpr const char kCheckpointBytes[] = "recovery.checkpoint_bytes";
inline constexpr const char kCheckpointTuples[] = "recovery.checkpoint_tuples";
/// Serialized checkpoint bytes, one copy per holder.
inline constexpr const char kCheckpointRawBytes[] = "storage.ckpt_raw_bytes";
/// Nothing writes this; kept because perfbench/src/harness.cc reads it.
inline constexpr const char kRunRawBytes[] = "net.run_raw_bytes";
/// Nothing writes this; kept because perfbench/src/harness.cc reads it.
inline constexpr const char kRunCompressedBytes[] =
    "net.run_compressed_bytes";
/// Bytes moved while re-replicating checkpoints after a membership change
/// (kept separate from the steady-state checkpoint volume).
inline constexpr const char kRecoveryRefetchBytes[] =
    "recovery.refetch_bytes";
/// Per-message dispatch wall time on each worker (Timer).
inline constexpr const char kDispatchTimer[] = "worker.dispatch";
inline constexpr const char kMapInputRecords[] = "mr.map_input_records";
inline constexpr const char kReduceInputRecords[] = "mr.reduce_input_records";
inline constexpr const char kShuffleBytes[] = "mr.shuffle_bytes";
}  // namespace metrics

}  // namespace rex

#endif  // REX_COMMON_METRICS_H_
