// The benchmark's workloads. Each one is a closed loop driven by the
// calling thread against one in-process Cluster of four workers: the next
// op starts only after the previous one returned and was checked.
#ifndef REX_PERFBENCH_WORKLOADS_H_
#define REX_PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <memory>
#include <string>

#include "common/status.h"
#include "harness.h"

namespace perfbench {

/// State shared by the main loop and the workload of one benchmark process.
struct Context {
  uint64_t seed = 0;
  Tracer tracer;
  Ledger ledger;
};

struct OpResult {
  bool ok = false;
  double ms = 0;      // outside-timed latency of the op
  std::string error;  // why the op failed (status or answer check)
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// Builds the round's seeded inputs and reference answers. Not timed.
  virtual rex::Status PrepareRound(int round) = 0;
  /// Builds a fresh round: everything before its first measured op,
  /// warm-up ops included. The main loop times it as one setup_s sample.
  virtual rex::Status SetUp(int round) = 0;
  /// Runs measured op `op`, checks its answer outside the timed region,
  /// and records its per-layer numbers while the tracer is enabled.
  /// `last` marks the round's final op.
  virtual OpResult RunOp(int64_t op, bool last) = 0;
  /// Destroys the round's cluster.
  virtual void TearDown() = 0;
  /// What one op is: "query" or "epoch".
  virtual const char* op_label() const = 0;
};

/// Null for an unknown workload name.
std::unique_ptr<Workload> MakeWorkload(const std::string& name, Context* ctx);

}  // namespace perfbench

#endif  // REX_PERFBENCH_WORKLOADS_H_
