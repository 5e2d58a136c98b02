#include "exec/operator.h"

#include <chrono>

#include "common/logging.h"

namespace rex {

Operator::Operator(int id, int num_ports)
    : id_(id),
      expected_puncts_(static_cast<size_t>(num_ports), 1),
      received_puncts_(static_cast<size_t>(num_ports), 0),
      port_complete_(static_cast<size_t>(num_ports), false),
      port_closed_(static_cast<size_t>(num_ports), false),
      port_stats_(static_cast<size_t>(num_ports)) {}

void Operator::AddOutput(Operator* op, int port) {
  outputs_.push_back(Output{op, port});
}

void Operator::SetExpectedPuncts(int port, int count) {
  expected_puncts_[static_cast<size_t>(port)] = count;
}

Status Operator::Open(ExecContext* ctx) {
  ctx_ = ctx;
  tuples_processed_ = ctx->metrics->GetCounter(metrics::kTuplesProcessed);
  return Status::OK();
}

Status Operator::Consume(int port, DeltaVec deltas) {
  auto idx = static_cast<size_t>(port);
  if (idx >= port_stats_.size()) {
    // Let the operator's own hook produce its error (sources reject every
    // Consume with their own message; real bad-port sends are caught by
    // WorkerNode::Dispatch before reaching us).
    return ConsumeDeltas(port, std::move(deltas));
  }
  OperatorPortStats& stats = port_stats_[idx];
  stats.batches += 1;
  stats.tuples += static_cast<int64_t>(deltas.size());
  const auto start = std::chrono::steady_clock::now();
  Status status = ConsumeDeltas(port, std::move(deltas));
  stats.consume_nanos += std::chrono::duration_cast<std::chrono::nanoseconds>(
                             std::chrono::steady_clock::now() - start)
                             .count();
  return status;
}

Status Operator::StartStratum(int) { return Status::OK(); }

Status Operator::Close() { return Status::OK(); }

Status Operator::ResetTransientState() {
  // Keep port_closed_: stream-once inputs stay delivered across recovery.
  for (size_t i = 0; i < received_puncts_.size(); ++i) {
    received_puncts_[i] = 0;
    port_complete_[i] = false;
  }
  any_punct_this_wave_ = false;
  return Status::OK();
}

Status Operator::Emit(DeltaVec deltas) {
  if (deltas.empty() || outputs_.empty()) return Status::OK();
  deltas_emitted_ += static_cast<int64_t>(deltas.size());
  for (size_t i = 0; i + 1 < outputs_.size(); ++i) {
    DeltaVec copy = deltas;
    REX_RETURN_NOT_OK(outputs_[i].op->Consume(outputs_[i].port,
                                              std::move(copy)));
  }
  return outputs_.back().op->Consume(outputs_.back().port,
                                     std::move(deltas));
}

Status Operator::EmitPunct(const Punctuation& p) {
  for (const Output& out : outputs_) {
    REX_RETURN_NOT_OK(out.op->OnPunct(out.port, p));
  }
  return Status::OK();
}

Status Operator::OnPunct(int port, const Punctuation& p) {
  auto idx = static_cast<size_t>(port);
  if (idx >= received_puncts_.size()) {
    return Status::OutOfRange(std::string(name()) + " op " +
                              std::to_string(id_) + ": punct on bad port " +
                              std::to_string(port));
  }
  port_stats_[idx].puncts += 1;
  any_punct_this_wave_ = true;
  received_puncts_[idx] += 1;
  const bool wave_done = received_puncts_[idx] >= expected_puncts_[idx];
  if (!wave_done) return Status::OK();
  port_complete_[idx] = true;
  if (p.kind == Punctuation::Kind::kEndOfStream) port_closed_[idx] = true;
  return OnPortWaveComplete(port, p);
}

bool Operator::AllPortsClosed() const {
  if (port_closed_.empty()) return false;  // sources handled by their kind
  for (bool closed : port_closed_) {
    if (!closed) return false;
  }
  return true;
}

void Operator::MarkPortDelivered(int port) {
  auto idx = static_cast<size_t>(port);
  received_puncts_[idx] = expected_puncts_[idx];
  port_complete_[idx] = true;
  port_closed_[idx] = true;
}

bool Operator::AllOpenPortsComplete() const {
  for (size_t i = 0; i < port_complete_.size(); ++i) {
    if (port_closed_[i]) continue;  // closed ports never block firing
    if (!port_complete_[i]) return false;
  }
  return true;
}

void Operator::ResetWave() {
  for (size_t i = 0; i < received_puncts_.size(); ++i) {
    if (port_closed_[i]) continue;
    received_puncts_[i] = 0;
    port_complete_[i] = false;
  }
  any_punct_this_wave_ = false;
}

Status Operator::OnPortWaveComplete(int /*port*/, const Punctuation& p) {
  if (!any_punct_this_wave_ || !AllOpenPortsComplete()) return Status::OK();
  REX_RETURN_NOT_OK(OnAllPunct(p));
  ResetWave();
  return EmitPunct(p);
}

Status Operator::OnAllPunct(const Punctuation&) { return Status::OK(); }

Status Operator::RecoveryReload() { return Status::OK(); }

Status Operator::OnMembershipChange() { return Status::OK(); }

}  // namespace rex
