#include "engine/local_plan.h"

#include <map>

namespace rex {

Result<std::unique_ptr<LocalPlan>> LocalPlan::Instantiate(
    const PlanSpec& spec, ExecContext* ctx) {
  REX_RETURN_NOT_OK(spec.Validate());
  auto plan = std::unique_ptr<LocalPlan>(new LocalPlan());

  for (const PlanNodeSpec& n : spec.nodes()) {
    std::unique_ptr<Operator> op;
    switch (n.type) {
      case PlanNodeSpec::Type::kScan:
        op = std::make_unique<ScanOp>(n.id, n.scan);
        break;
      case PlanNodeSpec::Type::kFilter:
        op = std::make_unique<FilterOp>(n.id, n.predicate);
        break;
      case PlanNodeSpec::Type::kProject:
        op = std::make_unique<ProjectOp>(n.id, n.exprs);
        break;
      case PlanNodeSpec::Type::kApplyFn:
        op = std::make_unique<ApplyFnOp>(n.id, n.fn_name);
        break;
      case PlanNodeSpec::Type::kHashJoin:
        op = std::make_unique<HashJoinOp>(n.id, n.join);
        break;
      case PlanNodeSpec::Type::kGroupBy:
        op = std::make_unique<GroupByOp>(n.id, n.group_by);
        break;
      case PlanNodeSpec::Type::kRehash:
        op = std::make_unique<RehashOp>(n.id, n.rehash);
        break;
      case PlanNodeSpec::Type::kFixpoint:
        op = std::make_unique<FixpointOp>(n.id, n.fixpoint);
        break;
      case PlanNodeSpec::Type::kUnion:
        op = std::make_unique<UnionOp>(n.id, n.union_inputs);
        break;
      case PlanNodeSpec::Type::kSink:
        op = std::make_unique<SinkOp>(n.id);
        break;
    }
    plan->ops_.push_back(std::move(op));
  }

  // Wire edges and derive expected punctuation counts from local fan-in.
  std::map<std::pair<int, int>, int> fan_in;  // (node, port) -> edge count
  for (const PlanNodeSpec& n : spec.nodes()) {
    for (const auto& e : n.inputs) {
      plan->ops_[static_cast<size_t>(e.from)]->AddOutput(
          plan->ops_[static_cast<size_t>(n.id)].get(), e.to_port);
      plan->edges_.push_back(Edge{e.from, n.id, e.to_port});
      fan_in[{n.id, e.to_port}] += 1;
    }
  }
  for (const auto& [key, count] : fan_in) {
    Operator* op = plan->ops_[static_cast<size_t>(key.first)].get();
    if (key.second >= op->num_ports()) {
      return Status::InvalidArgument(
          "edge targets port " + std::to_string(key.second) + " of node " +
          std::to_string(key.first) + " which has only " +
          std::to_string(op->num_ports()) + " ports");
    }
    op->SetExpectedPuncts(key.second, count);
  }

  for (auto& op : plan->ops_) {
    // Open after wiring: RehashOp overrides its network port's expectation.
    REX_RETURN_NOT_OK(op->Open(ctx));
    if (auto* fp = dynamic_cast<FixpointOp*>(op.get())) {
      plan->fixpoints_.push_back(fp);
    } else if (auto* sink = dynamic_cast<SinkOp*>(op.get())) {
      plan->sinks_.push_back(sink);
    } else if (auto* scan = dynamic_cast<ScanOp*>(op.get())) {
      plan->scans_.push_back(scan);
    }
  }

  // Group-join (DESIGN.md "Group-join"): a join whose only out-edge goes to
  // an operator with a fused input, a built-in group-by, folds its output
  // rows straight into that operator instead of buffering and Emit-ing.
  std::vector<int> out_edges(plan->ops_.size(), 0);
  for (const Edge& e : plan->edges_) out_edges[static_cast<size_t>(e.from)]++;
  for (const Edge& e : plan->edges_) {
    auto* join = dynamic_cast<HashJoinOp*>(plan->op(e.from));
    Operator* consumer = plan->op(e.to);
    if (join != nullptr && out_edges[static_cast<size_t>(e.from)] == 1 &&
        consumer->fused_input() != nullptr) {
      join->FuseInto(consumer, e.to_port);
    }
  }
  return plan;
}

std::vector<LocalOperatorStats> LocalPlan::StatsSnapshot() const {
  std::vector<LocalOperatorStats> out;
  out.reserve(ops_.size());
  for (const auto& op : ops_) {
    LocalOperatorStats s;
    s.op_id = op->id();
    s.name = op->name();
    s.deltas_emitted = op->deltas_emitted();
    s.ports = op->port_stats();
    out.push_back(std::move(s));
  }
  return out;
}

Status LocalPlan::StartStratum(int stratum) {
  for (auto& op : ops_) REX_RETURN_NOT_OK(op->StartStratum(stratum));
  return Status::OK();
}

Status LocalPlan::ResetTransientState() {
  for (auto& op : ops_) REX_RETURN_NOT_OK(op->ResetTransientState());
  return Status::OK();
}

Status LocalPlan::OnMembershipChange() {
  for (auto& op : ops_) REX_RETURN_NOT_OK(op->OnMembershipChange());
  return Status::OK();
}

Status LocalPlan::RecoveryReload() {
  for (auto& op : ops_) REX_RETURN_NOT_OK(op->RecoveryReload());
  return Status::OK();
}

Status LocalPlan::MarkDeliveredStreamsClosed() {
  // Stream-once sources: scans have no input ports, so their closure is
  // decided by the punctuation kind they emitted in stratum 0.
  std::vector<bool> source_closed(ops_.size(), false);
  for (ScanOp* s : scans_) {
    if (s->closes_stream()) source_closed[static_cast<size_t>(s->id())] = true;
  }
  // Propagate to a fixed point. A fixpoint operator's recursive port never
  // closes, so closure stops at the loop — only the acyclic prefix (base
  // case, immutable join inputs) is marked.
  bool changed = true;
  while (changed) {
    changed = false;
    for (const Edge& e : edges_) {
      Operator* src = ops_[static_cast<size_t>(e.from)].get();
      Operator* dst = ops_[static_cast<size_t>(e.to)].get();
      const bool src_done =
          source_closed[static_cast<size_t>(e.from)] || src->AllPortsClosed();
      if (src_done && !dst->PortClosed(e.to_port)) {
        dst->MarkPortDelivered(e.to_port);
        changed = true;
      }
    }
    for (auto& op : ops_) {
      // A rehash whose local port closed has broadcast kEndOfStream to all
      // peers; its network port closed symmetrically on every worker.
      if (dynamic_cast<RehashOp*>(op.get()) != nullptr && op->PortClosed(0) &&
          !op->PortClosed(1)) {
        op->MarkPortDelivered(1);
        changed = true;
      }
    }
  }
  return Status::OK();
}

Status LocalPlan::Close() {
  for (auto& op : ops_) REX_RETURN_NOT_OK(op->Close());
  return Status::OK();
}

}  // namespace rex
