#include "net/network.h"

#include <algorithm>

#include "common/logging.h"

namespace rex {

namespace {
// Cap on the simulated exponential backoff between retransmission attempts,
// in ticks. 2^6 = 64 ticks keeps the accounting bounded even if a retry
// budget is configured far above the default.
constexpr int kMaxBackoffShift = 6;
}  // namespace

Network::Network(int num_workers, size_t channel_capacity, int retry_budget)
    : failed_(num_workers),
      bytes_by_sender_(num_workers),
      bytes_matrix_(static_cast<size_t>(num_workers) *
                    static_cast<size_t>(num_workers)),
      seq_(static_cast<size_t>(num_workers + 1) *
           static_cast<size_t>(num_workers)),
      retry_budget_(std::max(retry_budget, 0)) {
  bytes_sent_counter_ = metrics_.GetCounter(metrics::kBytesSent);
  messages_sent_counter_ = metrics_.GetCounter(metrics::kMessagesSent);
  tuples_sent_counter_ = metrics_.GetCounter(metrics::kTuplesSent);
  chaos_dropped_counter_ = metrics_.GetCounter(metrics::kChaosDropped);
  chaos_duplicated_counter_ = metrics_.GetCounter(metrics::kChaosDuplicated);
  retransmits_counter_ = metrics_.GetCounter(metrics::kRetransmits);
  backoff_ticks_counter_ = metrics_.GetCounter(metrics::kBackoffTicks);
  heartbeats_counter_ = metrics_.GetCounter(metrics::kHeartbeats);
  unreachable_counter_ = metrics_.GetCounter(metrics::kUnreachable);
  Counter* bp_blocks = metrics_.GetCounter(metrics::kBackpressureBlocks);
  Counter* bp_sheds = metrics_.GetCounter(metrics::kBackpressureSheds);
  channels_.reserve(num_workers);
  for (int i = 0; i < num_workers; ++i) {
    channels_.push_back(std::make_unique<Channel>());
    channels_.back()->SetCapacity(channel_capacity);
    channels_.back()->SetBackpressureCounters(bp_blocks, bp_sheds);
    failed_[i].store(false);
    bytes_by_sender_[i].store(0);
  }
  for (auto& b : bytes_matrix_) b.store(0);
  for (auto& s : seq_) s.store(0);
}

void Network::Deliver(Message msg) {
  const int to = msg.to_worker;
  if (msg.from_worker >= 0 && msg.from_worker != to &&
      msg.kind != Message::Kind::kControl) {
    const auto bytes = static_cast<int64_t>(msg.ByteSize());
    bytes_by_sender_[msg.from_worker].fetch_add(bytes,
                                                std::memory_order_relaxed);
    bytes_matrix_[static_cast<size_t>(msg.from_worker) *
                      static_cast<size_t>(num_workers()) +
                  static_cast<size_t>(to)]
        .fetch_add(bytes, std::memory_order_relaxed);
    bytes_sent_counter_->Add(bytes);
    messages_sent_counter_->Increment();
    tuples_sent_counter_->Add(static_cast<int64_t>(msg.deltas.size()));
  }
  in_flight_.fetch_add(1, std::memory_order_acq_rel);
  if (!channels_[to]->Push(std::move(msg))) {
    // Channel closed (or wrong incarnation) concurrently with the failure
    // check; treat as dropped.
    NoteProcessed(in_flight_.fetch_sub(1, std::memory_order_acq_rel));
  }
}

Status Network::Send(Message msg) {
  if (msg.kind == Message::Kind::kHeartbeat) {
    // Out-of-band control plane: heartbeats go straight to the sink without
    // touching channels, the injector, or in-flight accounting.
    heartbeats_counter_->Increment();
    HeartbeatSink* sink = heartbeat_sink_.load(std::memory_order_acquire);
    if (sink != nullptr) sink->OnHeartbeat(msg.from_worker, msg.incarnation);
    return Status::OK();
  }
  const int to = msg.to_worker;
  if (to < 0 || to >= num_workers()) {
    return Status::NetworkError("bad destination worker " +
                                std::to_string(to));
  }
  // Stamp the per-(sender, destination) sequence number. Each pair has one
  // writing thread, so receivers observe strictly increasing values.
  const size_t pair = static_cast<size_t>(msg.from_worker + 1) *
                          static_cast<size_t>(num_workers()) +
                      static_cast<size_t>(to);
  msg.seq = seq_[pair].fetch_add(1, std::memory_order_relaxed) + 1;
  msg.dest_incarnation = channels_[to]->incarnation();

  FaultInjector* injector = fault_injector_.load(std::memory_order_acquire);
  FaultInjector::Action action = FaultInjector::Action::kDeliver;
  // Ack/retransmit loop: an injected drop is a lost packet whose ack never
  // arrives, so the sender backs off exponentially and retransmits until it
  // gets through or the retry budget runs dry. The sender's thread stays
  // blocked here, which preserves per-pair FIFO order.
  int attempts = 0;
  for (;;) {
    action = FaultInjector::Action::kDeliver;
    if (injector != nullptr && msg.kind != Message::Kind::kControl) {
      action = injector->OnSend(&msg);
    }
    if (action != FaultInjector::Action::kDrop) break;
    chaos_dropped_counter_->Increment();
    if (attempts >= retry_budget_) {
      // Budget exhausted: the peer is unreachable. Give up exactly as a
      // send to a crashed worker would — the failure detector (not the
      // data plane) decides what happens to the destination.
      unreachable_counter_->Increment();
      return Status::OK();
    }
    retransmits_counter_->Increment();
    backoff_ticks_counter_->Add(
        int64_t{1} << std::min(attempts, kMaxBackoffShift));
    ++attempts;
  }
  if (failed_[to].load(std::memory_order_acquire)) {
    return Status::OK();  // dropped on the floor, like a crashed peer
  }
  if (action == FaultInjector::Action::kDuplicate) {
    chaos_duplicated_counter_->Increment();
    Deliver(msg);  // same seq: the receiver discards one copy
  }
  Deliver(std::move(msg));
  return Status::OK();
}

void Network::Crash(int worker) {
  channels_[worker]->Close();
  // Drain whatever was queued; each drained message counts as processed.
  while (channels_[worker]->TryPop().has_value()) {
    OnMessageProcessed();
  }
}

void Network::MarkFailed(int worker) {
  failed_[worker].store(true, std::memory_order_release);
  Crash(worker);
}

bool Network::IsFailed(int worker) const {
  return failed_[worker].load(std::memory_order_acquire);
}

void Network::Restore(int worker) {
  channels_[worker]->Reopen();
  failed_[worker].store(false, std::memory_order_release);
}

std::vector<int> Network::LiveWorkers() const {
  std::vector<int> out;
  for (int i = 0; i < num_workers(); ++i) {
    if (!IsFailed(i)) out.push_back(i);
  }
  return out;
}

void Network::NoteProcessed(int64_t previous_in_flight) {
  if (previous_in_flight <= 0) {
    invariant_violated_.store(true, std::memory_order_release);
    REX_LOG(Error) << "in-flight message count went negative ("
                   << previous_in_flight - 1 << ")";
  }
  if (previous_in_flight == 1) {
    std::lock_guard<std::mutex> lock(quiesce_mutex_);
    quiesce_cv_.notify_all();
  }
}

void Network::OnMessageProcessed() {
  NoteProcessed(in_flight_.fetch_sub(1, std::memory_order_acq_rel));
}

void Network::WaitQuiescent() {
  std::unique_lock<std::mutex> lock(quiesce_mutex_);
  quiesce_cv_.wait(lock, [this] {
    return in_flight_.load(std::memory_order_acquire) == 0;
  });
}

Status Network::CheckInvariants() const {
  if (invariant_violated_.load(std::memory_order_acquire)) {
    return Status::Internal(
        "network invariant violated: in-flight message count went negative");
  }
  const int64_t now = in_flight_.load(std::memory_order_acquire);
  if (now < 0) {
    return Status::Internal("network invariant violated: in-flight count is " +
                            std::to_string(now));
  }
  return Status::OK();
}

int64_t Network::BytesSentBy(int worker) const {
  return bytes_by_sender_[worker].load(std::memory_order_relaxed);
}

int64_t Network::TotalBytesSent() const {
  int64_t total = 0;
  for (const auto& b : bytes_by_sender_) {
    total += b.load(std::memory_order_relaxed);
  }
  return total;
}

std::vector<std::vector<int64_t>> Network::BytesMatrix() const {
  const auto n = static_cast<size_t>(num_workers());
  std::vector<std::vector<int64_t>> out(n, std::vector<int64_t>(n, 0));
  for (size_t from = 0; from < n; ++from) {
    for (size_t to = 0; to < n; ++to) {
      out[from][to] =
          bytes_matrix_[from * n + to].load(std::memory_order_relaxed);
    }
  }
  return out;
}

void Network::ResetByteCounts() {
  for (auto& b : bytes_by_sender_) b.store(0, std::memory_order_relaxed);
  for (auto& b : bytes_matrix_) b.store(0, std::memory_order_relaxed);
}

}  // namespace rex
