#include "net/channel.h"

#include <chrono>

namespace rex {

namespace {
// Grace period a producer blocks on a full channel before shedding (enqueueing
// past capacity). Bounded so mutually backpressured workers (A's inbox full
// of B's batches and vice versa) cannot deadlock.
constexpr auto kShedGracePeriod = std::chrono::milliseconds(20);
}  // namespace

bool Channel::Push(Message msg) {
  {
    std::unique_lock<std::mutex> lock(mutex_);
    if (closed_) return false;
    if (msg.dest_incarnation >= 0 && msg.dest_incarnation != incarnation_) {
      // Stamped for a previous life of this channel: the sender raced with a
      // crash/revive cycle. Reject — a revived worker must never consume
      // pre-crash traffic.
      return false;
    }
    // Control and heartbeat traffic bypasses flow control: throttling the
    // control plane would wedge recovery and failure detection.
    bool throttled = msg.kind == Message::Kind::kData ||
                     msg.kind == Message::Kind::kPunctuation;
    if (throttled && capacity_ > 0 && queue_.size() >= capacity_) {
      if (backpressure_blocks_) backpressure_blocks_->Increment();
      bool have_space = space_cv_.wait_for(lock, kShedGracePeriod, [this] {
        return closed_ || queue_.size() < capacity_;
      });
      if (closed_) return false;
      if (!have_space) {
        // Shed: enqueue past capacity and count it rather than drop, so
        // delivery stays reliable under sustained pressure.
        if (backpressure_sheds_) backpressure_sheds_->Increment();
      }
    }
    queue_.push_back(std::move(msg));
  }
  cv_.notify_one();
  return true;
}

std::optional<Message> Channel::Pop() {
  std::unique_lock<std::mutex> lock(mutex_);
  cv_.wait(lock, [this] { return closed_ || !queue_.empty(); });
  if (queue_.empty()) return std::nullopt;
  Message m = std::move(queue_.front());
  queue_.pop_front();
  lock.unlock();
  space_cv_.notify_one();
  return m;
}

std::optional<Message> Channel::TryPop() {
  std::unique_lock<std::mutex> lock(mutex_);
  if (queue_.empty()) return std::nullopt;
  Message m = std::move(queue_.front());
  queue_.pop_front();
  lock.unlock();
  space_cv_.notify_one();
  return m;
}

void Channel::Close() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    closed_ = true;
  }
  cv_.notify_all();
  space_cv_.notify_all();
}

void Channel::Reopen() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    closed_ = false;
    queue_.clear();
    ++incarnation_;
  }
  space_cv_.notify_all();
}

void Channel::SetCapacity(size_t capacity) {
  std::lock_guard<std::mutex> lock(mutex_);
  capacity_ = capacity;
}

void Channel::SetBackpressureCounters(Counter* blocks, Counter* sheds) {
  std::lock_guard<std::mutex> lock(mutex_);
  backpressure_blocks_ = blocks;
  backpressure_sheds_ = sheds;
}

int Channel::incarnation() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return incarnation_;
}

size_t Channel::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return queue_.size();
}

bool Channel::closed() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return closed_;
}

}  // namespace rex
