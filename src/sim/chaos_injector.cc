#include "sim/chaos_injector.h"

#include <sstream>
#include <utility>

#include "common/logging.h"

namespace rex {

ChaosInjector::ChaosInjector(FaultSchedule schedule, Network* network)
    : schedule_(std::move(schedule)),
      network_(network),
      rng_(schedule_.seed ^ 0x1a3ec70fULL) {
  fired_.assign(schedule_.events.size(), false);
}

void ChaosInjector::DisarmDropsForLocked(int worker) {
  for (FaultEvent& e : schedule_.events) {
    if (e.kind == FaultEvent::Kind::kDrop && e.worker == worker) {
      e.count = 0;
    }
  }
}

std::vector<int> ChaosInjector::TakeDueCrashes(int stratum) {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<int> victims;
  for (size_t i = 0; i < schedule_.events.size(); ++i) {
    const FaultEvent& e = schedule_.events[i];
    if (fired_[i] || e.kind != FaultEvent::Kind::kCrash || e.during_recovery) {
      continue;
    }
    if (e.after_messages >= 1 || e.at_stratum != stratum) continue;
    fired_[i] = true;
    stats_.crashes += 1;
    DisarmDropsForLocked(e.worker);
    victims.push_back(e.worker);
  }
  return victims;
}

std::vector<int> ChaosInjector::TakeOverdueMidStratumCrashes(int stratum) {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<int> victims;
  for (size_t i = 0; i < schedule_.events.size(); ++i) {
    const FaultEvent& e = schedule_.events[i];
    if (fired_[i] || e.kind != FaultEvent::Kind::kCrash ||
        e.during_recovery) {
      continue;
    }
    if (e.after_messages < 1 || e.at_stratum > stratum) continue;
    // The stratum produced fewer sends than the trigger count: the node
    // dies at the stratum's end instead. This must count as a mid-stratum
    // abort — a drop window may have been tied to this crash, so the
    // stratum's results cannot be trusted.
    fired_[i] = true;
    stats_.crashes += 1;
    stats_.mid_stratum_crashes += 1;
    DisarmDropsForLocked(e.worker);
    victims.push_back(e.worker);
  }
  return victims;
}

std::vector<int> ChaosInjector::TakeRestores(int stratum) {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<int> out;
  for (size_t i = 0; i < schedule_.events.size(); ++i) {
    const FaultEvent& e = schedule_.events[i];
    if (fired_[i] || e.kind != FaultEvent::Kind::kRestore) continue;
    if (e.at_stratum != stratum) continue;
    fired_[i] = true;
    stats_.restores += 1;
    out.push_back(e.worker);
  }
  return out;
}

std::vector<std::pair<int, int>> ChaosInjector::TakeDueCorruptions(
    int stratum) {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::pair<int, int>> out;
  for (size_t i = 0; i < schedule_.events.size(); ++i) {
    const FaultEvent& e = schedule_.events[i];
    if (fired_[i] || e.kind != FaultEvent::Kind::kCorruptCheckpoint) continue;
    if (e.at_stratum != stratum) continue;
    fired_[i] = true;
    stats_.corruptions += 1;
    out.emplace_back(e.worker, e.count);
  }
  return out;
}

void ChaosInjector::BeginStratum(int stratum) {
  std::lock_guard<std::mutex> lock(mutex_);
  current_stratum_ = stratum;
  stratum_sends_ = 0;
}

void ChaosInjector::BeginRecovery() {
  std::lock_guard<std::mutex> lock(mutex_);
  in_recovery_ = true;
  recovery_sends_ = 0;
}

void ChaosInjector::EndRecovery() {
  std::lock_guard<std::mutex> lock(mutex_);
  in_recovery_ = false;
}

std::vector<int> ChaosInjector::TakeUnfiredRecoveryCrashes() {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<int> victims;
  for (size_t i = 0; i < schedule_.events.size(); ++i) {
    const FaultEvent& e = schedule_.events[i];
    if (fired_[i] || e.kind != FaultEvent::Kind::kCrash ||
        !e.during_recovery) {
      continue;
    }
    fired_[i] = true;
    stats_.crashes += 1;
    stats_.recovery_crashes += 1;
    DisarmDropsForLocked(e.worker);
    victims.push_back(e.worker);
  }
  return victims;
}

bool ChaosInjector::AllMandatoryEventsFired() const {
  std::lock_guard<std::mutex> lock(mutex_);
  for (size_t i = 0; i < schedule_.events.size(); ++i) {
    const FaultEvent::Kind k = schedule_.events[i].kind;
    if ((k == FaultEvent::Kind::kCrash || k == FaultEvent::Kind::kRestore) &&
        !fired_[i]) {
      return false;
    }
  }
  return true;
}

std::string ChaosInjector::UnfiredEventsToString() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::ostringstream os;
  for (size_t i = 0; i < schedule_.events.size(); ++i) {
    const FaultEvent::Kind k = schedule_.events[i].kind;
    if ((k == FaultEvent::Kind::kCrash || k == FaultEvent::Kind::kRestore) &&
        !fired_[i]) {
      if (os.tellp() > 0) os << ", ";
      os << schedule_.events[i].ToString();
    }
  }
  return os.str();
}

void ChaosInjector::NoteRecoveryRound() {
  std::lock_guard<std::mutex> lock(mutex_);
  stats_.recovery_rounds += 1;
}

ChaosStats ChaosInjector::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

FaultInjector::Action ChaosInjector::OnSend(Message* msg) {
  std::lock_guard<std::mutex> lock(mutex_);

  // 1) Crash triggers: count this send against armed mid-stratum /
  //    during-recovery events and crash victims whose count is reached.
  //    Crash is safe here: the sending worker's own message is still in
  //    flight, so the quiescence count cannot prematurely hit zero. Only
  //    the victim is touched — the driver's failure detector discovers
  //    the death through missed heartbeats.
  if (in_recovery_) {
    recovery_sends_ += 1;
  } else {
    stratum_sends_ += 1;
  }
  for (size_t i = 0; i < schedule_.events.size(); ++i) {
    const FaultEvent& e = schedule_.events[i];
    if (fired_[i] || e.kind != FaultEvent::Kind::kCrash) continue;
    if (e.after_messages < 1) continue;  // boundary crash: driver's job
    bool due = false;
    if (e.during_recovery) {
      due = in_recovery_ && recovery_sends_ >= e.after_messages;
    } else {
      due = !in_recovery_ && e.at_stratum == current_stratum_ &&
            stratum_sends_ >= e.after_messages;
    }
    if (!due || network_->IsFailed(e.worker) ||
        network_->channel(e.worker)->closed()) {
      continue;
    }
    fired_[i] = true;
    stats_.crashes += 1;
    if (e.during_recovery) {
      stats_.recovery_crashes += 1;
    } else {
      stats_.mid_stratum_crashes += 1;
    }
    REX_LOG(Info) << "chaos: failing worker " << e.worker
                  << (e.during_recovery ? " during recovery"
                                        : " mid-stratum")
                  << " after " << (e.during_recovery ? recovery_sends_
                                                     : stratum_sends_)
                  << " sends";
    network_->Crash(e.worker);
    DisarmDropsForLocked(e.worker);
  }

  // 2) Message-fate windows. At most one action per message; drop wins.
  Action action = Action::kDeliver;
  bool decided = false;
  for (size_t i = 0; i < schedule_.events.size() && !decided; ++i) {
    FaultEvent& e = schedule_.events[i];
    if (e.count <= 0 || in_recovery_) continue;
    if (current_stratum_ < e.at_stratum) continue;
    switch (e.kind) {
      case FaultEvent::Kind::kDrop:
        // Only to the doomed node, and only while it is still live (once
        // it has crashed the network drops for us).
        if (msg->to_worker == e.worker && !network_->IsFailed(e.worker) &&
            e.at_stratum == current_stratum_) {
          e.count -= 1;
          stats_.messages_dropped += 1;
          return Action::kDrop;
        }
        break;
      case FaultEvent::Kind::kDuplicate:
        if (msg->to_worker == e.worker && !network_->IsFailed(e.worker)) {
          e.count -= 1;
          stats_.messages_duplicated += 1;
          action = Action::kDuplicate;
          decided = true;
        }
        break;
      case FaultEvent::Kind::kReorder: {
        if (msg->kind != Message::Kind::kData) break;
        if (e.worker >= 0 && msg->to_worker != e.worker) break;
        if (msg->deltas.size() < 2) break;
        // Fisher-Yates permutation of the batch: simulates packets of one
        // message arriving out of order and being reassembled.
        for (size_t j = msg->deltas.size() - 1; j > 0; --j) {
          const size_t k = static_cast<size_t>(
              rng_.NextBelow(static_cast<uint64_t>(j + 1)));
          std::swap(msg->deltas[j], msg->deltas[k]);
        }
        e.count -= 1;
        stats_.batches_reordered += 1;
        decided = true;
        break;
      }
      default:
        break;
    }
  }
  return action;
}

}  // namespace rex
