#include "storage/checkpoint_store.h"

#include <algorithm>
#include <iterator>

#include "common/hash.h"
#include "common/serde.h"

namespace rex {

namespace {

uint64_t Checksum(const std::string& bytes) {
  return HashBytes(bytes.data(), bytes.size());
}

}  // namespace

Status CheckpointStore::ValidateIds(const char* op, int fixpoint_id,
                                    int stratum, int worker) const {
  if (fixpoint_id < 0 || stratum < 0 || worker < 0 ||
      (num_workers_ >= 0 && worker >= num_workers_)) {
    return Status::InvalidArgument(
        std::string("checkpoint ") + op + ": invalid ids (fixpoint_id=" +
        std::to_string(fixpoint_id) + ", stratum=" + std::to_string(stratum) +
        ", worker=" + std::to_string(worker) + ", num_workers=" +
        std::to_string(num_workers_) + ")");
  }
  return Status::OK();
}

bool CheckpointStore::Copy::Valid() const {
  return Checksum(*bytes) == checksum;
}

const CheckpointStore::Copy* CheckpointStore::FindValidCopy(const Entry& e) {
  for (const auto& [holder, copy] : e.copies) {
    if (copy.Valid()) return &copy;
  }
  return nullptr;
}

Status CheckpointStore::Put(int fixpoint_id, int stratum, int owner,
                            const std::vector<int>& replicas,
                            const std::vector<Tuple>& delta_set,
                            bool append) {
  REX_RETURN_NOT_OK(ValidateIds("put", fixpoint_id, stratum, owner));
  for (int r : replicas) {
    REX_RETURN_NOT_OK(ValidateIds("put(replica)", fixpoint_id, stratum, r));
  }
  // Serialize and checksum before taking the store lock: concurrent puts
  // from the other workers then queue only behind map inserts.
  auto payload =
      std::make_shared<const std::string>(SerializeTuples(delta_set));
  const Copy copy{payload, Checksum(*payload)};
  const int64_t replicated_bytes =
      static_cast<int64_t>(payload->size()) *
      static_cast<int64_t>(std::max<size_t>(replicas.size(), 1));
  metrics_.GetCounter(metrics::kCheckpointBytes)->Add(replicated_bytes);
  metrics_.GetCounter(metrics::kCheckpointRawBytes)->Add(replicated_bytes);
  metrics_.GetCounter(metrics::kCheckpointTuples)
      ->Add(static_cast<int64_t>(delta_set.size()));

  std::lock_guard<std::mutex> lock(mutex_);
  auto& slot = entries_[{fixpoint_id, stratum}];
  // A worker checkpoints one entry per replica-group of its Δ set; a
  // re-executed stratum overwrites its group rather than duplicating it.
  // Appending mode skips the dedupe: the new entry extends the stratum's
  // replay history in order (base-update seeds).
  Entry* entry = nullptr;
  if (!append) {
    for (Entry& e : slot) {
      if (e.owner == owner && e.replicas == replicas) {
        entry = &e;
        break;
      }
    }
  }
  if (entry == nullptr) {
    slot.push_back(Entry{owner, replicas, {}});
    entry = &slot.back();
  }
  entry->copies.clear();
  entry->copies[owner] = copy;
  for (int r : replicas) entry->copies[r] = copy;
  return Status::OK();
}

Result<std::vector<Tuple>> CheckpointStore::Read(int fixpoint_id, int stratum,
                                                 int reader) {
  REX_RETURN_NOT_OK(ValidateIds("read", fixpoint_id, stratum, reader));
  std::vector<std::shared_ptr<const std::string>> payloads;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = entries_.find({fixpoint_id, stratum});
    if (it == entries_.end()) return std::vector<Tuple>{};
    for (Entry& e : it->second) {
      auto cit = e.copies.find(reader);
      if (cit == e.copies.end()) continue;
      Copy& mine = cit->second;
      if (!mine.Valid()) {
        // Integrity failure: repair from the first checksum-valid copy
        // held by anyone (deterministic holder order).
        const Copy* good = FindValidCopy(e);
        if (good == nullptr) {
          return Status::DataLoss(
              "all " + std::to_string(e.copies.size()) +
              " copies of checkpoint entry (fixpoint " +
              std::to_string(fixpoint_id) + ", stratum " +
              std::to_string(stratum) + ", writer " +
              std::to_string(e.owner) + ") failed their integrity check");
        }
        metrics_.GetCounter(metrics::kCheckpointRepairs)->Increment();
        metrics_.GetCounter(metrics::kRecoveryRefetchBytes)
            ->Add(static_cast<int64_t>(good->bytes->size()));
        mine = *good;
      }
      payloads.push_back(mine.bytes);
    }
  }
  // The payloads are immutable and these pointers keep them alive, so a
  // concurrent Put, TruncateAfter or Clear cannot touch what is decoded.
  std::vector<Tuple> out;
  for (const auto& payload : payloads) {
    REX_ASSIGN_OR_RETURN(std::vector<Tuple> tuples,
                         DeserializeTuples(*payload));
    out.insert(out.end(), std::make_move_iterator(tuples.begin()),
               std::make_move_iterator(tuples.end()));
  }
  return out;
}

int CheckpointStore::LastCompleteStratum(int fixpoint_id) const {
  std::lock_guard<std::mutex> lock(mutex_);
  int last = -1;
  for (const auto& [key, slot] : entries_) {
    if (key.first != fixpoint_id) continue;
    if (!slot.empty()) last = std::max(last, key.second);
  }
  return last;
}

void CheckpointStore::TruncateAfter(int stratum) {
  std::lock_guard<std::mutex> lock(mutex_);
  for (auto it = entries_.begin(); it != entries_.end();) {
    if (it->first.second > stratum) {
      it = entries_.erase(it);
    } else {
      ++it;
    }
  }
}

Status CheckpointStore::GrantRecoveryAccess(
    const std::vector<int>& live, const std::vector<int>& takeover_readers,
    int replication) {
  auto is_live = [&live](int w) {
    return std::find(live.begin(), live.end(), w) != live.end();
  };
  std::lock_guard<std::mutex> lock(mutex_);
  int64_t refetch_bytes = 0;
  int64_t repairs = 0;
  for (auto& [key, slot] : entries_) {
    for (Entry& e : slot) {
      int live_copies = is_live(e.owner) ? 1 : 0;
      for (int r : e.replicas) {
        if (r != e.owner && is_live(r)) ++live_copies;
      }
      if (live_copies == 0) {
        return Status::NodeFailure(
            "checkpoint lost: fixpoint " + std::to_string(key.first) +
            " stratum " + std::to_string(key.second) + " entry of worker " +
            std::to_string(e.owner) + " has no live copy");
      }
      // Re-replication needs a trustworthy source: the first checksum-valid
      // copy on a live holder (deterministic holder order). Repair invalid
      // live copies from it while we are here.
      const Copy* good = nullptr;
      for (const auto& [holder, copy] : e.copies) {
        if (is_live(holder) && copy.Valid()) {
          good = &copy;
          break;
        }
      }
      if (good == nullptr) {
        return Status::DataLoss(
            "all live copies of checkpoint entry (fixpoint " +
            std::to_string(key.first) + ", stratum " +
            std::to_string(key.second) + ", writer " +
            std::to_string(e.owner) + ") failed their integrity check");
      }
      const Copy source = *good;  // e.copies mutates below
      const auto source_bytes = static_cast<int64_t>(source.bytes->size());
      for (auto& [holder, copy] : e.copies) {
        if (is_live(holder) && !copy.Valid()) {
          copy = source;
          ++repairs;
          refetch_bytes += source_bytes;
        }
      }
      auto holds = [&e](int w) {
        return w == e.owner ||
               std::find(e.replicas.begin(), e.replicas.end(), w) !=
                   e.replicas.end();
      };
      // Takeover readers must be able to read what they inherit, whatever
      // the old replica choice was.
      for (int w : takeover_readers) {
        if (is_live(w) && !holds(w)) {
          e.replicas.push_back(w);
          e.copies[w] = source;
          refetch_bytes += source_bytes;
        }
      }
      // Top the copy count back up to the replication factor.
      for (int w : live) {
        int copies = is_live(e.owner) ? 1 : 0;
        for (int r : e.replicas) {
          if (r != e.owner && is_live(r)) ++copies;
        }
        if (copies >= replication) break;
        if (!holds(w)) {
          e.replicas.push_back(w);
          e.copies[w] = source;
          refetch_bytes += source_bytes;
        }
      }
    }
  }
  if (refetch_bytes > 0) {
    metrics_.GetCounter(metrics::kRecoveryRefetchBytes)->Add(refetch_bytes);
  }
  if (repairs > 0) {
    metrics_.GetCounter(metrics::kCheckpointRepairs)->Add(repairs);
  }
  return Status::OK();
}

int CheckpointStore::CorruptCopies(int holder, int max_entries) {
  std::lock_guard<std::mutex> lock(mutex_);
  int corrupted = 0;
  for (auto& [key, slot] : entries_) {
    for (Entry& e : slot) {
      if (corrupted >= max_entries) return corrupted;
      bool hit = false;
      for (auto& [w, copy] : e.copies) {
        if (holder != -1 && w != holder) continue;
        std::string rotten = *copy.bytes;
        if (rotten.empty()) {
          rotten.push_back('\x5a');  // even an empty payload can rot
        } else {
          rotten[rotten.size() / 2] =
              static_cast<char>(rotten[rotten.size() / 2] ^ 0x5a);
        }
        copy.bytes = std::make_shared<const std::string>(std::move(rotten));
        hit = true;
      }
      if (hit) ++corrupted;
    }
  }
  return corrupted;
}

Status CheckpointStore::VerifyReadable(const std::vector<int>& live,
                                       int min_copies) const {
  auto is_live = [&live](int w) {
    return std::find(live.begin(), live.end(), w) != live.end();
  };
  const int needed =
      std::min<int>(min_copies, static_cast<int>(live.size()));
  std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& [key, slot] : entries_) {
    for (const Entry& e : slot) {
      int live_copies = is_live(e.owner) ? 1 : 0;
      for (int r : e.replicas) {
        if (r != e.owner && is_live(r)) ++live_copies;
      }
      if (live_copies < needed) {
        return Status::Internal(
            "checkpoint replication invariant violated: fixpoint " +
            std::to_string(key.first) + " stratum " +
            std::to_string(key.second) + " entry of worker " +
            std::to_string(e.owner) + " readable from " +
            std::to_string(live_copies) + " live nodes, need " +
            std::to_string(needed));
      }
    }
  }
  return Status::OK();
}

void CheckpointStore::Clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  entries_.clear();
}

int64_t CheckpointStore::total_bytes() const {
  std::lock_guard<std::mutex> lock(mutex_);
  int64_t total = 0;
  for (const auto& [key, slot] : entries_) {
    for (const Entry& e : slot) {
      // Payload size, counted once per entry (its holders share it).
      if (!e.copies.empty()) {
        total += static_cast<int64_t>(e.copies.begin()->second.bytes->size());
      }
    }
  }
  return total;
}

int64_t CheckpointStore::total_entries() const {
  std::lock_guard<std::mutex> lock(mutex_);
  int64_t total = 0;
  for (const auto& [key, slot] : entries_) {
    total += static_cast<int64_t>(slot.size());
  }
  return total;
}

}  // namespace rex
