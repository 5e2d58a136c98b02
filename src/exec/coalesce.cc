#include "exec/coalesce.h"

#include <cstddef>
#include <deque>
#include <unordered_map>
#include <utility>

#include "common/tuple.h"

namespace rex {

namespace {

/// A stream position. Plain entries carry a passthrough delta (δ() traffic,
/// deltas without a key); a render slot (`render_of` >= 0) marks where a
/// key's folded ℤ-set net is emitted.
struct Entry {
  Delta d;
  bool alive = true;
  int render_of = -1;  // index into the key-state list, or -1 for plain
};

/// One term of a key's ℤ-set net: a tuple and its accumulated signed
/// multiplicity. Terms stay in first-contribution order; a term whose
/// weight reaches zero is erased (zero-weight elimination).
struct NetTerm {
  Tuple tuple;
  int64_t weight = 0;
};

/// Per-key fold state. Inserts, deletes, and both sides of a replace
/// accumulate into `net` as weight addition; `slot` is the entry index
/// where the surviving net is rendered (claimed at the first live
/// contribution, released whenever the net annihilates to zero so a later
/// contribution re-opens at its own position — exactly the chain algebra's
/// placement).
struct KeyState {
  Tuple key;
  std::vector<NetTerm> net;
  int slot = -1;
};

/// Tuple::field does not bounds-check, so every key projection is guarded.
bool KeyFieldsInRange(const Tuple& t, const std::vector<int>& key_fields) {
  for (int kf : key_fields) {
    if (kf < 0 || static_cast<size_t>(kf) >= t.size()) return false;
  }
  return true;
}

/// Adds `w` to `tuple`'s multiplicity in the key's net. Weight addition is
/// unbounded accumulation over the stream, so the sum is overflow-checked:
/// a result outside int64 is an error, not UB.
Status Contribute(KeyState* ks, Tuple tuple, int64_t w) {
  if (w == 0) return Status::OK();
  for (size_t i = 0; i < ks->net.size(); ++i) {
    if (ks->net[i].tuple == tuple) {
      int64_t sum = 0;
      if (__builtin_add_overflow(ks->net[i].weight, w, &sum)) {
        return Status::InvalidArgument(
            "ℤ-set weight overflow coalescing tuple " + tuple.ToString() +
            ": " + std::to_string(ks->net[i].weight) + " + " +
            std::to_string(w) + " leaves int64 range");
      }
      ks->net[i].weight = sum;
      if (sum == 0) {
        ks->net.erase(ks->net.begin() + static_cast<ptrdiff_t>(i));
      }
      return Status::OK();
    }
  }
  ks->net.push_back(NetTerm{std::move(tuple), w});
  return Status::OK();
}

/// Renders a key's surviving net back into canonical deltas. The clean
/// revision case (exactly one -1 and one +1) becomes ->(t'); anything else
/// is emitted as weighted deletes then weighted inserts, each in
/// first-contribution order.
void RenderNet(const KeyState& ks, DeltaVec* out) {
  int negs = 0;
  int poss = 0;
  for (const NetTerm& term : ks.net) {
    (term.weight < 0 ? negs : poss)++;
  }
  if (negs == 1 && poss == 1 && ks.net.size() == 2) {
    const NetTerm& neg = ks.net[0].weight < 0 ? ks.net[0] : ks.net[1];
    const NetTerm& pos = ks.net[0].weight > 0 ? ks.net[0] : ks.net[1];
    if (neg.weight == -1 && pos.weight == 1) {
      out->push_back(Delta::Replace(neg.tuple, pos.tuple));
      return;
    }
  }
  for (const NetTerm& term : ks.net) {
    if (term.weight < 0) {
      out->push_back(Delta{DeltaOp::kDelete, term.tuple, {}, -term.weight});
    }
  }
  for (const NetTerm& term : ks.net) {
    if (term.weight > 0) {
      out->push_back(Delta{DeltaOp::kInsert, term.tuple, {}, term.weight});
    }
  }
}

}  // namespace

Result<DeltaVec> CoalesceDeltas(DeltaVec in,
                                const std::vector<int>& key_fields) {
  std::vector<Entry> entries;
  entries.reserve(in.size());
  std::deque<KeyState> key_states;  // deque: stable addresses for indexes
  std::unordered_map<uint64_t, std::vector<int>> by_key;

  auto state_index_of = [&](Tuple key) {
    auto& chain = by_key[key.Hash()];
    for (int i : chain) {
      if (key_states[static_cast<size_t>(i)].key == key) return i;
    }
    const int idx = static_cast<int>(key_states.size());
    key_states.push_back(KeyState{std::move(key), {}, -1});
    chain.push_back(idx);
    return idx;
  };

  for (Delta& d : in) {
    // SignedWeight() and the replace split below negate the weight; the one
    // int64 with no negation is rejected up front rather than risked.
    if (d.weight == INT64_MIN) {
      return Status::InvalidArgument(
          "delta weight INT64_MIN is not negatable: " + d.ToString());
    }
    if (!KeyFieldsInRange(d.tuple, key_fields)) {
      // No key to fold under: passes through as-is.
      entries.push_back(Entry{std::move(d), true, -1});
      continue;
    }
    if (d.op == DeltaOp::kUpdate) {
      // Opaque: never folds; weight zero is a no-op.
      if (d.weight != 0) entries.push_back(Entry{std::move(d), true, -1});
      continue;
    }
    const int ks_idx = state_index_of(
        key_fields.empty() ? d.tuple : d.tuple.Project(key_fields));
    KeyState& ks = key_states[static_cast<size_t>(ks_idx)];
    if (d.op == DeltaOp::kReplace) {
      REX_RETURN_NOT_OK(Contribute(&ks, std::move(d.old_tuple), -1));
      REX_RETURN_NOT_OK(Contribute(&ks, std::move(d.tuple), 1));
    } else {
      REX_RETURN_NOT_OK(Contribute(&ks, std::move(d.tuple), d.SignedWeight()));
    }
    if (ks.net.empty()) {
      if (ks.slot >= 0) {
        entries[static_cast<size_t>(ks.slot)].alive = false;
        ks.slot = -1;
      }
    } else if (ks.slot < 0) {
      ks.slot = static_cast<int>(entries.size());
      entries.push_back(Entry{Delta{}, true, ks_idx});
    }
  }

  DeltaVec out;
  out.reserve(entries.size());
  for (Entry& e : entries) {
    if (!e.alive) continue;
    if (e.render_of < 0) {
      out.push_back(std::move(e.d));
    } else {
      RenderNet(key_states[static_cast<size_t>(e.render_of)], &out);
    }
  }
  return out;
}

}  // namespace rex
