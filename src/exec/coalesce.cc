#include "exec/coalesce.h"

#include <algorithm>
#include <cstddef>
#include <deque>
#include <unordered_map>
#include <utility>

#include "common/delta_batch.h"
#include "common/tuple.h"
#include "common/value.h"
#include "exec/vectorized.h"

namespace rex {

namespace {

/// A stream position. Plain entries carry a passthrough delta (δ() traffic,
/// already-packed batches); a render slot (`render_of` >= 0) marks where a
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
/// placement). `dups` indexes the key's live δ() entries for idempotent
/// dedupe.
struct KeyState {
  Tuple key;
  std::vector<NetTerm> net;
  int slot = -1;
  std::vector<int> dups;
};

/// Tuple::field does not bounds-check, so every key projection is guarded.
bool KeyFieldsInRange(const Tuple& t, const std::vector<int>& key_fields) {
  for (int kf : key_fields) {
    if (kf < 0 || static_cast<size_t>(kf) >= t.size()) return false;
  }
  return true;
}

size_t TotalBytes(const DeltaVec& v) {
  size_t bytes = 0;
  for (const Delta& d : v) bytes += d.ByteSize();
  return bytes;
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

/// Signed multiplicity of `tuple` in the key's current net.
int64_t NetWeight(const KeyState& ks, const Tuple& tuple) {
  for (const NetTerm& term : ks.net) {
    if (term.tuple == tuple) return term.weight;
  }
  return 0;
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

/// Tuple::Hash / Tuple::HashFields seed, for hashing projected keys
/// column-at-a-time without materializing the projection.
constexpr uint64_t kTupleHashSeed = 0x2545f4914f6cdd1dULL;

size_t BatchTotalBytes(const DeltaBatch& batch) {
  size_t bytes = 0;
  for (size_t r = 0; r < batch.NumRows(); ++r) bytes += batch.RowByteSize(r);
  return bytes;
}

/// Columnar mirror of the per-key ℤ-set fold: net terms reference batch
/// rows instead of owning Tuples, so key probes and term matches compare
/// raw column cells.
struct ColNetTerm {
  size_t row = 0;  // first-contribution row carrying the term's tuple
  int64_t weight = 0;
};

struct ColKeyState {
  size_t first_row = 0;  // key identity: this row's key fields
  std::vector<ColNetTerm> net;
  int slot = -1;
};

/// True when the fold is the identity on `in` (see coalesce.h): every
/// delta is +()/-()/δ() with weight > 0 and an empty old tuple, every key
/// field is in range, and no key repeats.
bool IsFoldFree(const DeltaVec& in, const std::vector<int>& keys) {
  // Open addressing over a power-of-two table at least twice the stream,
  // so linear probes stay short. A slot holds a key hash and 1 + the index
  // of the delta whose key claimed it (0 = empty).
  struct Slot {
    uint64_t hash = 0;
    size_t row_plus_one = 0;
  };
  size_t capacity = 8;
  while (capacity < 2 * in.size()) capacity <<= 1;
  std::vector<Slot> table(capacity);
  const size_t mask = capacity - 1;
  auto same_key = [&keys](const Tuple& a, const Tuple& b) {
    if (keys.empty()) return a == b;
    for (int k : keys) {
      const size_t f = static_cast<size_t>(k);
      if (!(a.field(f) == b.field(f))) return false;
    }
    return true;
  };
  for (size_t i = 0; i < in.size(); ++i) {
    const Delta& d = in[i];
    // A replace splits into two net terms and a kBatch is already packed;
    // the fold drops or re-signs weights <= 0 (and rejects INT64_MIN), and
    // it does not render an old tuple back onto a +()/-().
    if (d.op == DeltaOp::kReplace || d.op == DeltaOp::kBatch ||
        d.weight <= 0 || !d.old_tuple.empty()) {
      return false;
    }
    if (!KeyFieldsInRange(d.tuple, keys)) return false;
    const uint64_t h = keys.empty() ? d.tuple.Hash() : d.tuple.HashFields(keys);
    for (size_t s = h & mask;; s = (s + 1) & mask) {
      Slot& slot = table[s];
      if (slot.row_plus_one == 0) {
        slot = Slot{h, i + 1};
        break;
      }
      if (slot.hash == h &&
          same_key(in[slot.row_plus_one - 1].tuple, d.tuple)) {
        return false;  // a repeated key: the fold may change the stream
      }
    }
  }
  return true;
}

}  // namespace

std::optional<Result<DeltaVec>> DeltaCoalescer::TryColumnar(
    DeltaVec& in, CoalesceStats* stats) const {
  auto maybe_batch = DeltaBatch::FromDeltas(in);
  if (!maybe_batch) return std::nullopt;
  const DeltaBatch& batch = *maybe_batch;
  if (!batch.KeyFieldsInRange(options_.key_fields)) return std::nullopt;
  const size_t n = batch.NumRows();

  bool all_update = true;
  bool all_set = true;  // only kInsert / kDelete
  for (DeltaOp op : batch.ops()) {
    if (op != DeltaOp::kUpdate) all_update = false;
    if (op != DeltaOp::kInsert && op != DeltaOp::kDelete) all_set = false;
  }
  // Mixed streams and set-plane dedupe keep the scalar fold (dedupe's
  // net-presence rule interleaves with the ℤ algebra in ways not worth
  // duplicating here).
  if (!all_update && !all_set) return std::nullopt;
  if (all_set && options_.dedupe_idempotent) return std::nullopt;

  const size_t bytes_in = stats != nullptr ? BatchTotalBytes(batch) : 0;
  DeltaVec out;
  out.reserve(n);

  if (all_update && !options_.dedupe_idempotent) {
    // δ() passthrough: the scalar fold only drops weight-0 rows; the
    // per-delta key projection + KeyState it also performs has no
    // observable effect on a pure update stream, so skip it wholesale.
    for (size_t r = 0; r < n; ++r) {
      if (batch.weight(r) != 0) out.push_back(std::move(in[r]));
    }
  } else if (all_update) {
    // δ() + idempotent dedupe: drop exact repeats of a key's retained
    // (op, tuple, weight) rows. Retained rows per key index into the
    // batch; comparisons are raw column cells.
    std::vector<uint64_t> key_hash;
    SeededKeyHashRows(batch, kTupleHashSeed, options_.key_fields, &key_hash);
    std::deque<std::vector<size_t>> retained_by_state;
    std::unordered_map<uint64_t, std::vector<int>> by_key;
    auto rows_same_key = [&](size_t a, size_t b) {
      return options_.key_fields.empty()
                 ? batch.RowsEqual(a, b)
                 : batch.RowsEqualOnFields(a, b, options_.key_fields);
    };
    for (size_t r = 0; r < n; ++r) {
      if (batch.weight(r) == 0) continue;  // zero-weight elimination
      auto& chain = by_key[key_hash[r]];
      int state = -1;
      for (int idx : chain) {
        if (rows_same_key(retained_by_state[static_cast<size_t>(idx)].empty()
                              ? r  // state created by a row, never empty
                              : retained_by_state[static_cast<size_t>(idx)][0],
                          r)) {
          state = idx;
          break;
        }
      }
      if (state < 0) {
        state = static_cast<int>(retained_by_state.size());
        retained_by_state.emplace_back();
        chain.push_back(state);
      }
      auto& retained = retained_by_state[static_cast<size_t>(state)];
      bool dup = false;
      for (size_t prev : retained) {
        if (batch.weight(prev) == batch.weight(r) &&
            batch.RowsEqual(prev, r)) {
          dup = true;
          break;
        }
      }
      if (dup) continue;
      retained.push_back(r);
      out.push_back(std::move(in[r]));
    }
  } else {
    // Set plane (+ / - only): the full ℤ-set fold over columns. Identical
    // placement rules: a key's render slot is claimed at its first live
    // contribution and released whenever its net annihilates.
    std::vector<uint64_t> key_hash;
    SeededKeyHashRows(batch, kTupleHashSeed, options_.key_fields, &key_hash);
    std::deque<ColKeyState> key_states;
    std::unordered_map<uint64_t, std::vector<int>> by_key;
    // entries[i] >= 0: render slot for that key-state index (this path has
    // no passthrough entries — every row is a contribution).
    std::vector<int> entries;
    std::vector<bool> entry_alive;
    auto rows_same_key = [&](size_t a, size_t b) {
      return options_.key_fields.empty()
                 ? batch.RowsEqual(a, b)
                 : batch.RowsEqualOnFields(a, b, options_.key_fields);
    };
    for (size_t r = 0; r < n; ++r) {
      auto& chain = by_key[key_hash[r]];
      int ks_idx = -1;
      for (int idx : chain) {
        if (rows_same_key(key_states[static_cast<size_t>(idx)].first_row,
                          r)) {
          ks_idx = idx;
          break;
        }
      }
      if (ks_idx < 0) {
        ks_idx = static_cast<int>(key_states.size());
        key_states.push_back(ColKeyState{r, {}, -1});
        chain.push_back(ks_idx);
      }
      ColKeyState& ks = key_states[static_cast<size_t>(ks_idx)];
      const int64_t w = batch.op(r) == DeltaOp::kDelete ? -batch.weight(r)
                                                        : batch.weight(r);
      if (w == 0) continue;  // zero-weight elimination, no entry
      bool found = false;
      for (size_t t = 0; t < ks.net.size(); ++t) {
        if (batch.RowsEqual(ks.net[t].row, r)) {
          int64_t sum = 0;
          if (__builtin_add_overflow(ks.net[t].weight, w, &sum)) {
            return Result<DeltaVec>(Status::InvalidArgument(
                "ℤ-set weight overflow coalescing tuple " +
                batch.MaterializeRow(r).ToString() + ": " +
                std::to_string(ks.net[t].weight) + " + " +
                std::to_string(w) + " leaves int64 range"));
          }
          ks.net[t].weight = sum;
          if (sum == 0) {
            ks.net.erase(ks.net.begin() + static_cast<ptrdiff_t>(t));
          }
          found = true;
          break;
        }
      }
      if (!found) ks.net.push_back(ColNetTerm{r, w});
      if (ks.net.empty()) {
        if (ks.slot >= 0) {
          entry_alive[static_cast<size_t>(ks.slot)] = false;
          ks.slot = -1;
        }
      } else if (ks.slot < 0) {
        ks.slot = static_cast<int>(entries.size());
        entries.push_back(ks_idx);
        entry_alive.push_back(true);
      }
    }
    for (size_t e = 0; e < entries.size(); ++e) {
      if (!entry_alive[e]) continue;
      const ColKeyState& ks = key_states[static_cast<size_t>(entries[e])];
      int negs = 0;
      int poss = 0;
      for (const ColNetTerm& term : ks.net) {
        (term.weight < 0 ? negs : poss)++;
      }
      if (negs == 1 && poss == 1 && ks.net.size() == 2) {
        const ColNetTerm& neg =
            ks.net[0].weight < 0 ? ks.net[0] : ks.net[1];
        const ColNetTerm& pos =
            ks.net[0].weight > 0 ? ks.net[0] : ks.net[1];
        if (neg.weight == -1 && pos.weight == 1) {
          out.push_back(Delta::Replace(batch.MaterializeRow(neg.row),
                                       batch.MaterializeRow(pos.row)));
          continue;
        }
      }
      for (const ColNetTerm& term : ks.net) {
        if (term.weight < 0) {
          out.push_back(Delta{DeltaOp::kDelete,
                              batch.MaterializeRow(term.row),
                              {},
                              -term.weight});
        }
      }
      for (const ColNetTerm& term : ks.net) {
        if (term.weight > 0) {
          out.push_back(Delta{DeltaOp::kInsert,
                              batch.MaterializeRow(term.row),
                              {},
                              term.weight});
        }
      }
    }
  }

  const int64_t folded = std::max<int64_t>(
      0, static_cast<int64_t>(n) - static_cast<int64_t>(out.size()));
  if (options_.pack_runs && !options_.key_fields.empty()) {
    out = PackRuns(std::move(out));
  }
  if (stats != nullptr) {
    stats->deltas_in += static_cast<int64_t>(n);
    stats->deltas_out += static_cast<int64_t>(out.size());
    stats->folded += folded;
    stats->columnar_rows += static_cast<int64_t>(n);
    const size_t bytes_out = TotalBytes(out);
    if (bytes_in > bytes_out) {
      stats->bytes_saved += static_cast<int64_t>(bytes_in - bytes_out);
    }
  }
  return Result<DeltaVec>(std::move(out));
}

Result<DeltaVec> DeltaCoalescer::Coalesce(DeltaVec in,
                                          CoalesceStats* stats) const {
  if (IsFoldFree(in, options_.key_fields)) {
    if (stats != nullptr) {
      stats->deltas_in += static_cast<int64_t>(in.size());
      stats->deltas_out += static_cast<int64_t>(in.size());
    }
    return in;
  }
  if (options_.columnar) {
    auto fast = TryColumnar(in, stats);
    if (fast.has_value()) return std::move(*fast);
  }
  const size_t bytes_in = stats != nullptr ? TotalBytes(in) : 0;
  const size_t n_in = in.size();

  std::vector<Entry> entries;
  entries.reserve(in.size());
  std::deque<KeyState> key_states;  // deque: stable addresses for indexes
  std::unordered_map<uint64_t, std::vector<int>> by_key;

  auto key_of = [this](const Delta& d) {
    return options_.key_fields.empty() ? d.tuple
                                       : d.tuple.Project(options_.key_fields);
  };
  auto state_index_of = [&](Tuple key) {
    auto& chain = by_key[key.Hash()];
    for (int i : chain) {
      if (key_states[static_cast<size_t>(i)].key == key) return i;
    }
    const int idx = static_cast<int>(key_states.size());
    key_states.push_back(KeyState{std::move(key), {}, -1, {}});
    chain.push_back(idx);
    return idx;
  };
  auto is_duplicate = [&entries](const KeyState& ks, const Delta& d) {
    for (int i : ks.dups) {
      const Entry& e = entries[static_cast<size_t>(i)];
      if (e.alive && e.d.op == d.op && e.d.tuple == d.tuple &&
          e.d.weight == d.weight) {
        return true;
      }
    }
    return false;
  };

  for (Delta& d : in) {
    // SignedWeight() and the replace split below negate the weight; the one
    // int64 with no negation is rejected up front rather than risked.
    if (d.weight == INT64_MIN) {
      return Status::InvalidArgument(
          "delta weight INT64_MIN is not negatable: " + d.ToString());
    }
    if (!KeyFieldsInRange(d.tuple, options_.key_fields)) {
      // No key to fold under: ships as-is, as PackRuns leaves it.
      entries.push_back(Entry{std::move(d), true, -1});
      continue;
    }
    const int ks_idx = state_index_of(key_of(d));
    KeyState& ks = key_states[static_cast<size_t>(ks_idx)];
    switch (d.op) {
      case DeltaOp::kUpdate: {
        if (d.weight == 0) break;  // zero-weight elimination
        if (options_.dedupe_idempotent && is_duplicate(ks, d)) break;
        const int idx = static_cast<int>(entries.size());
        entries.push_back(Entry{std::move(d), true, -1});
        if (options_.dedupe_idempotent) ks.dups.push_back(idx);
        break;
      }
      case DeltaOp::kBatch: {
        // Already packed (should not reach a coalescer); pass through.
        entries.push_back(Entry{std::move(d), true, -1});
        break;
      }
      case DeltaOp::kInsert:
      case DeltaOp::kDelete:
      case DeltaOp::kReplace: {
        if (d.op == DeltaOp::kReplace) {
          REX_RETURN_NOT_OK(Contribute(&ks, std::move(d.old_tuple), -1));
          REX_RETURN_NOT_OK(Contribute(&ks, std::move(d.tuple), 1));
        } else {
          const int64_t w = d.SignedWeight();
          if (w == 0) break;
          if (options_.dedupe_idempotent) {
            // Idempotent set semantics: re-asserting a net-present tuple
            // (or re-deleting a net-absent one) is a no-op.
            const int64_t net = NetWeight(ks, d.tuple);
            if ((w > 0 && net > 0) || (w < 0 && net < 0)) break;
          }
          REX_RETURN_NOT_OK(Contribute(&ks, std::move(d.tuple), w));
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
        break;
      }
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
  // Signed: a degenerate stream (several replaces of distinct tuples under
  // one key) can render more deltas than it consumed.
  const int64_t folded = std::max<int64_t>(
      0, static_cast<int64_t>(n_in) - static_cast<int64_t>(out.size()));

  if (options_.pack_runs && !options_.key_fields.empty()) {
    out = PackRuns(std::move(out));
  }

  if (stats != nullptr) {
    stats->deltas_in += static_cast<int64_t>(n_in);
    stats->deltas_out += static_cast<int64_t>(out.size());
    stats->folded += folded;
    const size_t bytes_out = TotalBytes(out);
    if (bytes_in > bytes_out) {
      stats->bytes_saved += static_cast<int64_t>(bytes_in - bytes_out);
    }
  }
  return out;
}

DeltaVec DeltaCoalescer::PackRuns(DeltaVec in) const {
  const size_t nkeys = options_.key_fields.size();

  // Group the stream per key; a key is packable only when every one of its
  // deltas is the same +()/δ() op over tuples of one arity wider than the
  // key (so the per-key payload sequence can be replayed exactly).
  struct KeyGroup {
    Tuple key;
    std::vector<size_t> members;
    bool packable = true;
    DeltaOp op = DeltaOp::kUpdate;
    size_t arity = 0;
  };
  // `all_groups` is a deque so KeyGroup addresses stay stable as groups are
  // added (the bucket map and `group_of` hold pointers into it).
  std::deque<KeyGroup> all_groups;
  std::unordered_map<uint64_t, std::vector<KeyGroup*>> groups;
  std::vector<KeyGroup*> group_of(in.size(), nullptr);

  for (size_t i = 0; i < in.size(); ++i) {
    const Delta& d = in[i];
    if (!KeyFieldsInRange(d.tuple, options_.key_fields)) {
      continue;  // never packed, never grouped
    }
    Tuple key = d.tuple.Project(options_.key_fields);
    auto& chain = groups[key.Hash()];
    KeyGroup* g = nullptr;
    for (KeyGroup* cand : chain) {
      if (cand->key == key) {
        g = cand;
        break;
      }
    }
    if (g == nullptr) {
      all_groups.push_back(KeyGroup{std::move(key), {}, true,
                                    d.op, d.tuple.size()});
      g = &all_groups.back();
      chain.push_back(g);
    }
    g->members.push_back(i);
    group_of[i] = g;
    // Weighted deltas never pack: the payload list carries only field
    // values, so a non-unit multiplicity would be silently dropped on the
    // wire (the receiver re-expands every element at weight 1).
    const bool elem_ok = (d.op == DeltaOp::kInsert ||
                          d.op == DeltaOp::kUpdate) &&
                         d.old_tuple.empty() && d.weight == 1;
    if (!elem_ok || d.op != g->op || d.tuple.size() != g->arity ||
        g->arity <= nkeys) {
      g->packable = false;
    }
  }

  // Re-walking the group chains invalidates nothing: groups are stable now.
  DeltaVec out;
  out.reserve(in.size());
  std::vector<bool> consumed(in.size(), false);
  for (size_t i = 0; i < in.size(); ++i) {
    if (consumed[i]) continue;
    KeyGroup* g = group_of[i];
    if (g == nullptr || !g->packable || g->members.size() < 2) {
      out.push_back(std::move(in[i]));
      continue;
    }
    // Pack the whole key group at its first occurrence. Payload shape:
    // exactly one non-key field -> flat value per element; otherwise a
    // nested list of the non-key fields in ascending position order.
    std::vector<bool> is_key(g->arity, false);
    for (int kf : options_.key_fields) is_key[static_cast<size_t>(kf)] = true;
    const bool flat = (g->arity - nkeys == 1);
    size_t raw_bytes = 0;
    for (size_t m : g->members) raw_bytes += in[m].ByteSize();
    std::vector<Value> payload;
    payload.reserve(g->members.size());
    for (size_t m : g->members) {
      Tuple& t = in[m].tuple;
      if (flat) {
        for (size_t f = 0; f < g->arity; ++f) {
          if (!is_key[f]) {
            payload.push_back(t.field(f));
            break;
          }
        }
      } else {
        std::vector<Value> elem;
        elem.reserve(g->arity - nkeys);
        for (size_t f = 0; f < g->arity; ++f) {
          if (!is_key[f]) elem.push_back(t.field(f));
        }
        payload.push_back(Value::List(std::move(elem)));
      }
    }
    std::vector<Value> fields;
    fields.reserve(nkeys + 1);
    for (const Value& kv : g->key.fields()) fields.push_back(kv);
    fields.push_back(Value::List(std::move(payload)));
    // Header: [element op, original arity, key field positions...] — all the
    // receiver needs to replay the sequence without knowing the plan.
    std::vector<Value> header;
    header.reserve(2 + nkeys);
    header.push_back(Value(static_cast<int64_t>(g->op)));
    header.push_back(Value(static_cast<int64_t>(g->arity)));
    for (int kf : options_.key_fields) {
      header.push_back(Value(static_cast<int64_t>(kf)));
    }
    Delta packed;
    packed.op = DeltaOp::kBatch;
    packed.tuple = Tuple(std::move(fields));
    packed.old_tuple = Tuple(std::move(header));
    // Profitability gate: the batch header (element op, arity, key
    // positions) has a fixed cost, so short runs of narrow tuples can come
    // out LARGER packed than raw. Never inflate the wire — ship the run
    // as-is unless packing strictly shrinks it.
    if (packed.ByteSize() >= raw_bytes) {
      g->packable = false;
      out.push_back(std::move(in[i]));
      continue;
    }
    for (size_t m : g->members) consumed[m] = true;
    out.push_back(std::move(packed));
  }
  return out;
}

Result<DeltaVec> DeltaCoalescer::Expand(DeltaVec in) {
  bool any = false;
  for (const Delta& d : in) {
    if (d.op == DeltaOp::kBatch) {
      any = true;
      break;
    }
  }
  if (!any) return in;

  DeltaVec out;
  out.reserve(in.size());
  for (Delta& d : in) {
    if (d.op != DeltaOp::kBatch) {
      out.push_back(std::move(d));
      continue;
    }
    const Tuple& header = d.old_tuple;
    if (header.size() < 3) {
      return Status::DataLoss("batch delta header too short");
    }
    REX_ASSIGN_OR_RETURN(int64_t op_int, header.field(0).ToInt());
    REX_ASSIGN_OR_RETURN(int64_t arity_int, header.field(1).ToInt());
    if (op_int != static_cast<int64_t>(DeltaOp::kInsert) &&
        op_int != static_cast<int64_t>(DeltaOp::kUpdate)) {
      return Status::DataLoss("batch delta with non-insert/update op");
    }
    const DeltaOp elem_op = static_cast<DeltaOp>(op_int);
    const size_t num_keys = header.size() - 2;
    if (d.tuple.size() != num_keys + 1) {
      return Status::DataLoss("batch delta shape mismatch");
    }
    const Value& payload_field = d.tuple.field(num_keys);
    if (payload_field.type() != ValueType::kList) {
      return Status::DataLoss("batch delta payload is not a list");
    }
    // The arity sizes the buffers below, so bound it by what the header and
    // payload describe before allocating: a flat payload carries exactly
    // one non-key field, a nested one as many as its first element holds.
    const std::vector<Value>& payload = payload_field.AsList();
    const int64_t flat_arity = static_cast<int64_t>(num_keys) + 1;
    bool arity_ok = arity_int == flat_arity;
    if (!arity_ok && !payload.empty() &&
        payload[0].type() == ValueType::kList) {
      const int64_t nested_arity =
          static_cast<int64_t>(num_keys + payload[0].AsList().size());
      arity_ok = arity_int > flat_arity && arity_int == nested_arity;
    }
    if (!arity_ok) {
      return Status::DataLoss("batch delta arity does not match its payload");
    }
    const size_t arity = static_cast<size_t>(arity_int);
    std::vector<size_t> key_pos(num_keys);
    std::vector<bool> is_key(arity, false);
    for (size_t k = 0; k < num_keys; ++k) {
      REX_ASSIGN_OR_RETURN(int64_t kf, header.field(k + 2).ToInt());
      if (kf < 0 || static_cast<size_t>(kf) >= arity ||
          is_key[static_cast<size_t>(kf)]) {
        return Status::DataLoss("batch delta key position out of range");
      }
      key_pos[k] = static_cast<size_t>(kf);
      is_key[static_cast<size_t>(kf)] = true;
    }
    std::vector<size_t> payload_pos;
    payload_pos.reserve(arity - num_keys);
    for (size_t f = 0; f < arity; ++f) {
      if (!is_key[f]) payload_pos.push_back(f);
    }
    const bool flat = (payload_pos.size() == 1);
    for (const Value& elem : payload) {
      std::vector<Value> fields(arity);
      for (size_t k = 0; k < num_keys; ++k) {
        fields[key_pos[k]] = d.tuple.field(k);
      }
      if (flat) {
        fields[payload_pos[0]] = elem;
      } else {
        if (elem.type() != ValueType::kList ||
            elem.AsList().size() != payload_pos.size()) {
          return Status::DataLoss("batch delta payload element mismatch");
        }
        const std::vector<Value>& elem_fields = elem.AsList();
        for (size_t f = 0; f < payload_pos.size(); ++f) {
          fields[payload_pos[f]] = elem_fields[f];
        }
      }
      out.push_back(Delta{elem_op, Tuple(std::move(fields)), {}});
    }
  }
  return out;
}

}  // namespace rex
