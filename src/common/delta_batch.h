// Columnar delta batches: the vectorized fast-path representation of a
// DeltaVec.
//
// The per-tuple Value/Tuple model — one heap vector of variant Values per
// delta, re-hashed and re-copied at every operator boundary — is the
// throughput ceiling for the fig6/fig7 iterative workloads. DBSP's ℤ-set
// formulation is representation-agnostic, so the data plane underneath the
// weighted delta algebra can be swapped without touching coalescing
// semantics: a DeltaBatch stores the same deltas as parallel typed columns
// (int64/double/interned-string arrays), a parallel op column and weight
// column, with no per-row allocation and no variant dispatch on the hot
// loops.
//
// The scalar Delta/Tuple interface remains the slow-path boundary:
// operators convert at the edges with FromDeltas (which refuses anything
// outside the fast-path domain, signalling scalar fallback) and convert
// back with ToDeltas/MaterializeRow. The fast-path domain is deliberately
// null-free and replace-free:
//   - ops are kInsert / kDelete / kUpdate only (no kReplace, no kBatch),
//   - old_tuple is empty on every row,
//   - all rows have the same arity >= 1,
//   - each column is uniformly int, double, or string (no nulls, bools,
//     lists, or mixed numeric columns),
//   - no weight is INT64_MIN (the ℤ-set ingress already rejects it).
// Everything else round-trips through the existing scalar code paths, so
// the columnar plane can never change observable behavior — only speed.
#ifndef REX_COMMON_DELTA_BATCH_H_
#define REX_COMMON_DELTA_BATCH_H_

#include <cstdint>
#include <deque>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/delta.h"
#include "common/hash.h"
#include "common/tuple.h"
#include "common/value.h"

namespace rex {

/// Column type in the columnar fast-path domain.
enum class BatchColType : uint8_t { kInt = 0, kDouble = 1, kString = 2 };

const char* BatchColTypeName(BatchColType t);

/// Interned string storage for a batch's string columns. Each distinct
/// string is stored once in an arena of stable pages; rows refer to it by
/// dense id. The pool also caches each string's Value::Hash so hot loops
/// (partitioning, key probes) hash a string column once per *distinct*
/// string instead of once per row.
///
/// Ownership: the pool owns its bytes for the lifetime of the batch; ids
/// and the string_views handed out stay valid until the pool is destroyed
/// (std::deque never relocates existing pages). Materializing a Tuple
/// copies the bytes out, so scalar consumers never alias the arena.
class StringPool {
 public:
  /// Returns the id for `s`, interning it on first sight.
  uint32_t Intern(std::string_view s);

  const std::string& Get(uint32_t id) const { return arena_[id]; }
  /// Value::Hash of the interned string (precomputed at Intern time).
  uint64_t HashOf(uint32_t id) const { return hashes_[id]; }
  /// Number of distinct strings interned.
  size_t size() const { return arena_.size(); }
  /// Total bytes of string payload held by the arena.
  size_t arena_bytes() const { return arena_bytes_; }

 private:
  std::deque<std::string> arena_;  // stable addresses: safe to view into
  std::vector<uint64_t> hashes_;
  std::unordered_map<std::string_view, uint32_t> index_;
  size_t arena_bytes_ = 0;
};

/// One typed column: exactly one of the payload vectors is populated,
/// matching `type`, with one entry per batch row.
struct BatchColumn {
  BatchColType type = BatchColType::kInt;
  std::vector<int64_t> ints;
  std::vector<double> doubles;
  std::vector<uint32_t> str_ids;  // indexes into the batch's StringPool
};

/// A schema-typed columnar batch of deltas. Parallel arrays: row i is
/// (ops[i], weights[i], columns[0..arity)[i]).
class DeltaBatch {
 public:
  /// Converts a DeltaVec into columnar form, or nullopt if any delta falls
  /// outside the fast-path domain (see file comment) — the caller then
  /// takes the scalar path. Never partially converts.
  static std::optional<DeltaBatch> FromDeltas(const DeltaVec& deltas);

  /// Exact inverse of FromDeltas: rebuilds the original DeltaVec
  /// (bit-identical ops, weights, and field values).
  DeltaVec ToDeltas() const;

  size_t NumRows() const { return ops_.size(); }
  size_t NumColumns() const { return columns_.size(); }

  DeltaOp op(size_t row) const { return ops_[row]; }
  int64_t weight(size_t row) const { return weights_[row]; }
  const std::vector<DeltaOp>& ops() const { return ops_; }
  const std::vector<int64_t>& weights() const { return weights_; }
  const BatchColumn& column(size_t c) const { return columns_[c]; }
  const StringPool& pool() const { return pool_; }

  /// The column types, in field order (the batch's schema).
  std::vector<BatchColType> ColumnTypes() const;

  /// Rebuilds one row as a scalar Tuple (copies string bytes out of the
  /// arena).
  Tuple MaterializeRow(size_t row) const;
  /// Rebuilds one row as a scalar Delta.
  Delta MaterializeDelta(size_t row) const;
  /// Boxes a single cell as a Value.
  Value ValueAt(size_t row, size_t col) const;

  /// Value::Hash of cell (row, col) — bit-identical to
  /// MaterializeRow(row).field(col).Hash(). Ints hash through their double
  /// representation, doubles normalize -0.0, strings use the pool's
  /// precomputed hash.
  uint64_t HashValueAt(size_t row, size_t col) const {
    const BatchColumn& c = columns_[col];
    switch (c.type) {
      case BatchColType::kInt:
        return HashDoubleBits(static_cast<double>(c.ints[row]));
      case BatchColType::kDouble: {
        double d = c.doubles[row];
        if (d == 0.0) d = 0.0;  // normalize -0.0
        return HashDoubleBits(d);
      }
      case BatchColType::kString:
        return pool_.HashOf(c.str_ids[row]);
    }
    return 0;  // unreachable
  }

  /// Value equality of two cells in the same column — bit-identical to
  /// Value::operator== on the materialized fields. Within a column the
  /// types match, so int==int, double==double (plain ==: NaN != NaN, and
  /// -0.0 == 0.0, exactly like the scalar path), string ids compare by id
  /// (interning makes id equality iff byte equality).
  bool CellsEqual(size_t row_a, size_t row_b, size_t col) const {
    const BatchColumn& c = columns_[col];
    switch (c.type) {
      case BatchColType::kInt:
        return c.ints[row_a] == c.ints[row_b];
      case BatchColType::kDouble:
        return c.doubles[row_a] == c.doubles[row_b];
      case BatchColType::kString:
        return c.str_ids[row_a] == c.str_ids[row_b];
    }
    return false;  // unreachable
  }

  /// Equality of two rows over a subset of fields (Tuple::operator== on
  /// the projections).
  bool RowsEqualOnFields(size_t row_a, size_t row_b,
                         const std::vector<int>& fields) const {
    for (int f : fields) {
      if (!CellsEqual(row_a, row_b, static_cast<size_t>(f))) return false;
    }
    return true;
  }

  /// Full-row equality (Tuple::operator== on the materialized rows).
  bool RowsEqual(size_t row_a, size_t row_b) const {
    for (size_t c = 0; c < columns_.size(); ++c) {
      if (!CellsEqual(row_a, row_b, c)) return false;
    }
    return true;
  }

  /// Equality of cell (row, col) against an arbitrary scalar Value,
  /// matching Value::operator== (including cross-type numeric compare —
  /// keyed state built from an int column may later be probed by a double
  /// column).
  bool CellEqualsValue(size_t row, size_t col, const Value& v) const;

  /// PartitionHash of the row over `key_fields` — bit-identical to
  /// PartitionHash(MaterializeRow(row), key_fields).
  uint64_t PartitionHashRow(size_t row,
                            const std::vector<int>& key_fields) const {
    if (key_fields.size() == 1) {
      return HashValueAt(row, static_cast<size_t>(key_fields[0]));
    }
    uint64_t h = 0x2545f4914f6cdd1dULL;  // Tuple::HashFields seed
    for (int f : key_fields) {
      h = HashCombine(h, HashValueAt(row, static_cast<size_t>(f)));
    }
    return h;
  }

  /// Keyed-state hash of the row: `seed` folded with each key field's
  /// value hash — bit-identical to the group-by / join / fixpoint key
  /// hash loops. An empty key list hashes all fields (whole-tuple key).
  uint64_t SeededKeyHashRow(size_t row, uint64_t seed,
                            const std::vector<int>& key_fields) const {
    uint64_t h = seed;
    if (key_fields.empty()) {
      for (size_t c = 0; c < columns_.size(); ++c) {
        h = HashCombine(h, HashValueAt(row, c));
      }
      return h;
    }
    for (int f : key_fields) {
      h = HashCombine(h, HashValueAt(row, static_cast<size_t>(f)));
    }
    return h;
  }

  /// Delta::ByteSize() of the row — bit-identical to
  /// MaterializeDelta(row).ByteSize() (old_tuple is always empty in the
  /// batch domain).
  size_t RowByteSize(size_t row) const {
    // op byte + tuple (4 + per-field) + empty old_tuple (4) + weight.
    size_t n = 1 + 4 + row_fields_bytes_ + 4;
    for (size_t c = 0; c < string_cols_.size(); ++c) {
      n += pool_.Get(columns_[string_cols_[c]].str_ids[row]).size();
    }
    if (weights_[row] != 1) n += 8;
    return n;
  }

  /// True when every key field index is a valid column (the precondition
  /// for the keyed fast paths; out-of-range keys fall back to scalar).
  bool KeyFieldsInRange(const std::vector<int>& key_fields) const {
    for (int f : key_fields) {
      if (f < 0 || static_cast<size_t>(f) >= columns_.size()) return false;
    }
    return true;
  }

 private:
  static uint64_t HashDoubleBits(double d) {
    uint64_t bits;
    std::memcpy(&bits, &d, sizeof(bits));
    return HashMix(bits);
  }

  std::vector<DeltaOp> ops_;
  std::vector<int64_t> weights_;
  std::vector<BatchColumn> columns_;
  std::vector<size_t> string_cols_;  // indexes of kString columns
  /// Per-row fixed byte cost of the non-string fields (int/double = 9,
  /// string = 5 + len with len added per row in RowByteSize).
  size_t row_fields_bytes_ = 0;
  StringPool pool_;
};

}  // namespace rex

#endif  // REX_COMMON_DELTA_BATCH_H_
