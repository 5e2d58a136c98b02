// Binary serialization for values, tuples, and deltas.
//
// Used for checkpoint replication and the MapReduce baselines' shuffle runs.
// The format is a simple self-describing tag-length encoding; little-endian
// fixed-width integers.
#ifndef REX_COMMON_SERDE_H_
#define REX_COMMON_SERDE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/delta.h"
#include "common/status.h"
#include "common/tuple.h"
#include "common/value.h"

namespace rex {

/// Growable output byte buffer.
class BufferWriter {
 public:
  void PutU8(uint8_t v) { bytes_.push_back(static_cast<char>(v)); }
  void PutU32(uint32_t v);
  void PutU64(uint64_t v);
  void PutI64(int64_t v) { PutU64(static_cast<uint64_t>(v)); }
  void PutDouble(double v);
  void PutString(const std::string& s);

  void PutValue(const Value& v);
  void PutTuple(const Tuple& t);
  /// Encodes a full delta: annotation, ℤ-set weight, tuple, and (for
  /// kReplace) the old tuple. The leading byte packs the op in the low
  /// nibble and presence flags in the high nibble, so the common case
  /// (weight 1, no old tuple) costs exactly one byte plus the tuple.
  void PutDelta(const Delta& d);

  const std::string& bytes() const { return bytes_; }
  std::string TakeBytes() { return std::move(bytes_); }
  size_t size() const { return bytes_.size(); }

 private:
  std::string bytes_;
};

/// Sequential reader over a serialized byte range. All getters return
/// OutOfRange on truncated input and TypeError on tag mismatches, so
/// corrupted checkpoints are detected rather than misread.
class BufferReader {
 public:
  BufferReader(const char* data, size_t len) : data_(data), len_(len) {}
  explicit BufferReader(const std::string& s)
      : BufferReader(s.data(), s.size()) {}

  Result<uint8_t> GetU8();
  Result<uint32_t> GetU32();
  Result<uint64_t> GetU64();
  Result<int64_t> GetI64();
  Result<double> GetDouble();
  Result<std::string> GetString();

  Result<Value> GetValue();
  Result<Tuple> GetTuple();
  Result<Delta> GetDelta();

  size_t remaining() const { return len_ - pos_; }
  bool AtEnd() const { return pos_ == len_; }

  /// Deepest legal list nesting. Honest writers never come close (plans
  /// use flat values and one level of batch-payload lists); a corrupt
  /// buffer that nests deeper fails with ParseError instead of
  /// overflowing the stack.
  static constexpr int kMaxNestingDepth = 32;

 private:
  Status Need(size_t n);
  Result<Value> GetValueAtDepth(int depth);

  const char* data_;
  size_t len_;
  size_t pos_ = 0;
};

/// Round-trip helpers.
std::string SerializeTuple(const Tuple& t);
Result<Tuple> DeserializeTuple(const std::string& bytes);

std::string SerializeDelta(const Delta& d);
Result<Delta> DeserializeDelta(const std::string& bytes);

/// Serializes a vector of tuples with a count prefix.
std::string SerializeTuples(const std::vector<Tuple>& tuples);
Result<std::vector<Tuple>> DeserializeTuples(const std::string& bytes);

}  // namespace rex

#endif  // REX_COMMON_SERDE_H_
