#include "common/serde.h"

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <limits>

#include "common/logging.h"

namespace rex {

namespace {

/// Silent truncation guard: every length in the format is a u32, so a
/// string or collection larger than UINT32_MAX would serialize a wrapped
/// count and corrupt the stream undetectably. The writer API is void (it
/// feeds checkpoint paths that cannot surface a Status), so this fails
/// loudly instead of writing garbage.
void CheckU32Len(size_t n, const char* what) {
  if (n > std::numeric_limits<uint32_t>::max()) {
    REX_LOG(Error) << "serde: " << what << " of size " << n
                   << " exceeds the u32 length limit; refusing to write a "
                      "corrupt stream";
    std::abort();
  }
}

/// Defense against corrupt checkpoints: a hostile u32 count may promise
/// far more elements than the buffer can hold. Every serialized element is
/// at least one byte, so `remaining` bounds any honest count.
size_t CappedReserve(uint32_t n, size_t remaining) {
  return std::min(static_cast<size_t>(n), remaining);
}

}  // namespace

void BufferWriter::PutU32(uint32_t v) {
  for (int i = 0; i < 4; ++i) PutU8(static_cast<uint8_t>(v >> (8 * i)));
}

void BufferWriter::PutU64(uint64_t v) {
  for (int i = 0; i < 8; ++i) PutU8(static_cast<uint8_t>(v >> (8 * i)));
}

void BufferWriter::PutDouble(double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  PutU64(bits);
}

void BufferWriter::PutString(const std::string& s) {
  CheckU32Len(s.size(), "string");
  PutU32(static_cast<uint32_t>(s.size()));
  bytes_.append(s);
}

void BufferWriter::PutValue(const Value& v) {
  PutU8(static_cast<uint8_t>(v.type()));
  switch (v.type()) {
    case ValueType::kNull:
      break;
    case ValueType::kBool:
      PutU8(v.AsBool() ? 1 : 0);
      break;
    case ValueType::kInt:
      PutI64(v.AsInt());
      break;
    case ValueType::kDouble:
      PutDouble(v.AsDouble());
      break;
    case ValueType::kString:
      PutString(v.AsString());
      break;
    case ValueType::kList: {
      const auto& items = v.AsList();
      CheckU32Len(items.size(), "list");
      PutU32(static_cast<uint32_t>(items.size()));
      for (const Value& item : items) PutValue(item);
      break;
    }
  }
}

void BufferWriter::PutTuple(const Tuple& t) {
  CheckU32Len(t.size(), "tuple");
  PutU32(static_cast<uint32_t>(t.size()));
  for (const Value& v : t.fields()) PutValue(v);
}

namespace {
// Presence flags in the high nibble of a serialized delta's leading byte;
// the low nibble is the DeltaOp.
constexpr uint8_t kDeltaOpMask = 0x0f;
constexpr uint8_t kDeltaHasWeight = 0x10;    // i64 weight follows (!= 1)
constexpr uint8_t kDeltaHasOldTuple = 0x20;  // old tuple follows (non-empty)
}  // namespace

void BufferWriter::PutDelta(const Delta& d) {
  uint8_t head = static_cast<uint8_t>(d.op);
  if (d.weight != 1) head |= kDeltaHasWeight;
  if (d.old_tuple.size() > 0) head |= kDeltaHasOldTuple;
  PutU8(head);
  if (d.weight != 1) PutI64(d.weight);
  PutTuple(d.tuple);
  if (d.old_tuple.size() > 0) PutTuple(d.old_tuple);
}

Status BufferReader::Need(size_t n) {
  if (pos_ + n > len_) {
    return Status::OutOfRange("truncated input: need " + std::to_string(n) +
                              " bytes at offset " + std::to_string(pos_) +
                              " of " + std::to_string(len_));
  }
  return Status::OK();
}

Result<uint8_t> BufferReader::GetU8() {
  REX_RETURN_NOT_OK(Need(1));
  return static_cast<uint8_t>(data_[pos_++]);
}

Result<uint32_t> BufferReader::GetU32() {
  REX_RETURN_NOT_OK(Need(4));
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<uint32_t>(static_cast<uint8_t>(data_[pos_++])) << (8 * i);
  }
  return v;
}

Result<uint64_t> BufferReader::GetU64() {
  REX_RETURN_NOT_OK(Need(8));
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<uint64_t>(static_cast<uint8_t>(data_[pos_++])) << (8 * i);
  }
  return v;
}

Result<int64_t> BufferReader::GetI64() {
  REX_ASSIGN_OR_RETURN(uint64_t v, GetU64());
  return static_cast<int64_t>(v);
}

Result<double> BufferReader::GetDouble() {
  REX_ASSIGN_OR_RETURN(uint64_t bits, GetU64());
  double d;
  std::memcpy(&d, &bits, sizeof(d));
  return d;
}

Result<std::string> BufferReader::GetString() {
  REX_ASSIGN_OR_RETURN(uint32_t n, GetU32());
  REX_RETURN_NOT_OK(Need(n));
  std::string s(data_ + pos_, n);
  pos_ += n;
  return s;
}

Result<Value> BufferReader::GetValue() { return GetValueAtDepth(0); }

Result<Value> BufferReader::GetValueAtDepth(int depth) {
  if (depth > kMaxNestingDepth) {
    return Status::ParseError(
        "value nesting exceeds depth limit (corrupt buffer?)");
  }
  REX_ASSIGN_OR_RETURN(uint8_t tag, GetU8());
  if (tag > static_cast<uint8_t>(ValueType::kList)) {
    return Status::TypeError("bad value tag " + std::to_string(tag));
  }
  switch (static_cast<ValueType>(tag)) {
    case ValueType::kNull:
      return Value::Null();
    case ValueType::kBool: {
      REX_ASSIGN_OR_RETURN(uint8_t b, GetU8());
      return Value(b != 0);
    }
    case ValueType::kInt: {
      REX_ASSIGN_OR_RETURN(int64_t i, GetI64());
      return Value(i);
    }
    case ValueType::kDouble: {
      REX_ASSIGN_OR_RETURN(double d, GetDouble());
      return Value(d);
    }
    case ValueType::kString: {
      REX_ASSIGN_OR_RETURN(std::string s, GetString());
      return Value(std::move(s));
    }
    case ValueType::kList: {
      REX_ASSIGN_OR_RETURN(uint32_t n, GetU32());
      std::vector<Value> items;
      items.reserve(CappedReserve(n, remaining()));
      for (uint32_t i = 0; i < n; ++i) {
        REX_ASSIGN_OR_RETURN(Value v, GetValueAtDepth(depth + 1));
        items.push_back(std::move(v));
      }
      return Value::List(std::move(items));
    }
  }
  return Status::Internal("unreachable");
}

Result<Tuple> BufferReader::GetTuple() {
  REX_ASSIGN_OR_RETURN(uint32_t n, GetU32());
  std::vector<Value> fields;
  fields.reserve(CappedReserve(n, remaining()));
  for (uint32_t i = 0; i < n; ++i) {
    REX_ASSIGN_OR_RETURN(Value v, GetValue());
    fields.push_back(std::move(v));
  }
  return Tuple(std::move(fields));
}

Result<Delta> BufferReader::GetDelta() {
  REX_ASSIGN_OR_RETURN(uint8_t head, GetU8());
  const uint8_t op = head & kDeltaOpMask;
  const uint8_t flags = head & ~kDeltaOpMask;
  if (op > static_cast<uint8_t>(DeltaOp::kUpdate)) {
    return Status::TypeError("bad delta op " + std::to_string(op));
  }
  if ((flags & ~(kDeltaHasWeight | kDeltaHasOldTuple)) != 0) {
    return Status::ParseError("bad delta flags " + std::to_string(flags));
  }
  Delta d;
  d.op = static_cast<DeltaOp>(op);
  if (flags & kDeltaHasWeight) {
    REX_ASSIGN_OR_RETURN(d.weight, GetI64());
    if (d.weight == INT64_MIN) {
      // INT64_MIN has no int64 negation; every weight-algebra path would
      // have to special-case it, so the wire rejects it at ingress.
      return Status::ParseError("delta weight INT64_MIN is not negatable");
    }
  }
  REX_ASSIGN_OR_RETURN(d.tuple, GetTuple());
  if (flags & kDeltaHasOldTuple) {
    REX_ASSIGN_OR_RETURN(d.old_tuple, GetTuple());
    if (d.old_tuple.size() == 0) {
      return Status::ParseError("delta old-tuple flag set but tuple empty");
    }
  }
  return d;
}

std::string SerializeTuple(const Tuple& t) {
  BufferWriter w;
  w.PutTuple(t);
  return w.TakeBytes();
}

Result<Tuple> DeserializeTuple(const std::string& bytes) {
  BufferReader r(bytes);
  REX_ASSIGN_OR_RETURN(Tuple t, r.GetTuple());
  if (!r.AtEnd()) return Status::ParseError("trailing bytes after tuple");
  return t;
}

std::string SerializeDelta(const Delta& d) {
  BufferWriter w;
  w.PutDelta(d);
  return w.TakeBytes();
}

Result<Delta> DeserializeDelta(const std::string& bytes) {
  BufferReader r(bytes);
  REX_ASSIGN_OR_RETURN(Delta d, r.GetDelta());
  if (!r.AtEnd()) return Status::ParseError("trailing bytes after delta");
  return d;
}

std::string SerializeTuples(const std::vector<Tuple>& tuples) {
  BufferWriter w;
  w.PutU32(static_cast<uint32_t>(tuples.size()));
  for (const Tuple& t : tuples) w.PutTuple(t);
  return w.TakeBytes();
}

Result<std::vector<Tuple>> DeserializeTuples(const std::string& bytes) {
  BufferReader r(bytes);
  REX_ASSIGN_OR_RETURN(uint32_t n, r.GetU32());
  std::vector<Tuple> out;
  out.reserve(std::min(static_cast<size_t>(n), r.remaining()));
  for (uint32_t i = 0; i < n; ++i) {
    REX_ASSIGN_OR_RETURN(Tuple t, r.GetTuple());
    out.push_back(std::move(t));
  }
  if (!r.AtEnd()) return Status::ParseError("trailing bytes after tuples");
  return out;
}

}  // namespace rex
