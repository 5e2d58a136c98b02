#include "net/message.h"

namespace rex {

std::string Punctuation::ToString() const {
  switch (kind) {
    case Kind::kEndOfStratum:
      return "EOS(stratum=" + std::to_string(stratum) + ")";
    case Kind::kEndOfQuery:
      return "EOQ(stratum=" + std::to_string(stratum) + ")";
    case Kind::kEndOfStream:
      return "EOStream";
  }
  return "?";
}

size_t Message::ByteSize() const {
  // 20-byte header: kind, from, to, op, port.
  size_t n = 20;
  for (const Delta& d : deltas) n += d.ByteSize();
  if (kind == Kind::kPunctuation) n += 5;
  return n;
}

}  // namespace rex
