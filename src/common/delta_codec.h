// Rolling-hash differential compression for self-similar byte payloads
// (the `onepass` scheme: O(n) encode time with a fixed-size fingerprint
// table, plus an in-place reconstruction path).
//
// Successive checkpoint epochs are highly self-similar — DBSP-style ℤ-set
// streams touch overlapping key ranges epoch after epoch — so each payload
// is encoded as a binary delta against its predecessor: a Karp-Rabin
// window (Mersenne prime 2^61−1, base 263) slides over the new payload,
// matches against fingerprints of the reference payload, and emits
// COPY(offset, len) ops where the reference already holds the bytes and
// ADD(literal) ops for novel bytes.
//
// Encoded stream layout (little-endian fixed-width integers):
//
//   magic u8 (0xD5) | version u8 (1) | target_size u32 | ref_size u32
//   ops*:  0x01 COPY  offset u32, len u32   (len >= 1, offset+len <= ref)
//          0x02 ADD   len u32, bytes[len]   (len >= 1)
//   end:   0x00 END                          (no trailing bytes allowed)
//
// The decoder treats the stream as hostile: magic/version/tag fuzz,
// truncation, COPY ranges outside the reference, and output overflowing
// the header's target_size (or the caller's cap) are all rejected with an
// error instead of being misread — the same posture as the serde guards.
//
// Nothing in the engine calls this codec any more: the checkpoint store
// keeps each entry as one serialized payload shared by its holders
// (DESIGN.md "Checkpoint payloads"). It stays a tested library until
// ROADMAP's "Delete the unused delta codec" removes it with its tests.
#ifndef REX_COMMON_DELTA_CODEC_H_
#define REX_COMMON_DELTA_CODEC_H_

#include <cstdint>
#include <string>

#include "common/status.h"

namespace rex {

/// Encodes `target` as a differential against `ref`. Always succeeds; when
/// the payloads share nothing the result is one ADD op (slightly larger
/// than `target`), so callers keep a byte-profitability gate: store the
/// delta only if it is strictly smaller than the raw payload.
std::string DeltaCodecEncode(const std::string& ref,
                             const std::string& target);

/// Reconstructs the target from `ref` + `delta`. `max_output` caps the
/// decoded size (a hostile header cannot make us allocate unbounded
/// memory). Fails with ParseError/OutOfRange/InvalidArgument on any
/// malformed or mismatched input; on success the result is bit-identical
/// to the original target.
Result<std::string> DeltaCodecDecode(const std::string& ref,
                                     const std::string& delta,
                                     size_t max_output);

/// In-place reconstruction: `*buf` holds the reference on entry and the
/// target on exit, so chained recovery rebuilds state without holding two
/// full payloads. Extra memory is bounded by the bytes that genuinely
/// conflict (COPY sources already overwritten by earlier ops), which for
/// append-mostly checkpoint streams is far below the payload size. On
/// error `*buf` is left unchanged (ops are fully validated before any
/// byte is written).
Status DeltaCodecDecodeInPlace(std::string* buf, const std::string& delta,
                               size_t max_output);

/// True if `delta` begins with the codec's magic/version bytes (cheap
/// format sniff for storage paths that hold both raw and encoded
/// payloads).
bool DeltaCodecLooksEncoded(const std::string& delta);

}  // namespace rex

#endif  // REX_COMMON_DELTA_CODEC_H_
