// Length-prefixed binary wire codec for the engine's closed message set
// (handbook: docs/LIVE.md "Frame format").
//
// One frame on the wire is
//
//   [u32 LE body length][body]
//
// and the body is the event header followed by the tagged payload:
//
//   varint seq · varint from · varint to · f64 time · f64 sent_at ·
//   u8 payload tag · payload bytes
//
//   tag 0  empty payload (pure schedule events)
//   tag 1  core::SecureRuleMessage   — varint (edge id << 1 | announce),
//                                      the candidate only when announcing,
//                                      then the cipher (hom codec)
//   tag 2  core::MaliciousReport     — varint culprit + varint reporter
//   tag 3  majority::RuleMessage     — candidate + zigzag vote pair
//
// Candidates reuse the trace codec's gap encoding for sorted-unique
// itemsets (data/trace_codec.hpp) — lhs, rhs, then a u8 vote kind — and
// ciphers travel through crypto/hom.hpp's encode_cipher/decode_cipher. A
// secure message names its candidate by the sender's per-link edge id
// (core/messages.hpp); the codec only carries the id and the announcement,
// and the receiving broker checks them against its dictionary.
// Times are IEEE-754 bit patterns (util/bytes.hpp), so the (time, seq)
// coordinates that pin the engine's dispatch order round-trip exactly:
// that exactness is what makes the sim a differential oracle for the live
// runtime.
//
// The std::any escape hatch is rejected explicitly: encode_frame returns
// false for any payload outside the closed set. Open-set messages are a
// harness convenience, not protocol traffic, and silently serializing a
// typeless box would undermine both the closed-set contract and the
// malformed-input guarantees below.
//
// Decoding never throws and never reads out of bounds: every path rides
// util::ByteReader's saturating reads, rejects length/count fields that
// exceed the remaining bytes, and returns false on the first
// inconsistency. The round-trip and fuzz suites (tests/net/wire_test.cpp)
// pin this under ASan/UBSan.
#pragma once

#include <cstdint>
#include <string_view>

#include "sim/engine.hpp"
#include "sim/payload.hpp"
#include "util/bytes.hpp"

namespace kgrid::net::wire {

/// Hard cap on a frame body. Generous (a 4096-bit Paillier cipher plus a
/// wide candidate is well under 4 KiB) while keeping a corrupt or hostile
/// length prefix from provoking a giant allocation.
inline constexpr std::uint32_t kMaxFrameBytes = 1u << 20;

/// Bytes of the [u32 LE length] prefix.
inline constexpr std::size_t kFrameHeaderBytes = 4;

enum PayloadTag : std::uint8_t {
  kTagEmpty = 0,
  kTagSecureRule = 1,
  kTagMaliciousReport = 2,
  kTagMajorityRule = 3,
};

/// Append one frame body (header + payload, no length prefix) to `w`.
/// Returns false — with `w` untouched beyond what was already buffered —
/// when the payload is outside the closed set (the std::any escape hatch).
bool encode_frame(util::ByteWriter& w, const sim::EventRecord& record,
                  const sim::Payload& payload);

/// Decode one frame body. Returns false on any malformed input (truncated
/// body, unknown tag, bad varint, trailing bytes); `*record` and
/// `*payload` are unspecified-but-valid on failure.
bool decode_frame(std::string_view body, sim::EventRecord* record,
                  sim::Payload* payload);

/// Decode only the event header of a frame body — what the live transport
/// salvages from a frame decode_frame rejected, to learn who claims to have
/// sent it. Returns false when even the header is malformed.
bool decode_frame_header(std::string_view body, sim::EventRecord* record);

}  // namespace kgrid::net::wire
