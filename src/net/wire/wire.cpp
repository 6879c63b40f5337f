#include "net/wire/wire.hpp"

#include <limits>
#include <memory>
#include <utility>

#include "arm/rules.hpp"
#include "core/messages.hpp"
#include "crypto/hom.hpp"
#include "data/trace_codec.hpp"
#include "majority/messages.hpp"

namespace kgrid::net::wire {

namespace {

// Zigzag mapping for the signed vote fields: small magnitudes of either
// sign stay small varints.
std::uint64_t zigzag(std::int64_t v) {
  return (static_cast<std::uint64_t>(v) << 1) ^
         static_cast<std::uint64_t>(v >> 63);
}

std::int64_t unzigzag(std::uint64_t v) {
  return static_cast<std::int64_t>(v >> 1) ^ -static_cast<std::int64_t>(v & 1);
}

void encode_candidate(util::ByteWriter& w, const arm::Candidate& c) {
  data::encode_itemset(w, c.rule.lhs);
  data::encode_itemset(w, c.rule.rhs);
  w.u8(static_cast<std::uint8_t>(c.kind));
}

bool decode_candidate(util::ByteReader& r, arm::Candidate* out) {
  arm::Candidate c;
  if (!data::decode_itemset(r, &c.rule.lhs)) return false;
  if (!data::decode_itemset(r, &c.rule.rhs)) return false;
  const std::uint8_t kind = r.u8();
  if (!r.ok() || kind > static_cast<std::uint8_t>(arm::VoteKind::kConfidence))
    return false;
  c.kind = static_cast<arm::VoteKind>(kind);
  *out = std::move(c);
  return true;
}

// The event header: everything before the payload tag.
bool decode_header(util::ByteReader& r, sim::EventRecord* out) {
  sim::EventRecord rec;
  rec.seq = r.varint();
  const std::uint64_t from = r.varint();
  const std::uint64_t to = r.varint();
  if (from > std::numeric_limits<sim::EntityId>::max() ||
      to > std::numeric_limits<sim::EntityId>::max())
    return false;
  rec.from = static_cast<sim::EntityId>(from);
  rec.to = static_cast<sim::EntityId>(to);
  rec.time = r.f64();
  rec.sent_at = r.f64();
  // The wire carries messages only (timers are entity-local alarms and
  // never leave their engine — sim/engine.hpp attach_transport).
  rec.kind = sim::EventKind::kMessage;
  rec.timer_id = 0;
  if (!r.ok()) return false;
  *out = rec;
  return true;
}

}  // namespace

bool encode_frame(util::ByteWriter& w, const sim::EventRecord& record,
                  const sim::Payload& payload) {
  w.varint(record.seq);
  w.varint(record.from);
  w.varint(record.to);
  w.f64(record.time);
  w.f64(record.sent_at);
  if (const auto* m = payload.get_if<core::SecureRuleMessage>()) {
    w.u8(kTagSecureRule);
    const bool announce = m->announce != nullptr;
    w.varint((std::uint64_t{m->edge_id} << 1) | (announce ? 1 : 0));
    if (announce) encode_candidate(w, *m->announce);
    hom::encode_cipher(w, m->counter);
    return true;
  }
  if (const auto* m = payload.get_if<core::MaliciousReport>()) {
    w.u8(kTagMaliciousReport);
    w.varint(m->culprit);
    w.varint(m->reporter);
    return true;
  }
  if (const auto* m = payload.get_if<majority::RuleMessage>()) {
    w.u8(kTagMajorityRule);
    encode_candidate(w, *m->candidate);
    w.varint(zigzag(m->vote.sum));
    w.varint(zigzag(m->vote.count));
    return true;
  }
  if (payload.empty()) {
    w.u8(kTagEmpty);
    return true;
  }
  // std::any escape hatch: open-set payloads are harness conveniences, not
  // protocol traffic — rejected explicitly (header comment).
  return false;
}

bool decode_frame(std::string_view body, sim::EventRecord* record,
                  sim::Payload* payload) {
  util::ByteReader r(body);
  sim::EventRecord rec;
  if (!decode_header(r, &rec)) return false;
  const std::uint8_t tag = r.u8();
  if (!r.ok()) return false;
  switch (tag) {
    case kTagEmpty:
      payload->assign(sim::Payload());
      break;
    case kTagSecureRule: {
      core::SecureRuleMessage m;
      const std::uint64_t id_flag = r.varint();
      if (!r.ok() || (id_flag >> 1) > std::numeric_limits<std::uint32_t>::max())
        return false;
      m.edge_id = static_cast<std::uint32_t>(id_flag >> 1);
      if ((id_flag & 1) != 0) {
        arm::Candidate c;
        if (!decode_candidate(r, &c)) return false;
        m.announce = std::make_shared<const arm::Candidate>(std::move(c));
      }
      if (!hom::decode_cipher(r, &m.counter)) return false;
      payload->assign(std::move(m));
      break;
    }
    case kTagMaliciousReport: {
      core::MaliciousReport m{};
      const std::uint64_t culprit = r.varint();
      const std::uint64_t reporter = r.varint();
      if (!r.ok() || culprit > std::numeric_limits<net::NodeId>::max() ||
          reporter > std::numeric_limits<net::NodeId>::max())
        return false;
      m.culprit = static_cast<net::NodeId>(culprit);
      m.reporter = static_cast<net::NodeId>(reporter);
      payload->assign(m);
      break;
    }
    case kTagMajorityRule: {
      majority::RuleMessage m;
      arm::Candidate c;
      if (!decode_candidate(r, &c)) return false;
      m.candidate = std::make_shared<const arm::Candidate>(std::move(c));
      m.vote.sum = unzigzag(r.varint());
      m.vote.count = unzigzag(r.varint());
      payload->assign(std::move(m));
      break;
    }
    default:
      return false;  // unknown payload tag
  }
  // A valid frame is consumed exactly: trailing bytes mean a corrupt
  // length prefix or a version-skewed peer.
  if (!r.ok() || !r.at_end()) return false;
  *record = rec;
  return true;
}

bool decode_frame_header(std::string_view body, sim::EventRecord* record) {
  util::ByteReader r(body);
  return decode_header(r, record);
}

}  // namespace kgrid::net::wire
