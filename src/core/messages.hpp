// Inter-resource message payloads of Secure-Majority-Rule.
#pragma once

#include <cstdint>
#include <memory>

#include "arm/rules.hpp"
#include "crypto/hom.hpp"
#include "net/topology.hpp"

namespace kgrid::core {

/// One Secure-Scalable-Majority message: an oblivious counter (in the
/// *recipient's* layout) for one candidate rule. The candidate tag itself is
/// public — the paper's output is the rule list, so candidate identities are
/// not secret; only the vote counts are.
///
/// The candidate travels by a per-edge dictionary instead of by value. The
/// sender numbers the candidates it sends over one link densely, in
/// first-send order (0, 1, 2, ...); the first message for a candidate on
/// that link *announces* it (`announce` non-null, `edge_id` = the next
/// number), and every later one carries `edge_id` alone. The receiver keeps
/// one id → CandId vector per link, so a steady-state message costs one
/// index instead of a Candidate hash. Per-link FIFO delivery (equal-delay
/// links in the simulator, ordered streams on a live transport) is what
/// makes "first sent" also "first delivered". An id out of sequence or out
/// of range is a protocol violation (Broker::Stats::dictionary_rejects).
///
/// The dense ids reveal only the order in which candidates first crossed a
/// link, which the receiver observes anyway.
struct SecureRuleMessage {
  std::uint32_t edge_id = 0;
  /// The sender's shared copy of the candidate (one per candidate, not per
  /// message); set only on the announcing message.
  std::shared_ptr<const arm::Candidate> announce;
  hom::Cipher counter;
};

/// "Broadcast that resource v is malicious" (Algorithm 3): flooded over the
/// overlay tree with per-culprit dedup.
struct MaliciousReport {
  net::NodeId culprit;
  net::NodeId reporter;
};

}  // namespace kgrid::core
