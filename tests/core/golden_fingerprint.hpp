// Protocol-level fingerprint of a finished SecureGrid run, used by the
// golden-trace regression test (threads=1 must keep reproducing the protocol
// behaviour of the pre-executor engine) and the cross-thread-count
// determinism test.
//
// The fingerprint captures protocol-visible state — event counts, plaintext
// protocol counters, interim rule sets, and accountant clocks. Ciphertext
// bits are checked separately, by CipherHasher.
#pragma once

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "core/grid.hpp"
#include "sim/trace.hpp"
#include "util/bytes.hpp"

namespace kgrid::test {

inline std::string grid_fingerprint(core::SecureGrid& grid) {
  obs::Json j = obs::Json::object();
  j.set("messages_sent", grid.engine().messages_sent());
  j.set("messages_delivered", grid.engine().messages_delivered());
  j.set("protocol", grid.protocol_stats());
  obs::Json interim = obs::Json::array();
  obs::Json clocks = obs::Json::array();
  for (net::NodeId u = 0; u < grid.size(); ++u) {
    std::vector<std::string> rules;
    for (const auto& r : grid.resource(u).interim())
      rules.push_back(arm::to_string(r));
    std::sort(rules.begin(), rules.end());
    obs::Json arr = obs::Json::array();
    for (auto& r : rules) arr.push_back(obs::Json(std::move(r)));
    interim.push_back(std::move(arr));
    clocks.push_back(obs::Json(grid.resource(u).accountant().clock()));
  }
  j.set("interim", std::move(interim));
  j.set("clocks", std::move(clocks));
  return j.dump();
}

/// FNV-1a 64 over the fingerprint string — stable across platforms, unlike
/// std::hash. `h` continues a running hash.
inline std::uint64_t fnv1a(const std::string& s,
                           std::uint64_t h = 0xcbf29ce484222325ull) {
  for (const unsigned char c : s) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  return h;
}

/// The schedule hash plus a hash of the encode_cipher bytes of every
/// SecureRuleMessage counter the grid delivers. Each recipient keeps its own
/// running hash (on_message runs on the recipient's shard lane, and lanes
/// own disjoint recipients); cipher_hash() folds them in recipient order.
class CipherHasher : public sim::ScheduleHasher {
 public:
  void on_message(sim::EntityId, sim::EntityId to,
                  const sim::Payload& payload) override {
    const auto* msg = payload.get_if<core::SecureRuleMessage>();
    if (msg == nullptr) return;
    KGRID_CHECK(to < per_recipient_.size(), "CipherHasher: recipient id");
    util::ByteWriter w;
    hom::encode_cipher(w, msg->counter);
    Recipient& r = per_recipient_[to];
    r.hash = fnv1a(w.bytes(), r.hash);
    ++r.ciphers;
  }

  std::uint64_t cipher_hash() const {
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (const Recipient& r : per_recipient_)
      h = fnv1a(std::to_string(r.hash) + ":" + std::to_string(r.ciphers), h);
    return h;
  }

  std::uint64_t ciphers() const {
    std::uint64_t n = 0;
    for (const Recipient& r : per_recipient_) n += r.ciphers;
    return n;
  }

 private:
  struct Recipient {
    std::uint64_t hash = 0xcbf29ce484222325ull;
    std::uint64_t ciphers = 0;
  };
  // Sized up front: on_message may run on several lanes at once.
  std::vector<Recipient> per_recipient_ = std::vector<Recipient>(4096);
};

}  // namespace kgrid::test
