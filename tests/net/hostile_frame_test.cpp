// Hostile frames on a live link: a frame that fails to decode — here an
// announcing SecureRuleMessage cut short inside its candidate — is dropped
// by the transport instead of aborting the process, and its claimed sender
// is rejected by the receiving resource (Broker::reject: counted, then
// quarantined locally). The per-edge dictionary violations themselves are
// covered at the broker in tests/core/components_test.cpp (EdgeDictionary).
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/grid.hpp"
#include "net/live/transport.hpp"
#include "net/wire/wire.hpp"
#include "util/rng.hpp"

namespace kgrid {
namespace {

struct Delivery {
  sim::EntityId from;
  sim::EntityId to;
  bool empty;
};

class Recorder : public sim::Entity {
 public:
  Recorder(sim::EntityId self, std::vector<Delivery>* log)
      : self_(self), log_(log) {}
  void on_message(sim::Engine&, sim::EntityId from,
                  sim::Payload& payload) override {
    log_->push_back({from, self_, payload.empty()});
  }

 private:
  sim::EntityId self_;
  std::vector<Delivery>* log_;
};

sim::EventRecord record(std::uint64_t seq, sim::EntityId from,
                        sim::EntityId to) {
  sim::EventRecord rec;
  rec.seq = seq;
  rec.from = from;
  rec.to = to;
  rec.time = 1.0 + static_cast<double>(seq);
  rec.sent_at = 0.5;
  rec.kind = sim::EventKind::kMessage;
  return rec;
}

/// Append [u32 LE length][body] to `out`.
void append_frame(std::string* out, const std::string& body) {
  const auto n = static_cast<std::uint32_t>(body.size());
  for (int i = 0; i < 4; ++i)
    out->push_back(static_cast<char>((n >> (8 * i)) & 0xff));
  out->append(body);
}

TEST(HostileFrame, MalformedFramesAreDroppedNotFatal) {
  const hom::ContextPtr ctx = hom::Context::make_plain();
  Rng rng(21);
  core::SecureRuleMessage msg{
      0, std::make_shared<const arm::Candidate>(
             arm::confidence_candidate({1, 4}, {9})),
      ctx->encrypt_key().encrypt_value(7, rng)};
  util::ByteWriter w;
  ASSERT_TRUE(net::wire::encode_frame(w, record(0, 2, 1), sim::Payload(msg)));
  const std::string announcing = w.bytes();
  w.clear();
  msg.announce = nullptr;
  ASSERT_TRUE(net::wire::encode_frame(w, record(2, 2, 1), sim::Payload(msg)));
  const std::string steady = w.bytes();

  std::string stream;
  // The event header is 1+1+1+8+8 bytes, then the tag, the edge id and the
  // candidate: cutting 4 bytes past that leaves the candidate incomplete.
  append_frame(&stream, announcing.substr(0, 19 + 1 + 1 + 4));
  append_frame(&stream, std::string(3, '\xff'));  // not even a header
  append_frame(&stream, steady);

  net::live::SocketTransport transport;
  sim::Engine engine;
  std::vector<Delivery> log;
  std::vector<std::unique_ptr<Recorder>> entities;
  for (sim::EntityId id = 0; id < 3; ++id) {
    entities.push_back(std::make_unique<Recorder>(id, &log));
    engine.add_entity(entities.back().get());
  }
  engine.attach_transport(&transport);
  const int ingress = transport.open_ingress();
  ASSERT_EQ(::write(ingress, stream.data(), stream.size()),
            static_cast<ssize_t>(stream.size()));
  ::close(ingress);
  for (int i = 0; i < 200 && log.size() < 2; ++i) {
    transport.pump(true);
    while (engine.step()) {
    }
  }
  // The truncated announcement reaches its recipient as an empty payload
  // from its claimed sender; the headerless one is gone; the valid frame
  // behind them still arrives.
  ASSERT_EQ(log.size(), 2u);
  EXPECT_EQ(log[0].from, 2u);
  EXPECT_EQ(log[0].to, 1u);
  EXPECT_TRUE(log[0].empty);
  EXPECT_EQ(log[1].from, 2u);
  EXPECT_FALSE(log[1].empty);
  EXPECT_EQ(transport.stats().frames_rejected, 2u);
  EXPECT_EQ(transport.stats().frames_in, 3u);
}

TEST(HostileFrame, ResourceRejectsASenderOfNonProtocolPayloads) {
  core::SecureGridConfig cfg;
  cfg.env.n_resources = 4;
  cfg.env.seed = 5;
  cfg.env.quest.n_items = 6;
  cfg.env.quest.n_transactions = 80;
  cfg.secure.k = 2;
  cfg.shards = 0;
  cfg.threads = 1;
  core::SecureGrid grid(cfg);
  const net::NodeId victim = 0;
  const net::NodeId peer = grid.env().overlay.neighbors(victim).front();
  // What the transport hands over for a frame it could not decode.
  grid.engine().send(peer, victim, 0.5, sim::Payload());
  grid.run_steps(3);
  const core::Broker& broker = grid.resource(victim).broker();
  EXPECT_TRUE(broker.is_quarantined(peer));
  EXPECT_EQ(broker.stats().messages_rejected, 1u);
  // Local quarantine only: nothing is flooded, so nobody else drops peer.
  for (net::NodeId u = 0; u < grid.size(); ++u) {
    if (u == victim) continue;
    EXPECT_FALSE(grid.resource(u).broker().is_quarantined(peer));
  }
}

}  // namespace
}  // namespace kgrid
