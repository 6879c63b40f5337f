// Component fixtures for one resource's broker, controller and accountant
// on the plain backend, with no simulation engine: hand-built neighbour
// messages go in, and the golden Effects that come out (recipient,
// candidate, decrypted counter fields, detections) and the Stats are
// compared line by line. They pin the trio's observable behaviour, so a
// restructuring of its internal state must reproduce every line.
//
// Messages name their candidate by per-edge id (core/messages.hpp): the
// fixture's neighbours announce a candidate on its first message over
// their link, and outgoing lines name the candidate the broker's own table
// holds under Outgoing::candidate. The EdgeDictionary tests feed the
// broker ids that break the dictionary.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/accountant.hpp"
#include "core/broker.hpp"
#include "core/controller.hpp"
#include "core/ktpp.hpp"
#include "majority/majority_rule.hpp"
#include "util/rng.hpp"

namespace kgrid::core {
namespace {

using arm::confidence_candidate;
using arm::frequency_candidate;

// Resource 0 with tree neighbours 1, 2, 3 and one spare layout slot (slot
// 4) for a joining neighbour. Every neighbour's own layout has degree 2,
// and resource 0 sits in its slot 1.
class ResourceComponents : public ::testing::Test {
 protected:
  static constexpr std::size_t kTheirDegree = 2;
  static constexpr std::size_t kOurSlotThere = 1;

  void SetUp() override {
    for (net::NodeId w : {1u, 2u, 3u}) install_token(w);
    acct.append({0, {1, 2}});
    acct.append({1, {1, 2}});
    acct.append({2, {1}});
    acct.append({3, {2}});
    acct.append({4, {1, 2, 3}});
    acct.append({5, {3}});
  }

  // The share value neighbour w's accountant assigned to us; it shows up in
  // the share field of every counter we send to w.
  static std::uint64_t their_share(net::NodeId w) { return 1000 + w; }

  void install_token(net::NodeId w) {
    const hom::CounterLayout theirs(kTheirDegree);
    broker.install_token(
        w, hom::make_share_token(ctx->encrypt_key(), theirs, their_share(w),
                                 peer_rng),
        theirs, kOurSlotThere);
  }

  // What neighbour w (at our layout slot `slot`) would send: its side's
  // totals, our accountant's share for its slot, and its Lamport stamp.
  // Like a real sender it numbers candidates per link in first-send order
  // and announces each one on its first message.
  SecureRuleMessage from_neighbour(std::size_t slot, const arm::Candidate& c,
                                   std::uint64_t sum, std::uint64_t count,
                                   std::uint64_t num, std::uint64_t ts) {
    auto& sent = peer_ids[slot];
    const auto [it, first] =
        sent.try_emplace(c, static_cast<std::uint32_t>(sent.size()));
    return SecureRuleMessage{
        it->second, first ? std::make_shared<const arm::Candidate>(c) : nullptr,
        counter(slot, sum, count, num, ts)};
  }

  hom::Cipher counter(std::size_t slot, std::uint64_t sum,
                      std::uint64_t count, std::uint64_t num,
                      std::uint64_t ts) {
    return hom::make_counter(ctx->encrypt_key(), acct.layout(), sum, count,
                             num, acct.share_table()[slot], slot, ts,
                             peer_rng);
  }

  static std::string name(const arm::Candidate& c) {
    return (c.kind == arm::VoteKind::kFrequency ? "F" : "C") +
           arm::to_string(c.rule);
  }

  // One line per outgoing message (decrypted in the recipient's layout) and
  // per detection, in emission order.
  std::vector<std::string> show(const Broker::Effects& effects) const {
    std::vector<std::string> lines;
    const hom::CounterLayout theirs(kTheirDegree);
    for (const auto& out : effects.messages) {
      const auto view = hom::CounterView::from_fields(
          theirs, ctx->decrypt_key().decrypt(out.message.counter,
                                             theirs.n_fields()));
      std::string line = "to " + std::to_string(out.to) + " " +
                         name(acct.candidates()[out.candidate]) +
                         " sum=" + std::to_string(view.sum) +
                         " count=" + std::to_string(view.count) +
                         " num=" + std::to_string(view.num) +
                         " share=" + std::to_string(view.share) + " ts=";
      for (std::size_t s = 0; s < view.timestamps.size(); ++s)
        line += (s ? "," : "") + std::to_string(view.timestamps[s]);
      lines.push_back(std::move(line));
    }
    for (const auto& d : effects.detections)
      lines.push_back("detect " + std::to_string(d.culprit) + " " + d.reason);
    return lines;
  }

  std::string stats() const {
    const auto& b = broker.stats();
    const auto& c = ctl.stats();
    const auto& a = acct.stats();
    return "broker out=" + std::to_string(b.messages_out) +
           " registered=" + std::to_string(b.candidates_registered) +
           " edges=" + std::to_string(b.edge_evaluations) +
           " | controller sends=" + std::to_string(c.sfe_sends) +
           " outputs=" + std::to_string(c.sfe_outputs) +
           " granted=" + std::to_string(c.sends_granted) +
           " reveals=" + std::to_string(c.gate_reveals) +
           " detections=" + std::to_string(c.detections) +
           " | accountant replies=" + std::to_string(a.replies) +
           " tokens=" + std::to_string(a.share_tokens);
  }

  std::vector<std::string> flush() {
    broker.flush_dirty(buffer);
    return show(buffer);
  }

  std::vector<std::string> generate() {
    broker.generate_candidates(buffer);
    return show(buffer);
  }

  hom::ContextPtr ctx = hom::Context::make_plain();
  Rng peer_rng{34};
  Accountant acct{0, ctx->encrypt_key(), hom::CounterLayout(4), Rng(31)};
  Controller ctl{0,
                 ctx->decrypt_key(),
                 ctx->encrypt_key(),
                 acct.layout(),
                 acct.share_table(),
                 {0, 1, 2, 3, 0},
                 /*k=*/2,
                 majority::ratio_from_double(0.5),
                 majority::ratio_from_double(0.6),
                 Rng(32)};
  Broker broker{0, ctx->eval_handle(), acct.layout(), {1, 2, 3},
                &acct, &ctl, Rng(33)};
  Broker::Effects buffer;  // flush/generate output, reused like a resource's
  // The neighbours' per-link dictionaries: slot -> candidate -> edge id.
  std::map<std::size_t,
           std::unordered_map<arm::Candidate, std::uint32_t,
                              arm::CandidateHash>>
      peer_ids;

  const arm::Candidate f1 = frequency_candidate({1});
  const arm::Candidate f2 = frequency_candidate({2});
  const arm::Candidate c12 = confidence_candidate({1}, {2});
};

using Lines = std::vector<std::string>;

TEST_F(ResourceComponents, ThreeCandidatesBothVoteKinds) {
  EXPECT_EQ(show(broker.register_candidate(f1)),
            (Lines{"to 1 F{}=>{1} sum=0 count=0 num=0 share=1001 ts=0,1,0",
                   "to 2 F{}=>{1} sum=0 count=0 num=0 share=1002 ts=0,1,0",
                   "to 3 F{}=>{1} sum=0 count=0 num=0 share=1003 ts=0,1,0"}));
  EXPECT_EQ(show(broker.register_candidate(f2)).size(), 3u);
  EXPECT_EQ(show(broker.register_candidate(c12)).size(), 3u);
  EXPECT_TRUE(broker.register_candidate(f1).messages.empty());  // known
  EXPECT_EQ(broker.candidate_count(), 3u);

  // The accountant's first replies reach every edge below the k-gate.
  acct.advance(100);
  EXPECT_EQ(show(broker.on_accountant_update(f1)),
            (Lines{"to 1 F{}=>{1} sum=4 count=6 num=1 share=1001 ts=0,2,0",
                   "to 2 F{}=>{1} sum=4 count=6 num=1 share=1002 ts=0,2,0",
                   "to 3 F{}=>{1} sum=4 count=6 num=1 share=1003 ts=0,2,0"}));
  EXPECT_EQ(show(broker.on_accountant_update(f2)),
            (Lines{"to 1 F{}=>{2} sum=4 count=6 num=1 share=1001 ts=0,3,0",
                   "to 2 F{}=>{2} sum=4 count=6 num=1 share=1002 ts=0,3,0",
                   "to 3 F{}=>{2} sum=4 count=6 num=1 share=1003 ts=0,3,0"}));
  EXPECT_EQ(show(broker.on_accountant_update(c12)),
            (Lines{"to 1 C{1}=>{2} sum=3 count=4 num=1 share=1001 ts=0,4,0",
                   "to 2 C{1}=>{2} sum=3 count=4 num=1 share=1002 ts=0,4,0",
                   "to 3 C{1}=>{2} sum=3 count=4 num=1 share=1003 ts=0,4,0"}));

  // Batched receive: stored now, evaluated at the flush in first-touch
  // order. Past the gate only the edges whose outgoing value moved and
  // whose Majority-Rule condition holds are sent.
  EXPECT_TRUE(show(broker.store_received(
                       1, from_neighbour(1, f1, 5, 6, 2, 1)))
                  .empty());
  EXPECT_TRUE(show(broker.store_received(
                       2, from_neighbour(2, c12, 1, 6, 2, 1)))
                  .empty());
  EXPECT_TRUE(show(broker.store_received(
                       3, from_neighbour(3, f2, 6, 8, 3, 1)))
                  .empty());
  EXPECT_EQ(flush(),
            (Lines{"to 1 C{1}=>{2} sum=4 count=10 num=3 share=1001 ts=0,4,0",
                   "to 3 C{1}=>{2} sum=4 count=10 num=3 share=1003 ts=0,4,0"}));
  EXPECT_TRUE(flush().empty());  // nothing dirty

  // Event-driven receive evaluates at once.
  EXPECT_EQ(show(broker.on_receive(1, from_neighbour(1, f1, 9, 12, 3, 2))),
            (Lines{"to 2 F{}=>{1} sum=13 count=18 num=4 share=1002 ts=0,3,0",
                   "to 3 F{}=>{1} sum=13 count=18 num=4 share=1003 ts=0,3,0"}));

  // Output SFEs, then the derived candidates' bootstrap traffic.
  EXPECT_EQ(generate(),
            (Lines{"to 1 F{}=>{1,2} sum=0 count=0 num=0 share=1001 ts=0,1,0",
                   "to 2 F{}=>{1,2} sum=0 count=0 num=0 share=1002 ts=0,1,0",
                   "to 3 F{}=>{1,2} sum=0 count=0 num=0 share=1003 ts=0,1,0"}));
  EXPECT_TRUE(broker.output_answer(f1));
  EXPECT_TRUE(broker.output_answer(f2));
  EXPECT_FALSE(broker.output_answer(c12));
  EXPECT_FALSE(broker.output_answer(frequency_candidate({1, 2})));
  EXPECT_EQ(broker.interim(), (arm::RuleSet{f1.rule, f2.rule}));
  EXPECT_EQ(broker.candidate_count(), 4u);

  // An unknown candidate from a neighbour joins together with the
  // frequency vote over its full itemset ({1,2} is already known).
  const auto c21 = confidence_candidate({2}, {1});
  EXPECT_EQ(show(broker.store_received(2, from_neighbour(2, c21, 2, 3, 1, 1))),
            (Lines{"to 1 C{2}=>{1} sum=0 count=0 num=0 share=1001 ts=0,1,0",
                   "to 2 C{2}=>{1} sum=0 count=0 num=0 share=1002 ts=0,1,0",
                   "to 3 C{2}=>{1} sum=0 count=0 num=0 share=1003 ts=0,1,0"}));
  EXPECT_EQ(broker.candidate_count(), 5u);
  EXPECT_EQ(flush(),
            (Lines{"to 1 C{2}=>{1} sum=2 count=3 num=1 share=1001 ts=0,2,0",
                   "to 3 C{2}=>{1} sum=2 count=3 num=1 share=1003 ts=0,2,0"}));
  EXPECT_EQ(stats(),
            "broker out=30 registered=5 edges=39 | controller sends=39 "
            "outputs=3 granted=30 reveals=9 detections=0 | accountant "
            "replies=3 tokens=0");
}

TEST_F(ResourceComponents, SpareSlotJoinBootstrapsTheNewEdge) {
  (void)broker.register_candidate(f1);
  (void)broker.register_candidate(c12);
  acct.advance(100);
  (void)broker.on_accountant_update(f1);
  (void)broker.on_accountant_update(c12);

  // The harness's join: the controller binds the spare slot, the broker
  // grows every vote by one edge, and the tokens are exchanged.
  ctl.register_neighbor(4, 9);
  broker.add_neighbor(9);
  install_token(9);
  EXPECT_EQ(flush(),
            (Lines{"to 9 C{1}=>{2} sum=3 count=4 num=1 share=1009 ts=0,3,0",
                   "to 9 F{}=>{1} sum=4 count=6 num=1 share=1009 ts=0,2,0"}));

  // The new neighbour's counters are accepted at its slot.
  EXPECT_TRUE(broker.store_received(9, from_neighbour(4, f1, 0, 5, 2, 1))
                  .messages.empty());
  EXPECT_EQ(flush(),
            (Lines{"to 1 F{}=>{1} sum=4 count=11 num=3 share=1001 ts=0,2,0",
                   "to 2 F{}=>{1} sum=4 count=11 num=3 share=1002 ts=0,2,0",
                   "to 3 F{}=>{1} sum=4 count=11 num=3 share=1003 ts=0,2,0"}));
  EXPECT_EQ(stats(),
            "broker out=17 registered=2 edges=24 | controller sends=24 "
            "outputs=0 granted=17 reveals=3 detections=0 | accountant "
            "replies=2 tokens=0");
}

TEST_F(ResourceComponents, QuarantineSilencesTheEdge) {
  (void)broker.register_candidate(f1);
  broker.quarantine(2);
  EXPECT_TRUE(broker.is_quarantined(2));
  acct.advance(100);
  EXPECT_EQ(show(broker.on_accountant_update(f1)),
            (Lines{"to 1 F{}=>{1} sum=4 count=6 num=1 share=1001 ts=0,2,0",
                   "to 3 F{}=>{1} sum=4 count=6 num=1 share=1003 ts=0,2,0"}));
  // Counters from the quarantined resource are dropped unread, even for a
  // candidate this broker has never seen.
  EXPECT_TRUE(show(broker.on_receive(2, from_neighbour(2, f1, 9, 9, 3, 1)))
                  .empty());
  EXPECT_TRUE(show(broker.on_receive(2, from_neighbour(2, f2, 9, 9, 3, 1)))
                  .empty());
  EXPECT_EQ(broker.candidate_count(), 1u);
  EXPECT_EQ(stats(),
            "broker out=5 registered=1 edges=5 | controller sends=5 "
            "outputs=0 granted=5 reveals=0 detections=0 | accountant "
            "replies=1 tokens=0");
}

TEST_F(ResourceComponents, ReplayOldBrokerIsCaught) {
  (void)broker.register_candidate(f1);
  acct.advance(100);
  (void)broker.on_accountant_update(f1);
  (void)broker.on_receive(1, from_neighbour(1, f1, 1, 2, 1, 1));
  (void)broker.on_receive(1, from_neighbour(1, f1, 2, 4, 2, 2));

  // The compromised broker substitutes neighbour 1's first counter for
  // its latest; the controller's trace sees slot 1 go back in time.
  broker.set_behavior(BrokerBehavior::kReplayOld);
  EXPECT_EQ(show(broker.on_accountant_update(f1)),
            (Lines{"detect 1 timestamp regression at slot 1"}));
  EXPECT_TRUE(ctl.halted());
  EXPECT_TRUE(show(broker.on_receive(1, from_neighbour(1, f1, 3, 6, 3, 3)))
                  .empty());
  EXPECT_EQ(stats(),
            "broker out=10 registered=1 edges=18 | controller sends=13 "
            "outputs=0 granted=10 reveals=0 detections=1 | accountant "
            "replies=2 tokens=0");
}

TEST_F(ResourceComponents, MonitorNamesTheGatesARealControllerOpens) {
  // A monitor stricter than the controller's own k = 2 flags every reveal
  // that clears 2 but not 5, naming the gate it was made at.
  KTtpMonitor strict(5);
  ctl.set_monitor(&strict);
  (void)broker.register_candidate(f1);
  (void)broker.register_candidate(c12);
  acct.advance(100);
  (void)broker.on_accountant_update(f1);
  (void)broker.on_accountant_update(c12);
  (void)broker.store_received(1, from_neighbour(1, f1, 5, 6, 2, 1));
  (void)broker.store_received(2, from_neighbour(2, c12, 1, 6, 2, 1));
  (void)flush();
  (void)generate();

  Lines contexts;
  for (const auto& v : strict.violations())
    contexts.push_back(v.context + " count+" + std::to_string(v.count_delta) +
                       " num+" + std::to_string(v.num_delta));
  EXPECT_EQ(contexts, (Lines{"r0/send/{}=>{1}/2 count+12 num+3",
                             "r0/send/{}=>{1}/3 count+12 num+3",
                             "r0/send/{1}=>{2}/1 count+10 num+3",
                             "r0/send/{1}=>{2}/3 count+10 num+3",
                             "r0/out/{1}=>{2} count+10 num+3",
                             "r0/out/{}=>{1} count+12 num+3"}));
  EXPECT_EQ(ctl.stats().gate_reveals, strict.grants());
}

TEST_F(ResourceComponents, NonNeighbourSenderIsNotTrusted) {
  // A frame whose header claims a sender outside the tree must not make
  // the broker adopt its candidate, start counting it, or bootstrap it.
  Broker::Effects in = broker.on_receive(7, from_neighbour(1, f1, 5, 6, 2, 1));
  EXPECT_TRUE(show(in).empty());
  in = broker.store_received(7, from_neighbour(1, c12, 5, 6, 2, 1));
  EXPECT_TRUE(show(in).empty());
  EXPECT_EQ(broker.candidate_count(), 0u);
  EXPECT_FALSE(acct.has_rule(f1));
  EXPECT_FALSE(acct.has_rule(c12));
  EXPECT_TRUE(flush().empty());
  EXPECT_EQ(stats(),
            "broker out=0 registered=0 edges=0 | controller sends=0 "
            "outputs=0 granted=0 reveals=0 detections=0 | accountant "
            "replies=0 tokens=0");
}

// Hostile senders against the per-edge candidate dictionary: every
// violation is dropped, counted, and quarantines the sender locally — the
// process never aborts, and the other links keep working.
class EdgeDictionary : public ResourceComponents {
 protected:
  // A message from the neighbour at `slot` with an arbitrary edge id,
  // announcing `announce` when it is non-null.
  SecureRuleMessage raw(std::size_t slot, std::uint32_t edge_id,
                        const arm::Candidate* announce) {
    return SecureRuleMessage{
        edge_id,
        announce != nullptr ? std::make_shared<const arm::Candidate>(*announce)
                            : nullptr,
        counter(slot, 5, 6, 2, 1)};
  }

  std::uint64_t rejected() const { return broker.stats().messages_rejected; }
};

TEST_F(EdgeDictionary, SenderAnnouncesOncePerLinkInFirstSendOrder) {
  const Broker::Effects first = broker.register_candidate(f1);
  const Broker::Effects second = broker.register_candidate(c12);
  ASSERT_EQ(first.messages.size(), 3u);
  ASSERT_EQ(second.messages.size(), 3u);
  for (const auto& out : first.messages) {
    EXPECT_EQ(out.message.edge_id, 0u);
    ASSERT_NE(out.message.announce, nullptr);
    EXPECT_EQ(*out.message.announce, f1);
    // One shared copy per candidate, not one per message.
    EXPECT_EQ(out.message.announce, first.messages[0].message.announce);
  }
  for (const auto& out : second.messages) {
    EXPECT_EQ(out.message.edge_id, 1u);
    ASSERT_NE(out.message.announce, nullptr);
    EXPECT_EQ(*out.message.announce, c12);
  }
  // Later messages carry the id alone.
  acct.advance(100);
  const Broker::Effects again = broker.on_accountant_update(f1);
  ASSERT_EQ(again.messages.size(), 3u);
  for (const auto& out : again.messages) {
    EXPECT_EQ(out.message.edge_id, 0u);
    EXPECT_EQ(out.message.announce, nullptr);
  }
  EXPECT_EQ(rejected(), 0u);
}

TEST_F(EdgeDictionary, UnannouncedIdIsDroppedAndQuarantined) {
  (void)broker.register_candidate(f1);  // known here, never announced by 1
  EXPECT_TRUE(show(broker.store_received(1, raw(1, 0, nullptr))).empty());
  EXPECT_TRUE(broker.is_quarantined(1));
  EXPECT_EQ(rejected(), 1u);
  // Once quarantined, even a well-formed announcement is dropped unread.
  EXPECT_TRUE(show(broker.store_received(1, raw(1, 0, &f1))).empty());
  EXPECT_EQ(rejected(), 1u);
  EXPECT_TRUE(flush().empty());
  // The other links are untouched.
  acct.advance(100);
  EXPECT_EQ(show(broker.on_accountant_update(f1)),
            (Lines{"to 2 F{}=>{1} sum=4 count=6 num=1 share=1002 ts=0,2,0",
                   "to 3 F{}=>{1} sum=4 count=6 num=1 share=1003 ts=0,2,0"}));
}

TEST_F(EdgeDictionary, AnnouncementOutOfSequenceIsDroppedAndQuarantined) {
  // Link 2's first announcement must carry id 0.
  EXPECT_TRUE(show(broker.on_receive(2, raw(2, 1, &f1))).empty());
  EXPECT_TRUE(broker.is_quarantined(2));
  EXPECT_EQ(rejected(), 1u);
  EXPECT_EQ(broker.candidate_count(), 0u);  // nothing adopted
  EXPECT_FALSE(acct.has_rule(f1));
  // Link 3 announces in sequence and is accepted.
  EXPECT_EQ(show(broker.store_received(3, raw(3, 0, &f1))).size(), 2u);
  EXPECT_EQ(broker.candidate_count(), 1u);
  EXPECT_FALSE(broker.is_quarantined(3));
  EXPECT_EQ(rejected(), 1u);
}

TEST_F(EdgeDictionary, SecondAnnouncementOfAnIdIsDroppedAndQuarantined) {
  (void)broker.store_received(3, raw(3, 0, &f1));
  EXPECT_EQ(broker.candidate_count(), 1u);
  EXPECT_EQ(rejected(), 0u);
  // Id 0 is taken on this link: re-announcing it (as anything) is a lie.
  EXPECT_TRUE(show(broker.store_received(3, raw(3, 0, &f2))).empty());
  EXPECT_TRUE(broker.is_quarantined(3));
  EXPECT_EQ(rejected(), 1u);
  EXPECT_EQ(broker.candidate_count(), 1u);
  EXPECT_FALSE(acct.has_rule(f2));
}

TEST_F(EdgeDictionary, OutOfRangeIdIsDroppedAndQuarantined) {
  (void)broker.store_received(1, raw(1, 0, &f1));
  EXPECT_TRUE(show(broker.store_received(1, raw(1, 1, nullptr))).empty());
  EXPECT_TRUE(broker.is_quarantined(1));
  EXPECT_TRUE(show(broker.on_receive(2, raw(2, UINT32_MAX, nullptr))).empty());
  EXPECT_TRUE(broker.is_quarantined(2));
  EXPECT_EQ(rejected(), 2u);
  // Link 3 can still name f1 — after announcing it on its own link.
  EXPECT_TRUE(show(broker.store_received(3, raw(3, 0, &f1))).empty());
  EXPECT_TRUE(show(broker.store_received(3, raw(3, 0, nullptr))).empty());
  EXPECT_EQ(rejected(), 2u);
  EXPECT_FALSE(broker.is_quarantined(3));
}

TEST_F(EdgeDictionary, AnnouncementFromNonNeighbourIsDroppedAndQuarantined) {
  EXPECT_TRUE(show(broker.on_receive(7, raw(1, 0, &f1))).empty());
  EXPECT_TRUE(broker.is_quarantined(7));
  EXPECT_EQ(rejected(), 1u);
  EXPECT_EQ(broker.candidate_count(), 0u);
  EXPECT_FALSE(acct.has_rule(f1));
}

TEST_F(EdgeDictionary, SpareSlotJoinAnnouncesOnTheNewEdge) {
  (void)broker.register_candidate(f1);
  (void)broker.register_candidate(c12);
  acct.advance(100);
  (void)broker.on_accountant_update(f1);
  (void)broker.on_accountant_update(c12);
  ctl.register_neighbor(4, 9);
  broker.add_neighbor(9);
  install_token(9);
  // The new link numbers candidates in its own first-send order (the
  // flush order), independent of the ids the older links use.
  broker.flush_dirty(buffer);
  ASSERT_EQ(buffer.messages.size(), 2u);
  for (std::uint32_t i = 0; i < 2; ++i) {
    const auto& out = buffer.messages[i];
    EXPECT_EQ(out.to, 9u);
    EXPECT_EQ(out.message.edge_id, i);
    ASSERT_NE(out.message.announce, nullptr);
    EXPECT_EQ(*out.message.announce, acct.candidates()[out.candidate]);
  }
  EXPECT_EQ(*buffer.messages[0].message.announce, c12);
  // The joiner announces on its side of the link; the broker resolves the
  // spare slot's dictionary and answers the old links by id alone.
  EXPECT_TRUE(broker.store_received(9, from_neighbour(4, f1, 0, 5, 2, 1))
                  .messages.empty());
  broker.flush_dirty(buffer);
  ASSERT_EQ(buffer.messages.size(), 3u);
  for (const auto& out : buffer.messages) {
    EXPECT_EQ(out.message.edge_id, 0u);
    EXPECT_EQ(out.message.announce, nullptr);
  }
  EXPECT_EQ(rejected(), 0u);
}

}  // namespace
}  // namespace kgrid::core
