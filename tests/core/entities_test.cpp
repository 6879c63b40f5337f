// Unit tests for the accountant / controller / broker trio on a hand-wired
// two-resource edge (no simulation engine).
#include <gtest/gtest.h>

#include "core/accountant.hpp"
#include "core/broker.hpp"
#include "core/controller.hpp"
#include "majority/majority_rule.hpp"
#include "util/rng.hpp"

namespace kgrid::core {
namespace {

using arm::frequency_candidate;

struct Pair {
  // Two resources 0 <-> 1, path topology, plain backend.
  hom::ContextPtr ctx = hom::Context::make_plain();
  Rng rng{77};
  Accountant acct0{0, ctx->encrypt_key(), hom::CounterLayout(1), Rng(1)};
  Accountant acct1{1, ctx->encrypt_key(), hom::CounterLayout(1), Rng(2)};
  Controller ctl0{0,
                  ctx->decrypt_key(),
                  ctx->encrypt_key(),
                  acct0.layout(),
                  acct0.share_table(),
                  {0, 1},
                  /*k=*/2,
                  majority::ratio_from_double(0.5),
                  majority::ratio_from_double(0.8),
                  Rng(3)};
  Controller ctl1{1,
                  ctx->decrypt_key(),
                  ctx->encrypt_key(),
                  acct1.layout(),
                  acct1.share_table(),
                  {1, 0},
                  /*k=*/2,
                  majority::ratio_from_double(0.5),
                  majority::ratio_from_double(0.8),
                  Rng(4)};
  Broker broker0{0, ctx->eval_handle(), acct0.layout(), {1},
                 &acct0, &ctl0, Rng(5)};
  Broker broker1{1, ctx->eval_handle(), acct1.layout(), {0},
                 &acct1, &ctl1, Rng(6)};

  Pair() {
    // Token exchange: each accountant's slot-1 share goes to the peer.
    broker1.install_token(0, acct0.share_token(1), acct0.layout(), 1);
    broker0.install_token(1, acct1.share_token(1), acct1.layout(), 1);
  }

  void load(Accountant& acct, std::initializer_list<bool> votes) {
    data::TransactionId id = 1000 * acct.id();
    for (bool yes : votes)
      acct.append({id++, yes ? data::Itemset{1} : data::Itemset{2}});
  }

  // Deliver messages between the two brokers until silence.
  void pump(Broker::Effects first_from0, Broker::Effects first_from1) {
    std::vector<std::pair<net::NodeId, SecureRuleMessage>> queue;
    auto enqueue = [&queue](net::NodeId from, const Broker::Effects& e) {
      for (const auto& m : e.messages) queue.push_back({from, m.message});
      EXPECT_TRUE(e.detections.empty());
    };
    enqueue(0, first_from0);
    enqueue(1, first_from1);
    std::size_t guard = 1000;
    while (!queue.empty()) {
      ASSERT_GT(guard--, 0u) << "edge did not quiesce";
      auto [from, msg] = queue.front();
      queue.erase(queue.begin());
      Broker& target = from == 0 ? broker1 : broker0;
      enqueue(from == 0 ? 1 : 0, target.on_receive(from, msg));
    }
  }
};

TEST(Accountant, ReplyStructure) {
  hom::ContextPtr ctx = hom::Context::make_plain();
  Accountant acct(3, ctx->encrypt_key(), hom::CounterLayout(2), Rng(9));
  acct.append({0, {1, 2}});
  acct.append({1, {1}});
  acct.append({2, {2}});
  const auto rule = frequency_candidate({1});
  acct.add_rule(rule);
  EXPECT_EQ(acct.advance(100), std::vector<arm::Candidate>{rule});

  const auto view = hom::CounterView::from_fields(
      acct.layout(),
      ctx->decrypt_key().decrypt(acct.reply(rule), acct.layout().n_fields()));
  EXPECT_EQ(view.sum, 2);    // {1,2} and {1}
  EXPECT_EQ(view.count, 3);  // every transaction votes
  EXPECT_EQ(view.num, 1);    // one resource
  EXPECT_EQ(view.share, acct.share_table()[0] % hom::kShareModulus);
  EXPECT_EQ(view.timestamps[0], 1u);  // first reply
  EXPECT_EQ(view.timestamps[1], 0u);
  EXPECT_EQ(view.timestamps[2], 0u);

  // The clock advances per reply: a replayed old reply is detectable.
  const auto view2 = hom::CounterView::from_fields(
      acct.layout(),
      ctx->decrypt_key().decrypt(acct.reply(rule), acct.layout().n_fields()));
  EXPECT_EQ(view2.timestamps[0], 2u);
}

TEST(Accountant, SharesSumToOne) {
  hom::ContextPtr ctx = hom::Context::make_plain();
  Accountant acct(0, ctx->encrypt_key(), hom::CounterLayout(3), Rng(10));
  std::uint64_t total = 0;
  for (auto s : acct.share_table()) total = (total + s) % hom::kShareModulus;
  EXPECT_EQ(total, 1u);
  EXPECT_EQ(acct.share_table().size(), 4u);
}

TEST(Accountant, ConfidenceVoteCountsOnlyLhsHolders) {
  hom::ContextPtr ctx = hom::Context::make_plain();
  Accountant acct(0, ctx->encrypt_key(), hom::CounterLayout(1), Rng(11));
  acct.append({0, {1, 2}});
  acct.append({1, {1}});
  acct.append({2, {3}});
  const auto rule = arm::confidence_candidate({1}, {2});
  acct.add_rule(rule);
  acct.advance(100);
  const auto view = hom::CounterView::from_fields(
      acct.layout(),
      ctx->decrypt_key().decrypt(acct.reply(rule), acct.layout().n_fields()));
  EXPECT_EQ(view.count, 2);  // two transactions contain {1}
  EXPECT_EQ(view.sum, 1);    // one also contains {2}
}

TEST(SecureEdge, TwoResourcesAgreeOnFrequentItem) {
  Pair pair;
  // Item 1 in 8 of 10 transactions globally; MinFreq 0.5 -> frequent.
  pair.load(pair.acct0, {true, true, true, true, false});
  pair.load(pair.acct1, {true, true, true, true, false});
  const auto rule = frequency_candidate({1});
  auto e0 = pair.broker0.register_candidate(rule);
  auto e1 = pair.broker1.register_candidate(rule);
  pair.acct0.advance(100);
  pair.acct1.advance(100);
  pair.pump(std::move(e0), std::move(e1));
  pair.pump(pair.broker0.on_accountant_update(rule),
            pair.broker1.on_accountant_update(rule));
  auto g0 = pair.broker0.generate_candidates();
  auto g1 = pair.broker1.generate_candidates();
  EXPECT_TRUE(pair.broker0.output_answer(rule));
  EXPECT_TRUE(pair.broker1.output_answer(rule));
}

TEST(SecureEdge, TwoResourcesAgreeOnInfrequentItem) {
  Pair pair;
  pair.load(pair.acct0, {true, false, false, false, false});
  pair.load(pair.acct1, {false, false, false, false, false});
  const auto rule = frequency_candidate({1});
  auto e0 = pair.broker0.register_candidate(rule);
  auto e1 = pair.broker1.register_candidate(rule);
  pair.acct0.advance(100);
  pair.acct1.advance(100);
  pair.pump(std::move(e0), std::move(e1));
  pair.pump(pair.broker0.on_accountant_update(rule),
            pair.broker1.on_accountant_update(rule));
  (void)pair.broker0.generate_candidates();
  (void)pair.broker1.generate_candidates();
  EXPECT_FALSE(pair.broker0.output_answer(rule));
  EXPECT_FALSE(pair.broker1.output_answer(rule));
}

TEST(SecureEdge, LocalMinorityGlobalMajorityResolved) {
  Pair pair;
  // Resource 0 alone would say infrequent; the combined data is frequent.
  pair.load(pair.acct0, {true, false, false, false});   // 1/4
  pair.load(pair.acct1, {true, true, true, true});      // 4/4 -> global 5/8
  const auto rule = frequency_candidate({1});
  auto e0 = pair.broker0.register_candidate(rule);
  auto e1 = pair.broker1.register_candidate(rule);
  pair.acct0.advance(100);
  pair.acct1.advance(100);
  pair.pump(std::move(e0), std::move(e1));
  pair.pump(pair.broker0.on_accountant_update(rule),
            pair.broker1.on_accountant_update(rule));
  (void)pair.broker0.generate_candidates();
  (void)pair.broker1.generate_candidates();
  EXPECT_TRUE(pair.broker0.output_answer(rule));
  EXPECT_TRUE(pair.broker1.output_answer(rule));
}

TEST(Controller, OutputGateHoldsAnswerBelowK) {
  // k = 2: an aggregate with a single resource's worth of data must not be
  // revealed; the controller repeats its initial (false) answer.
  hom::ContextPtr ctx = hom::Context::make_plain();
  Accountant acct(0, ctx->encrypt_key(), hom::CounterLayout(1), Rng(12));
  Controller ctl(0, ctx->decrypt_key(), ctx->encrypt_key(), acct.layout(),
                 acct.share_table(), {0, 1}, /*k=*/2,
                 majority::ratio_from_double(0.5),
                 majority::ratio_from_double(0.8), Rng(13));
  acct.append({0, {1}});
  acct.append({1, {1}});
  acct.append({2, {1}});
  const auto rule = frequency_candidate({1});
  const arm::CandId id = acct.add_rule(rule);
  acct.advance(100);
  // Aggregate = just the local input: num = 1 < k.
  const auto decision = ctl.sfe_output(id, rule, acct.reply(rule));
  EXPECT_TRUE(decision.detections.empty());
  EXPECT_FALSE(decision.correct);  // data clearly frequent, but gated
}

TEST(Controller, HaltsAfterTamperedAggregate) {
  hom::ContextPtr ctx = hom::Context::make_plain();
  Accountant acct(0, ctx->encrypt_key(), hom::CounterLayout(1), Rng(14));
  Controller ctl(0, ctx->decrypt_key(), ctx->encrypt_key(), acct.layout(),
                 acct.share_table(), {0, 1}, /*k=*/1,
                 majority::ratio_from_double(0.5),
                 majority::ratio_from_double(0.8), Rng(15));
  acct.append({0, {1}});
  const auto rule = frequency_candidate({1});
  const arm::CandId id = acct.add_rule(rule);
  acct.advance(100);
  // Double the legitimate reply: share becomes 2*s_⊥ ≠ expected.
  const auto reply = acct.reply(rule);
  const auto doubled = ctx->eval_handle().add(reply, reply);
  const auto decision = ctl.sfe_output(id, rule, doubled);
  ASSERT_FALSE(decision.detections.empty());
  EXPECT_EQ(decision.detections[0].culprit, 0u);
  EXPECT_TRUE(ctl.halted());
  // Once halted the controller refuses further service.
  const auto after = ctl.sfe_output(id, rule, acct.reply(rule));
  EXPECT_TRUE(after.detections.empty());
  EXPECT_FALSE(after.correct);
}

TEST(Controller, HaltedControllerRefusesSends) {
  Pair pair;
  pair.load(pair.acct0, {true, true});
  const auto rule = frequency_candidate({1});
  (void)pair.broker0.register_candidate(rule);
  pair.acct0.advance(100);

  // Corrupt an SFE to halt controller 0.
  const auto reply = pair.acct0.reply(rule);
  const auto doubled = pair.ctx->eval_handle().add(reply, reply);
  (void)pair.ctl0.sfe_output(pair.acct0.candidates().find(rule), rule,
                              doubled);
  ASSERT_TRUE(pair.ctl0.halted());

  // Subsequent accountant updates produce no outgoing traffic.
  const auto effects = pair.broker0.on_accountant_update(rule);
  EXPECT_TRUE(effects.messages.empty());
}

TEST(Accountant, SpareSlotSharesStillSumToOne) {
  // A resource created with spare join slots mints shares for them too;
  // aggregates that do not involve the spare slots still verify, because
  // an absent contributor is expected to contribute nothing.
  hom::ContextPtr ctx = hom::Context::make_plain();
  Accountant acct(0, ctx->encrypt_key(), hom::CounterLayout(3), Rng(44));
  ASSERT_EQ(acct.share_table().size(), 4u);  // self + 3 slots (some spare)
  Controller ctl(0, ctx->decrypt_key(), ctx->encrypt_key(), acct.layout(),
                 acct.share_table(), {0, 1, 0, 0}, /*k=*/1,
                 majority::ratio_from_double(0.5),
                 majority::ratio_from_double(0.8), Rng(45));
  acct.append({0, {1}});
  const auto rule = frequency_candidate({1});
  const arm::CandId id = acct.add_rule(rule);
  acct.advance(100);
  // Aggregate = accountant reply only; slots 1..3 silent.
  const auto decision = ctl.sfe_output(id, rule, acct.reply(rule));
  EXPECT_TRUE(decision.detections.empty());
  EXPECT_TRUE(decision.correct);
  EXPECT_FALSE(ctl.halted());
}

TEST(Broker, QuarantineStopsTraffic) {
  Pair pair;
  pair.load(pair.acct0, {true, true});
  const auto rule = frequency_candidate({1});
  (void)pair.broker0.register_candidate(rule);
  pair.acct0.advance(100);
  pair.broker0.quarantine(1);
  EXPECT_TRUE(pair.broker0.is_quarantined(1));
  // No messages toward the quarantined neighbour…
  const auto effects = pair.broker0.on_accountant_update(rule);
  EXPECT_TRUE(effects.messages.empty());
  // …and messages from it are dropped.
  (void)pair.broker1.register_candidate(rule);
  pair.acct1.advance(100);
  const auto in = pair.broker1.on_accountant_update(rule);
  for (const auto& out : in.messages) {
    const auto ignored = pair.broker0.on_receive(1, out.message);
    EXPECT_TRUE(ignored.messages.empty());
  }
}

TEST(Broker, InterimRequiresFrequencyVoteForConfidenceRules) {
  Pair pair;
  // All transactions contain {1,2}: both the itemset and 1=>2 pass.
  pair.acct0.append({0, {1, 2}});
  pair.acct0.append({1, {1, 2}});
  pair.acct1.append({10, {1, 2}});
  pair.acct1.append({11, {1, 2}});
  const auto freq = frequency_candidate({1, 2});
  const auto conf = arm::confidence_candidate({1}, {2});
  // The bootstrap traffic is delivered, like every message after it: the
  // first message of a rule on a link announces it (core/messages.hpp).
  for (const auto& rule : {freq, conf})
    pair.pump(pair.broker0.register_candidate(rule),
              pair.broker1.register_candidate(rule));
  pair.acct0.advance(100);
  pair.acct1.advance(100);
  for (const auto& rule : {freq, conf})
    pair.pump(pair.broker0.on_accountant_update(rule),
              pair.broker1.on_accountant_update(rule));
  (void)pair.broker0.generate_candidates();
  const auto interim = pair.broker0.interim();
  EXPECT_TRUE(interim.contains(freq.rule));
  EXPECT_TRUE(interim.contains(conf.rule));

  // A confident rule over an infrequent itemset is withheld: {1,2} appears
  // in 2/8 transactions (below MinFreq 0.5) but 1 => 2 holds whenever 1
  // does.
  Pair pair2;
  pair2.acct0.append({0, {1, 2}});
  pair2.acct0.append({1, {3}});
  pair2.acct0.append({2, {3}});
  pair2.acct0.append({3, {3}});
  pair2.acct1.append({10, {1, 2}});
  pair2.acct1.append({11, {3}});
  pair2.acct1.append({12, {3}});
  pair2.acct1.append({13, {3}});
  for (const auto& rule : {freq, conf})
    pair2.pump(pair2.broker0.register_candidate(rule),
               pair2.broker1.register_candidate(rule));
  pair2.acct0.advance(100);
  pair2.acct1.advance(100);
  for (const auto& rule : {freq, conf})
    pair2.pump(pair2.broker0.on_accountant_update(rule),
               pair2.broker1.on_accountant_update(rule));
  (void)pair2.broker0.generate_candidates();
  EXPECT_TRUE(pair2.broker0.output_answer(conf));    // confident...
  EXPECT_FALSE(pair2.broker0.output_answer(freq));   // ...but infrequent
  EXPECT_FALSE(pair2.broker0.interim().contains(conf.rule));
  EXPECT_FALSE(pair2.broker0.interim().contains(freq.rule));
}

}  // namespace
}  // namespace kgrid::core
