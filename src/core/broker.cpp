#include "core/broker.hpp"

#include <algorithm>
#include <span>

namespace kgrid::core {

Broker::Broker(net::NodeId id, hom::EvalHandle eval, hom::CounterLayout layout,
               std::vector<net::NodeId> neighbors, Accountant* accountant,
               Controller* controller, Rng rng)
    : id_(id), eval_(std::move(eval)), layout_(layout),
      neighbors_(std::move(neighbors)), accountant_(accountant),
      controller_(controller), rng_(rng) {
  KGRID_CHECK(accountant_ != nullptr && controller_ != nullptr,
              "broker needs its accountant and controller");
  KGRID_CHECK(layout_.degree() >= neighbors_.size(),
              "layout too small for neighbour list");
  for (std::size_t s = 1; s <= neighbors_.size(); ++s)
    slot_by_node_.emplace(neighbors_[s - 1], s);
  next_sent_id_.assign(layout_.degree(), 0);
  received_ids_.resize(layout_.degree());
}

void Broker::add_neighbor(net::NodeId v) {
  KGRID_CHECK(neighbors_.size() < layout_.degree(),
              "no spare layout slot for joining neighbour");
  KGRID_CHECK(votes_.size() == candidates().size(),
              "candidate registered behind the broker");
  neighbors_.push_back(v);
  slot_by_node_.emplace(v, neighbors_.size());
  active_edges_stale_ = true;
  // Table walk order: it fixes the zero ciphers' rng draws and the flush
  // order of the bootstrap below.
  candidates().for_each([&](arm::CandId id, const arm::Candidate&) {
    EdgeState& edge = edges(id)[neighbors_.size() - 1];
    edge.received = eval_.zero(layout_.n_fields(), rng_);
    edge.first_received = edge.received;
    mark_dirty(id);  // bootstrap the new edge on the next flush
  });
}

void Broker::install_token(net::NodeId recipient, hom::Cipher token,
                           hom::CounterLayout their_layout,
                           std::size_t our_slot) {
  tokens_.insert_or_assign(recipient,
                           TokenInfo{std::move(token), their_layout, our_slot});
  active_edges_stale_ = true;
}

void Broker::refresh_active_edges() {
  active_edges_stale_ = false;
  active_edges_.clear();
  for (std::size_t slot = 1; slot <= neighbors_.size(); ++slot) {
    const net::NodeId w = neighbors_[slot - 1];
    if (quarantined_.contains(w)) continue;
    const auto it = tokens_.find(w);
    if (it == tokens_.end()) continue;  // setup incomplete
    active_edges_.push_back({slot, w, &it->second});
  }
}

arm::CandId Broker::adopt(const arm::Candidate& candidate, Effects& effects) {
  const arm::CandId id = accountant_->add_rule(candidate);
  if (id < votes_.size()) return id;  // already in C
  KGRID_CHECK(id == votes_.size(), "candidate registered behind the broker");
  ++stats_.candidates_registered;
  votes_.emplace_back().input = eval_.zero(layout_.n_fields(), rng_);
  shared_.push_back(std::make_shared<const arm::Candidate>(candidate));
  edges_.resize(edges_.size() + layout_.degree());
  for (std::size_t s = 0; s < neighbors_.size(); ++s) {
    EdgeState& edge = edges(id)[s];
    edge.received = eval_.zero(layout_.n_fields(), rng_);
    edge.first_received = edge.received;
  }
  // First-contact traffic (the controller's edge gates bootstrap to send).
  evaluate_edges(id, effects);
  return id;
}

hom::Cipher Broker::build_aggregate(arm::CandId id) {
  // Honest path: ⊥ plus every neighbour's latest, each rerandomized so the
  // controller's reply cannot be correlated with individual counters.
  // Collect the contribution list first (the malicious behaviours corrupt
  // it here: a duplicated, dropped, or replayed entry), rerandomize it as
  // one batch, then fold in list order — homomorphic addition is
  // associative and the list order is the serial path's op order, so the
  // aggregate plaintext is identical to the unbatched code.
  std::vector<const hom::Cipher*>& contributions = contributions_;
  contributions.clear();
  contributions.reserve(neighbors_.size() + 2);
  contributions.push_back(&votes_[id].input);
  bool corrupted_once = false;
  const EdgeState* bound = edges(id);
  for (const EdgeState& edge : std::span(bound, neighbors_.size())) {
    const hom::Cipher* contribution = &edge.received;
    switch (behavior_) {
      case BrokerBehavior::kDoubleCount:
        if (!corrupted_once && edge.contacted) {
          contributions.push_back(&edge.received);
          corrupted_once = true;
        }
        break;
      case BrokerBehavior::kOmitNeighbour:
        if (!corrupted_once && edge.contacted) {
          corrupted_once = true;
          continue;  // drop this neighbour entirely
        }
        break;
      case BrokerBehavior::kReplayOld:
        if (!corrupted_once && edge.contacted) {
          contribution = &edge.first_received;
          corrupted_once = true;
        }
        break;
      default:
        break;
    }
    contributions.push_back(contribution);
  }
  return eval_.aggregate_rerandomized(contributions, rng_, executor_);
}

void Broker::evaluate_edges(arm::CandId id, Effects& effects) {
  if (behavior_ == BrokerBehavior::kMuteBroker) return;
  const hom::Cipher agg_all = build_aggregate(id);

  // Pick the edges to consult, then have the controller decrypt the
  // aggregate and every neighbour counter in one batch (E+1 decryptions
  // for E edges instead of the 2E a per-edge SFE pays). The per-edge gate
  // logic stays serial and in slot order — it is integer arithmetic plus
  // at most one encryption, and its ordering carries the rng discipline.
  if (active_edges_stale_) refresh_active_edges();
  if (active_edges_.empty()) return;
  std::vector<const hom::Cipher*>& recvs = recvs_;
  recvs.clear();
  EdgeState* bound = edges(id);
  for (const ActiveEdge& ae : active_edges_)
    recvs.push_back(&bound[ae.slot - 1].received);
  Controller::SfeBatch& batch = batch_;
  controller_->prepare_sfe(agg_all, recvs, executor_, batch);
  const arm::Candidate& rule = candidates()[id];

  for (std::size_t i = 0; i < active_edges_.size(); ++i) {
    const std::size_t slot = active_edges_[i].slot;
    const net::NodeId w = active_edges_[i].w;
    const TokenInfo& token = *active_edges_[i].token;

    ++stats_.edge_evaluations;
    auto decision =
        controller_->sfe_send(id, rule, w, slot, batch.agg_all, batch.recv[i],
                              token.their_layout, token.our_slot);
    for (auto& d : decision.detections) effects.detections.push_back(d);
    if (!decision.send) continue;

    // Complete the controller's fresh counter with w's encrypted share
    // token; neither piece is forgeable by this broker.
    hom::Cipher outgoing = std::move(decision.outgoing);
    eval_.add_into(outgoing, token.token);
    if (behavior_ == BrokerBehavior::kRandomCounter) {
      // "Using an arbitrary value instead of summing": without the
      // encryption key the strongest corruption is scaling the cipher.
      outgoing = eval_.scalar_mul(2 + rng_.below(1000), outgoing);
    }
    ++stats_.messages_out;
    eval_.rerandomize_into(outgoing, rng_);
    // The rule's first message on this link announces it under the link's
    // next edge id; later ones carry the id alone.
    EdgeState& edge = bound[slot - 1];
    std::shared_ptr<const arm::Candidate> announce;
    if (edge.sent_id == EdgeState::kUnsent) {
      edge.sent_id = next_sent_id_[slot - 1]++;
      announce = shared_[id];
    }
    effects.messages.push_back(
        {w, id,
         SecureRuleMessage{edge.sent_id, std::move(announce),
                           std::move(outgoing)}});
  }
}

Broker::Effects Broker::register_candidate(const arm::Candidate& candidate) {
  Effects effects;
  adopt(candidate, effects);
  return effects;
}

Broker::Effects Broker::on_accountant_update(const arm::Candidate& rule) {
  Effects effects;
  const arm::CandId id = candidates().find(rule);
  KGRID_CHECK(id < votes_.size(), "update for an unregistered candidate");
  votes_[id].input = accountant_->reply(rule);
  votes_[id].has_input = true;
  evaluate_edges(id, effects);
  return effects;
}

arm::CandId Broker::accept_message(net::NodeId from,
                                   const SecureRuleMessage& message,
                                   Effects& effects) {
  constexpr arm::CandId kDropped = arm::CandidateTable::kNone;
  if (quarantined_.contains(from)) return kDropped;
  // Only a tree neighbour's counter is trusted enough to adopt its
  // candidate: a sender outside the tree is dropped before it can make
  // this broker register, count, or bootstrap anything.
  const auto slot_it = slot_by_node_.find(from);
  if (slot_it == slot_by_node_.end()) {
    reject(from);
    return kDropped;
  }
  const std::size_t slot = slot_it->second;
  std::vector<arm::CandId>& dictionary = received_ids_[slot - 1];
  arm::CandId id;
  if (message.announce != nullptr) {
    // An announcement names the link's next edge id, exactly once.
    if (message.edge_id != dictionary.size()) {
      reject(from);
      return kDropped;
    }
    // The candidate's one lookup on this link. Algorithm 4: an unknown
    // candidate joins C together with the frequency vote over its full
    // itemset.
    const arm::Candidate& candidate = *message.announce;
    id = candidates().find(candidate);
    if (id == arm::CandidateTable::kNone) {
      id = adopt(candidate, effects);
      adopt(arm::frequency_candidate(candidate.rule.all_items()), effects);
    }
    dictionary.push_back(id);
  } else {
    if (message.edge_id >= dictionary.size()) {  // never announced
      reject(from);
      return kDropped;
    }
    id = dictionary[message.edge_id];
  }
  EdgeState& edge = edges(id)[slot - 1];
  if (!edge.contacted) {
    edge.first_received = message.counter;
    edge.contacted = true;
  }
  edge.received = message.counter;
  return id;
}

Broker::Effects Broker::on_receive(net::NodeId from,
                                   const SecureRuleMessage& message) {
  Effects effects;
  const arm::CandId id = accept_message(from, message, effects);
  if (id != arm::CandidateTable::kNone) evaluate_edges(id, effects);
  return effects;
}

Broker::Effects Broker::store_received(net::NodeId from,
                                       const SecureRuleMessage& message) {
  Effects effects;
  const arm::CandId id = accept_message(from, message, effects);
  if (id != arm::CandidateTable::kNone) mark_dirty(id);
  return effects;
}

void Broker::refresh_input(arm::CandId id, hom::Cipher input) {
  KGRID_CHECK(id < votes_.size(), "input for an unregistered candidate");
  votes_[id].input = std::move(input);
  votes_[id].has_input = true;
  mark_dirty(id);
}

void Broker::flush_dirty(Effects& effects) {
  effects.clear();
  // Flush in first-touch order (deterministic: message arrival and
  // accountant refresh order are both fixed by the event schedule). Indexed
  // loop in case an evaluation ever marks entries dirty again.
  for (std::size_t i = 0; i < dirty_list_.size(); ++i) {
    const arm::CandId id = dirty_list_[i];
    votes_[id].dirty = false;
    evaluate_edges(id, effects);
  }
  dirty_list_.clear();
}

Broker::Effects Broker::generate_candidates() {
  Effects effects;
  generate_candidates(effects);
  return effects;
}

void Broker::generate_candidates(Effects& effects) {
  effects.clear();
  KGRID_CHECK(votes_.size() == candidates().size(),
              "candidate registered behind the broker");
  // Query every candidate's correctness through the output SFE. Aggregates
  // are built first (in table walk order — that fixes the rng draw
  // sequence), then decrypted as one batch, then judged serially in the
  // same order.
  arm::CandidateSet correct;
  std::vector<arm::CandId> ids;
  std::vector<hom::Cipher> aggregates;
  ids.reserve(votes_.size());
  aggregates.reserve(votes_.size());
  candidates().for_each([&](arm::CandId id, const arm::Candidate&) {
    ids.push_back(id);
    aggregates.push_back(build_aggregate(id));
  });
  std::vector<const hom::Cipher*> agg_ptrs;
  agg_ptrs.reserve(aggregates.size());
  for (const hom::Cipher& agg : aggregates) agg_ptrs.push_back(&agg);
  const auto views = controller_->decrypt_views(agg_ptrs, executor_);
  outputs_.resize(votes_.size());
  for (std::size_t i = 0; i < ids.size(); ++i) {
    const arm::Candidate& candidate = candidates()[ids[i]];
    auto decision = controller_->sfe_output(ids[i], candidate, views[i]);
    for (auto& d : decision.detections) effects.detections.push_back(d);
    outputs_[ids[i]] = decision.correct;
    if (decision.correct) correct.insert(candidate);
  }
  // R̃ changes only here: a confidence rule is reported only when its
  // itemset's frequency vote also holds.
  interim_.clear();
  for (const arm::CandId id : ids) {
    if (!outputs_[id]) continue;
    const arm::Candidate& candidate = candidates()[id];
    if (candidate.kind == arm::VoteKind::kFrequency ||
        correct.contains(
            arm::frequency_candidate(candidate.rule.all_items())))
      interim_.push_back(id);
  }
  for (const auto& fresh : arm::derive_candidates(correct, candidates()))
    adopt(fresh, effects);
}

bool Broker::output_answer(const arm::Candidate& candidate) const {
  const arm::CandId id = candidates().find(candidate);
  return id < outputs_.size() && outputs_[id];
}

arm::RuleSet Broker::interim() const {
  arm::RuleSet out;
  for (const arm::CandId id : interim_) out.insert(candidates()[id].rule);
  return out;
}

}  // namespace kgrid::core
