// The broker (paper Algorithms 1 and 4): the resource's network-facing
// entity. It manages the mined model (candidate set + interim solution),
// aggregates neighbours' oblivious counters with the evaluation handle
// (never a key), consults its controller through SFE for every send and
// output decision, and completes outgoing counters with the recipient's
// encrypted share token.
//
// The broker is also the primary attack surface: a BrokerBehavior other
// than kHonest makes it corrupt its SFE inputs or outgoing messages in one
// of the ways §5.2 enumerates.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "arm/apriori.hpp"
#include "arm/candidates.hpp"
#include "core/accountant.hpp"
#include "core/attacks.hpp"
#include "core/controller.hpp"
#include "core/messages.hpp"
#include "crypto/hom.hpp"
#include "net/topology.hpp"
#include "util/rng.hpp"

namespace kgrid::core {

class Broker {
 public:
  struct Outgoing {
    net::NodeId to;
    arm::CandId candidate;  // this resource's id of the message's candidate
    SecureRuleMessage message;
  };

  struct Effects {
    std::vector<Outgoing> messages;
    std::vector<Detection> detections;

    void clear() {
      messages.clear();
      detections.clear();
    }
  };

  Broker(net::NodeId id, hom::EvalHandle eval, hom::CounterLayout layout,
         std::vector<net::NodeId> neighbors, Accountant* accountant,
         Controller* controller, Rng rng);

  net::NodeId id() const { return id_; }
  std::size_t candidate_count() const { return votes_.size(); }
  void set_behavior(BrokerBehavior behavior) { behavior_ = behavior; }
  BrokerBehavior behavior() const { return behavior_; }

  /// Executor lane for the crypto batch APIs (rerandomize/decrypt batches).
  /// Optional; null keeps every batch an inline loop. Calls made from
  /// inside an offloaded per-resource job degrade to inline automatically
  /// (Executor::parallel_for's nested-batch rule), so the handle is safe to
  /// leave attached in both execution modes.
  void set_executor(sim::Executor* executor) { executor_ = executor; }

  /// Protocol-level accounting (docs/METRICS.md).
  struct Stats {
    std::uint64_t messages_out = 0;           // SecureRuleMessages emitted
    std::uint64_t candidates_registered = 0;  // distinct candidates adopted
    std::uint64_t edge_evaluations = 0;       // per-edge sfe_send consults
    /// Received messages dropped as protocol violations — a sender outside
    /// the tree, an edge id out of range, an announcement out of sequence,
    /// or a payload that is no protocol message. Each one quarantines its
    /// sender locally (no report is flooded).
    std::uint64_t messages_rejected = 0;
  };
  const Stats& stats() const { return stats_; }

  /// Install the encrypted share token that `recipient`'s accountant
  /// assigned to this broker, plus the recipient-side layout metadata
  /// needed to build messages for it (all public except the token value).
  void install_token(net::NodeId recipient, hom::Cipher token,
                     hom::CounterLayout their_layout, std::size_t our_slot);

  /// Attach a newly joined neighbour (requires a spare layout slot). Every
  /// existing vote instance gains a zeroed edge; subsequent flushes
  /// bootstrap it.
  void add_neighbor(net::NodeId v);

  /// Stop exchanging counters with a reported-malicious resource.
  void quarantine(net::NodeId resource) {
    quarantined_.insert(resource);
    active_edges_stale_ = true;
  }
  bool is_quarantined(net::NodeId resource) const {
    return quarantined_.contains(resource);
  }

  /// Drop a message from `from` that breaks the protocol: count it and
  /// quarantine the sender locally. Never aborts — the input is hostile,
  /// not a bug of this process.
  void reject(net::NodeId from) {
    ++stats_.messages_rejected;
    quarantine(from);
  }

  /// Register a candidate (asks the accountant to start counting it).
  /// Returns the first-contact bootstrap traffic.
  Effects register_candidate(const arm::Candidate& candidate);

  /// Algorithm 1, "on update notification from the accountant": refresh the
  /// ⊥ input for `rule` and re-evaluate every edge.
  Effects on_accountant_update(const arm::Candidate& rule);

  /// Algorithm 1/4, on receiving a Secure-Scalable-Majority message.
  /// Evaluates the send conditions immediately (event-driven discipline).
  Effects on_receive(net::NodeId from, const SecureRuleMessage& message);

  /// Batched variant: store the counter and mark the rule dirty; the send
  /// conditions are evaluated once per step via flush_dirty(). Identical
  /// protocol semantics at step granularity, far fewer message ripples —
  /// what a deployment would do when steps are the work unit.
  Effects store_received(net::NodeId from, const SecureRuleMessage& message);

  /// Install a fresh ⊥ input for rule `id` (an id in the resource's
  /// candidate table, Accountant::candidates()) without evaluating yet —
  /// pairs with flush_dirty(). The step loop mints `input` from the
  /// accountant's advance callback.
  void refresh_input(arm::CandId id, hom::Cipher input);

  /// Evaluate the send conditions of every rule touched since the last
  /// flush. Clears `effects` and refills it, so a caller-owned buffer
  /// keeps its vector capacity across steps.
  void flush_dirty(Effects& effects);

  /// Algorithm 4's periodic block: query rule correctness through SFE,
  /// derive new candidates, and register them.
  Effects generate_candidates();

  /// Out-param variant (see flush_dirty(Effects&)).
  void generate_candidates(Effects& effects);

  /// R̃_u[DB_t] from the latest SFE output answers (confidence rules are
  /// reported only when their itemset's frequency vote also holds).
  arm::RuleSet interim() const;

  /// Latest output answer for one candidate (false if never queried).
  bool output_answer(const arm::Candidate& candidate) const;

 private:
  struct EdgeState {
    static constexpr std::uint32_t kUnsent = UINT32_MAX;
    hom::Cipher received;        // latest counter from this neighbour
    hom::Cipher first_received;  // kept for the replay attack
    std::uint32_t sent_id = kUnsent;  // our edge id for the rule on this link
    bool contacted = false;
  };

  struct VoteState {
    hom::Cipher input;  // latest accountant reply (⊥)
    bool has_input = false;
    bool dirty = false;  // queued in dirty_list_ for the next flush
  };

  struct TokenInfo {
    hom::Cipher token;
    hom::CounterLayout their_layout;
    std::size_t our_slot;
  };

  /// The resource's candidate table; the accountant owns it.
  const arm::CandidateTable& candidates() const {
    return accountant_->candidates();
  }

  /// Admit `candidate` to C if it is new: the accountant starts counting
  /// it, the vote is set up, and its first-contact traffic goes to
  /// `effects`. Returns the candidate's id either way.
  arm::CandId adopt(const arm::Candidate& candidate, Effects& effects);

  /// Rule `id`'s edges: one per layout slot, edges(id)[s - 1] for slot s.
  /// Only the first neighbors_.size() are bound; the rest are spare slots.
  EdgeState* edges(arm::CandId id) {
    return edges_.data() + std::size_t{id} * layout_.degree();
  }

  void mark_dirty(arm::CandId id) {
    VoteState& state = votes_[id];
    if (state.dirty) return;
    state.dirty = true;
    dirty_list_.push_back(id);
  }

  /// Full aggregate for the SFE: ⊥ input plus every neighbour's latest
  /// counter, rerandomized (malicious behaviours corrupt this here).
  hom::Cipher build_aggregate(arm::CandId id);

  /// Evaluate the send condition of rule `id` for every non-quarantined
  /// edge.
  void evaluate_edges(arm::CandId id, Effects& effects);

  net::NodeId id_;
  hom::EvalHandle eval_;
  hom::CounterLayout layout_;
  std::vector<net::NodeId> neighbors_;  // slot s = neighbors_[s-1]
  Accountant* accountant_;
  Controller* controller_;
  Rng rng_;
  sim::Executor* executor_ = nullptr;
  BrokerBehavior behavior_ = BrokerBehavior::kHonest;
  Stats stats_;

  /// Store an incoming counter; returns the rule's id if it was accepted
  /// (sender is a live tree neighbour and the edge id resolves), kNone
  /// otherwise. Adopts unknown candidates from accepted announcements only.
  arm::CandId accept_message(net::NodeId from,
                             const SecureRuleMessage& message,
                             Effects& effects);

  std::vector<VoteState> votes_;        // by CandId
  /// The candidate an announcing message points at, by CandId: one shared
  /// copy per candidate, so a message never allocates for it.
  std::vector<std::shared_ptr<const arm::Candidate>> shared_;
  std::vector<EdgeState> edges_;        // by (CandId, slot); see edges()
  std::vector<arm::CandId> dirty_list_;  // flush order = first-touch order
  std::vector<bool> outputs_;           // by CandId; latest output answer
  std::vector<arm::CandId> interim_;    // R̃ as of the latest output pass
  std::unordered_map<net::NodeId, TokenInfo> tokens_;
  std::unordered_set<net::NodeId> quarantined_;
  std::unordered_map<net::NodeId, std::size_t> slot_by_node_;  // 1-based
  /// The per-edge candidate dictionaries, by layout slot (index slot - 1).
  /// Outbound: the next edge id to assign on that link. Inbound: the
  /// sender's edge ids, in announcement order, mapped to our CandIds.
  std::vector<std::uint32_t> next_sent_id_;
  std::vector<std::vector<arm::CandId>> received_ids_;

  /// The consultable-edge plan shared by every rule: slot, neighbour id,
  /// and its token, for each non-quarantined neighbour whose token is
  /// installed. Rebuilt lazily when topology/tokens/quarantine change —
  /// rare events next to the per-step evaluations that read the plan.
  struct ActiveEdge {
    std::size_t slot;  // 1-based layout slot
    net::NodeId w;
    const TokenInfo* token;  // tokens_ nodes are address-stable
  };
  std::vector<ActiveEdge> active_edges_;
  bool active_edges_stale_ = true;
  void refresh_active_edges();

  // Scratch reused across evaluate_edges calls; capacity warms up once per
  // broker instead of reallocating on every rule evaluation.
  std::vector<const hom::Cipher*> contributions_;
  std::vector<const hom::Cipher*> recvs_;
  Controller::SfeBatch batch_;
};

}  // namespace kgrid::core
