// Majority-Rule (Wolff & Schuster, ICDM'03; paper §4.1) — the non-private,
// large-scale distributed ARM algorithm that Secure-Majority-Rule secures.
// It doubles as the repository's baseline for the paper's Figure-2
// comparison ("a single scan in [20]").
//
// A resource turns the ARM problem into one Scalable-Majority vote per
// candidate rule: frequency votes ⟨∅ ⇒ X, MinFreq⟩ and confidence votes
// ⟨X ⇒ Y, MinConf⟩, with local inputs produced by budgeted incremental
// counting over the local database partition (arm::IncrementalCounter).
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <unordered_map>
#include <vector>

#include "arm/apriori.hpp"
#include "arm/candidates.hpp"
#include "arm/counting.hpp"
#include "majority/messages.hpp"
#include "majority/scalable_majority.hpp"
#include "net/topology.hpp"
#include "sim/engine.hpp"

namespace kgrid::majority {

/// Rational thresholds for exact integer vote arithmetic. `from_double`
/// snaps to a denominator of 10^4, plenty for the paper's thresholds.
inline Ratio ratio_from_double(double x) {
  return Ratio{static_cast<std::int64_t>(x * 10000.0 + 0.5), 10000};
}

struct MajorityRuleConfig {
  std::size_t n_items = 0;          // item domain; 0 disables seeding initial candidates
  double min_freq = 0.1;
  double min_conf = 0.8;
  std::size_t count_budget = 100;    // transactions counted per step (paper §6)
  std::size_t candidate_period = 5;  // candidate generation every k-th step (paper §6)
  std::size_t arrivals_per_step = 20;  // dynamic growth per step (paper §6)
};

class MajorityRuleResource : public sim::Entity {
 public:
  /// Timer ids used with the engine.
  static constexpr std::uint64_t kStepTimer = 1;

  MajorityRuleResource(net::NodeId id, const MajorityRuleConfig& config,
                       std::vector<net::NodeId> neighbors,
                       const net::LinkDelays* delays)
      : id_(id), config_(config), neighbors_(std::move(neighbors)),
        delays_(delays) {
    for (auto& cand : arm::initial_candidates(config_.n_items))
      register_candidate(
          std::make_shared<const arm::Candidate>(std::move(cand)));
  }

  net::NodeId id() const { return id_; }
  std::size_t step_count() const { return steps_; }
  std::size_t candidate_count() const { return instances_.size(); }
  std::size_t local_db_size() const { return counter_.db_size(); }
  /// Scalable-Majority messages this resource has emitted (docs/METRICS.md).
  std::uint64_t messages_out() const { return messages_out_; }

  /// Load the initial local database partition (before the run starts).
  void load_initial(const data::Database& db) {
    for (const auto& t : db.transactions()) counter_.append(t);
  }

  /// Queue future arrivals; each step consumes config.arrivals_per_step.
  void queue_arrivals(std::vector<data::Transaction> arrivals) {
    future_.queue(std::move(arrivals));
  }

  /// Stream arrivals in place, ahead of queued ones; `arrivals` must
  /// outlive the resource (the grid passes its environment's).
  void stream_arrivals(std::span<const data::Transaction> arrivals) {
    future_.view(arrivals);
  }

  /// The resource's interim solution R̃_u[DB_t]. The paper defines correct
  /// rules as *confident rules between frequent itemsets*, so a confidence
  /// vote only contributes when the frequency vote of its full itemset also
  /// passes; frequency votes contribute directly.
  arm::RuleSet interim() const {
    arm::RuleSet out;
    for (const auto& [cand, instance] : instances_) {
      const MajorityNode& node = *instance.node;
      // An empty vote (no transaction counted anywhere yet) passes Δ >= 0
      // vacuously; do not report it.
      if (node.knowledge().count == 0) continue;
      if (!node.decide()) continue;
      if (cand.kind == arm::VoteKind::kFrequency) {
        out.insert(cand.rule);
        continue;
      }
      const auto freq_it =
          instances_.find(arm::frequency_candidate(cand.rule.all_items()));
      if (freq_it != instances_.end() && freq_it->second.node->decide())
        out.insert(cand.rule);
    }
    return out;
  }

  /// Kick off periodic steps; call once after registering with the engine.
  void start(sim::Engine& engine, sim::EntityId self, sim::Time period) {
    self_entity_ = self;
    step_period_ = period;
    engine.schedule(self, 0.0, kStepTimer);
  }

  void on_timer(sim::Engine& engine, std::uint64_t timer_id) override {
    if (timer_id != kStepTimer) return;
    step(engine);
    engine.schedule(self_entity_, step_period_, kStepTimer);
  }

  void on_message(sim::Engine& engine, sim::EntityId from,
                  sim::Payload& payload) override {
    const auto& msg = payload.get<RuleMessage>();
    // Algorithm 4: an unknown candidate learned from a neighbor joins C,
    // along with the frequency vote for its full itemset. The new instance
    // keeps the sender's shared copy of the candidate.
    const auto it = instances_.find(*msg.candidate);
    Instance& instance = it != instances_.end()
                             ? it->second
                             : register_candidate(msg.candidate);
    if (it == instances_.end()) {
      arm::Candidate freq =
          arm::frequency_candidate(msg.candidate->rule.all_items());
      if (!instances_.contains(freq))
        register_candidate(
            std::make_shared<const arm::Candidate>(std::move(freq)));
    }
    deliver(engine, instance.candidate,
            instance.node->on_receive(static_cast<net::NodeId>(from),
                                      msg.vote));
  }

 private:
  Ratio lambda_for(const arm::Candidate& c) const {
    return ratio_from_double(c.kind == arm::VoteKind::kFrequency
                                 ? config_.min_freq
                                 : config_.min_conf);
  }

  using CandidatePtr = std::shared_ptr<const arm::Candidate>;

  /// One vote instance: the candidate's shared copy (what this resource's
  /// messages point at) and its Scalable-Majority node.
  struct Instance {
    CandidatePtr candidate;
    std::unique_ptr<MajorityNode> node;
  };

  Instance& register_candidate(CandidatePtr cand) {
    counter_.add_rule(*cand);
    auto node =
        std::make_unique<MajorityNode>(id_, lambda_for(*cand), neighbors_);
    const arm::Candidate& key = *cand;
    Instance& instance =
        instances_.emplace(key, Instance{std::move(cand), std::move(node)})
            .first->second;
    pending_bootstrap_.push_back(&instance);  // map values are stable
    return instance;
  }

  void deliver(sim::Engine& engine, const CandidatePtr& cand,
               const std::vector<MajorityNode::Outgoing>& outgoing) {
    for (const auto& out : outgoing) {
      const double delay = delays_ ? delays_->delay(id_, out.to) : 0.1;
      ++messages_out_;
      engine.send(self_entity_, out.to, delay, RuleMessage{cand, out.message});
    }
  }

  /// One protocol step, offloaded as one engine job: counting and vote
  /// updates run on an executor worker (they touch only this resource's
  /// state), and the collected outgoing messages are sent from the Apply on
  /// the simulation thread, in the same order the pre-offload serial code
  /// emitted them.
  void step(sim::Engine& engine) {
    ++steps_;
    engine.offload(self_entity_, [this]() -> sim::Engine::Apply {
      // 1. Dynamic growth: the paper appends 20 transactions per step.
      for (std::size_t i = 0; i < config_.arrivals_per_step; ++i) {
        const data::Transaction* t = future_.next();
        if (t == nullptr) break;
        counter_.append(*t);
      }

      std::vector<std::pair<CandidatePtr, MajorityNode::Outgoing>> outbox;
      const auto collect = [&outbox](const Instance& instance,
                                     std::vector<MajorityNode::Outgoing> out) {
        for (auto& o : out) outbox.emplace_back(instance.candidate, std::move(o));
      };

      // 2. Budgeted counting; feed changed counts into the vote instances.
      counter_.advance(
          config_.count_budget,
          [&](arm::CandId id, const arm::IncrementalCounter::Counts& counts) {
            const Instance& instance =
                instances_.at(counter_.candidates()[id]);
            collect(instance, instance.node->set_input(
                                  {static_cast<std::int64_t>(counts.sum),
                                   static_cast<std::int64_t>(counts.count)}));
          });

      // 3. First-contact bootstrap for instances created since the last step.
      for (const Instance* instance : pending_bootstrap_)
        collect(*instance, instance->node->bootstrap());
      pending_bootstrap_.clear();

      // 4. Candidate generation every candidate_period steps (paper: "on
      //    every fifth step communicated with its controller to create new
      //    candidate rules").
      if (steps_ % config_.candidate_period == 0) {
        arm::CandidateSet correct;
        for (const auto& [cand, instance] : instances_)
          if (instance.node->decide()) correct.insert(cand);
        for (auto& cand :
             arm::derive_candidates(correct, counter_.candidates()))
          register_candidate(
              std::make_shared<const arm::Candidate>(std::move(cand)));
      }

      return [this, outbox = std::move(outbox)](sim::Engine& eng) {
        for (const auto& [cand, out] : outbox)
          deliver(eng, cand, {out});
      };
    });
  }

  net::NodeId id_;
  MajorityRuleConfig config_;
  std::vector<net::NodeId> neighbors_;
  const net::LinkDelays* delays_;
  sim::EntityId self_entity_ = 0;
  sim::Time step_period_ = 1.0;
  std::size_t steps_ = 0;
  std::uint64_t messages_out_ = 0;

  arm::IncrementalCounter counter_;
  data::ArrivalStream future_;
  std::unordered_map<arm::Candidate, Instance, arm::CandidateHash> instances_;
  std::vector<const Instance*> pending_bootstrap_;
};

}  // namespace kgrid::majority
