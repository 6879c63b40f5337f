// A grid resource (paper Figure 1): accountant + broker + controller wired
// onto the simulation engine. Intra-resource communication (broker-
// accountant queries, broker-controller SFEs) is local; inter-resource
// communication crosses the overlay with link delays.
//
// The resource also implements the detection path: when its controller
// reports a violation it floods a MaliciousReport over the tree, and every
// resource quarantines reported culprits.
#pragma once

#include <any>
#include <memory>
#include <optional>
#include <span>
#include <unordered_set>

#include "core/accountant.hpp"
#include "core/attacks.hpp"
#include "core/broker.hpp"
#include "core/controller.hpp"
#include "core/messages.hpp"
#include "majority/majority_rule.hpp"
#include "sim/engine.hpp"

namespace kgrid::core {

struct SecureConfig {
  std::size_t n_items = 0;
  double min_freq = 0.1;
  double min_conf = 0.8;
  std::int64_t k = 10;               // the privacy parameter (paper §5.1)
  std::size_t count_budget = 100;    // transactions counted per step
  std::size_t candidate_period = 5;  // controller interaction cadence
  std::size_t arrivals_per_step = 20;
  /// Algorithm 1 is event-driven (re-evaluate on every change); the default
  /// batches evaluations at step boundaries — same protocol at step
  /// granularity, ~5x fewer messages (see DESIGN.md).
  bool event_driven = false;
  /// Pre-allocated counter-layout slots for resources joining later
  /// (Algorithm 1's "on join of a neighbor v"; the accountant mints shares
  /// for spare slots up-front, and an unused slot contributes neither
  /// timestamp nor share, so it is invisible until bound).
  std::size_t spare_slots = 0;
};

class SecureResource : public sim::Entity {
 public:
  static constexpr std::uint64_t kStepTimer = 1;

  SecureResource(net::NodeId id, const SecureConfig& config,
                 std::vector<net::NodeId> neighbors, hom::ContextPtr crypto,
                 const net::LinkDelays* delays, Rng rng)
      : id_(id), config_(config), neighbors_(std::move(neighbors)),
        delays_(delays),
        accountant_(id, crypto->encrypt_key(),
                    hom::CounterLayout(neighbors_.size() + config.spare_slots),
                    rng.split()),
        controller_(id, crypto->decrypt_key(), crypto->encrypt_key(),
                    accountant_.layout(), accountant_.share_table(),
                    slot_neighbors(), config.k,
                    majority::ratio_from_double(config.min_freq),
                    majority::ratio_from_double(config.min_conf), rng.split()),
        broker_(id, crypto->eval_handle(), accountant_.layout(), neighbors_,
                &accountant_, &controller_, rng.split()) {}

  net::NodeId id() const { return id_; }
  Accountant& accountant() { return accountant_; }
  Controller& controller() { return controller_; }
  Broker& broker() { return broker_; }
  std::size_t step_count() const { return steps_; }
  const std::unordered_set<net::NodeId>& quarantined() const {
    return quarantined_;
  }

  void set_attack(const ResourceAttack& attack) { attack_ = attack; }

  /// Attach a newly joined neighbour to the next spare slot; returns the
  /// slot it was bound to. The caller (grid harness) exchanges share
  /// tokens.
  std::size_t add_neighbor(net::NodeId v) {
    neighbors_.push_back(v);
    const std::size_t slot = neighbors_.size();
    controller_.register_neighbor(slot, v);
    broker_.add_neighbor(v);
    return slot;
  }

  void load_initial(const data::Database& db) {
    for (const auto& t : db.transactions()) accountant_.append(t);
  }

  /// Stream the arrivals in place; `arrivals` must outlive the resource
  /// (the grid passes its environment's, which it keeps for its life).
  void stream_arrivals(std::span<const data::Transaction> arrivals) {
    future_.view(arrivals);
  }

  /// Queue caller-handed arrivals behind the streamed ones.
  void queue_arrivals(std::vector<data::Transaction> arrivals) {
    future_.queue(std::move(arrivals));
  }

  /// Seed the initial candidate set (Algorithm 4's initialization). Called
  /// by the grid harness after start() (outgoing bootstrap traffic carries
  /// this resource's entity id) and token distribution.
  void seed_candidates(sim::Engine& engine) {
    KGRID_CHECK(attached_, "seed_candidates before start()");
    for (const auto& cand : arm::initial_candidates(config_.n_items))
      apply(engine, broker_.register_candidate(cand));
  }

  arm::RuleSet interim() const { return broker_.interim(); }

  void start(sim::Engine& engine, sim::EntityId self, sim::Time period) {
    self_entity_ = self;
    attached_ = true;
    step_period_ = period;
    // Batch-API lane for this resource's crypto. Inside an offloaded step
    // the batches degrade to inline loops (the job already owns a worker);
    // the lane pays off for the event-driven on_receive path and for grid
    // phases driven from the simulation thread.
    broker_.set_executor(engine.executor());
    engine.schedule(self, 0.0, kStepTimer);
  }

  void on_timer(sim::Engine& engine, std::uint64_t timer_id) override {
    if (timer_id != kStepTimer) return;
    step(engine);
    engine.schedule(self_entity_, step_period_, kStepTimer);
  }

  void on_message(sim::Engine& engine, sim::EntityId from,
                  sim::Payload& payload) override {
    if (auto* report = payload.get_if<MaliciousReport>()) {
      handle_report(engine, static_cast<net::NodeId>(from), *report);
      return;
    }
    const auto peer = static_cast<net::NodeId>(from);
    const auto* msg = payload.get_if<SecureRuleMessage>();
    if (msg == nullptr) {  // a peer sent something outside the protocol
      broker_.reject(peer);
      return;
    }
    // Batched discipline stores now and evaluates at the next step
    // boundary; the event-driven discipline is Algorithm 1 verbatim.
    apply(engine, config_.event_driven ? broker_.on_receive(peer, *msg)
                                       : broker_.store_received(peer, *msg));
  }

 private:
  std::vector<net::NodeId> slot_neighbors() const {
    std::vector<net::NodeId> slots;
    slots.reserve(neighbors_.size() + 1 + config_.spare_slots);
    slots.push_back(id_);  // slot 0: our own accountant/broker
    for (auto v : neighbors_) slots.push_back(v);
    // Spare slots attribute to ourselves until a join binds them.
    for (std::size_t s = 0; s < config_.spare_slots; ++s) slots.push_back(id_);
    return slots;
  }

  void maybe_activate_attack() {
    if (attack_active_ || steps_ < attack_.active_from_step) return;
    if (attack_.broker == BrokerBehavior::kHonest &&
        attack_.controller == ControllerBehavior::kHonest)
      return;
    broker_.set_behavior(attack_.broker);
    controller_.set_behavior(attack_.controller);
    attack_active_ = true;
  }

  /// One protocol step. The cheap, order-sensitive prologue (step count,
  /// attack activation, arrival ingestion) runs in the timer handler; the
  /// crypto-heavy body — counting, counter aggregation, SFE consults — is
  /// offloaded as one engine job so concurrent resources' steps overlap on
  /// executor workers. The job touches only this resource's entities plus
  /// internally synchronized shared state (obs counters, the k-TTP
  /// monitor); all engine traffic happens in the returned Apply,
  /// on the simulation thread, at the engine's virtual-time barrier.
  void step(sim::Engine& engine) {
    ++steps_;
    maybe_activate_attack();
    for (std::size_t i = 0; i < config_.arrivals_per_step; ++i) {
      const data::Transaction* t = future_.next();
      if (t == nullptr) break;
      accountant_.append(*t);
    }

    engine.offload(self_entity_, [this]() -> sim::Engine::Apply {
      accountant_.advance(
          config_.count_budget,
          [this](arm::CandId rule,
                 const arm::IncrementalCounter::Counts& counts) {
            broker_.refresh_input(rule, accountant_.reply_counted(counts));
          });
      // The effects land in member buffers rather than closure captures:
      // the engine delivers nothing to this entity while its job is in
      // flight, so the buffers are stable until the Apply below runs, the
      // Apply stays pointer-sized (no std::function heap spill), and the
      // effect vectors keep their capacity across steps.
      broker_.flush_dirty(pending_flushed_);
      pending_generated_ = steps_ % config_.candidate_period == 0;
      if (pending_generated_) broker_.generate_candidates(pending_generated_effects_);
      // Two apply() calls, same order as the pre-offload serial code, so
      // message seq assignment (and therefore equal-time delivery order)
      // is unchanged.
      return [this](sim::Engine& eng) {
        apply(eng, std::move(pending_flushed_));
        if (pending_generated_) apply(eng, std::move(pending_generated_effects_));
      };
    });
  }

  void apply(sim::Engine& engine, Broker::Effects&& effects) {
    for (auto& out : effects.messages) {
      const double delay = delays_ ? delays_->delay(id_, out.to) : 0.1;
      // Moving the SecureRuleMessage hands its cipher body straight to the
      // pooled event slot — no refcount churn or copy on the send path.
      engine.send(self_entity_, out.to, delay, std::move(out.message));
    }
    for (const auto& detection : effects.detections)
      broadcast_report(engine, MaliciousReport{detection.culprit, id_});
  }

  void broadcast_report(sim::Engine& engine, const MaliciousReport& report,
                        net::NodeId except = static_cast<net::NodeId>(-1)) {
    if (!reported_.insert(report.culprit).second) return;
    if (report.culprit != id_) {
      quarantined_.insert(report.culprit);
      broker_.quarantine(report.culprit);
    }
    for (net::NodeId v : neighbors_) {
      if (v == except) continue;
      const double delay = delays_ ? delays_->delay(id_, v) : 0.1;
      engine.send(self_entity_, v, delay, report);
    }
  }

  void handle_report(sim::Engine& engine, net::NodeId from,
                     const MaliciousReport& report) {
    broadcast_report(engine, report, /*except=*/from);
  }

  net::NodeId id_;
  SecureConfig config_;
  std::vector<net::NodeId> neighbors_;
  const net::LinkDelays* delays_;
  Accountant accountant_;
  Controller controller_;
  Broker broker_;
  ResourceAttack attack_;
  bool attack_active_ = false;

  sim::EntityId self_entity_ = 0;
  bool attached_ = false;
  sim::Time step_period_ = 1.0;
  std::size_t steps_ = 0;
  Broker::Effects pending_flushed_;            // step-job → Apply handoff
  Broker::Effects pending_generated_effects_;  // (see step())
  bool pending_generated_ = false;
  data::ArrivalStream future_;
  std::unordered_set<net::NodeId> reported_;
  std::unordered_set<net::NodeId> quarantined_;
};

}  // namespace kgrid::core
