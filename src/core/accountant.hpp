// The accountant (paper Algorithm 2): the honest entity holding the local
// database. It answers support queries with *encrypted* counters (so its
// broker can neither read nor forge them), creates and distributes the
// anti-tamper shares, and stamps every reply with its Lamport timestamp.
#pragma once

#include <cstdint>
#include <vector>

#include "arm/counting.hpp"
#include "crypto/counter.hpp"
#include "crypto/hom.hpp"
#include "net/topology.hpp"
#include "util/rng.hpp"

namespace kgrid::core {

class Accountant {
 public:
  /// `layout` is this resource's counter layout (slot 0 = this accountant,
  /// slots 1..d = the resource's neighbours in their fixed order).
  Accountant(net::NodeId id, hom::EncryptKey key, hom::CounterLayout layout,
             Rng rng)
      : id_(id), key_(std::move(key)), layout_(layout), rng_(rng),
        shares_(hom::draw_shares(layout.ts_slots(), rng_)) {}

  net::NodeId id() const { return id_; }
  const hom::CounterLayout& layout() const { return layout_; }

  /// Protocol-level accounting (docs/METRICS.md): how many encrypted
  /// replies and share tokens this accountant produced.
  struct Stats {
    std::uint64_t replies = 0;
    std::uint64_t share_tokens = 0;
  };
  const Stats& stats() const { return stats_; }

  /// Plaintext share table (slot -> share). Handed to this resource's
  /// controller at setup so it can verify aggregates; never leaves the
  /// resource.
  const std::vector<std::uint64_t>& share_table() const { return shares_; }

  /// Encrypted share token for the neighbour at `slot` (1..d). Distributed
  /// to that neighbour's broker at setup ("The accountant is the one
  /// responsible for creating, encrypting, and distributing the shares").
  hom::Cipher share_token(std::size_t slot) {
    ++stats_.share_tokens;
    return hom::make_share_token(key_, layout_, shares_.at(slot), rng_);
  }

  // -- Local database management (incorruptible by assumption) --

  void append(const data::Transaction& t) { counter_.append(t); }
  /// Register a rule for counting; returns its id in the resource's
  /// candidate table (no-op if already registered).
  arm::CandId add_rule(const arm::Candidate& c) { return counter_.add_rule(c); }
  bool has_rule(const arm::Candidate& c) const { return counter_.has_rule(c); }
  std::size_t db_size() const { return counter_.db_size(); }

  /// The resource's candidate table. The accountant owns it because
  /// registering a rule for counting is what admits a candidate to C; the
  /// broker and controller index their per-candidate state by its ids.
  const arm::CandidateTable& candidates() const {
    return counter_.candidates();
  }

  /// Budgeted cyclic counting (paper: 100 transactions per step); returns
  /// the rules whose counts changed — the "update notification" the broker
  /// reacts to.
  std::vector<arm::Candidate> advance(std::size_t budget) {
    return counter_.advance(budget);
  }

  /// Callback variant of advance(): same changed rules in the same order,
  /// but hands out (id, counts) instead of materializing a vector of
  /// candidate copies — the per-step hot path.
  template <class F>
  void advance(std::size_t budget, F&& on_changed) {
    counter_.advance(budget, std::forward<F>(on_changed));
  }

  /// Algorithm 2's reply: ⟨sum, count, num=1, share_⊥, ts_0 = t⟩ encrypted;
  /// t increases with every reply so a broker replaying an old reply is
  /// caught by the controller's trace.
  hom::Cipher reply(const arm::Candidate& c) {
    return reply_counted(counter_.counts(c));
  }

  /// reply() for a caller that already holds the rule's counts (the advance
  /// callback passes them along) — skips the registration-table lookup.
  hom::Cipher reply_counted(const arm::IncrementalCounter::Counts& counts) {
    ++stats_.replies;
    return hom::make_counter(key_, layout_, counts.sum, counts.count,
                             /*num=*/1, shares_[0], /*ts_slot=*/0,
                             /*ts=*/clock_++, rng_);
  }

  /// Exposed for tests: the next timestamp the accountant will use.
  std::uint64_t clock() const { return clock_; }

 private:
  net::NodeId id_;
  hom::EncryptKey key_;
  hom::CounterLayout layout_;
  Rng rng_;
  std::vector<std::uint64_t> shares_;
  arm::IncrementalCounter counter_;
  std::uint64_t clock_ = 1;  // 1-based: slot timestamp 0 means "no input yet"
  Stats stats_;
};

}  // namespace kgrid::core
