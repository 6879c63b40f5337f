// k-TTP reference monitor (paper Definition 3.1).
//
// The k-TTP grants an output for a group V only when, against every union of
// previously-granted groups, the symmetric difference holds at least k
// participants. In Secure-Majority-Rule the granted groups are *nested*
// (votes only accumulate: V_{t1} ⊆ V_{t2}, db_{t1} ⊆ db_{t2}, §5.3), so the
// worst-case test reduces to two checks per grant:
//     |V| >= k                 (against the empty union)
//     |V \ V_latest| >= k      (against the largest previous union)
// which, expressed in the protocol's counters, are exactly
//     num >= k,  num - num_last >= k    (resources)
//     count >= k̃,  count - count_last >= k̃   (transactions).
//
// The monitor is attached to controllers in tests and asserts that every
// *data-dependent* answer a controller hands its broker satisfies the
// k-TTP condition. Data-independent answers (bootstrap sends, the
// below-threshold always-forward region) reveal nothing and are not
// recorded, mirroring Definition 3.1 where refused queries do not extend
// G_i.
//
// The monitor is an independent auditor: it keeps its own record of every
// gate's last grant, keyed by integers (resource, candidate id, gate), and
// builds the human-readable context of a violation only when it records
// one.
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "arm/rules.hpp"
#include "util/check.hpp"

namespace kgrid::core {

class KTtpMonitor {
 public:
  explicit KTtpMonitor(std::int64_t k) : k_(k) {}

  /// The `to` of an output gate; above every NodeId, so it never names a
  /// send gate's neighbour.
  static constexpr std::uint64_t kOutputGate = std::uint64_t{1} << 32;

  /// One k-gate of one controller: resource `resource`'s send gate toward
  /// neighbour `to`, or its output gate (to == kOutputGate), for the
  /// candidate `candidate` (an id in that resource's candidate table).
  /// Resource ids are the grid's dense node ids.
  struct Gate {
    std::uint32_t resource = 0;
    std::uint32_t candidate = 0;
    std::uint64_t to = kOutputGate;
  };

  struct Violation {
    /// "r<resource>/send/<rule>/<to>" or "r<resource>/out/<rule>".
    std::string context;
    std::int64_t count_delta;
    std::int64_t num_delta;
  };

  std::int64_t k() const { return k_; }
  std::uint64_t grants() const {
    std::lock_guard<std::mutex> lock(mu_);
    return grants_;
  }
  std::vector<Violation> violations() const {
    std::lock_guard<std::mutex> lock(mu_);
    return violations_;
  }

  /// Record that a controller revealed a data-dependent bit computed over
  /// `count` transactions and `num` resources at `gate`, for the candidate
  /// whose rule is `rule` (used only to name a violation). Serialized
  /// internally: one monitor is shared by every controller, and controllers
  /// run inside offloaded per-resource jobs that may execute concurrently.
  /// Gates are disjoint per controller, so the per-gate state is unaffected
  /// by the cross-gate interleaving.
  void on_reveal(const Gate& gate, const arm::Rule& rule, std::int64_t count,
                 std::int64_t num) {
    std::lock_guard<std::mutex> lock(mu_);
    ++grants_;
    Last& prev = last(gate);
    const std::int64_t count_delta = count - prev.count;
    const std::int64_t num_delta = num - prev.num;
    if (count_delta < k_ || num_delta < k_)
      violations_.push_back({context(gate, rule), count_delta, num_delta});
    // Nesting sanity: the protocol only accumulates votes.
    if (count < prev.count || num < prev.num)
      violations_.push_back({context(gate, rule) + " (non-monotone group)",
                             count_delta, num_delta});
    prev = {count, num};
  }

 private:
  struct Last {
    std::int64_t count = 0;
    std::int64_t num = 0;
  };

  struct GateLast {
    std::uint64_t to;
    Last last;
  };

  /// The latest grant at `gate`, zero before the first.
  Last& last(const Gate& gate) {
    if (last_.size() <= gate.resource) last_.resize(gate.resource + 1);
    auto& candidates = last_[gate.resource];
    if (candidates.size() <= gate.candidate)
      candidates.resize(gate.candidate + 1);
    auto& gates = candidates[gate.candidate];
    for (GateLast& g : gates)
      if (g.to == gate.to) return g.last;
    gates.push_back({gate.to, {}});
    return gates.back().last;
  }

  static std::string context(const Gate& gate, const arm::Rule& rule) {
    std::string out = "r" + std::to_string(gate.resource);
    if (gate.to == kOutputGate) return out + "/out/" + arm::to_string(rule);
    return out + "/send/" + arm::to_string(rule) + "/" +
           std::to_string(gate.to);
  }

  mutable std::mutex mu_;
  std::int64_t k_;
  std::uint64_t grants_ = 0;
  // last_[resource][candidate]: that candidate's opened gates, at most
  // one per neighbour plus the output gate.
  std::vector<std::vector<std::vector<GateLast>>> last_;
  std::vector<Violation> violations_;
};

}  // namespace kgrid::core
