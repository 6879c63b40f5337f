// The controller (paper Algorithm 3): holder of the decryption key. It
// evaluates the two SFE conditions for its broker — the send decision of
// Secure-Scalable-Majority and the rule-correctness output — while enforcing
// the k-privacy gate, verifying the anti-tamper share field, and tracing
// timestamps to catch replays and omissions.
//
// The SFE between broker and controller is realized in the ideal model: the
// controller decrypts inside the evaluation and only the 1-bit result
// crosses back to the broker (plus the freshly re-encrypted outgoing
// counter, which the broker cannot read). The KTtpMonitor can be attached to
// audit every data-dependent bit against Definition 3.1.
//
// Gate semantics (see DESIGN.md "Faithfulness notes"):
//   * first contact on an edge: send unconditionally (Scalable-Majority's
//     bootstrap; data-independent);
//   * unchanged outgoing value: suppress (mirrors the plain protocol; the
//     change bit is not counted as a k-TTP grant);
//   * below the k-gate (fewer than k new transactions or resources since
//     the last revealed evaluation): always forward (data-independent);
//   * at or above the gate: reveal the true Majority-Rule send condition
//     and advance the gate baselines.
// The output decision reveals Δ >= 0 only when both deltas reach k,
// otherwise it repeats its previous answer.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "arm/candidates.hpp"
#include "core/attacks.hpp"
#include "core/ktpp.hpp"
#include "crypto/counter.hpp"
#include "crypto/hom.hpp"
#include "majority/scalable_majority.hpp"
#include "net/topology.hpp"
#include "util/rng.hpp"

namespace kgrid::core {

struct Detection {
  net::NodeId culprit;
  std::string reason;
};

class Controller {
 public:
  /// `slot_neighbors[s]` is the resource owning timestamp slot s (slot 0 is
  /// this resource itself) — public overlay metadata used to attribute
  /// violations.
  Controller(net::NodeId id, hom::DecryptKey dec, hom::EncryptKey enc,
             hom::CounterLayout layout, std::vector<std::uint64_t> share_table,
             std::vector<net::NodeId> slot_neighbors, std::int64_t k,
             majority::Ratio min_freq, majority::Ratio min_conf, Rng rng)
      : id_(id), dec_(std::move(dec)), enc_(std::move(enc)), layout_(layout),
        share_table_(std::move(share_table)),
        slot_neighbors_(std::move(slot_neighbors)), k_(k), min_freq_(min_freq),
        min_conf_(min_conf), rng_(rng) {}

  net::NodeId id() const { return id_; }
  bool halted() const { return halted_; }
  void set_monitor(KTtpMonitor* monitor) { monitor_ = monitor; }
  void set_behavior(ControllerBehavior behavior) { behavior_ = behavior; }

  /// Protocol-level accounting (docs/METRICS.md). `gate_reveals` counts the
  /// data-dependent bits released past the k-gate — exactly the events a
  /// KTtpMonitor audits — so `gate_reveals == monitor.grants()` for an
  /// honest run with the monitor attached.
  struct Stats {
    std::uint64_t sfe_sends = 0;      // sfe_send evaluations
    std::uint64_t sfe_outputs = 0;    // sfe_output evaluations
    std::uint64_t sends_granted = 0;  // sfe_send decisions that said "send"
    std::uint64_t gate_reveals = 0;   // k-gate reveals (send + output)
    std::uint64_t detections = 0;     // malicious-behaviour detections raised
  };
  const Stats& stats() const { return stats_; }

  /// Bind a newly joined neighbour to a previously spare timestamp slot
  /// (Algorithm 1's "on join of a neighbor v"; public overlay metadata).
  void register_neighbor(std::size_t slot, net::NodeId v) {
    KGRID_CHECK(slot < layout_.ts_slots(), "slot out of layout");
    if (slot_neighbors_.size() <= slot) slot_neighbors_.resize(slot + 1, id_);
    slot_neighbors_[slot] = v;
  }

  struct SendDecision {
    bool send = false;
    hom::Cipher outgoing;  // recipient-layout counter, share 0, fresh ts
    std::vector<Detection> detections;
  };

  /// SFE occasion 1: should a message for `rule` (id `id` in this
  /// resource's candidate table) go to the neighbour at `slot_w`?
  /// `view_all` is the decrypted full aggregate (⊥ plus every neighbour's
  /// latest counter) and `view_w` w's latest counter, both decrypted by
  /// prepare_sfe. The outgoing counter is built in the recipient's layout
  /// (public metadata), with a zero share field for the broker to complete
  /// with w's encrypted token.
  SendDecision sfe_send(arm::CandId id, const arm::Candidate& rule,
                        net::NodeId w, std::size_t slot_w,
                        const hom::CounterView& view_all,
                        const hom::CounterView& view_w,
                        const hom::CounterLayout& w_layout,
                        std::size_t slot_u_at_w);

  struct OutputDecision {
    bool correct = false;
    std::vector<Detection> detections;
  };

  /// SFE occasion 2: is `rule` (id `id`) currently correct? (Algorithm
  /// 1's Output().)
  OutputDecision sfe_output(arm::CandId id, const arm::Candidate& rule,
                            const hom::Cipher& agg_all);

  /// View-based variant for the batched path (decrypt_views). Decryption
  /// is deterministic, so evaluating a pre-decrypted view is
  /// indistinguishable from decrypting in place.
  OutputDecision sfe_output(arm::CandId id, const arm::Candidate& rule,
                            const hom::CounterView& view_all);

  /// The decrypted views one evaluate_edges pass consults: the aggregate
  /// plus every edge's latest received counter.
  struct SfeBatch {
    hom::CounterView agg_all;
    std::vector<hom::CounterView> recv;
  };

  /// Decrypt the aggregate and all `recvs` as one batch — E+1 decryptions
  /// for an E-edge evaluation instead of the 2E the per-edge cipher path
  /// pays (each edge's SFE re-reads the same aggregate) — optionally spread
  /// across executor lanes. When already halted the views are left
  /// default-constructed; every consumer refuses before reading them.
  SfeBatch prepare_sfe(const hom::Cipher& agg_all,
                       std::span<const hom::Cipher* const> recvs,
                       sim::Executor* executor = nullptr) const {
    SfeBatch batch;
    prepare_sfe(agg_all, recvs, executor, batch);
    return batch;
  }

  /// Out-parameter variant: reuses `out`'s storage, so a caller looping
  /// over rules pays for the view vectors once instead of per evaluation.
  void prepare_sfe(const hom::Cipher& agg_all,
                   std::span<const hom::Cipher* const> recvs,
                   sim::Executor* executor, SfeBatch& out) const;

  /// Batch-decrypt arbitrary aggregates into counter views (the
  /// generate_candidates path). Skipped (default views) when halted.
  std::vector<hom::CounterView> decrypt_views(
      std::span<const hom::Cipher* const> ciphers,
      sim::Executor* executor = nullptr) const;

 private:
  struct EdgeGate {
    bool bootstrapped = false;
    std::int64_t k1_last = 0;  // count baseline at last revealed evaluation
    std::int64_t k2_last = 0;  // num baseline
    bool has_last_sent = false;
    std::int64_t sent_sum = 0;
    std::int64_t sent_count = 0;
    std::int64_t sent_num = 0;
  };

  struct OutputGate {
    std::int64_t k1_last = 0;
    std::int64_t k2_last = 0;
    bool last_answer = false;
  };

  /// Per-candidate state; `trace` and `edges` are indexed by layout slot
  /// (the send gate toward slot_neighbors_[s] is edges[s]).
  struct RuleState {
    std::vector<std::uint64_t> trace;  // per slot, Algorithm 3's T̃
    std::vector<EdgeGate> edges;
    OutputGate output;
  };

  majority::Ratio lambda_for(const arm::Candidate& rule) const {
    return rule.kind == arm::VoteKind::kFrequency ? min_freq_ : min_conf_;
  }

  std::int64_t weight(const majority::Ratio& lambda, std::int64_t sum,
                      std::int64_t count) const {
    return lambda.den * sum - lambda.num * count;
  }

  RuleState& rule_state(arm::CandId id);

  hom::CounterView decrypt_view(const hom::Cipher& c) const {
    if (dec_.is_plain())
      return hom::CounterView::from_fields(layout_, dec_.plain_fields(c));
    return hom::CounterView::from_fields(layout_,
                                         dec_.decrypt(c, layout_.n_fields()));
  }

  /// Verify a decrypted aggregate: share completeness and timestamp
  /// monotonicity; advances the trace when clean.
  void validate_view(RuleState& state, const hom::CounterView& view,
                     std::vector<Detection>& detections);

  net::NodeId id_;
  hom::DecryptKey dec_;
  hom::EncryptKey enc_;
  hom::CounterLayout layout_;
  std::vector<std::uint64_t> share_table_;
  std::vector<net::NodeId> slot_neighbors_;
  std::int64_t k_;
  majority::Ratio min_freq_;
  majority::Ratio min_conf_;
  Rng rng_;
  ControllerBehavior behavior_ = ControllerBehavior::kHonest;
  KTtpMonitor* monitor_ = nullptr;
  bool halted_ = false;
  Stats stats_;

  std::vector<RuleState> rules_;  // by CandId; a state is set up on first use
};

}  // namespace kgrid::core
