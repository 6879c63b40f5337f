#include "core/controller.hpp"

#include <algorithm>

namespace kgrid::core {

Controller::RuleState& Controller::rule_state(arm::CandId id) {
  if (id >= rules_.size()) rules_.resize(id + 1);
  RuleState& state = rules_[id];
  if (state.trace.empty()) {
    state.trace.assign(layout_.ts_slots(), 0);
    state.edges.resize(layout_.ts_slots());
  }
  return state;
}

void Controller::validate_view(RuleState& state, const hom::CounterView& view,
                               std::vector<Detection>& detections) {
  const std::size_t pre_existing = detections.size();

  // Share completeness: the aggregate must contain exactly one copy of the
  // share of every contributor (contributors are visible as non-zero
  // timestamp slots). Double-counting or omission breaks the sum w.h.p.
  std::uint64_t expected = 0;
  for (std::size_t s = 0; s < layout_.ts_slots(); ++s)
    if (view.timestamps[s] > 0)
      expected = (expected + share_table_[s]) % hom::kShareModulus;
  if (view.share != expected) {
    detections.push_back({id_, "share mismatch: broker aggregate tampered"});
    halted_ = true;  // Algorithm 3: "halt further execution"
  }

  // Timestamp monotonicity per slot: a regression means an old counter was
  // substituted for the latest (replay/omission). Slot 0 is our own
  // accountant; other slots belong to neighbours (Algorithm 3 attributes
  // the violation to the slot's owner).
  for (std::size_t s = 0; s < layout_.ts_slots(); ++s) {
    if (view.timestamps[s] < state.trace[s]) {
      detections.push_back({slot_neighbors_[s],
                            "timestamp regression at slot " + std::to_string(s)});
      halted_ = true;
    }
  }

  if (detections.empty()) {
    for (std::size_t s = 0; s < layout_.ts_slots(); ++s)
      state.trace[s] = view.timestamps[s];
  }
  stats_.detections += detections.size() - pre_existing;
}

void Controller::prepare_sfe(const hom::Cipher& agg_all,
                             std::span<const hom::Cipher* const> recvs,
                             sim::Executor* executor, SfeBatch& batch) const {
  batch.recv.resize(recvs.size());
  if (halted_) return;  // every SFE refuses anyway; skip the modexps
  if (dec_.is_plain()) {
    // Zero-copy views straight off the plain bodies: no per-item plaintext
    // vectors. plain_fields counts each call as a decryption, so the obs
    // totals match the batched path.
    batch.agg_all =
        hom::CounterView::from_fields(layout_, dec_.plain_fields(agg_all));
    for (std::size_t i = 0; i < recvs.size(); ++i)
      batch.recv[i] =
          hom::CounterView::from_fields(layout_, dec_.plain_fields(*recvs[i]));
    return;
  }
  std::vector<const hom::Cipher*> items;
  items.reserve(recvs.size() + 1);
  items.push_back(&agg_all);
  items.insert(items.end(), recvs.begin(), recvs.end());
  const auto fields = dec_.decrypt_batch(items, layout_.n_fields(), executor);
  batch.agg_all = hom::CounterView::from_fields(layout_, fields[0]);
  for (std::size_t i = 0; i < recvs.size(); ++i)
    batch.recv[i] = hom::CounterView::from_fields(layout_, fields[i + 1]);
}

std::vector<hom::CounterView> Controller::decrypt_views(
    std::span<const hom::Cipher* const> ciphers,
    sim::Executor* executor) const {
  std::vector<hom::CounterView> views(ciphers.size());
  if (halted_) return views;
  if (dec_.is_plain()) {
    for (std::size_t i = 0; i < ciphers.size(); ++i)
      views[i] =
          hom::CounterView::from_fields(layout_, dec_.plain_fields(*ciphers[i]));
    return views;
  }
  const auto fields = dec_.decrypt_batch(ciphers, layout_.n_fields(), executor);
  for (std::size_t i = 0; i < ciphers.size(); ++i)
    views[i] = hom::CounterView::from_fields(layout_, fields[i]);
  return views;
}

Controller::SendDecision Controller::sfe_send(
    arm::CandId id, const arm::Candidate& rule, net::NodeId w,
    std::size_t slot_w, const hom::CounterView& view_all,
    const hom::CounterView& view_w, const hom::CounterLayout& w_layout,
    std::size_t slot_u_at_w) {
  SendDecision decision;
  if (halted_) return decision;
  ++stats_.sfe_sends;
  KGRID_CHECK(slot_w < slot_neighbors_.size() && slot_neighbors_[slot_w] == w,
              "sfe_send slot/neighbour mismatch");
  RuleState& state = rule_state(id);
  validate_view(state, view_all, decision.detections);
  if (!decision.detections.empty()) return decision;

  // w's own latest contribution is subtracted out of the outgoing counter.
  if (view_w.timestamps[slot_w] > 0 &&
      view_w.share != share_table_[slot_w] % hom::kShareModulus) {
    // The share inside w's counter is unforgeable by anyone but the party
    // that assembled the message — blame w. (Our own broker could frame w
    // by corrupting recv_w before the SFE; either way a broker on this
    // edge is malicious and the edge is dead.)
    decision.detections.push_back({w, "neighbour counter share forged"});
    ++stats_.detections;
    halted_ = true;
    return decision;
  }
  // A stale recv_w (replay of an old counter) shows up as a timestamp below
  // the trace that the validated aggregate just advanced.
  if (view_w.timestamps[slot_w] < state.trace[slot_w]) {
    decision.detections.push_back({id_, "stale neighbour counter in SFE"});
    ++stats_.detections;
    halted_ = true;
    return decision;
  }

  const std::int64_t out_sum = view_all.sum - view_w.sum;
  const std::int64_t out_count = view_all.count - view_w.count;
  const std::int64_t out_num = view_all.num - view_w.num;

  EdgeGate& gate = state.edges[slot_w];

  bool send = false;
  if (!gate.bootstrapped) {
    // First contact: Scalable-Majority sends unconditionally. The decision
    // is data-independent, so it is not a k-TTP grant.
    send = true;
    gate.bootstrapped = true;
  } else if (gate.has_last_sent && out_sum == gate.sent_sum &&
             out_count == gate.sent_count && out_num == gate.sent_num) {
    // Nothing new for this edge; the plain protocol would also stay silent.
    send = false;
  } else {
    const std::int64_t count_delta = view_all.count - gate.k1_last;
    const std::int64_t num_delta = view_all.num - gate.k2_last;
    if (count_delta < k_ || num_delta < k_) {
      // Below the k-gate the behaviour must be independent of the data:
      // always forward (§5.1's "or the difference ... is less than k").
      send = true;
    } else {
      // At or above the gate: reveal the true Majority-Rule condition.
      const majority::Ratio lambda = lambda_for(rule);
      const std::int64_t delta_u =
          weight(lambda, view_all.sum, view_all.count);
      const std::int64_t delta_uw =
          weight(lambda, gate.sent_sum + view_w.sum,
                 gate.sent_count + view_w.count);
      send = (delta_uw >= 0 && delta_uw > delta_u) ||
             (delta_uw < 0 && delta_uw < delta_u);
      ++stats_.gate_reveals;
      if (monitor_ != nullptr)
        monitor_->on_reveal({id_, id, w}, rule.rule, view_all.count,
                            view_all.num);
    }
    // Algorithm 1 advances the gate baselines at the end of *every* SFE
    // (not only revealed ones). This keeps consecutive reveals >= k apart
    // — a reveal requires >= k growth since the previous query, which is
    // no earlier than the previous reveal — while guaranteeing that a
    // suppressed big jump is forwarded by the next below-threshold change
    // instead of starving the edge (see DESIGN.md).
    gate.k1_last = view_all.count;
    gate.k2_last = view_all.num;
  }

  if (behavior_ == ControllerBehavior::kLieController) send = !send;

  if (send) {
    ++stats_.sends_granted;
    const std::uint64_t t_new =
        1 + *std::max_element(view_all.timestamps.begin(),
                              view_all.timestamps.end());
    decision.outgoing = hom::make_counter(
        enc_, w_layout, static_cast<std::uint64_t>(out_sum),
        static_cast<std::uint64_t>(out_count),
        static_cast<std::uint64_t>(out_num), /*share=*/0, slot_u_at_w, t_new,
        rng_);
    gate.has_last_sent = true;
    gate.sent_sum = out_sum;
    gate.sent_count = out_count;
    gate.sent_num = out_num;
  }
  decision.send = send;
  return decision;
}

Controller::OutputDecision Controller::sfe_output(arm::CandId id,
                                                  const arm::Candidate& rule,
                                                  const hom::Cipher& agg_all) {
  if (halted_) {
    OutputDecision decision;
    decision.correct = rule_state(id).output.last_answer;
    return decision;
  }
  return sfe_output(id, rule, decrypt_view(agg_all));
}

Controller::OutputDecision Controller::sfe_output(
    arm::CandId id, const arm::Candidate& rule, const hom::CounterView& view) {
  OutputDecision decision;
  RuleState& state = rule_state(id);
  if (halted_) {
    decision.correct = state.output.last_answer;
    return decision;
  }
  ++stats_.sfe_outputs;
  validate_view(state, view, decision.detections);
  if (!decision.detections.empty()) {
    decision.correct = state.output.last_answer;
    return decision;
  }

  OutputGate& gate = state.output;
  const std::int64_t count_delta = view.count - gate.k1_last;
  const std::int64_t num_delta = view.num - gate.k2_last;
  if (count_delta >= k_ && num_delta >= k_) {
    const majority::Ratio lambda = lambda_for(rule);
    gate.last_answer = weight(lambda, view.sum, view.count) >= 0;
    gate.k1_last = view.count;
    gate.k2_last = view.num;
    ++stats_.gate_reveals;
    if (monitor_ != nullptr)
      monitor_->on_reveal({id_, id, KTtpMonitor::kOutputGate}, rule.rule,
                          view.count, view.num);
  }
  decision.correct = behavior_ == ControllerBehavior::kLieController
                         ? !gate.last_answer
                         : gate.last_answer;
  return decision;
}

}  // namespace kgrid::core
