// Majority-Rule's candidate-generation criterion (paper §4.1, last
// paragraph, and Algorithm 4's "Once every few cycles" block) — the anytime
// generalization of Apriori's criterion.
//
// From an interim correct-rule set R̃:
//   1. Initially: ⟨∅ ⇒ {i}, MinFreq⟩ for every item i.
//   2. For every ⟨∅ ⇒ X, MinFreq⟩ ∈ R̃ and every i ∈ X:
//      generate ⟨X \ {i} ⇒ {i}, MinConf⟩.
//   3. For every pair ⟨X ⇒ Y ∪ {i1}⟩, ⟨X ⇒ Y ∪ {i2}⟩ ∈ R̃ with i1 < i2
//      (same vote kind): if ⟨X ⇒ Y ∪ {i1,i2} \ {i3}⟩ ∈ R̃ for every i3 ∈ Y,
//      generate ⟨X ⇒ Y ∪ {i1, i2}⟩. With X = ∅ this grows the frequent
//      itemset candidates exactly like Apriori-gen.
#pragma once

#include <cstdint>
#include <limits>
#include <memory_resource>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "arm/rules.hpp"

namespace kgrid::arm {

using CandidateSet = std::unordered_set<Candidate, CandidateHash>;

/// Dense id of a candidate within one resource's CandidateTable. Ids are
/// resource-local: two resources number the same candidate differently,
/// so an id never leaves its resource. Messages name a candidate by the
/// sender's per-link edge id instead, announcing the Candidate once per
/// link (core/messages.hpp).
using CandId = std::uint32_t;

/// One resource's candidate set C, interned to dense ids in registration
/// order (0, 1, 2, ...). Everything the resource keeps per candidate lives
/// in flat vectors indexed by CandId; this table is the one place a
/// Candidate is hashed, once per candidate announced on a link.
///
/// for_each() walks the candidates in hash-table order, not id order: the
/// order an unordered_map<Candidate, ..., CandidateHash> with the same
/// insertion sequence iterates in. Walks that draw randomness, stamp
/// Lamport clocks or emit messages use it, so they visit candidates in
/// exactly the order the per-candidate hash maps this table replaced did.
class CandidateTable {
 public:
  static constexpr CandId kNone = std::numeric_limits<CandId>::max();

  CandidateTable() = default;
  // ids_ allocates from arena_ and by_id_ points into ids_' nodes, so the
  // table stays where it was built.
  CandidateTable(const CandidateTable&) = delete;
  CandidateTable& operator=(const CandidateTable&) = delete;

  std::size_t size() const { return by_id_.size(); }
  bool contains(const Candidate& c) const { return ids_.contains(c); }

  /// The id of `c`, or kNone when it was never interned.
  CandId find(const Candidate& c) const {
    const auto it = ids_.find(c);
    return it == ids_.end() ? kNone : it->second;
  }

  /// Intern `c`; returns its id and whether it was new.
  std::pair<CandId, bool> intern(const Candidate& c) {
    const auto [it, inserted] =
        ids_.try_emplace(c, static_cast<CandId>(by_id_.size()));
    if (inserted) by_id_.push_back(&it->first);  // nodes are address-stable
    return {it->second, inserted};
  }

  const Candidate& operator[](CandId id) const { return *by_id_[id]; }

  /// Calls f(id, candidate) for every candidate, in hash-table order.
  template <class F>
  void for_each(F&& f) const {
    for (const auto& [candidate, id] : ids_) f(id, candidate);
  }

 private:
  // The per-message lookup walks a bucket chain; nodes packed into one
  // arena stay close together instead of spread across the heap.
  std::pmr::monotonic_buffer_resource arena_;
  std::pmr::unordered_map<Candidate, CandId, CandidateHash> ids_{&arena_};
  std::vector<const Candidate*> by_id_;
};

/// Rule 1: the initial candidate set over the item domain [0, n_items).
std::vector<Candidate> initial_candidates(std::size_t n_items);

/// Rules 2 + 3: candidates derivable from the interim correct set
/// `correct`, excluding anything already in `existing`.
std::vector<Candidate> derive_candidates(const CandidateSet& correct,
                                         const CandidateTable& existing);

}  // namespace kgrid::arm
