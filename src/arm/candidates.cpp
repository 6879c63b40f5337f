#include "arm/candidates.hpp"

#include <algorithm>
#include <map>

namespace kgrid::arm {

std::vector<Candidate> initial_candidates(std::size_t n_items) {
  std::vector<Candidate> out;
  out.reserve(n_items);
  for (data::Item i = 0; i < n_items; ++i)
    out.push_back(frequency_candidate({i}));
  return out;
}

std::vector<Candidate> derive_candidates(const CandidateSet& correct,
                                         const CandidateTable& existing) {
  std::vector<Candidate> out;
  auto emit = [&](Candidate c) {
    if (!existing.contains(c) &&
        std::find(out.begin(), out.end(), c) == out.end())
      out.push_back(std::move(c));
  };

  // Rule 2: each correct frequent itemset spawns its single-rhs confidence
  // rules.
  for (const auto& cand : correct) {
    if (cand.kind != VoteKind::kFrequency) continue;
    const Itemset& x = cand.rule.rhs;
    if (x.size() < 2) continue;  // ∅ ⇒ {i} ⇒ {i} is vacuous
    for (data::Item i : x) {
      Itemset lhs = data::set_difference(x, {i});
      emit(confidence_candidate(std::move(lhs), {i}));
    }
  }

  // Rule 3: join pairs with equal lhs and rhs differing in the last item.
  // Group correct rules by (kind, lhs, rhs-without-last).
  struct GroupKey {
    VoteKind kind;
    Itemset lhs;
    Itemset rhs_prefix;
    auto operator<=>(const GroupKey&) const = default;
  };
  std::map<GroupKey, std::vector<data::Item>> groups;
  for (const auto& cand : correct) {
    if (cand.rule.rhs.empty()) continue;
    Itemset prefix = cand.rule.rhs;
    const data::Item last = prefix.back();
    prefix.pop_back();
    groups[{cand.kind, cand.rule.lhs, std::move(prefix)}].push_back(last);
  }

  for (auto& [key, lasts] : groups) {
    if (lasts.size() < 2) continue;
    std::sort(lasts.begin(), lasts.end());
    const Itemset& y = key.rhs_prefix;
    for (std::size_t a = 0; a < lasts.size(); ++a) {
      for (std::size_t b = a + 1; b < lasts.size(); ++b) {
        Itemset joined = data::set_union(y, {lasts[a], lasts[b]});
        // Apriori-style prune: X ⇒ Y ∪ {i1,i2} \ {i3} must be correct for
        // every i3 ∈ Y.
        bool prune_ok = true;
        for (data::Item i3 : y) {
          Candidate sub{Rule{key.lhs, data::set_difference(joined, {i3})},
                        key.kind};
          if (!correct.contains(sub)) {
            prune_ok = false;
            break;
          }
        }
        if (prune_ok) emit(Candidate{Rule{key.lhs, std::move(joined)}, key.kind});
      }
    }
  }
  return out;
}

}  // namespace kgrid::arm
