#include "arm/candidates.hpp"

#include <gtest/gtest.h>

#include <algorithm>

namespace kgrid::arm {
namespace {

bool has(const std::vector<Candidate>& v, const Candidate& c) {
  return std::find(v.begin(), v.end(), c) != v.end();
}

TEST(Candidates, InitialSetIsOnePerItem) {
  const auto init = initial_candidates(4);
  ASSERT_EQ(init.size(), 4u);
  for (data::Item i = 0; i < 4; ++i) {
    EXPECT_EQ(init[i].rule.lhs, data::Itemset{});
    EXPECT_EQ(init[i].rule.rhs, data::Itemset{i});
    EXPECT_EQ(init[i].kind, VoteKind::kFrequency);
  }
}

TEST(Candidates, PairOfFrequentItemsJoinsToPairItemset) {
  CandidateSet correct = {frequency_candidate({1}), frequency_candidate({2})};
  const auto derived = derive_candidates(correct, {});
  EXPECT_TRUE(has(derived, frequency_candidate({1, 2})));
}

TEST(Candidates, FrequentItemsetSpawnsConfidenceRules) {
  CandidateSet correct = {frequency_candidate({1, 2})};
  const auto derived = derive_candidates(correct, {});
  EXPECT_TRUE(has(derived, confidence_candidate({1}, {2})));
  EXPECT_TRUE(has(derived, confidence_candidate({2}, {1})));
}

TEST(Candidates, SingletonFrequencyRuleSpawnsNothingByRule2) {
  CandidateSet correct = {frequency_candidate({1})};
  const auto derived = derive_candidates(correct, {});
  // ∅⇒{1} alone: rule 2 skips size-1 itemsets and rule 3 needs a pair.
  EXPECT_TRUE(derived.empty());
}

TEST(Candidates, ExistingCandidatesAreNotReemitted) {
  CandidateSet correct = {frequency_candidate({1}), frequency_candidate({2})};
  CandidateTable existing;
  existing.intern(frequency_candidate({1, 2}));
  const auto derived = derive_candidates(correct, existing);
  EXPECT_FALSE(has(derived, frequency_candidate({1, 2})));
}

TEST(Candidates, Rule3RequiresAllSubRules) {
  // X={9}: rules 9=>{1,2} and 9=>{1,3} should join to 9=>{1,2,3} only when
  // 9=>{2,3} is also correct (i3 = 1 check).
  CandidateSet correct = {confidence_candidate({9}, {1, 2}),
                          confidence_candidate({9}, {1, 3})};
  auto derived = derive_candidates(correct, {});
  EXPECT_FALSE(has(derived, confidence_candidate({9}, {1, 2, 3})));

  correct.insert(confidence_candidate({9}, {2, 3}));
  derived = derive_candidates(correct, {});
  EXPECT_TRUE(has(derived, confidence_candidate({9}, {1, 2, 3})));
}

TEST(Candidates, Rule3MatchesApriroriGenOnFrequencyVotes) {
  // Frequent pairs {1,2},{1,3},{2,3} join to the triple {1,2,3}.
  CandidateSet correct = {frequency_candidate({1, 2}), frequency_candidate({1, 3}),
                          frequency_candidate({2, 3})};
  const auto derived = derive_candidates(correct, {});
  EXPECT_TRUE(has(derived, frequency_candidate({1, 2, 3})));
  // {1,2} and {1,3} share prefix {1}; without {2,3} the triple is pruned.
  CandidateSet partial = {frequency_candidate({1, 2}), frequency_candidate({1, 3})};
  EXPECT_FALSE(has(derive_candidates(partial, {}), frequency_candidate({1, 2, 3})));
}

TEST(Candidates, KindsDoNotMix) {
  // A frequency rule and a confidence rule with the same shape must not
  // join.
  CandidateSet correct = {frequency_candidate({1}),
                          confidence_candidate({}, {2})};
  // (confidence with empty lhs is degenerate but exercises the kind check)
  const auto derived = derive_candidates(correct, {});
  EXPECT_FALSE(has(derived, frequency_candidate({1, 2})));
  EXPECT_FALSE(has(derived, confidence_candidate({}, {1, 2})));
}

TEST(Candidates, NoDuplicatesInOutput) {
  CandidateSet correct = {frequency_candidate({1, 2}), frequency_candidate({1, 3}),
                          frequency_candidate({2, 3})};
  const auto derived = derive_candidates(correct, {});
  for (std::size_t i = 0; i < derived.size(); ++i)
    for (std::size_t j = i + 1; j < derived.size(); ++j)
      EXPECT_NE(derived[i], derived[j]);
}

}  // namespace
}  // namespace kgrid::arm
