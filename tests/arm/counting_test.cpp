#include "arm/counting.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <tuple>
#include <vector>

#include "data/quest.hpp"
#include "util/rng.hpp"

namespace kgrid::arm {
namespace {

data::Transaction tx(data::TransactionId id, std::initializer_list<data::Item> items) {
  return {id, data::make_itemset(items)};
}

TEST(IncrementalCounter, FrequencyVoteCountsAllTransactions) {
  IncrementalCounter counter;
  counter.append(tx(0, {1, 2}));
  counter.append(tx(1, {1}));
  counter.append(tx(2, {3}));
  const auto rule = frequency_candidate({1});
  counter.add_rule(rule);
  const auto changed = counter.advance(100);
  ASSERT_EQ(changed.size(), 1u);
  const auto counts = counter.counts(rule);
  EXPECT_EQ(counts.count, 3u);
  EXPECT_EQ(counts.sum, 2u);
  EXPECT_EQ(counts.processed, 3u);
}

TEST(IncrementalCounter, ConfidenceVoteCountsOnlyLhs) {
  IncrementalCounter counter;
  counter.append(tx(0, {1, 2}));
  counter.append(tx(1, {1}));
  counter.append(tx(2, {2}));
  const auto rule = confidence_candidate({1}, {2});
  counter.add_rule(rule);
  counter.advance(100);
  const auto counts = counter.counts(rule);
  EXPECT_EQ(counts.count, 2u);  // {1,2} and {1}
  EXPECT_EQ(counts.sum, 1u);    // only {1,2}
}

TEST(IncrementalCounter, BudgetLimitsProgressPerStep) {
  IncrementalCounter counter;
  for (data::TransactionId i = 0; i < 10; ++i) counter.append(tx(i, {1}));
  const auto rule = frequency_candidate({1});
  counter.add_rule(rule);

  counter.advance(3);
  EXPECT_EQ(counter.counts(rule).processed, 3u);
  EXPECT_TRUE(counter.backlog());
  counter.advance(3);
  EXPECT_EQ(counter.counts(rule).processed, 6u);
  counter.advance(100);
  EXPECT_EQ(counter.counts(rule).processed, 10u);
  EXPECT_FALSE(counter.backlog());
}

TEST(IncrementalCounter, AdvanceReportsOnlyChangedRules) {
  IncrementalCounter counter;
  counter.append(tx(0, {1}));
  const auto present = frequency_candidate({1});
  const auto confidence_absent = confidence_candidate({9}, {1});
  counter.add_rule(present);
  counter.add_rule(confidence_absent);
  const auto changed = counter.advance(100);
  // The confidence rule saw no lhs-holder: counts unchanged, not reported.
  ASSERT_EQ(changed.size(), 1u);
  EXPECT_EQ(changed[0], present);
  // Nothing more to scan: a second advance reports nothing.
  EXPECT_TRUE(counter.advance(100).empty());
}

TEST(IncrementalCounter, LateRuleScansFromTheBeginning) {
  IncrementalCounter counter;
  for (data::TransactionId i = 0; i < 6; ++i) counter.append(tx(i, {1}));
  const auto early = frequency_candidate({1});
  counter.add_rule(early);
  counter.advance(100);

  const auto late = frequency_candidate({1, 2});
  counter.add_rule(late);
  EXPECT_EQ(counter.counts(late).processed, 0u);
  counter.advance(100);
  EXPECT_EQ(counter.counts(late).processed, 6u);
  EXPECT_EQ(counter.counts(late).count, 6u);
  EXPECT_EQ(counter.counts(late).sum, 0u);
}

TEST(IncrementalCounter, AppendAfterScanIsPickedUp) {
  IncrementalCounter counter;
  counter.append(tx(0, {1}));
  const auto rule = frequency_candidate({1});
  counter.add_rule(rule);
  counter.advance(100);
  EXPECT_EQ(counter.counts(rule).count, 1u);

  counter.append(tx(1, {1}));
  counter.append(tx(2, {2}));
  const auto changed = counter.advance(100);
  EXPECT_EQ(changed.size(), 1u);
  EXPECT_EQ(counter.counts(rule).count, 3u);
  EXPECT_EQ(counter.counts(rule).sum, 2u);
}

TEST(IncrementalCounter, AddRuleIsIdempotent) {
  IncrementalCounter counter;
  counter.append(tx(0, {1}));
  const auto rule = frequency_candidate({1});
  counter.add_rule(rule);
  counter.advance(100);
  counter.add_rule(rule);  // must not reset progress
  EXPECT_EQ(counter.counts(rule).processed, 1u);
  EXPECT_TRUE(counter.has_rule(rule));
  EXPECT_EQ(counter.rule_count(), 1u);
}

TEST(IncrementalCounter, CountsForUnknownRuleAborts) {
  IncrementalCounter counter;
  EXPECT_DEATH((void)counter.counts(frequency_candidate({1})),
               "unregistered rule");
}

// -- Differential tests: the bitmap counter against a naive oracle ---------

/// The per-transaction scan the counter's bitmaps replace: every rule's
/// cursor walks the stored itemsets and merges each with the rule.
class NaiveCounter {
 public:
  void append(const data::Transaction& t) { db_.push_back(t.items); }
  void add_rule(CandId id, const Candidate& c) {
    if (id == rules_.size()) rules_.push_back({c, {}});
  }
  const IncrementalCounter::Counts& counts(CandId id) const {
    return rules_[id].second;
  }

  /// Advances rule `id` by at most `budget`; true iff (sum, count) moved.
  bool advance(CandId id, std::size_t budget) {
    auto& [cand, counts] = rules_[id];
    const std::size_t end = std::min(db_.size(), counts.processed + budget);
    bool moved = false;
    for (; counts.processed < end; ++counts.processed) {
      const data::Itemset& t = db_[counts.processed];
      if (cand.kind == VoteKind::kConfidence &&
          !data::contains_all(t, cand.rule.lhs))
        continue;
      ++counts.count;
      counts.sum += data::contains_all(t, cand.rule.rhs);
      moved = true;
    }
    return moved;
  }

 private:
  std::vector<data::Itemset> db_;
  std::vector<std::pair<Candidate, IncrementalCounter::Counts>> rules_;
};

/// Registers `c` with both counters.
void add_both(IncrementalCounter& counter, NaiveCounter& oracle,
              const Candidate& c) {
  oracle.add_rule(counter.add_rule(c), c);
}

void append_both(IncrementalCounter& counter, NaiveCounter& oracle,
                 const data::Transaction& t) {
  counter.append(t);
  oracle.append(t);
}

/// One advance of both counters: the callback must name exactly the rules
/// the oracle saw move, in the table's walk order, with the oracle's counts;
/// afterwards every rule's counts (changed or not) must agree.
void expect_same_advance(IncrementalCounter& counter, NaiveCounter& oracle,
                         std::size_t budget) {
  using Step = std::tuple<CandId, std::uint64_t, std::uint64_t, std::size_t>;
  std::vector<Step> want;
  counter.candidates().for_each([&](CandId id, const Candidate&) {
    if (!oracle.advance(id, budget)) return;
    const auto& c = oracle.counts(id);
    want.emplace_back(id, c.sum, c.count, c.processed);
  });
  std::vector<Step> got;
  counter.advance(budget, [&](CandId id, const IncrementalCounter::Counts& c) {
    got.emplace_back(id, c.sum, c.count, c.processed);
  });
  ASSERT_EQ(got, want) << "budget " << budget;
  for (CandId id = 0; id < counter.rule_count(); ++id) {
    const auto have = counter.counts(counter.candidates()[id]);
    const auto& c = oracle.counts(id);
    ASSERT_EQ(std::tie(have.sum, have.count, have.processed),
              std::tie(c.sum, c.count, c.processed))
        << "rule " << id << ", budget " << budget;
  }
}

/// A random rule over the items of `t` plus the occasional item never seen
/// (ids at and above `n_items`): a frequency vote on a subset, or a
/// confidence vote splitting a subset into lhs and rhs.
Candidate random_rule(const data::Itemset& t, std::size_t n_items, Rng& rng) {
  data::Itemset items;
  for (const data::Item i : t)
    if (rng.bernoulli(0.4)) items.push_back(i);
  if (items.empty() || rng.bernoulli(0.1))
    items.push_back(static_cast<data::Item>(rng.below(n_items + 70)));
  data::normalize(items);
  if (items.size() < 2 || rng.bernoulli(0.4)) return frequency_candidate(items);
  data::Itemset lhs, rhs;
  for (const data::Item i : items) (rng.bernoulli(0.5) ? lhs : rhs).push_back(i);
  if (lhs.empty() || rhs.empty()) return frequency_candidate(items);
  return confidence_candidate(lhs, rhs);
}

data::QuestGenerator quest(std::size_t n_items, std::uint64_t seed) {
  data::QuestParams params = data::QuestParams::preset("T10I4");
  params.n_items = n_items;
  params.n_patterns = 20;
  return data::QuestGenerator(params, Rng(seed));
}

TEST(IncrementalCounter, MatchesNaiveScanUnderInterleavedAppendsAndRules) {
  for (std::uint64_t seed = 1; seed <= 24; ++seed) {
    SCOPED_TRACE(seed);
    Rng rng(seed);
    const std::size_t n_items = 20 + rng.below(100);
    auto gen = quest(n_items, seed);
    IncrementalCounter counter;
    NaiveCounter oracle;
    data::Itemset last;
    for (int round = 0; round < 30; ++round) {
      for (std::uint64_t k = rng.below(rng.bernoulli(0.3) ? 150 : 20); k > 0;
           --k) {
        const data::Transaction t = gen.next();
        append_both(counter, oracle, t);
        last = t.items;
      }
      for (std::uint64_t k = rng.below(8); k > 0; --k)
        add_both(counter, oracle, random_rule(last, n_items, rng));
      expect_same_advance(counter, oracle, 1 + rng.below(200));
      if (HasFatalFailure()) return;
    }
    EXPECT_EQ(counter.db_size(), gen.next().id);
  }
}

TEST(IncrementalCounter, MatchesNaiveScanAcrossWordBoundaries) {
  // Budgets that start and stop inside a 64-transaction word, end exactly
  // on one, and span several.
  auto gen = quest(40, 7);
  IncrementalCounter counter;
  NaiveCounter oracle;
  Rng rng(7);
  for (int i = 0; i < 700; ++i) append_both(counter, oracle, gen.next());
  for (int i = 0; i < 40; ++i)
    add_both(counter, oracle, random_rule(gen.next().items, 40, rng));
  for (const std::size_t budget : {1, 62, 1, 64, 65, 63, 127, 128, 200, 3, 199})
    expect_same_advance(counter, oracle, budget);
  while (counter.backlog()) expect_same_advance(counter, oracle, 1 + rng.below(200));
}

TEST(IncrementalCounter, ConfidenceWithUnseenLhsNeverVotes) {
  auto gen = quest(30, 3);
  IncrementalCounter counter;
  NaiveCounter oracle;
  for (int i = 0; i < 150; ++i) append_both(counter, oracle, gen.next());
  const auto unseen_lhs = confidence_candidate({500}, {1});
  const auto unseen_both = confidence_candidate({500}, {501});
  const auto seen = frequency_candidate({1});
  for (const auto& c : {unseen_lhs, unseen_both, seen}) add_both(counter, oracle, c);
  for (int i = 0; i < 4; ++i) expect_same_advance(counter, oracle, 70);
  EXPECT_EQ(counter.counts(unseen_lhs).count, 0u);
  EXPECT_EQ(counter.counts(unseen_lhs).processed, 150u);
  EXPECT_EQ(counter.counts(unseen_both).count, 0u);
}

TEST(IncrementalCounter, ItemsAboveEverySeenItemAreCountedOnceTheyArrive) {
  IncrementalCounter counter;
  NaiveCounter oracle;
  const auto high = frequency_candidate({900});
  const auto high_conf = confidence_candidate({2}, {901});
  add_both(counter, oracle, high);
  add_both(counter, oracle, high_conf);
  for (data::TransactionId i = 0; i < 100; ++i)
    append_both(counter, oracle, tx(i, {static_cast<data::Item>(i % 3)}));
  expect_same_advance(counter, oracle, 90);
  // The largest item so far grows mid-word, after the rules saw zeros.
  for (data::TransactionId i = 100; i < 300; ++i)
    append_both(counter, oracle,
                i % 5 == 0 ? tx(i, {2, 900, 901}) : tx(i, {2, 901}));
  while (counter.backlog()) expect_same_advance(counter, oracle, 37);
  EXPECT_EQ(counter.counts(high).sum, 40u);
  EXPECT_EQ(counter.counts(high_conf).sum, 200u);
}

TEST(IncrementalCounter, EmptyDatabaseReportsNothing) {
  IncrementalCounter counter;
  NaiveCounter oracle;
  add_both(counter, oracle, frequency_candidate({0}));
  add_both(counter, oracle, confidence_candidate({0}, {1}));
  EXPECT_FALSE(counter.backlog());
  expect_same_advance(counter, oracle, 100);
  EXPECT_TRUE(counter.advance(100).empty());
  EXPECT_EQ(counter.counts(frequency_candidate({0})).count, 0u);

  append_both(counter, oracle, tx(0, {}));  // an empty transaction still votes
  append_both(counter, oracle, tx(1, {0, 1}));
  expect_same_advance(counter, oracle, 100);
  EXPECT_EQ(counter.counts(frequency_candidate({0})).count, 2u);
  EXPECT_EQ(counter.counts(confidence_candidate({0}, {1})).sum, 1u);
}

}  // namespace
}  // namespace kgrid::arm
