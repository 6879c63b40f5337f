// Incremental, budgeted support counting — the accountant's counting model
// (paper Algorithm 2: "Cyclically, read a few transactions from the
// database ... For each transaction which last read before r was
// generated").
//
// Each registered candidate keeps a cursor over the local database in
// arrival order; a step advances every cursor by at most the step's budget
// (the paper processes 100 transactions per step, so a 10,000-transaction
// local database is "scanned once every 100 steps"). Newly appended
// transactions are simply beyond every cursor and get counted as the
// cursors reach them; newly registered rules start from zero and take one
// full scan to catch up — exactly the anytime cost profile the paper's
// Figure 2 measures in scans.
#pragma once

#include <vector>

#include "arm/candidates.hpp"
#include "arm/rules.hpp"
#include "data/transaction.hpp"
#include "util/check.hpp"

namespace kgrid::arm {

class IncrementalCounter {
 public:
  struct Counts {
    std::uint64_t sum = 0;    // favourable votes
    std::uint64_t count = 0;  // votes cast
    std::size_t processed = 0;  // transactions this rule has inspected
  };

  std::size_t db_size() const { return db_.size(); }
  std::size_t rule_count() const { return table_.size(); }

  /// The registered rules, interned to dense ids (the resource's candidate
  /// table: the counts below are indexed by its ids).
  const CandidateTable& candidates() const { return table_; }

  void append(data::Transaction t) { db_.push_back(std::move(t)); }

  bool has_rule(const Candidate& c) const { return table_.contains(c); }

  /// Register a candidate; counting starts from the beginning of the local
  /// database (no-op if already registered). Returns its id.
  CandId add_rule(const Candidate& c) {
    const auto [id, inserted] = table_.intern(c);
    if (inserted) counts_.emplace_back();
    return id;
  }

  Counts counts(const Candidate& c) const {
    const CandId id = table_.find(c);
    KGRID_CHECK(id != CandidateTable::kNone, "counts() for unregistered rule");
    return counts_[id];
  }

  /// True iff some registered rule has transactions left to inspect.
  bool backlog() const {
    for (const Counts& counts : counts_)
      if (counts.processed < db_.size()) return true;
    return false;
  }

  /// Advance every rule's cursor by at most `budget` transactions; returns
  /// the rules whose (sum, count) changed.
  std::vector<Candidate> advance(std::size_t budget) {
    std::vector<Candidate> changed;
    advance(budget, [&](CandId id, const Counts&) {
      changed.push_back(table_[id]);
    });
    return changed;
  }

  /// Callback variant of advance(): invokes `on_changed(id, counts)` for
  /// each rule whose counts moved, in the table's walk order — the same
  /// rules (and order) the vector variant returns, without materializing
  /// candidate copies. The callback must not register rules.
  template <class F>
  void advance(std::size_t budget, F&& on_changed) {
    table_.for_each([&](CandId id, const Candidate& cand) {
      Counts& counts = counts_[id];
      const std::uint64_t before_sum = counts.sum;
      const std::uint64_t before_count = counts.count;
      const std::size_t end = std::min(db_.size(), counts.processed + budget);
      for (; counts.processed < end; ++counts.processed)
        tally(cand, db_[counts.processed], counts);
      if (counts.sum != before_sum || counts.count != before_count)
        on_changed(id, const_cast<const Counts&>(counts));
    });
  }

 private:
  static void tally(const Candidate& cand, const data::Transaction& t,
                    Counts& counts) {
    if (cand.kind == VoteKind::kFrequency) {
      // Every transaction votes; "yes" iff it contains the itemset.
      ++counts.count;
      counts.sum += data::contains_all(t.items, cand.rule.rhs);
    } else {
      // Only lhs-containing transactions vote; "yes" iff rhs also present.
      if (data::contains_all(t.items, cand.rule.lhs)) {
        ++counts.count;
        counts.sum += data::contains_all(t.items, cand.rule.rhs);
      }
    }
  }

  std::vector<data::Transaction> db_;
  CandidateTable table_;
  std::vector<Counts> counts_;  // by CandId
};

}  // namespace kgrid::arm
