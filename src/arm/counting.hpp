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
//
// The database is stored vertically (Eclat-style): one bitmap per item id
// (ids form a dense domain [0, n_items)), bit t set iff local transaction t
// holds the item. Advancing a cursor over [lo, end) ANDs the rule's rows
// word by word and popcounts the masked words: O(items × budget / 64) per
// rule, not one itemset merge per transaction. The rows share one flat
// buffer whose stride doubles as the database grows (O(log n) re-layouts).
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
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

  std::size_t db_size() const { return n_; }
  std::size_t rule_count() const { return table_.size(); }

  /// The registered rules, interned to dense ids (the resource's candidate
  /// table: the counts below are indexed by its ids).
  const CandidateTable& candidates() const { return table_; }

  /// Append one transaction; only its items are kept, as bits.
  void append(const data::Transaction& t) {
    if (n_ == stride_ * 64) restride(std::max<std::size_t>(1, 2 * stride_));
    if (!t.items.empty() && t.items.back() >= rows_) {
      rows_ = std::size_t{t.items.back()} + 1;
      words_.resize(rows_ * stride_);
    }
    for (const data::Item i : t.items)
      words_[i * stride_ + n_ / 64] |= std::uint64_t{1} << (n_ % 64);
    ++n_;
  }

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
      if (counts.processed < n_) return true;
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
  ///
  /// A frequency vote counts every transaction and favours those holding
  /// rhs; a confidence vote counts those holding lhs and favours those
  /// holding lhs ∪ rhs.
  template <class F>
  void advance(std::size_t budget, F&& on_changed) {
    table_.for_each([&](CandId id, const Candidate& cand) {
      Counts& counts = counts_[id];
      const std::size_t lo = counts.processed;
      const std::size_t end = std::min(n_, lo + budget);
      if (lo == end) return;
      const bool freq = cand.kind == VoteKind::kFrequency;
      std::uint64_t voters = freq ? end - lo : 0, yes = 0;
      for (std::size_t w = lo / 64; w * 64 < end; ++w) {
        std::uint64_t bits = ~std::uint64_t{0};
        if (w == lo / 64) bits <<= lo % 64;
        if ((w + 1) * 64 > end) bits &= ~std::uint64_t{0} >> (64 - end % 64);
        if (!freq) {
          for (const data::Item i : cand.rule.lhs) bits &= word(i, w);
          voters += std::popcount(bits);
        }
        for (const data::Item i : cand.rule.rhs) bits &= word(i, w);
        yes += std::popcount(bits);
      }
      counts.processed = end;
      counts.count += voters;
      counts.sum += yes;
      if (voters != 0)  // the yes votes are a subset of the voters
        on_changed(id, const_cast<const Counts&>(counts));
    });
  }

 private:
  std::uint64_t word(data::Item i, std::size_t w) const {
    return i < rows_ ? words_[i * stride_ + w] : 0;
  }

  void restride(std::size_t stride) {
    std::vector<std::uint64_t> words(rows_ * stride);
    for (std::size_t r = 0; r < rows_; ++r)
      std::copy_n(words_.begin() + r * stride_, stride_,
                  words.begin() + r * stride);
    words_ = std::move(words);
    stride_ = stride;
  }

  std::size_t n_ = 0;       // transactions appended
  std::size_t rows_ = 0;    // item rows: one past the largest item seen
  std::size_t stride_ = 0;  // words per row; n_ <= 64 * stride_
  std::vector<std::uint64_t> words_;  // row i = words_[i*stride_, +stride_)
  CandidateTable table_;
  std::vector<Counts> counts_;  // by CandId
};

}  // namespace kgrid::arm
