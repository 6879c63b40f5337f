// Transactions, itemsets, and databases (paper §3, "Association Rule Mining
// Model"): items from a domain I, transactions are subsets of I with unique
// ids, a database is a list of transactions.
//
// Itemsets are sorted unique sequences so subset tests are linear merges and
// itemsets can key hash maps. The container is a small-buffer vector: rule
// itemsets are a handful of items, and candidates are hashed and copied
// whenever a resource interns one in its arm::CandidateTable, so keeping
// them heap-free is a measurable win on the fig3-scale sweeps.
#pragma once

#include <algorithm>
#include <compare>
#include <cstdint>
#include <cstring>
#include <initializer_list>
#include <iterator>
#include <span>
#include <string>
#include <vector>

namespace kgrid::data {

using Item = std::uint32_t;
using TransactionId = std::uint64_t;

/// Vector of items with an inline small-buffer (invariant where noted:
/// sorted, unique). Supports the std::vector surface the miners use —
/// iterators are raw pointers, so <algorithm> merges work unchanged.
class Itemset {
 public:
  using value_type = Item;
  using iterator = Item*;
  using const_iterator = const Item*;
  static constexpr std::size_t kInline = 8;

  Itemset() = default;
  Itemset(std::initializer_list<Item> init) { append(init.begin(), init.size()); }
  template <class It>
  Itemset(It first, It last) {
    for (; first != last; ++first) push_back(static_cast<Item>(*first));
  }
  Itemset(const Itemset& o) { append(o.data(), o.size_); }
  Itemset(Itemset&& o) noexcept { steal(o); }
  Itemset& operator=(const Itemset& o) {
    if (this != &o) {
      size_ = 0;
      append(o.data(), o.size_);
    }
    return *this;
  }
  Itemset& operator=(Itemset&& o) noexcept {
    if (this != &o) {
      release();
      steal(o);
    }
    return *this;
  }
  ~Itemset() { release(); }

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  Item* data() { return heap_ != nullptr ? heap_ : inline_; }
  const Item* data() const { return heap_ != nullptr ? heap_ : inline_; }
  iterator begin() { return data(); }
  iterator end() { return data() + size_; }
  const_iterator begin() const { return data(); }
  const_iterator end() const { return data() + size_; }
  Item& operator[](std::size_t i) { return data()[i]; }
  Item operator[](std::size_t i) const { return data()[i]; }
  Item front() const { return data()[0]; }
  Item back() const { return data()[size_ - 1]; }

  void clear() { size_ = 0; }
  void reserve(std::size_t n) {
    if (n > cap_) grow(n);
  }
  void push_back(Item v) {
    if (size_ == cap_) grow(size_ + 1);
    data()[size_++] = v;
  }
  void pop_back() { --size_; }

  iterator erase(iterator pos) { return erase(pos, pos + 1); }
  iterator erase(iterator first, iterator last) {
    const auto n = static_cast<std::size_t>(last - first);
    if (n != 0) {
      std::memmove(first, last,
                   static_cast<std::size_t>(end() - last) * sizeof(Item));
      size_ -= n;
    }
    return first;
  }

  /// Insert [first, last) at pos. The source range must not alias this
  /// itemset (every call site inserts from a distinct container).
  template <class It>
  iterator insert(iterator pos, It first, It last) {
    const auto idx = static_cast<std::size_t>(pos - begin());
    const auto n = static_cast<std::size_t>(last - first);
    reserve(size_ + n);
    Item* d = data();
    std::memmove(d + idx + n, d + idx, (size_ - idx) * sizeof(Item));
    for (std::size_t i = 0; i < n; ++i) d[idx + i] = static_cast<Item>(first[i]);
    size_ += n;
    return d + idx;
  }

  friend bool operator==(const Itemset& a, const Itemset& b) {
    return a.size_ == b.size_ && std::equal(a.begin(), a.end(), b.begin());
  }
  friend std::strong_ordering operator<=>(const Itemset& a, const Itemset& b) {
    return std::lexicographical_compare_three_way(a.begin(), a.end(),
                                                  b.begin(), b.end());
  }

 private:
  void append(const Item* src, std::size_t n) {
    reserve(size_ + n);
    Item* d = data();
    for (std::size_t i = 0; i < n; ++i) d[size_ + i] = src[i];
    size_ += n;
  }
  void steal(Itemset& o) {
    if (o.heap_ != nullptr) {
      heap_ = o.heap_;
      cap_ = o.cap_;
      o.heap_ = nullptr;
      o.cap_ = kInline;
    } else {
      for (std::size_t i = 0; i < o.size_; ++i) inline_[i] = o.inline_[i];
    }
    size_ = o.size_;
    o.size_ = 0;
  }
  void grow(std::size_t want) {
    const std::size_t ncap = want < 2 * cap_ ? 2 * cap_ : want;
    auto* nd = new Item[ncap];
    const Item* d = data();
    for (std::size_t i = 0; i < size_; ++i) nd[i] = d[i];
    release();
    heap_ = nd;
    cap_ = ncap;
  }
  void release() {
    delete[] heap_;
    heap_ = nullptr;
    cap_ = kInline;
  }

  Item inline_[kInline];
  Item* heap_ = nullptr;
  std::size_t size_ = 0;
  std::size_t cap_ = kInline;
};

struct Transaction {
  TransactionId id = 0;
  Itemset items;
};

/// Normalize an arbitrary item list into a canonical itemset.
inline Itemset make_itemset(std::initializer_list<Item> items) {
  Itemset out(items);
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

inline void normalize(Itemset& items) {
  std::sort(items.begin(), items.end());
  items.erase(std::unique(items.begin(), items.end()), items.end());
}

/// True iff `subset` ⊆ `superset` (both canonical).
inline bool contains_all(const Itemset& superset, const Itemset& subset) {
  return std::includes(superset.begin(), superset.end(), subset.begin(),
                       subset.end());
}

inline Itemset set_union(const Itemset& a, const Itemset& b) {
  Itemset out;
  out.reserve(a.size() + b.size());
  std::set_union(a.begin(), a.end(), b.begin(), b.end(), std::back_inserter(out));
  return out;
}

inline Itemset set_difference(const Itemset& a, const Itemset& b) {
  Itemset out;
  out.reserve(a.size());
  std::set_difference(a.begin(), a.end(), b.begin(), b.end(),
                      std::back_inserter(out));
  return out;
}

inline bool disjoint(const Itemset& a, const Itemset& b) {
  auto ia = a.begin();
  auto ib = b.begin();
  while (ia != a.end() && ib != b.end()) {
    if (*ia < *ib) ++ia;
    else if (*ib < *ia) ++ib;
    else return false;
  }
  return true;
}

inline std::string to_string(const Itemset& items) {
  std::string out = "{";
  for (std::size_t i = 0; i < items.size(); ++i) {
    if (i) out += ",";
    out += std::to_string(items[i]);
  }
  return out + "}";
}

/// An append-only transaction database (paper §3 assumes no deletions: a
/// deletion is modelled by appending a negating transaction).
class Database {
 public:
  Database() = default;

  std::size_t size() const { return transactions_.size(); }
  bool empty() const { return transactions_.empty(); }
  const Transaction& operator[](std::size_t i) const { return transactions_[i]; }
  const std::vector<Transaction>& transactions() const { return transactions_; }

  void append(Transaction t) { transactions_.push_back(std::move(t)); }
  void reserve(std::size_t n) { transactions_.reserve(n); }

  /// Number of transactions containing every item of X (paper: Support).
  std::size_t support(const Itemset& x) const {
    std::size_t n = 0;
    for (const auto& t : transactions_) n += contains_all(t.items, x);
    return n;
  }

  /// Support(X) / |DB| (paper: Freq); zero for an empty database.
  double frequency(const Itemset& x) const {
    return empty() ? 0.0
                   : static_cast<double>(support(x)) / static_cast<double>(size());
  }

 private:
  std::vector<Transaction> transactions_;
};

/// A resource's future arrivals, consumed front to back: first a view of
/// transactions someone else keeps alive (a grid's environment holds every
/// resource's stream for its whole life, so the resource reads it in place
/// instead of holding a second copy), then any transactions queued into the
/// stream's own storage.
class ArrivalStream {
 public:
  /// Read `arrivals` in place, ahead of anything queued; they must outlive
  /// the stream. Set before the first next().
  void view(std::span<const Transaction> arrivals) { view_ = arrivals; }

  /// Append caller-handed transactions behind everything already streamed.
  void queue(std::vector<Transaction> arrivals) {
    queued_.insert(queued_.end(), std::make_move_iterator(arrivals.begin()),
                   std::make_move_iterator(arrivals.end()));
  }

  /// The next arrival, or null when the stream is exhausted.
  const Transaction* next() {
    if (next_ < view_.size()) return &view_[next_++];
    const std::size_t i = next_ - view_.size();
    if (i >= queued_.size()) return nullptr;
    ++next_;
    return &queued_[i];
  }

 private:
  std::span<const Transaction> view_;
  std::vector<Transaction> queued_;
  std::size_t next_ = 0;
};

}  // namespace kgrid::data
