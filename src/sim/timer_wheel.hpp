// Hashed hierarchical timer wheel for the periodic-timer population.
//
// At fig3 scale the pending-event set is dominated by homogeneous periodic
// count-report timers (1.57M fired at n=16384) flowing through the same
// adaptive calendar queue as protocol messages. Timers have two properties
// the general scheduler cannot exploit: they never carry a payload, and
// their inter-arrival spread is a single period, so a fixed-width wheel
// places them with one index computation and no width-tracking history.
//
// Structure (classic hashed wheel, Varghese & Lauck SOSP '87 shape):
//
//   * level 0 — a ring of 1024 one-tick slots covering absolute ticks
//     [cursor, cursor aligned up to the next 1024-tick span);
//   * levels 1..3 — 64-slot overflow rings of geometrically coarser spans
//     (2^10, 2^16, 2^22 ticks per slot); entries park at the lowest level
//     whose span contains both the cursor and their tick;
//   * far heap — anything beyond the 2^28-tick top-level span.
//
// Occupancy bitmaps (16 + 3 words) make the advance scan O(words), and a
// cascade — draining one coarse slot into the finer rings when every finer
// ring is empty — touches each entry O(levels) times over its lifetime.
//
// Determinism: the wheel is only a *placement* structure. Pops compare
// exact (time, seq) keys — the cursor slot is kept sorted ascending and
// drained through an index (`head_`) rather than erased, so the dispatch
// order is the exact (time, seq) order regardless of the tick width. The ascending layout matters for throughput, not just order: a
// step storm re-arms thousands of same-period timers in one burst, all
// landing in one slot in increasing (time, seq) order, and ascending order
// turns each of those sorted-inserts into an O(1) append (a descending
// min-at-back layout would memmove the whole slot per push — quadratic).
// The width only moves constants: it adapts once, from the first
// kSampleWindow observed schedule deltas (a periodic population needs no
// further tracking), and that single rebuild is counted in
// TimerWheelStats::rebuilds.
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <vector>

#include "util/check.hpp"

namespace kgrid::sim {

using Time = double;
using EntityId = std::uint32_t;

/// One pending timer. Timers carry no payload, so the wheel stores the full
/// event inline and the pop path never touches the event pool.
struct TimerEntry {
  Time time = 0.0;
  Time sent_at = 0.0;
  std::uint64_t seq = 0;
  std::uint64_t timer_id = 0;
  EntityId from = 0;
  EntityId to = 0;
};

/// Surfaced through EngineMetrics as the artifact's sim.timer_wheel section
/// (docs/METRICS.md).
struct TimerWheelStats {
  std::uint64_t scheduled = 0;    // pushes
  std::uint64_t fired = 0;        // pops
  std::uint64_t cascades = 0;     // coarse-slot drains into finer rings
  std::uint64_t far_events = 0;   // entries parked beyond the top-level span
  std::uint64_t rebuilds = 0;     // width adaptations (at most one)
  std::uint64_t max_pending = 0;  // pending-timer high-water mark
};

class TimerWheel {
 public:
  bool empty() const { return n_ == 0; }
  std::size_t size() const { return n_; }

  /// Minimum-(time, seq) entry views. Precondition: !empty(). The cursor
  /// slot is kept non-empty and sorted (class invariant), so peeking never
  /// mutates — required by the engine's barrier checks and by EventQueue's
  /// two-source merge against the message scheduler.
  Time top_time() const { return cur_slot()[head_].time; }
  std::uint64_t top_seq() const { return cur_slot()[head_].seq; }
  EntityId top_to() const { return cur_slot()[head_].to; }

  void push(const TimerEntry& e) {
    KGRID_CHECK(e.time >= 0.0, "negative timer time");
    ++stats_.scheduled;
    if (n_ == 0) {
      cur_ = tick_of(e.time);
      head_ = 0;
    }
    note_delta(e.time);
    place(e, tick_of(e.time));
    ++n_;
    if (n_ > stats_.max_pending) stats_.max_pending = n_;
    maybe_adapt();
  }

  /// Precondition: !empty().
  TimerEntry pop() {
    auto& vec = l0_[cur_ & kL0Mask];
    const TimerEntry out = vec[head_];
    ++head_;
    --n_;
    ++stats_.fired;
    if (head_ == vec.size()) {
      vec.clear();
      head_ = 0;
      bm0_clear(cur_ & kL0Mask);
      if (n_ > 0) advance();
    }
    return out;
  }

  const TimerWheelStats& stats() const { return stats_; }

 private:
  static constexpr unsigned kL0Bits = 10;  // 1024 one-tick slots
  static constexpr unsigned kUpBits = 6;   // 64 slots per overflow level
  static constexpr int kLevels = 3;        // top span: 2^28 ticks
  static constexpr std::uint64_t kL0Mask = (1u << kL0Bits) - 1;
  static constexpr std::uint64_t kUpMask = (1u << kUpBits) - 1;
  static constexpr unsigned kL0Words = (1u << kL0Bits) / 64;
  static constexpr unsigned kTopShift = kL0Bits + kLevels * kUpBits;
  static constexpr std::size_t kSampleWindow = 64;
  // Slots per observed schedule delta after adaptation: one period then
  // spreads across 64 level-0 slots, so a homogeneous timer storm drains
  // a few entries per slot visit.
  static constexpr double kTicksPerDelta = 64.0;

  static bool before(const TimerEntry& a, const TimerEntry& b) {
    return a.time != b.time ? a.time < b.time : a.seq < b.seq;
  }
  /// `far_` is a min-heap under std::push_heap's max-at-front convention.
  static bool far_after(const TimerEntry& a, const TimerEntry& b) {
    return before(b, a);
  }

  std::uint64_t tick_of(Time t) const {
    return static_cast<std::uint64_t>(t * inv_w_);
  }
  std::vector<TimerEntry>& cur_slot() { return l0_[cur_ & kL0Mask]; }
  const std::vector<TimerEntry>& cur_slot() const {
    return l0_[cur_ & kL0Mask];
  }

  void bm0_set(std::uint64_t s) { bm0_[s >> 6] |= std::uint64_t{1} << (s & 63); }
  void bm0_clear(std::uint64_t s) {
    bm0_[s >> 6] &= ~(std::uint64_t{1} << (s & 63));
  }

  /// First occupied level-0 slot at or after `from`, or -1. Ring entries
  /// never sit behind the cursor (behind-cursor pushes fold into the
  /// cursor slot), so the scan never needs to wrap.
  int bm0_next(unsigned from) const {
    unsigned w = from >> 6;
    std::uint64_t word = bm0_[w] & (~std::uint64_t{0} << (from & 63));
    for (;;) {
      if (word != 0)
        return static_cast<int>(w * 64 + std::countr_zero(word));
      if (++w == kL0Words) return -1;
      word = bm0_[w];
    }
  }

  void place(const TimerEntry& e, std::uint64_t b) {
    if (b <= cur_) {
      // Behind or at the cursor: sorted-insert into the live suffix of the
      // cursor slot ([head_, end) — the prefix is already dispatched).
      // Every resident entry has tick == cur_ (hence a later-or-equal
      // time), so the exact (time, seq) sort keeps the total order — the
      // same argument as CalendarQueue's behind-cursor fold. A re-armed
      // storm arrives in increasing (time, seq) order, so upper_bound is
      // almost always end() and the insert an O(1) append.
      auto& vec = l0_[cur_ & kL0Mask];
      vec.insert(
          std::upper_bound(vec.begin() + static_cast<std::ptrdiff_t>(head_),
                           vec.end(), e, before),
          e);
      bm0_set(cur_ & kL0Mask);
      return;
    }
    if ((b >> kL0Bits) == (cur_ >> kL0Bits)) {
      l0_[b & kL0Mask].push_back(e);
      bm0_set(b & kL0Mask);
      return;
    }
    for (int l = 0; l < kLevels; ++l) {
      const unsigned idx_shift = kL0Bits + static_cast<unsigned>(l) * kUpBits;
      if ((b >> (idx_shift + kUpBits)) == (cur_ >> (idx_shift + kUpBits))) {
        const std::uint64_t slot = (b >> idx_shift) & kUpMask;
        up_[l][slot].push_back(e);
        bmu_[l] |= std::uint64_t{1} << slot;
        return;
      }
    }
    far_.push_back(e);
    std::push_heap(far_.begin(), far_.end(), far_after);
    ++stats_.far_events;
  }

  /// Move the cursor to the next occupied slot. Precondition: n_ > 0 and
  /// the current level-0 slot is empty. Postcondition: the cursor slot is
  /// non-empty, sorted ascending, with head_ == 0.
  void advance() {
    for (;;) {
      if (const int s = bm0_next(static_cast<unsigned>(cur_ & kL0Mask));
          s >= 0) {
        cur_ = (cur_ & ~kL0Mask) | static_cast<std::uint64_t>(s);
        head_ = 0;
        auto& vec = l0_[s];
        if (vec.size() > 1) std::sort(vec.begin(), vec.end(), before);
        return;
      }
      if (cascade()) continue;
      // Rings empty: everything pending waits in far_. Jump the cursor to
      // the far minimum and re-home every entry sharing its top-level span
      // (the minimum itself folds into the new cursor slot, so the next
      // level-0 scan terminates).
      const std::uint64_t b = tick_of(far_.front().time);
      cur_ = b;
      head_ = 0;
      while (!far_.empty() &&
             (tick_of(far_.front().time) >> kTopShift) == (b >> kTopShift)) {
        std::pop_heap(far_.begin(), far_.end(), far_after);
        const TimerEntry e = far_.back();
        far_.pop_back();
        place(e, tick_of(e.time));
      }
    }
  }

  /// Drain the next occupied coarse slot (lowest level first) into the
  /// finer rings. Returns false when every ring is empty. Only reached when
  /// all finer levels are empty, so re-placed entries cannot land behind
  /// any pending finer-ring entry.
  bool cascade() {
    for (int l = 0; l < kLevels; ++l) {
      const unsigned idx_shift = kL0Bits + static_cast<unsigned>(l) * kUpBits;
      const std::uint64_t abs_idx = cur_ >> idx_shift;
      const unsigned pos = static_cast<unsigned>(abs_idx & kUpMask);
      // Slots strictly after the cursor's within the same parent span.
      const std::uint64_t ahead =
          pos == 63 ? 0 : bmu_[l] & (~std::uint64_t{0} << (pos + 1));
      if (ahead == 0) continue;
      const unsigned j = static_cast<unsigned>(std::countr_zero(ahead));
      bmu_[l] &= ~(std::uint64_t{1} << j);
      cur_ = ((abs_idx & ~kUpMask) | j) << idx_shift;
      head_ = 0;
      scratch_.swap(up_[l][j]);
      ++stats_.cascades;
      for (const TimerEntry& e : scratch_) place(e, tick_of(e.time));
      scratch_.clear();
      return true;
    }
    return false;
  }

  void note_delta(Time t) {
    if (adapted_ || n_ == 0) return;  // first push: no cursor-relative delta
    const double delta = t - static_cast<Time>(cur_) * w_;
    if (delta > 0.0) {
      delta_sum_ += delta;
      ++delta_count_;
    }
  }

  /// One-shot width adaptation: once kSampleWindow deltas are in, re-derive
  /// the tick width so a typical schedule distance spans kTicksPerDelta
  /// level-0 slots, and rebuild if the current width is >2x off. Exactness
  /// of the pop order does not depend on the width (see file comment).
  void maybe_adapt() {
    if (adapted_ || delta_count_ < kSampleWindow) return;
    adapted_ = true;
    const double mean = delta_sum_ / static_cast<double>(delta_count_);
    const double ideal = std::clamp(mean / kTicksPerDelta, 1e-12, 1e12);
    if (w_ <= 2.0 * ideal && 2.0 * w_ >= ideal) return;
    // Drop the cursor slot's dispatched prefix before collecting everything.
    auto& dirty = cur_slot();
    dirty.erase(dirty.begin(), dirty.begin() + static_cast<std::ptrdiff_t>(head_));
    head_ = 0;
    std::vector<TimerEntry> all;
    all.reserve(n_);
    for (auto& vec : l0_) {
      all.insert(all.end(), vec.begin(), vec.end());
      vec.clear();
    }
    for (auto& level : up_)
      for (auto& vec : level) {
        all.insert(all.end(), vec.begin(), vec.end());
        vec.clear();
      }
    all.insert(all.end(), far_.begin(), far_.end());
    far_.clear();
    bm0_.fill(0);
    bmu_[0] = bmu_[1] = bmu_[2] = 0;
    w_ = ideal;
    inv_w_ = 1.0 / w_;
    ++stats_.rebuilds;
    if (all.empty()) return;
    const TimerEntry* min = &all.front();
    for (const TimerEntry& e : all)
      if (before(e, *min)) min = &e;
    cur_ = tick_of(min->time);
    head_ = 0;
    for (const TimerEntry& e : all) place(e, tick_of(e.time));
    auto& vec = cur_slot();
    std::sort(vec.begin(), vec.end(), before);
  }

  double w_ = 1.0 / 64.0;
  double inv_w_ = 64.0;
  std::uint64_t cur_ = 0;
  std::size_t head_ = 0;  // dispatched prefix length of the cursor slot
  std::size_t n_ = 0;
  bool adapted_ = false;
  double delta_sum_ = 0.0;
  std::size_t delta_count_ = 0;
  std::vector<TimerEntry> l0_[1u << kL0Bits];
  std::vector<TimerEntry> up_[kLevels][1u << kUpBits];
  std::array<std::uint64_t, kL0Words> bm0_ = {};
  std::uint64_t bmu_[kLevels] = {};
  std::vector<TimerEntry> far_;
  std::vector<TimerEntry> scratch_;  // cascade staging, reused across drains
  TimerWheelStats stats_;
};

}  // namespace kgrid::sim
