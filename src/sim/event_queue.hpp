// Event storage for sim::Engine: a slab-allocated event pool plus the
// engine's (time, seq) scheduler.
//
// The engine's hot loop at grid scale is push/pop on the pending-event set.
// This header keeps that set in three pieces:
//
//   * EventPool — events live in fixed 1024-slot slabs and are recycled
//     through a freelist, so a steady-state run allocates no events at all
//     (the pool only grows while the in-flight high-water mark grows);
//   * CalendarQueue — a Brown-style calendar queue over 24-byte entries
//     {time, seq, pool handle, target} holding the messages, with bucket
//     width adapted to the observed event rate (the simulator's link-delay
//     distribution), O(1) amortized push/pop;
//   * TimerWheel (sim/timer_wheel.hpp) — a hashed hierarchical wheel for
//     the timer population. Timers carry no payload, so wheel entries
//     bypass the pool entirely (Popped::handle == kNoHandle).
//
// EventQueue merges the two sources at pop by exact (time, seq)
// comparison, so delivery is a stable total order on (time, seq) — the
// determinism contract of docs/ARCHITECTURE.md. tests/sim/
// reference_scheduler.hpp is the differential oracle: a plain binary heap
// that replays a recorded schedule and must reproduce its hash.
//
// QueueStats/EventPoolStats are counted unconditionally (plain integer
// increments); they surface through EngineMetrics as the artifact's
// sim.queue / sim.event_pool sections (docs/METRICS.md).
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "sim/payload.hpp"
#include "sim/timer_wheel.hpp"
#include "util/check.hpp"

namespace kgrid::sim {

using Time = double;
using EntityId = std::uint32_t;

enum class EventKind : std::uint8_t { kMessage, kTimer };

/// One scheduled event, fully materialized (what Engine::step consumes).
struct Event {
  Time time = 0.0;
  Time sent_at = 0.0;  // enqueue time, for delivery-delay instrumentation
  std::uint64_t seq = 0;  // FIFO tie-break for equal timestamps
  std::uint64_t timer_id = 0;
  EntityId from = 0;
  EntityId to = 0;
  EventKind kind = EventKind::kTimer;
  Payload payload;
};

struct QueueStats {
  std::uint64_t pushes = 0;
  std::uint64_t pops = 0;
  std::uint64_t resizes = 0;    // backing-array growths (capacity doublings)
  std::uint64_t max_depth = 0;  // pending-event high-water mark
};

struct EventPoolStats {
  std::uint64_t acquired = 0;
  std::uint64_t released = 0;
  std::uint64_t overflow = 0;    // demand growths past existing capacity
  std::uint64_t max_in_use = 0;  // in-flight high-water mark
  std::uint64_t slots = 0;       // current capacity (slabs * slab size)
};

/// Slab arena with freelist recycling. Handles are stable (slabs never
/// move), so heap entries can reference events by index while the payloads
/// stay put. Capacity grows geometrically — each demand growth doubles the
/// slab count — so a cold pool reaches any in-flight population in O(log n)
/// allocations instead of one slab per 1024 events. Growth past already-
/// allocated capacity counts as EventPoolStats::overflow; callers that know
/// their topology pre-size with reserve() (Engine::reserve_events) and a
/// steady-state run then allocates nothing and reports overflow == 0
/// (check_bench_json warns otherwise).
class EventPool {
 public:
  using Handle = std::uint32_t;
  static constexpr std::size_t kSlabEvents = 1024;
  /// Sentinel for events that never occupied a slot (timer-wheel entries).
  static constexpr Handle kNoHandle = ~Handle{0};

  Handle acquire() {
    if (free_.empty()) grow(std::max<std::size_t>(slabs_.size(), 1));
    const Handle h = free_.back();
    free_.pop_back();
    ++stats_.acquired;
    const std::uint64_t in_use = stats_.acquired - stats_.released;
    if (in_use > stats_.max_in_use) stats_.max_in_use = in_use;
    return h;
  }

  /// Acquire `n` slots in one arena operation (the sharded barrier drain's
  /// batch path). Right after a grow or reserve the freelist hands out an
  /// ascending contiguous run; under steady-state recycling the handles are
  /// whatever the freelist holds, which the barrier's own ascending release
  /// order keeps run-shaped.
  void acquire_run(std::size_t n, std::vector<Handle>& out) {
    out.clear();
    while (free_.size() < n)
      grow(std::max<std::size_t>(slabs_.size(), 1));
    out.insert(out.end(), free_.end() - static_cast<std::ptrdiff_t>(n),
               free_.end());
    std::reverse(out.begin(), out.end());  // freelist pops from the back
    free_.resize(free_.size() - n);
    stats_.acquired += n;
    const std::uint64_t in_use = stats_.acquired - stats_.released;
    if (in_use > stats_.max_in_use) stats_.max_in_use = in_use;
  }

  /// Pre-size the arena to at least `slots` capacity without touching the
  /// overflow counter (this is provisioning, not a hot-path fallback).
  void reserve(std::size_t slots) {
    const std::size_t want = (slots + kSlabEvents - 1) / kSlabEvents;
    if (want > slabs_.size()) grow(want - slabs_.size(), /*provision=*/true);
  }

  /// Return a slot to the freelist. The payload is cleared eagerly so a
  /// parked slot never pins a message body (a COW ciphertext would
  /// otherwise stay alive until the slot's next reuse).
  void release(Handle h) {
    (*this)[h].payload = Payload();
    ++stats_.released;
    free_.push_back(h);
  }

  Event& operator[](Handle h) {
    return slabs_[h / kSlabEvents][h % kSlabEvents];
  }

  const EventPoolStats& stats() const { return stats_; }

 private:
  void grow(std::size_t add_slabs, bool provision = false) {
    KGRID_CHECK(slabs_.size() + add_slabs <= (std::uint64_t{1} << 22),
                "event pool exhausted (2^32 events in flight)");
    if (!provision && !slabs_.empty()) ++stats_.overflow;
    free_.reserve(free_.size() + add_slabs * kSlabEvents);
    for (std::size_t s = 0; s < add_slabs; ++s) {
      slabs_.push_back(std::make_unique<Event[]>(kSlabEvents));
      const auto base = static_cast<Handle>((slabs_.size() - 1) * kSlabEvents);
      // Reverse order so the next acquires hand out ascending handles.
      for (std::size_t i = kSlabEvents; i > 0; --i)
        free_.push_back(base + static_cast<Handle>(i - 1));
    }
    stats_.slots = slabs_.size() * kSlabEvents;
  }

  std::vector<std::unique_ptr<Event[]>> slabs_;
  std::vector<Handle> free_;
  EventPoolStats stats_;
};

/// Brown-style calendar queue (R. Brown, CACM 1988): a ring of time buckets
/// of width `w`, where bucket `floor(t / w)` holds the events of that time
/// slice. Pushes are an index computation plus a push_back; pops drain the
/// current bucket (sorted on first arrival, min at the back) and advance the
/// cursor. Both are O(1) amortized when `w` tracks the event rate.
///
/// Three departures from the textbook structure keep the engine's exact
/// (time, seq) total order and unbounded time horizon:
///
///   * ring span — the ring covers absolute buckets
///     [cur_b, cur_b + nbuckets); events beyond it wait in a small `far`
///     min-heap and migrate as the cursor advances, so one ring slot never
///     mixes two "years" and a distant timer costs a heap op, not a scan.
///   * behind-cursor pushes — a zero-delay send can target a time whose
///     bucket the cursor already passed (the cursor sits at the *next*
///     event's bucket, which may be ahead of now). Such events sorted-insert
///     into the current bucket instead: every entry there has a strictly
///     later timestamp, so the (time, seq) sort puts them at the pop end and
///     the total order is preserved.
///   * adaptive width — the width is re-derived from the spread of the last
///     kHist pops (≈ kTargetPerBucket events per bucket) whenever the
///     pending count doubles/quarters or drifts 4x away from the ideal;
///     rebuilds redistribute every entry and count as QueueStats::resizes.
class CalendarQueue {
 public:
  bool empty() const { return n_ == 0; }
  std::size_t size() const { return n_; }

  /// Precondition: !empty(). The current bucket is kept non-empty and
  /// sorted (class invariant), so peeking never mutates.
  Time top_time() const { return cur_bucket().back().time; }
  std::uint64_t top_seq() const { return cur_bucket().back().seq; }
  EntityId top_to() const { return cur_bucket().back().to; }

  /// Returns true when the calendar was rebuilt (for QueueStats::resizes).
  bool push(Time time, std::uint64_t seq, EventPool::Handle handle,
            EntityId to) {
    KGRID_CHECK(time >= 0.0, "negative event time");
    const bool rebuilt = maybe_rebuild();
    if (n_ == 0) cur_b_ = bucket_of(time);
    insert(Entry{time, seq, handle, to});
    ++n_;
    return rebuilt;
  }

  /// Precondition: !empty().
  EventPool::Handle pop() {
    auto& vec = buckets_[cur_b_ & mask_];
    const Entry out = vec.back();
    vec.pop_back();
    --n_;
    --ring_count_;
    note_pop(out.time);
    if (n_ > 0) advance_to_nonempty();
    return out.handle;
  }

 private:
  struct Entry {
    Time time;
    std::uint64_t seq;
    EventPool::Handle handle;
    EntityId to;
  };

  static constexpr std::size_t kMinBuckets = 256;
  static constexpr std::size_t kMaxBuckets = std::size_t{1} << 20;
  static constexpr std::size_t kHist = 64;  // pop-rate sample window
  static constexpr double kTargetPerBucket = 4.0;
  static constexpr std::uint64_t kCheckEvery = 4096;  // width-drift cadence

  static bool before(const Entry& a, const Entry& b) {
    return a.time != b.time ? a.time < b.time : a.seq < b.seq;
  }
  /// Buckets sort descending so the minimum pops from the back.
  static bool desc(const Entry& a, const Entry& b) { return before(b, a); }
  /// `far_` is a min-heap under std::push_heap's max-at-front convention.
  static bool far_after(const Entry& a, const Entry& b) { return before(b, a); }

  std::uint64_t bucket_of(Time t) const {
    return static_cast<std::uint64_t>(t * inv_w_);
  }
  std::vector<Entry>& cur_bucket() { return buckets_[cur_b_ & mask_]; }
  const std::vector<Entry>& cur_bucket() const {
    return buckets_[cur_b_ & mask_];
  }

  void insert(const Entry& e) {
    const std::uint64_t b = bucket_of(e.time);
    if (b <= cur_b_) {
      // Behind or at the cursor: sorted-insert into the current bucket
      // (see class comment — order-safe because everything there is later).
      auto& vec = cur_bucket();
      vec.insert(std::lower_bound(vec.begin(), vec.end(), e, desc), e);
      ++ring_count_;
    } else if (b - cur_b_ < buckets_.size()) {
      buckets_[b & mask_].push_back(e);
      ++ring_count_;
    } else {
      far_.push_back(e);
      std::push_heap(far_.begin(), far_.end(), far_after);
    }
  }

  /// Restore the invariant after a pop: cursor on a non-empty, sorted
  /// bucket. Empty ring jumps straight to the far-heap minimum instead of
  /// scanning (a sparse timer wheel would otherwise walk every slot).
  void advance_to_nonempty() {
    while (cur_bucket().empty()) {
      if (ring_count_ == 0) {
        cur_b_ = bucket_of(far_.front().time);
      } else {
        ++cur_b_;
      }
      drain_far();
      auto& vec = cur_bucket();
      if (!vec.empty()) std::sort(vec.begin(), vec.end(), desc);
    }
  }

  /// Move far events whose bucket entered the ring span.
  void drain_far() {
    const std::uint64_t end = cur_b_ + buckets_.size();
    while (!far_.empty() && bucket_of(far_.front().time) < end) {
      std::pop_heap(far_.begin(), far_.end(), far_after);
      const Entry e = far_.back();
      far_.pop_back();
      buckets_[bucket_of(e.time) & mask_].push_back(e);
      ++ring_count_;
    }
  }

  void note_pop(Time t) {
    hist_[hist_idx_] = t;
    hist_idx_ = (hist_idx_ + 1) % kHist;
    if (hist_idx_ == 0) hist_full_ = true;
  }

  /// Ideal width from the pop-rate window: kTargetPerBucket events per
  /// bucket at the observed rate. 0 when there is no estimate yet.
  double ideal_width() const {
    if (!hist_full_) return 0.0;
    // hist_idx_ points at the oldest sample (next to be overwritten).
    const double span = hist_[(hist_idx_ + kHist - 1) % kHist] - hist_[hist_idx_];
    if (!(span > 0.0)) return 0.0;
    return kTargetPerBucket * span / static_cast<double>(kHist - 1);
  }

  bool maybe_rebuild() {
    bool need = n_ + 1 > 2 * built_n_;
    if (++ops_since_check_ >= kCheckEvery) {
      ops_since_check_ = 0;
      if (4 * (n_ + 1) < built_n_ && built_n_ > 2 * kMinBuckets) need = true;
      const double ideal = ideal_width();
      if (ideal > 0.0 && (w_ > 4.0 * ideal || 4.0 * w_ < ideal)) need = true;
    }
    if (need) rebuild();
    return need;
  }

  void rebuild() {
    std::vector<Entry> all;
    all.reserve(n_);
    for (auto& vec : buckets_) {
      all.insert(all.end(), vec.begin(), vec.end());
      vec.clear();
    }
    all.insert(all.end(), far_.begin(), far_.end());
    far_.clear();

    const double ideal = ideal_width();
    if (ideal > 0.0) {
      w_ = std::clamp(ideal, 1e-12, 1e12);
      inv_w_ = 1.0 / w_;
    }
    std::size_t nb = kMinBuckets;
    while (nb < all.size() && nb < kMaxBuckets) nb <<= 1;
    buckets_.assign(nb, {});
    mask_ = nb - 1;
    built_n_ = std::max<std::size_t>(kMinBuckets / kTargetPerBucket,
                                     all.size());
    ring_count_ = 0;
    n_ = 0;
    if (all.empty()) return;

    const Entry* min = &all.front();
    for (const Entry& e : all)
      if (before(e, *min)) min = &e;
    cur_b_ = bucket_of(min->time);
    for (const Entry& e : all) insert(e);
    n_ = all.size();
    auto& vec = cur_bucket();
    std::sort(vec.begin(), vec.end(), desc);
  }

  double w_ = 1.0 / 64.0;
  double inv_w_ = 64.0;
  std::uint64_t mask_ = kMinBuckets - 1;
  std::uint64_t cur_b_ = 0;
  std::size_t n_ = 0;
  std::size_t ring_count_ = 0;          // entries in buckets_ (rest in far_)
  std::size_t built_n_ = kMinBuckets / 4;  // pending count at last rebuild
  std::uint64_t ops_since_check_ = 0;
  std::vector<std::vector<Entry>> buckets_{kMinBuckets};
  std::vector<Entry> far_;
  double hist_[kHist] = {};
  std::size_t hist_idx_ = 0;
  bool hist_full_ = false;
};

/// The engine's pending-event set: messages in the calendar queue (payloads
/// in pool slots), timers in the timer wheel, merged at pop.
class EventQueue {
 public:
  bool empty() const { return size() == 0; }
  std::size_t size() const { return cal_.size() + wheel_.size(); }

  /// Timestamp / target of the minimum-(time, seq) event. Precondition:
  /// !empty(). The engine's barrier triggers are pure functions of these
  /// two views.
  Time top_time() const {
    return wheel_first() ? wheel_.top_time() : cal_.top_time();
  }
  EntityId top_to() const {
    return wheel_first() ? wheel_.top_to() : cal_.top_to();
  }

  /// `payload` may be a Payload or any message type Payload accepts; it is
  /// constructed directly in the pool slot (no intermediate Payload moves).
  template <class P>
  void push(Time time, std::uint64_t seq, EntityId from, EntityId to,
            EventKind kind, std::uint64_t timer_id, P&& payload,
            Time sent_at) {
    ++stats_.pushes;
    if (kind == EventKind::kTimer) {
      // Timers carry no payload: the wheel stores the full event inline and
      // no pool slot is consumed.
      wheel_.push(TimerEntry{time, sent_at, seq, timer_id, from, to});
    } else {
      const EventPool::Handle h = pool_.acquire();
      Event& slot = pool_[h];
      slot.time = time;
      slot.sent_at = sent_at;
      slot.seq = seq;
      slot.timer_id = timer_id;
      slot.from = from;
      slot.to = to;
      slot.kind = kind;
      slot.payload.assign(std::forward<P>(payload));
      if (cal_.push(time, seq, h, to)) ++stats_.resizes;
    }
    if (size() > stats_.max_depth) stats_.max_depth = size();
  }

  /// Batched push for the sharded barrier drain: every entry arrives fully
  /// stamped (final seqs from the k-way merge), pool slots for the whole
  /// run are taken in one arena operation, and payloads move straight into
  /// their slots. Semantics are identical to element-wise push().
  void push_batch(std::span<Event> events) {
    if (events.empty()) return;
    std::size_t pooled = 0;
    for (const Event& e : events) pooled += e.kind != EventKind::kTimer;
    pool_.acquire_run(pooled, run_scratch_);
    stats_.pushes += events.size();
    std::size_t next = 0;
    for (Event& e : events) {
      if (e.kind == EventKind::kTimer) {
        wheel_.push(
            TimerEntry{e.time, e.sent_at, e.seq, e.timer_id, e.from, e.to});
        continue;
      }
      const EventPool::Handle h = run_scratch_[next++];
      Event& slot = pool_[h];
      slot.time = e.time;
      slot.sent_at = e.sent_at;
      slot.seq = e.seq;
      slot.timer_id = e.timer_id;
      slot.from = e.from;
      slot.to = e.to;
      slot.kind = e.kind;
      slot.payload = std::move(e.payload);
      if (cal_.push(e.time, e.seq, h, e.to)) ++stats_.resizes;
    }
    if (size() > stats_.max_depth) stats_.max_depth = size();
  }

  /// Pre-size the event arena (Engine::reserve_events).
  void reserve_pool(std::size_t slots) { pool_.reserve(slots); }

  /// The minimum event, popped from the scheduler but not yet recycled:
  /// small metadata copies plus a pointer to the payload, which stays in
  /// its pool slot until finish(). This is the zero-copy delivery path —
  /// the message body is never moved between the sender's push and the
  /// receiving handler.
  struct Popped {
    Time time;
    Time sent_at;
    std::uint64_t seq;
    std::uint64_t timer_id;
    EntityId from;
    EntityId to;
    EventKind kind;
    EventPool::Handle handle;  // pool slot; kNoHandle for timers
    Payload* payload;          // null for timers
  };

  /// Remove the minimum-(time, seq) event. Precondition: !empty(). The
  /// caller must finish() the returned event after dispatching it; exactly
  /// one event may be in flight at a time (Engine::step is not reentrant).
  /// Handlers may push() while an event is in flight — slabs are stable and
  /// the in-flight slot is not on the freelist, so the payload stays put.
  Popped pop() {
    ++stats_.pops;
    if (wheel_first()) {
      const TimerEntry e = wheel_.pop();
      return {e.time, e.sent_at,         e.seq,
              e.timer_id, e.from,        e.to,
              EventKind::kTimer, EventPool::kNoHandle, nullptr};
    }
    const EventPool::Handle h = cal_.pop();
    Event& slot = pool_[h];
    return {slot.time, slot.sent_at, slot.seq, slot.timer_id, slot.from,
            slot.to,   slot.kind,    h,        &slot.payload};
  }

  /// Recycle the slot behind a pop() once its handler has returned.
  void finish(const Popped& ev) {
    if (ev.handle != EventPool::kNoHandle) pool_.release(ev.handle);
  }

  const QueueStats& stats() const { return stats_; }
  const EventPoolStats& pool_stats() const { return pool_.stats(); }
  const TimerWheelStats& wheel_stats() const { return wheel_.stats(); }

 private:
  /// Two-source merge: does the wheel hold the global minimum?
  /// Precondition: !empty(). Exact (time, seq) comparison, so the merged
  /// order is the single (time, seq) total order.
  bool wheel_first() const {
    if (wheel_.empty()) return false;
    if (cal_.empty()) return true;
    const Time wt = wheel_.top_time();
    const Time ct = cal_.top_time();
    if (wt != ct) return wt < ct;
    return wheel_.top_seq() < cal_.top_seq();
  }

  EventPool pool_;
  CalendarQueue cal_;
  TimerWheel wheel_;
  std::vector<EventPool::Handle> run_scratch_;  // push_batch arena handles
  QueueStats stats_;
};

}  // namespace kgrid::sim
