// TimerWheel (sim/timer_wheel.hpp): the hashed hierarchical wheel that
// holds the engine's timers. Two layers of evidence that the wheel is a
// pure placement structure with no observable effect on dispatch order:
//
//   1. unit differential — random push/pop interleavings against a
//      reference (time, seq) min-heap, including far-future entries (the
//      far heap), zero-delay timers, and enough pushes to trigger the
//      one-shot width adaptation;
//   2. engine differential — full-engine fuzz workloads (ring/star/scatter,
//      shards 1 and 4) are recorded, and the reference binary heap
//      (reference_scheduler.hpp) replaying each recording must reproduce
//      its dispatch hash, dispatch count, and pending-set high-water mark.
#include "sim/timer_wheel.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "reference_scheduler.hpp"
#include "sim/engine.hpp"
#include "sim/metrics.hpp"
#include "sim/trace.hpp"
#include "util/rng.hpp"

namespace kgrid::sim {
namespace {

// ------------------------------------------------- unit differential ----

/// Reference scheduler: a plain vector popped by exact (time, seq) minimum.
class ReferenceHeap {
 public:
  void push(const TimerEntry& e) { entries_.push_back(e); }
  bool empty() const { return entries_.empty(); }

  TimerEntry pop() {
    auto min = entries_.begin();
    for (auto it = entries_.begin(); it != entries_.end(); ++it)
      if (it->time != min->time ? it->time < min->time : it->seq < min->seq)
        min = it;
    const TimerEntry out = *min;
    entries_.erase(min);
    return out;
  }

 private:
  std::vector<TimerEntry> entries_;
};

TimerEntry entry(double time, std::uint64_t seq) {
  TimerEntry e;
  e.time = time;
  e.seq = seq;
  e.timer_id = seq % 7;
  e.from = static_cast<EntityId>(seq % 5);
  e.to = static_cast<EntityId>(seq % 5);
  return e;
}

/// Drive wheel and reference through the same interleaving; every pop must
/// agree on the exact (time, seq) pair.
void differential(const std::vector<TimerEntry>& pushes,
                  std::uint64_t interleave_seed) {
  TimerWheel wheel;
  ReferenceHeap ref;
  Rng rng(interleave_seed);
  std::size_t next = 0;
  std::size_t popped = 0;
  while (next < pushes.size() || !wheel.empty()) {
    const bool can_push = next < pushes.size();
    const bool do_push = can_push && (wheel.empty() || rng.below(3) != 0);
    if (do_push) {
      wheel.push(pushes[next]);
      ref.push(pushes[next]);
      ++next;
    } else {
      ASSERT_FALSE(ref.empty());
      const TimerEntry expect = ref.pop();
      EXPECT_EQ(wheel.top_time(), expect.time) << "pop " << popped;
      EXPECT_EQ(wheel.top_seq(), expect.seq) << "pop " << popped;
      const TimerEntry got = wheel.pop();
      ASSERT_EQ(got.time, expect.time) << "pop " << popped;
      ASSERT_EQ(got.seq, expect.seq) << "pop " << popped;
      EXPECT_EQ(got.timer_id, expect.timer_id);
      EXPECT_EQ(got.to, expect.to);
      ++popped;
    }
  }
  EXPECT_TRUE(ref.empty());
  EXPECT_EQ(popped, pushes.size());
  EXPECT_EQ(wheel.stats().scheduled, pushes.size());
  EXPECT_EQ(wheel.stats().fired, pushes.size());
  EXPECT_LE(wheel.stats().rebuilds, 1u);  // adaptation is one-shot
}

TEST(TimerWheel, MatchesReferenceOnPeriodicPopulation) {
  // The engine's real shape: homogeneous periods with jittered phases,
  // including exact time collisions (seq must break the tie).
  std::vector<TimerEntry> pushes;
  std::uint64_t seq = 0;
  Rng rng(41);
  for (int round = 0; round < 40; ++round)
    for (int i = 0; i < 16; ++i)
      pushes.push_back(
          entry(static_cast<double>(round) + 0.125 * rng.below(4), seq++));
  differential(pushes, 7);
}

TEST(TimerWheel, MatchesReferenceOnAdversarialSpread) {
  // Times spanning twelve orders of magnitude: the same push lands in
  // level 0, the overflow rings, and the far heap depending on the cursor.
  std::vector<TimerEntry> pushes;
  std::uint64_t seq = 0;
  Rng rng(43);
  for (int i = 0; i < 600; ++i) {
    const double mag = std::pow(10.0, static_cast<double>(rng.below(13)) - 4);
    pushes.push_back(entry(mag * (1.0 + rng.uniform()), seq++));
  }
  differential(pushes, 11);
}

TEST(TimerWheel, MatchesReferenceOnZeroDelayStorm) {
  // All-equal times: pure seq ordering, exercising the behind-cursor
  // sorted-insert append fast path.
  std::vector<TimerEntry> pushes;
  for (std::uint64_t s = 0; s < 300; ++s) pushes.push_back(entry(0.0, s));
  differential(pushes, 13);
}

TEST(TimerWheel, FarFutureEntriesParkInTheFarHeap) {
  TimerWheel wheel;
  wheel.push(entry(0.5, 0));
  // With the initial width of 1/64 s, the top-level span is 2^28 ticks
  // (~4.2e6 s); 1e9 s is far beyond it.
  wheel.push(entry(1e9, 1));
  EXPECT_EQ(wheel.stats().far_events, 1u);
  EXPECT_EQ(wheel.pop().seq, 0u);
  EXPECT_EQ(wheel.top_time(), 1e9);  // cursor jumped to the far minimum
  EXPECT_EQ(wheel.pop().seq, 1u);
  EXPECT_TRUE(wheel.empty());
}

TEST(TimerWheel, AdaptsItsTickWidthOnceAndKeepsOrder) {
  // Deltas of ~1000 s against the default 1/64 s tick force a rebuild once
  // the sample window fills; order must survive the re-placement.
  std::vector<TimerEntry> pushes;
  std::uint64_t seq = 0;
  Rng rng(47);
  for (int i = 0; i < 200; ++i)
    pushes.push_back(
        entry(1000.0 * static_cast<double>(1 + rng.below(64)), seq++));
  TimerWheel wheel;
  ReferenceHeap ref;
  for (const TimerEntry& e : pushes) {
    wheel.push(e);
    ref.push(e);
  }
  EXPECT_EQ(wheel.stats().rebuilds, 1u);
  while (!wheel.empty()) {
    const TimerEntry expect = ref.pop();
    const TimerEntry got = wheel.pop();
    ASSERT_EQ(got.time, expect.time);
    ASSERT_EQ(got.seq, expect.seq);
  }
  EXPECT_TRUE(ref.empty());
  EXPECT_EQ(wheel.stats().max_pending, pushes.size());
}

// ---------------------------------------------- engine differential ----

enum class Shape { kRing, kStar, kScatter };

/// Same fuzz family as shard_test: bounded forwarding along a shape-chosen
/// edge with delays in [1, 2), plus a self-timer kept alive a few rounds.
/// Cross-entity delays never drop below 1.0, the sharded lookahead.
class Hop : public Entity {
 public:
  Hop(EntityId id, std::size_t n, Shape shape, int budget, int timers,
      Rng rng)
      : id_(id), n_(n), shape_(shape), budget_(budget), timers_(timers),
        rng_(rng) {}

  void on_message(Engine& engine, EntityId, Payload&) override {
    forward(engine);
  }

  void on_timer(Engine& engine, std::uint64_t timer_id) override {
    forward(engine);
    if (timers_-- > 0) engine.schedule(id_, 0.75, timer_id);
  }

 private:
  void forward(Engine& engine) {
    if (budget_-- <= 0) return;
    EntityId target = 0;
    switch (shape_) {
      case Shape::kRing:
        target = static_cast<EntityId>((id_ + 1) % n_);
        break;
      case Shape::kStar:
        target = id_ == 0 ? static_cast<EntityId>(rng_.below(n_)) : 0;
        break;
      case Shape::kScatter:
        target = static_cast<EntityId>(rng_.below(n_));
        break;
    }
    engine.send(id_, target, 1.0 + rng_.uniform(), std::string("hop"));
  }

  EntityId id_;
  std::size_t n_;
  Shape shape_;
  int budget_;
  int timers_;
  Rng rng_;
};

struct FuzzResult {
  Schedule schedule;
  std::uint64_t timers_fired = 0;
  std::uint64_t max_depth = 0;  // global pending-set high-water mark
  std::uint64_t queue_max_depth = 0;  // the plain engine's own counter
};

FuzzResult run_fuzz(std::uint64_t seed, Shape shape, std::size_t shards) {
  constexpr std::size_t kEntities = 13;
  Engine engine;
  if (shards > 1) engine.enable_sharding(shards, 1.0);
  ScheduleRecorder recorder;
  engine.attach_trace(&recorder);
  EngineMetrics metrics;
  engine.attach_metrics(&metrics);
  Rng root(seed);
  std::vector<std::unique_ptr<Hop>> hops;
  for (std::size_t i = 0; i < kEntities; ++i) {
    hops.push_back(std::make_unique<Hop>(static_cast<EntityId>(i), kEntities,
                                         shape, /*budget=*/6, /*timers=*/3,
                                         root.split()));
    engine.add_entity(hops.back().get(), "hop");
  }
  for (std::size_t i = 0; i < kEntities; ++i)
    engine.schedule(static_cast<EntityId>(i), 0.25 * static_cast<double>(i),
                    1);
  engine.run_to_quiescence(1u << 20);
  engine.attach_trace(nullptr);
  engine.flush_stats();
  return {recorder.finish(), metrics.total_timers(), metrics.max_queue_depth(),
          engine.queue_stats().max_depth};
}

// The two scheduling policies under test — the engine's calendar queue +
// timer wheel, and the reference binary heap — must agree on every shape
// at shards 1 and 4. (Sharded depth is the merge-maintained global count
// EngineMetrics reports; the plain engine's own counter must match too.)
TEST(TimerWheelEngine, WheelMatchesEveryPolicyAcrossShapesAndShards) {
  for (const std::uint64_t seed : {5u, 59u, 591u}) {
    for (const Shape shape : {Shape::kRing, Shape::kStar, Shape::kScatter}) {
      std::uint64_t plain_hash = 0;
      for (const std::size_t shards : {std::size_t{1}, std::size_t{4}}) {
        const FuzzResult run = run_fuzz(seed, shape, shards);
        const Schedule& s = run.schedule;
        ASSERT_GT(s.dispatch_count, 50u);
        ASSERT_GT(run.timers_fired, 0u);  // the wheel actually ran timers
        const ReferenceRun ref = run_reference_scheduler(s);
        EXPECT_EQ(ref.hash, s.dispatch_hash)
            << "seed=" << seed << " shape=" << static_cast<int>(shape)
            << " shards=" << shards;
        EXPECT_EQ(ref.dispatched, s.dispatch_count);
        EXPECT_EQ(ref.max_depth, run.max_depth);
        if (shards == 1) {
          EXPECT_EQ(ref.max_depth, run.queue_max_depth);
          plain_hash = s.dispatch_hash;
        } else {
          EXPECT_EQ(s.dispatch_hash, plain_hash);
        }
      }
    }
  }
}

}  // namespace
}  // namespace kgrid::sim
