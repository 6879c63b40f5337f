// Differential fuzz of the engine's scheduler (sim/event_queue.hpp): a
// randomized send/schedule/offload workload is recorded with a
// ScheduleRecorder, and the reference binary heap (reference_scheduler.hpp)
// replaying that recording must reproduce the engine's dispatch hash,
// dispatch count, and queue high-water mark. Delays are quantized so equal
// timestamps (and therefore the seq tie-break) occur constantly; each shape
// mixes the engine's three event sources differently.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <tuple>
#include <vector>

#include "reference_scheduler.hpp"
#include "sim/engine.hpp"
#include "sim/trace.hpp"
#include "util/rng.hpp"

namespace kgrid::sim {
namespace {

struct Shape {
  const char* name;
  bool timers;   // handlers may re-arm timers
  bool offload;  // handlers may route their sends through offload()
};

constexpr Shape kShapes[] = {
    {"sends", false, false},
    {"sends+timers", true, false},
    {"sends+timers+offload", true, true},
};

// One observed event: (virtual time, from, to, tag). Timers record
// from == to and tag offset by 1e6 to keep the streams distinguishable.
using Record = std::tuple<double, EntityId, EntityId, std::uint64_t>;

class FuzzEntity : public Entity {
 public:
  FuzzEntity(EntityId self, std::size_t n, Shape shape, std::uint64_t seed,
             std::vector<Record>* log, std::int64_t* budget)
      : self_(self), n_(n), shape_(shape), rng_(seed), log_(log),
        budget_(budget) {}

  void on_message(Engine& engine, EntityId from, Payload& payload) override {
    const auto tag = static_cast<std::uint64_t>(payload.get<int>());
    log_->push_back({engine.now(), from, self_, tag});
    act(engine, tag);
  }

  void on_timer(Engine& engine, std::uint64_t timer_id) override {
    log_->push_back({engine.now(), self_, self_, 1000000 + timer_id});
    act(engine, timer_id);
  }

 private:
  // Quantized delay: multiples of 1/256 in [0, 4) collide often, so the
  // FIFO tie-break carries real weight in every run.
  double next_delay() { return static_cast<double>(rng_() % 1024) / 256.0; }

  void act(Engine& engine, std::uint64_t x) {
    if ((*budget_)-- <= 0) return;
    const std::uint64_t r = rng_();
    const auto to = static_cast<EntityId>(r % n_);
    const double delay = next_delay();
    const int tag = static_cast<int>((x + r) % 1000);
    if (shape_.offload && (r & 3) == 0) {
      engine.offload(self_, [this, to, delay, tag]() -> Engine::Apply {
        return [this, to, delay, tag](Engine& eng) {
          eng.send(self_, to, delay, tag);
        };
      });
    } else if (shape_.timers && (r & 3) == 1) {
      engine.schedule(self_, delay, x + 1);
    } else {
      engine.send(self_, to, delay, tag);
    }
  }

  EntityId self_;
  std::size_t n_;
  Shape shape_;
  Rng rng_;
  std::vector<Record>* log_;
  std::int64_t* budget_;
};

struct RunResult {
  std::vector<Record> log;
  Schedule schedule;
  QueueStats queue;
  EventPoolStats pool;
  TimerWheelStats wheel;
};

RunResult run_workload(Shape shape, std::uint64_t seed) {
  constexpr std::size_t kEntities = 16;
  Engine engine;
  ScheduleRecorder recorder;
  engine.attach_trace(&recorder);
  std::vector<Record> log;
  std::int64_t budget = 2000;  // total reactions; guarantees quiescence
  std::vector<std::unique_ptr<FuzzEntity>> entities;
  for (std::size_t i = 0; i < kEntities; ++i) {
    entities.push_back(std::make_unique<FuzzEntity>(
        static_cast<EntityId>(i), kEntities, shape, seed * 1315423911u + i,
        &log, &budget));
    engine.add_entity(entities.back().get(), "fuzz");
  }
  Rng boot(seed);
  for (std::size_t i = 0; i < kEntities; ++i) {
    engine.schedule(static_cast<EntityId>(i),
                    static_cast<double>(boot() % 1024) / 256.0, i);
    engine.send(static_cast<EntityId>(boot() % kEntities),
                static_cast<EntityId>(boot() % kEntities),
                static_cast<double>(boot() % 1024) / 256.0,
                static_cast<int>(i));
  }
  engine.run_to_quiescence(1 << 20);
  engine.attach_trace(nullptr);
  return {std::move(log), recorder.finish(), engine.queue_stats(),
          engine.event_pool_stats(), engine.timer_wheel_stats()};
}

// The two scheduling policies under test — the engine's calendar queue +
// timer wheel, and the reference binary heap — must produce the identical
// delivery sequence.
TEST(QueueFuzz, PoliciesProduceIdenticalDeliverySequences) {
  for (const Shape& shape : kShapes) {
    for (const std::uint64_t seed : {11u, 222u, 3333u}) {
      const RunResult run = run_workload(shape, seed);
      ASSERT_GT(run.log.size(), 100u)
          << shape.name << " seed=" << seed << " (workload too small)";
      ASSERT_EQ(run.schedule.dispatch_count, run.log.size());
      const ReferenceRun ref = run_reference_scheduler(run.schedule);
      EXPECT_EQ(ref.hash, run.schedule.dispatch_hash)
          << shape.name << " seed=" << seed;
      EXPECT_EQ(ref.dispatched, run.schedule.dispatch_count);
      EXPECT_EQ(ref.max_depth, run.queue.max_depth);
      EXPECT_EQ(run.queue.pushes, run.schedule.pushes.size());
      EXPECT_EQ(run.queue.pops, run.schedule.dispatch_count);
    }
  }
}

TEST(QueueFuzz, PooledRunsRecycleEveryEvent) {
  const RunResult r = run_workload(kShapes[2], /*seed=*/77);
  // Messages take pool slots; timers live in the wheel and bypass the pool.
  EXPECT_GT(r.wheel.scheduled, 0u);
  EXPECT_EQ(r.pool.acquired + r.wheel.scheduled, r.queue.pushes);
  EXPECT_EQ(r.pool.released, r.pool.acquired);  // quiesced: nothing in flight
  EXPECT_LE(r.pool.max_in_use, r.pool.slots);
  // The workload tops out well under one slab, so the pool never overflowed.
  EXPECT_EQ(r.pool.overflow, 0u);
  EXPECT_EQ(r.pool.slots, EventPool::kSlabEvents);
}

// Negative control: the oracle can fail. Moving one push just past its
// neighbour's delivery time swaps their dispatch order, and the reference
// replay of the doctored schedule must no longer match the recording.
TEST(QueueFuzz, ReferenceRejectsADoctoredSchedule) {
  const RunResult run = run_workload(kShapes[0], /*seed=*/11);
  Schedule doctored = run.schedule;
  auto& pushes = doctored.pushes;
  std::size_t i = 0;
  while (i + 1 < pushes.size() &&
         !(pushes[i].record.time < pushes[i + 1].record.time))
    ++i;
  ASSERT_LT(i + 1, pushes.size());
  pushes[i].record.time = std::nextafter(
      pushes[i + 1].record.time, std::numeric_limits<double>::infinity());
  EXPECT_EQ(run_reference_scheduler(run.schedule).hash,
            run.schedule.dispatch_hash);
  const ReferenceRun ref = run_reference_scheduler(doctored);
  EXPECT_EQ(ref.dispatched, doctored.dispatch_count);
  EXPECT_NE(ref.hash, doctored.dispatch_hash);
}

}  // namespace
}  // namespace kgrid::sim
