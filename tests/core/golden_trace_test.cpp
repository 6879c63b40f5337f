// Golden-trace regression: `threads = 1` must reproduce, bit for bit, the
// protocol traces of the engine as it was before the executor existed.
// The hashes below were frozen from the pre-executor engine (commit
// "Rebuild the modular-arithmetic hot path") with the same configs; any
// change here means the executor refactor altered the reference schedule.
#include <gtest/gtest.h>

#include "../sim/reference_scheduler.hpp"
#include "golden_fingerprint.hpp"

namespace kgrid {
namespace {

TEST(GoldenTrace, BatchedDisciplineMatchesPreExecutorEngine) {
  core::SecureGridConfig cfg;
  cfg.env.n_resources = 12;
  cfg.env.seed = 7;
  cfg.env.quest.n_items = 8;
  cfg.env.quest.n_transactions = 240;
  cfg.env.initial_fraction = 0.5;
  cfg.secure.k = 4;
  cfg.secure.arrivals_per_step = 5;
  cfg.threads = 1;  // the reference schedule
  core::SecureGrid grid(cfg);
  grid.run_steps(40);
  EXPECT_EQ(test::fnv1a(test::grid_fingerprint(grid)),
            0x24762fb198c29b5full);
}

TEST(GoldenTrace, EventDrivenDisciplineMatchesPreExecutorEngine) {
  core::SecureGridConfig cfg;
  cfg.env.n_resources = 8;
  cfg.env.seed = 21;
  cfg.env.quest.n_items = 6;
  cfg.env.quest.n_transactions = 160;
  cfg.secure.k = 3;
  cfg.secure.event_driven = true;
  cfg.threads = 1;
  core::SecureGrid grid(cfg);
  grid.run_steps(25);
  EXPECT_EQ(test::fnv1a(test::grid_fingerprint(grid)),
            0x8275f31088db4279ull);
}

core::SecureGridConfig event_driven_config() {
  core::SecureGridConfig cfg;
  cfg.env.n_resources = 8;
  cfg.env.seed = 21;
  cfg.env.quest.n_items = 6;
  cfg.env.quest.n_transactions = 160;
  cfg.secure.k = 3;
  cfg.secure.event_driven = true;
  return cfg;
}

/// The reference binary heap (tests/sim/reference_scheduler.hpp) must
/// replay a recorded grid schedule to the recorded hash and count.
sim::ReferenceRun expect_reference_reproduces(const sim::Schedule& s) {
  const sim::ReferenceRun ref = sim::run_reference_scheduler(s);
  EXPECT_GT(s.dispatch_count, 0u);
  EXPECT_EQ(ref.hash, s.dispatch_hash);
  EXPECT_EQ(ref.dispatched, s.dispatch_count);
  return ref;
}

// The determinism contract across the executor: every thread count
// reproduces the frozen pre-executor traces bit for bit, and the reference
// heap agrees with the engine's scheduler on the recorded schedule.
TEST(GoldenTrace, ThreadCountLeavesTracesUnchanged) {
  for (const std::size_t threads : {1u, 2u, 8u}) {
    sim::ScheduleRecorder recorder;
    core::SecureGridConfig cfg = event_driven_config();
    cfg.threads = threads;
    cfg.trace = &recorder;
    core::SecureGrid grid(cfg);
    grid.run_steps(25);
    EXPECT_EQ(test::fnv1a(test::grid_fingerprint(grid)),
              0x8275f31088db4279ull)
        << "threads=" << threads;
    expect_reference_reproduces(recorder.finish());
  }
}

// The batched discipline's schedule under the reference heap (the second
// scheduling policy): same golden fingerprint, same recorded order.
TEST(GoldenTrace, BatchedDisciplineIsPolicyInvariant) {
  sim::ScheduleRecorder recorder;
  core::SecureGridConfig cfg;
  cfg.env.n_resources = 12;
  cfg.env.seed = 7;
  cfg.env.quest.n_items = 8;
  cfg.env.quest.n_transactions = 240;
  cfg.env.initial_fraction = 0.5;
  cfg.secure.k = 4;
  cfg.secure.arrivals_per_step = 5;
  cfg.threads = 2;
  cfg.trace = &recorder;
  core::SecureGrid grid(cfg);
  grid.run_steps(40);
  EXPECT_EQ(test::fnv1a(test::grid_fingerprint(grid)),
            0x24762fb198c29b5full);
  expect_reference_reproduces(recorder.finish());
}

// max_queue_depth is a pure function of the (time, seq) stream, so the
// engine's always-on counter and the instrumented high-water mark must
// equal the reference heap's depth on the same recorded schedule.
TEST(GoldenTrace, MaxQueueDepthAgreesAcrossQueuePolicies) {
  sim::ScheduleRecorder recorder;
  core::SecureGridConfig cfg = event_driven_config();
  cfg.threads = 1;
  // Pin the plain engine: this test reads the single queue's own depth
  // counter, which a sharded grid (e.g. under KGRID_SHARDS) leaves empty
  // in favour of per-shard stats (Engine::flush_stats).
  cfg.shards = 0;
  cfg.trace = &recorder;
  core::SecureGrid grid(cfg);
  sim::EngineMetrics metrics;
  grid.engine().attach_metrics(&metrics);
  grid.run_steps(25);
  const sim::ReferenceRun ref = expect_reference_reproduces(recorder.finish());
  EXPECT_GT(ref.max_depth, 0u);
  EXPECT_EQ(grid.engine().queue_stats().max_depth, ref.max_depth);
  EXPECT_EQ(metrics.max_queue_depth(), ref.max_depth);
}

}  // namespace
}  // namespace kgrid
