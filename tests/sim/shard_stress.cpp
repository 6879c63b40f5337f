// Cross-shard mailbox stress test for the sharded engine.
//
// Standalone binary (no gtest) so CI can rebuild exactly this target under
// ThreadSanitizer (like executor_stress): lanes run their windows on pool
// threads while every entity scatters messages across every shard, so the
// mailbox handoff, the window barrier, and the payload-detach discipline
// all get hammered with real concurrency. Correctness = the dispatch-order
// hash is identical at every (shards, threads) combination and equal to the
// unsharded engine's, whose recording the reference binary heap
// (reference_scheduler.hpp) must reproduce.
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "reference_scheduler.hpp"
#include "sim/engine.hpp"
#include "sim/executor.hpp"
#include "sim/trace.hpp"
#include "util/rng.hpp"

using namespace kgrid;

namespace {

int failures = 0;

void check(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "FAIL: %s\n", what);
    ++failures;
  }
}

/// Scatters messages across the whole entity range with delays >= the
/// lookahead, plus a periodic self-timer — every shard pair's mailbox sees
/// traffic, and payloads (strings big enough to heap-allocate) cross shard
/// boundaries constantly.
class Scatter : public sim::Entity {
 public:
  Scatter(sim::EntityId id, std::size_t n, int budget, Rng rng)
      : id_(id), n_(n), budget_(budget), rng_(rng) {}

  void on_message(sim::Engine& engine, sim::EntityId from,
                  sim::Payload& payload) override {
    (void)from;
    // Read the payload (forces materialization on this shard).
    bytes_seen_ += payload.get<std::string>().size();
    fan_out(engine);
  }

  void on_timer(sim::Engine& engine, std::uint64_t timer_id) override {
    fan_out(engine);
    if (timers_++ < 3) engine.schedule(id_, 0.5, timer_id);
  }

  std::uint64_t bytes_seen_ = 0;

 private:
  void fan_out(sim::Engine& engine) {
    if (budget_ <= 0) return;
    budget_ -= 1;
    for (int i = 0; i < 2; ++i) {
      const auto target = static_cast<sim::EntityId>(rng_.below(n_));
      engine.send(id_, target, 1.0 + rng_.uniform(),
                  std::string(64, static_cast<char>('a' + (id_ % 26))));
    }
  }

  sim::EntityId id_;
  std::size_t n_;
  int budget_;
  int timers_ = 0;
  Rng rng_;
};

/// One scatter run, recorded; `shards == 0` is the unsharded engine.
sim::Schedule run(std::size_t shards, std::size_t threads) {
  sim::Executor exec(threads);
  sim::Engine engine;
  if (shards > 0) engine.enable_sharding(shards, 1.0);
  if (threads > 1) engine.attach_executor(&exec);
  sim::ScheduleRecorder recorder;
  engine.attach_trace(&recorder);

  const std::size_t n = 32;
  Rng root(0x5a4dull);
  std::vector<std::unique_ptr<Scatter>> entities;
  for (std::size_t i = 0; i < n; ++i) {
    entities.push_back(std::make_unique<Scatter>(
        static_cast<sim::EntityId>(i), n, 24, root.split()));
    engine.add_entity(entities.back().get(), "scatter");
  }
  for (std::size_t i = 0; i < n; ++i)
    engine.schedule(static_cast<sim::EntityId>(i),
                    0.1 * static_cast<double>(i % 7), 1);
  engine.run_to_quiescence(1u << 22);

  check(engine.idle(), "engine quiesced");
  check(recorder.dispatched() > 1000, "enough events to mean anything");
  check(engine.shard_stats().mailbox_events > 0 || shards <= 1,
        "cross-shard traffic present");
  engine.attach_trace(nullptr);
  return recorder.finish();
}

}  // namespace

int main() {
  // The unsharded engine is the reference schedule, checked against the
  // reference heap; every sharded run (per-lane timer wheels and calendar
  // queues inside the window/barrier handoff TSan patrols here) must
  // reproduce its hash.
  const sim::Schedule reference = run(0, 1);
  const sim::ReferenceRun oracle = sim::run_reference_scheduler(reference);
  check(oracle.hash == reference.dispatch_hash &&
            oracle.dispatched == reference.dispatch_count,
        "reference heap reproduces the unsharded schedule");
  for (const std::size_t shards : {1u, 2u, 4u, 8u}) {
    for (const std::size_t threads : {2u, 4u}) {
      for (int round = 0; round < 3; ++round) {
        check(run(shards, threads).dispatch_hash == reference.dispatch_hash,
              "dispatch hash invariant across shards/threads");
      }
    }
  }
  if (failures == 0) std::printf("shard_stress: all checks passed\n");
  return failures == 0 ? 0 : 1;
}
