#include "sim/metrics.hpp"

#include <gtest/gtest.h>

#include <string>

#include "sim/engine.hpp"
#include "util/rng.hpp"

namespace kgrid::sim {
namespace {

/// Forwards every message to a fixed peer after a unit delay, up to a hop
/// budget — generates send/deliver traffic from inside handlers.
class Relay : public Entity {
 public:
  EntityId self = 0;
  EntityId peer = 0;
  int budget = 0;

  void on_message(Engine& engine, EntityId /*from*/, Payload& payload) override {
    if (budget-- > 0) engine.send(self, peer, 1.0, payload);
  }

  void on_timer(Engine&, std::uint64_t) override {}
};

/// Drive two kinds of entities and return the attached metrics + engine
/// tallies for cross-checking.
struct RunResult {
  std::string metrics_json;
  std::uint64_t engine_sent = 0;
  std::uint64_t engine_delivered = 0;
};

RunResult instrumented_run(std::uint64_t seed) {
  Engine engine;
  EngineMetrics metrics;
  engine.attach_metrics(&metrics);

  Relay left, right;
  left.self = engine.add_entity(&left, "left");
  right.self = engine.add_entity(&right, "right");
  left.peer = right.self;
  right.peer = left.self;
  left.budget = 4;
  right.budget = 3;
  engine.schedule(left.self, 0.5, 1);

  Rng rng(seed);
  for (int i = 0; i < 8; ++i)
    engine.send(left.self, right.self, rng.uniform(0.1, 2.0),
                std::string("seeded"));
  engine.run_to_quiescence(1000);
  engine.run_until(engine.now() + 3.0);  // exercise the idle-time clamp

  EXPECT_EQ(engine.metrics(), &metrics);
  return {metrics.to_json().dump(2), engine.messages_sent(),
          engine.messages_delivered()};
}

TEST(EngineMetrics, PerKindTalliesMatchEngineCounts) {
  Engine engine;
  EngineMetrics metrics;
  engine.attach_metrics(&metrics);

  Relay left, right;
  left.self = engine.add_entity(&left, "left");
  right.self = engine.add_entity(&right, "right");
  left.peer = right.self;
  right.peer = left.self;
  left.budget = 5;
  right.budget = 5;
  engine.schedule(right.self, 1.0, 42);

  engine.send(left.self, right.self, 1.0, std::string("ping"));
  engine.run_to_quiescence(1000);

  // Instrumented totals must agree exactly with the engine's own tallies.
  EXPECT_EQ(metrics.total_sent(), engine.messages_sent());
  EXPECT_EQ(metrics.total_delivered(), engine.messages_delivered());
  EXPECT_EQ(metrics.total_timers(), 1u);
  EXPECT_DOUBLE_EQ(metrics.sim_time(), engine.now());
  EXPECT_GE(metrics.max_queue_depth(), 1u);

  const auto& kinds = metrics.by_kind();
  ASSERT_TRUE(kinds.contains("left"));
  ASSERT_TRUE(kinds.contains("right"));
  EXPECT_EQ(kinds.at("left").entities, 1u);
  EXPECT_EQ(kinds.at("right").entities, 1u);
  std::uint64_t delivered = 0;
  for (const auto& [kind, stats] : kinds) delivered += stats.delivered;
  EXPECT_EQ(delivered, engine.messages_delivered());
}

TEST(EngineMetrics, SendsFromUnregisteredIdsCountAsExternal) {
  Engine engine;
  EngineMetrics metrics;
  engine.attach_metrics(&metrics);
  Relay sink;  // budget 0: swallow the message
  sink.self = engine.add_entity(&sink, "sink");
  engine.send(99, sink.self, 1.0, std::string("outside"));
  engine.run_to_quiescence(10);
  ASSERT_TRUE(metrics.by_kind().contains("external"));
  EXPECT_EQ(metrics.by_kind().at("external").sent, 1u);
  EXPECT_EQ(metrics.by_kind().at("external").entities, 0u);
}

TEST(EngineMetrics, LateAttachReplaysEntityKinds) {
  Engine engine;
  Relay a;
  a.self = engine.add_entity(&a, "worker");
  EngineMetrics metrics;
  engine.attach_metrics(&metrics);  // after registration
  ASSERT_TRUE(metrics.by_kind().contains("worker"));
  EXPECT_EQ(metrics.by_kind().at("worker").entities, 1u);
}

TEST(EngineMetrics, PerTypeDeliveryHistogramTracksDelays) {
  Engine engine;
  EngineMetrics metrics;
  engine.attach_metrics(&metrics);
  Relay sink;
  sink.self = engine.add_entity(&sink, "sink");
  engine.send(sink.self, sink.self, 2.0, std::string("x"));
  engine.send(sink.self, sink.self, 4.0, std::string("y"));
  engine.run_to_quiescence(10);

  const obs::Json j = metrics.to_json();
  const obs::Json* types = j.find("message_types");
  ASSERT_NE(types, nullptr);
  // Payload is std::string; the demangled key names basic_string.
  ASSERT_EQ(types->size(), 1u);
  const obs::Json& stats = types->items()[0].second;
  EXPECT_EQ(stats.find("delivered")->as_uint(), 2u);
  EXPECT_DOUBLE_EQ(stats.find("delay")->find("mean")->as_double(), 3.0);
}

TEST(EngineMetrics, IdenticalSeededRunsExportIdenticalJson) {
  const RunResult a = instrumented_run(1234);
  const RunResult b = instrumented_run(1234);
  EXPECT_EQ(a.metrics_json, b.metrics_json);
  EXPECT_EQ(a.engine_sent, b.engine_sent);
  EXPECT_EQ(a.engine_delivered, b.engine_delivered);

  const RunResult c = instrumented_run(987);
  EXPECT_NE(c.metrics_json, a.metrics_json);  // delays differ with the seed
}

TEST(EngineMetrics, QueueAndPoolCountersFlushAsDeltas) {
  EngineMetrics metrics;
  {
    Engine engine;
    engine.attach_metrics(&metrics);
    Relay sink;  // budget 0: swallow the message
    sink.self = engine.add_entity(&sink, "sink");
    engine.send(sink.self, sink.self, 1.0, std::string("x"));
    engine.run_to_quiescence(10);
    engine.flush_stats();
    engine.flush_stats();  // repeat flushes must not double-count
  }  // destructor flush: nothing new since the explicit flush
  EXPECT_EQ(metrics.queue_stats().pushes, 1u);
  EXPECT_EQ(metrics.queue_stats().pops, 1u);
  EXPECT_EQ(metrics.queue_stats().max_depth, 1u);
  EXPECT_EQ(metrics.event_pool_stats().acquired, 1u);
  EXPECT_EQ(metrics.event_pool_stats().released, 1u);

  const obs::Json j = metrics.to_json();
  EXPECT_EQ(j.find("queue")->find("engines")->as_uint(), 1u);
  EXPECT_EQ(j.find("queue")->find("pushes")->as_uint(), 1u);
  EXPECT_EQ(j.find("event_pool")->find("acquired")->as_uint(), 1u);
  // Every engine flushes its timer-wheel counters (no timers ran here).
  ASSERT_NE(j.find("timer_wheel"), nullptr);
  EXPECT_EQ(j.find("timer_wheel")->find("scheduled")->as_uint(), 0u);
}

TEST(EngineMetrics, DetachedEngineRunsUninstrumented) {
  Engine engine;
  Relay sink;
  sink.self = engine.add_entity(&sink, "sink");
  engine.send(sink.self, sink.self, 1.0, std::string("x"));
  engine.run_to_quiescence(10);
  EXPECT_EQ(engine.metrics(), nullptr);
  EXPECT_EQ(engine.messages_delivered(), 1u);
}

}  // namespace
}  // namespace kgrid::sim
