#include "sim/engine.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "util/rng.hpp"

namespace kgrid::sim {
namespace {

// Records everything it observes, for assertions on ordering and timing.
class Recorder : public Entity {
 public:
  struct Record {
    Time time;
    EntityId from;
    std::string payload;  // "timer:<id>" for timers
  };

  explicit Recorder(std::vector<Record>* log) : log_(log) {}

  void on_message(Engine& engine, EntityId from, Payload& payload) override {
    log_->push_back({engine.now(), from, payload.get<std::string>()});
  }

  void on_timer(Engine& engine, std::uint64_t timer_id) override {
    log_->push_back({engine.now(), 0, "timer:" + std::to_string(timer_id)});
  }

 private:
  std::vector<Record>* log_;
};

// Echoes each message back to the sender after a fixed delay, up to a hop
// budget — exercises messages spawned from within handlers.
class Echo : public Entity {
 public:
  Echo(int budget, Time delay) : budget_(budget), delay_(delay) {}

  EntityId id = 0;
  int received = 0;

  void on_message(Engine& engine, EntityId from, Payload& payload) override {
    ++received;
    if (budget_-- > 0) engine.send(id, from, delay_, payload);
  }

 private:
  int budget_;
  Time delay_;
};

// Every pooled event slot is sizeof(Event); the scheduler moves them on
// every push and pop. Neither protocol message carries a Candidate by
// value (a SecureRuleMessage names it by per-edge id, a RuleMessage points
// at its sender's shared copy), which keeps the slot at 176 B.
static_assert(sizeof(Event) <= 176, "event slot grew past 176 B");

TEST(Engine, EventSlotStaysCompact) {
  EXPECT_LE(sizeof(Event), 176u);
  EXPECT_LE(sizeof(Payload), 128u);
}

TEST(Engine, DeliversInTimeOrder) {
  Engine engine;
  std::vector<Recorder::Record> log;
  Recorder recorder(&log);
  const EntityId r = engine.add_entity(&recorder);

  engine.send(99, r, 3.0, std::string("late"));
  engine.send(99, r, 1.0, std::string("early"));
  engine.send(99, r, 2.0, std::string("middle"));
  engine.run_to_quiescence(100);

  ASSERT_EQ(log.size(), 3u);
  EXPECT_EQ(log[0].payload, "early");
  EXPECT_EQ(log[1].payload, "middle");
  EXPECT_EQ(log[2].payload, "late");
  EXPECT_DOUBLE_EQ(log[0].time, 1.0);
  EXPECT_DOUBLE_EQ(log[2].time, 3.0);
}

TEST(Engine, EqualTimestampsAreFifo) {
  Engine engine;
  std::vector<Recorder::Record> log;
  Recorder recorder(&log);
  const EntityId r = engine.add_entity(&recorder);
  for (int i = 0; i < 10; ++i)
    engine.send(0, r, 1.0, std::string(1, static_cast<char>('a' + i)));
  engine.run_to_quiescence(100);
  ASSERT_EQ(log.size(), 10u);
  for (int i = 0; i < 10; ++i)
    EXPECT_EQ(log[i].payload, std::string(1, static_cast<char>('a' + i)));
}

TEST(Engine, TimersFire) {
  Engine engine;
  std::vector<Recorder::Record> log;
  Recorder recorder(&log);
  const EntityId r = engine.add_entity(&recorder);
  engine.schedule(r, 5.0, 7);
  engine.schedule(r, 2.0, 3);
  engine.run_to_quiescence(100);
  ASSERT_EQ(log.size(), 2u);
  EXPECT_EQ(log[0].payload, "timer:3");
  EXPECT_EQ(log[1].payload, "timer:7");
}

TEST(Engine, RunUntilStopsAtDeadline) {
  Engine engine;
  std::vector<Recorder::Record> log;
  Recorder recorder(&log);
  const EntityId r = engine.add_entity(&recorder);
  engine.send(0, r, 1.0, std::string("in"));
  engine.send(0, r, 10.0, std::string("out"));
  engine.run_until(5.0);
  EXPECT_EQ(log.size(), 1u);
  EXPECT_DOUBLE_EQ(engine.now(), 5.0);
  EXPECT_FALSE(engine.idle());
  engine.run_until(20.0);
  EXPECT_EQ(log.size(), 2u);
}

TEST(Engine, MessagesSpawnedInHandlersAreDelivered) {
  Engine engine;
  Echo a(3, 1.0), b(3, 1.0);
  a.id = engine.add_entity(&a);
  b.id = engine.add_entity(&b);
  engine.send(a.id, b.id, 1.0, std::string("ping"));
  engine.run_to_quiescence(100);
  // b receives, echoes; a receives, echoes; ... budgets 3+3 bounce 7 total.
  EXPECT_EQ(a.received + b.received, 7);
  EXPECT_EQ(engine.messages_delivered(), 7u);
  EXPECT_EQ(engine.messages_sent(), 7u);
}

TEST(Engine, QuiescenceBudgetGuard) {
  Engine engine;
  Echo a(1 << 20, 1.0), b(1 << 20, 1.0);
  a.id = engine.add_entity(&a);
  b.id = engine.add_entity(&b);
  engine.send(a.id, b.id, 1.0, std::string("ping"));
  EXPECT_DEATH(engine.run_to_quiescence(10), "exceeded budget");
}

TEST(Engine, ClockAdvancesMonotonically) {
  Engine engine;
  std::vector<Recorder::Record> log;
  Recorder recorder(&log);
  const EntityId r = engine.add_entity(&recorder);
  Rng rng(5);
  for (int i = 0; i < 100; ++i)
    engine.send(0, r, rng.uniform(0.0, 50.0), std::string("x"));
  engine.run_to_quiescence(1000);
  for (std::size_t i = 1; i < log.size(); ++i)
    EXPECT_GE(log[i].time, log[i - 1].time);
}

TEST(Engine, IdleAndCounts) {
  Engine engine;
  std::vector<Recorder::Record> log;
  Recorder recorder(&log);
  const EntityId r = engine.add_entity(&recorder);
  EXPECT_TRUE(engine.idle());
  engine.send(0, r, 1.0, std::string("x"));
  EXPECT_FALSE(engine.idle());
  EXPECT_EQ(engine.messages_sent(), 1u);
  EXPECT_EQ(engine.messages_delivered(), 0u);
  engine.run_to_quiescence(10);
  EXPECT_TRUE(engine.idle());
  EXPECT_EQ(engine.messages_delivered(), 1u);
}

}  // namespace
}  // namespace kgrid::sim
