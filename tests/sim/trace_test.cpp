#include "sim/trace.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "reference_scheduler.hpp"
#include "util/bytes.hpp"

namespace kgrid::sim {
namespace {

// ---------------------------------------------------------------- bytes ----

TEST(Bytes, VarintRoundTripsEdgeValues) {
  const std::uint64_t values[] = {0,
                                  1,
                                  127,
                                  128,
                                  300,
                                  16383,
                                  16384,
                                  (1ull << 32) - 1,
                                  1ull << 32,
                                  std::numeric_limits<std::uint64_t>::max()};
  util::ByteWriter w;
  for (const std::uint64_t v : values) w.varint(v);
  util::ByteReader r(w.bytes());
  for (const std::uint64_t v : values) EXPECT_EQ(r.varint(), v);
  EXPECT_TRUE(r.ok());
  EXPECT_TRUE(r.at_end());
}

TEST(Bytes, FixedWidthAndFloatsAreBitExact) {
  util::ByteWriter w;
  w.u8(0xab);
  w.u64(0x0123456789abcdefull);
  w.f64(-0.0);
  w.f64(1.5);
  w.f64(std::numeric_limits<double>::denorm_min());
  w.str("hello");
  w.str("");
  util::ByteReader r(w.bytes());
  EXPECT_EQ(r.u8(), 0xab);
  EXPECT_EQ(r.u64(), 0x0123456789abcdefull);
  EXPECT_EQ(std::signbit(r.f64()), true);
  EXPECT_EQ(r.f64(), 1.5);
  EXPECT_EQ(r.f64(), std::numeric_limits<double>::denorm_min());
  EXPECT_EQ(r.str(), "hello");
  EXPECT_EQ(r.str(), "");
  EXPECT_TRUE(r.ok());
  EXPECT_TRUE(r.at_end());
}

TEST(Bytes, TruncationFlagsNotOk) {
  util::ByteWriter w;
  w.u64(42);
  const std::string bytes = w.take();
  util::ByteReader r(std::string_view(bytes).substr(0, 4));
  r.u64();
  EXPECT_FALSE(r.ok());
}

TEST(Bytes, OverlongVarintIsRejected) {
  // 11 continuation bytes can encode nothing a u64 holds.
  std::string bytes(11, '\x80');
  util::ByteReader r(bytes);
  r.varint();
  EXPECT_FALSE(r.ok());
}

// ------------------------------------------------------------ TraceFile ----

TEST(TraceFile, RoundTripsEntriesInOrder) {
  TraceFile file;
  file.add("meta", "fig3_scalability");
  file.add("env:a", std::string("\x00\x01\xff", 3));
  file.add("hash:a", "0123456789abcdef");
  EXPECT_TRUE(file.has("meta"));
  EXPECT_FALSE(file.has("sched:a"));
  ASSERT_NE(file.find("env:a"), nullptr);
  EXPECT_EQ(file.find("env:a")->size(), 3u);

  TraceFile copy;
  ASSERT_TRUE(TraceFile::decode(file.encode(), &copy));
  EXPECT_EQ(copy.size(), 3u);
  EXPECT_EQ(copy.keys(),
            (std::vector<std::string>{"meta", "env:a", "hash:a"}));
  ASSERT_NE(copy.find("meta"), nullptr);
  EXPECT_EQ(*copy.find("meta"), "fig3_scalability");
}

TEST(TraceFile, RejectsBadMagicAndTruncation) {
  TraceFile file;
  file.add("k", "v");
  std::string bytes = file.encode();
  TraceFile out;
  EXPECT_FALSE(TraceFile::decode(bytes.substr(0, bytes.size() - 1), &out));
  bytes[0] = 'X';
  EXPECT_FALSE(TraceFile::decode(bytes, &out));
  EXPECT_FALSE(TraceFile::decode("", &out));
}

TEST(TraceFile, RejectsDuplicateKeysOnDecode) {
  util::ByteWriter w;
  const char magic[] = "KGTRACE1";
  for (int i = 0; i < 8; ++i) w.u8(static_cast<std::uint8_t>(magic[i]));
  w.varint(2);
  w.str("dup");
  w.str("a");
  w.str("dup");
  w.str("b");
  TraceFile out;
  EXPECT_FALSE(TraceFile::decode(w.bytes(), &out));
}

// ---------------------------------------------------- record and replay ----

/// Ping-pong with decaying hop budget plus a periodic timer: enough
/// push-from-within-dispatch structure to make the interleaving nontrivial.
class Chatter : public Entity {
 public:
  Chatter(EntityId self, EntityId peer, int budget)
      : self_(self), peer_(peer), budget_(budget) {}

  void on_message(Engine& engine, EntityId, Payload& payload) override {
    if (budget_-- > 0)
      engine.send(self_, peer_, 0.25 + 0.01 * budget_,
                  payload.get<std::string>());
  }

  void on_timer(Engine& engine, std::uint64_t timer_id) override {
    if (timer_id < 3) engine.schedule(self_, 1.0, timer_id + 1);
  }

 private:
  EntityId self_;
  EntityId peer_;
  int budget_;
};

Schedule record_chatter() {
  Engine engine;
  ScheduleRecorder recorder;
  engine.attach_trace(&recorder);
  Chatter a(0, 1, 5), b(1, 0, 5);
  engine.add_entity(&a);
  engine.add_entity(&b);
  engine.schedule(0, 0.5, 0);
  engine.send(0, 1, 0.1, std::string("ping"));
  engine.send(1, 0, 0.2, std::string("pong"));
  engine.run_to_quiescence(1000);
  engine.attach_trace(nullptr);
  return recorder.finish();
}

TEST(ScheduleTrace, RecorderCapturesTheRun) {
  const Schedule s = record_chatter();
  EXPECT_GT(s.dispatch_count, 10u);
  EXPECT_EQ(s.entity_count, 2u);
  EXPECT_EQ(s.pushes.size(), s.dispatch_count);  // quiescent run: all pushed
  EXPECT_NE(s.dispatch_hash, 0u);
  // Pushes are recorded in sequence order.
  for (std::size_t i = 0; i < s.pushes.size(); ++i)
    EXPECT_EQ(s.pushes[i].record.seq, i);
}

TEST(ScheduleTrace, EncodeDecodeRoundTrips) {
  const Schedule s = record_chatter();
  Schedule out;
  ASSERT_TRUE(decode_schedule(encode_schedule(s), &out));
  EXPECT_EQ(out.dispatch_count, s.dispatch_count);
  EXPECT_EQ(out.dispatch_hash, s.dispatch_hash);
  EXPECT_EQ(out.entity_count, s.entity_count);
  ASSERT_EQ(out.pushes.size(), s.pushes.size());
  for (std::size_t i = 0; i < s.pushes.size(); ++i) {
    EXPECT_EQ(out.pushes[i].dispatches_before, s.pushes[i].dispatches_before);
    EXPECT_EQ(out.pushes[i].record.time, s.pushes[i].record.time);
    EXPECT_EQ(out.pushes[i].record.sent_at, s.pushes[i].record.sent_at);
    EXPECT_EQ(out.pushes[i].record.seq, s.pushes[i].record.seq);
    EXPECT_EQ(out.pushes[i].record.timer_id, s.pushes[i].record.timer_id);
    EXPECT_EQ(out.pushes[i].record.from, s.pushes[i].record.from);
    EXPECT_EQ(out.pushes[i].record.to, s.pushes[i].record.to);
    EXPECT_EQ(out.pushes[i].record.kind, s.pushes[i].record.kind);
  }
}

TEST(ScheduleTrace, DecodeRejectsCorruptBytes) {
  const std::string bytes = encode_schedule(record_chatter());
  Schedule out;
  EXPECT_FALSE(decode_schedule(bytes.substr(0, bytes.size() / 2), &out));
  EXPECT_FALSE(decode_schedule("", &out));
  std::string wrong_version = bytes;
  wrong_version[0] = 99;
  EXPECT_FALSE(decode_schedule(wrong_version, &out));
}

/// Replay `s` through a fresh engine and through the reference heap
/// (reference_scheduler.hpp): both must reproduce the recorded hash and
/// count, and agree on the pending-set high-water mark.
void expect_engine_and_reference_replay(const Schedule& s) {
  Engine engine;
  NullEntity sink;
  const ReplayResult r = replay_schedule(engine, sink, s);
  EXPECT_TRUE(r.hash_matches);
  EXPECT_EQ(r.dispatched, s.dispatch_count);
  EXPECT_EQ(r.hash, s.dispatch_hash);
  const ReferenceRun ref = run_reference_scheduler(s);
  EXPECT_EQ(ref.hash, s.dispatch_hash);
  EXPECT_EQ(ref.dispatched, s.dispatch_count);
  EXPECT_EQ(ref.max_depth, engine.queue_stats().max_depth);
}

// Both scheduling policies — the engine's queue and the reference heap.
TEST(ScheduleTrace, ReplayReproducesTheHashUnderEveryPolicy) {
  expect_engine_and_reference_replay(record_chatter());
}

// A real protocol schedule under the oracle: the fig3 n=32 cell committed
// in TRACE_fig3_small.trace (docs/BENCHMARKS.md "Refreshing the baselines").
TEST(ScheduleTrace, CommittedFig3ScheduleReplaysUnderTheReference) {
  TraceFile file;
  ASSERT_TRUE(TraceFile::load(KGRID_FIG3_TRACE, &file)) << KGRID_FIG3_TRACE;
  const std::string* bytes = file.find("sched:n=32/sig=0.30");
  ASSERT_NE(bytes, nullptr);
  Schedule s;
  ASSERT_TRUE(decode_schedule(*bytes, &s));
  ASSERT_GT(s.dispatch_count, 500u);
  expect_engine_and_reference_replay(s);
}

TEST(ScheduleTrace, ReplaySurvivesSerialization) {
  Schedule decoded;
  ASSERT_TRUE(decode_schedule(encode_schedule(record_chatter()), &decoded));
  Engine engine;
  NullEntity sink;
  EXPECT_TRUE(replay_schedule(engine, sink, decoded).hash_matches);
}

TEST(ScheduleTrace, HasherDetectsReordering) {
  ScheduleHasher a;
  ScheduleHasher b;
  const EventRecord r1{1.0, 0.0, 0, 0, 1, 2, EventKind::kMessage};
  const EventRecord r2{2.0, 0.0, 1, 0, 2, 1, EventKind::kMessage};
  a.on_dispatch(r1);
  a.on_dispatch(r2);
  b.on_dispatch(r2);
  b.on_dispatch(r1);
  EXPECT_NE(a.hash(), b.hash());
}

}  // namespace
}  // namespace kgrid::sim
