#include "obs/bench_report.hpp"

#include <gtest/gtest.h>

namespace kgrid::obs {
namespace {

Json valid_report_json() {
  BenchReport report("unit_test");
  report.set_arg("resources", Json(8));
  Json row = Json::object();
  row.set("step", 1);
  report.add_row(std::move(row));
  return report.to_json();
}

TEST(BenchReport, EnvelopeValidates) {
  const Json j = valid_report_json();
  EXPECT_EQ(validate_bench_json(j), "");
  EXPECT_EQ(j.find("schema")->as_string(), kBenchSchema);
  EXPECT_EQ(j.find("bench")->as_string(), "unit_test");
  EXPECT_EQ(j.find("args")->find("resources")->as_int(), 8);
  EXPECT_EQ(j.find("series")->size(), 1u);
}

TEST(BenchReport, DefaultsToEmptySimSection) {
  const Json j = valid_report_json();
  const Json* sim = j.find("sim");
  ASSERT_NE(sim, nullptr);
  EXPECT_EQ(sim->find("messages_delivered")->as_uint(), 0u);
  EXPECT_EQ(sim->find("entities")->size(), 0u);
}

TEST(BenchReport, SectionsAppendAfterSeries) {
  BenchReport report("unit_test");
  Json row = Json::object();
  row.set("step", 1);
  report.add_row(std::move(row));
  Json protocol = Json::object();
  protocol.set("gate_reveals", 3);
  report.set_section("protocol", std::move(protocol));
  const Json j = report.to_json();
  EXPECT_EQ(validate_bench_json(j), "");
  ASSERT_NE(j.find("protocol"), nullptr);
  EXPECT_EQ(j.find("protocol")->find("gate_reveals")->as_int(), 3);
}

TEST(BenchReport, EnvelopeRoundTripsThroughParser) {
  const Json j = valid_report_json();
  const auto parsed = Json::parse(j.dump(2));
  ASSERT_TRUE(parsed);
  EXPECT_EQ(validate_bench_json(*parsed), "");
  EXPECT_EQ(*parsed, j);
}

TEST(ValidateBenchJson, RejectsNonObjectRoot) {
  EXPECT_NE(validate_bench_json(Json::array()), "");
  EXPECT_NE(validate_bench_json(Json(1)), "");
}

TEST(ValidateBenchJson, RejectsWrongSchema) {
  Json j = valid_report_json();
  j.set("schema", "kgrid.bench.v0");
  EXPECT_NE(validate_bench_json(j), "");
}

TEST(ValidateBenchJson, RejectsMissingSimKey) {
  Json j = valid_report_json();
  Json sim = *j.find("sim");
  Json stripped = Json::object();
  for (const auto& [key, v] : sim.items())
    if (key != "messages_delivered") stripped.set(key, v);
  j.set("sim", std::move(stripped));
  const std::string err = validate_bench_json(j);
  EXPECT_NE(err.find("messages_delivered"), std::string::npos) << err;
}

TEST(ValidateBenchJson, RejectsMissingCryptoCounter) {
  Json j = valid_report_json();
  Json crypto = *j.find("crypto");
  Json hom = Json::object();
  for (const auto& [key, v] : crypto.find("hom")->items())
    if (key != "rerandomizes") hom.set(key, v);
  crypto.set("hom", std::move(hom));
  j.set("crypto", std::move(crypto));
  const std::string err = validate_bench_json(j);
  EXPECT_NE(err.find("rerandomizes"), std::string::npos) << err;
}

TEST(ValidateBenchJson, RejectsNonObjectSeriesRow) {
  Json j = valid_report_json();
  Json series = Json::array();
  series.push_back(7);
  j.set("series", std::move(series));
  EXPECT_NE(validate_bench_json(j), "");
}

TEST(ValidateBenchJson, RejectsEmptySeries) {
  Json j = valid_report_json();
  j.set("series", Json::array());
  const std::string err = validate_bench_json(j);
  EXPECT_NE(err.find("series"), std::string::npos) << err;
}

TEST(ValidateBenchJson, RejectsMissingQueueSectionWhenEventsFlowed) {
  Json j = valid_report_json();
  Json sim = *j.find("sim");
  sim.set("events_processed", 42);
  Json stripped = Json::object();
  for (const auto& [key, v] : sim.items())
    if (key != "queue") stripped.set(key, v);
  j.set("sim", std::move(stripped));
  const std::string err = validate_bench_json(j);
  EXPECT_NE(err.find("sim.queue missing"), std::string::npos) << err;
}

TEST(ValidateBenchJson, RejectsAllZeroQueueCountersWhenEventsFlowed) {
  Json j = valid_report_json();
  Json sim = *j.find("sim");
  sim.set("events_processed", 42);  // queue counters still zero
  j.set("sim", std::move(sim));
  const std::string err = validate_bench_json(j);
  EXPECT_NE(err.find("all zero"), std::string::npos) << err;
}

/// A report whose sim section processed 42 events with live queue
/// counters; `with_wheel` controls the sim.timer_wheel section every engine
/// flush writes.
Json events_flowed_json(bool with_wheel) {
  Json j = valid_report_json();
  Json sim = *j.find("sim");
  sim.set("events_processed", 42);
  Json queue = *sim.find("queue");
  queue.set("pushes", 42);
  queue.set("pops", 42);
  sim.set("queue", std::move(queue));
  if (with_wheel) {
    Json wheel = Json::object();
    for (const char* key : {"scheduled", "fired", "cascades", "far_events",
                            "rebuilds", "max_pending"})
      wheel.set(key, 0);
    sim.set("timer_wheel", std::move(wheel));
  }
  j.set("sim", std::move(sim));
  return j;
}

TEST(ValidateBenchJson, AcceptsLiveQueueCountersWhenEventsFlowed) {
  EXPECT_EQ(validate_bench_json(events_flowed_json(/*with_wheel=*/true)), "");
}

TEST(ValidateBenchJson, RejectsMissingTimerWheelWhenEventsFlowed) {
  const std::string err =
      validate_bench_json(events_flowed_json(/*with_wheel=*/false));
  EXPECT_NE(err.find("sim.timer_wheel missing"), std::string::npos) << err;
}

TEST(ValidateBenchJson, RejectsMalformedEventPool) {
  Json j = valid_report_json();
  Json sim = *j.find("sim");
  Json pool = *sim.find("event_pool");
  // Drop one required counter.
  Json stripped = Json::object();
  for (const auto& [key, v] : pool.items())
    if (key != "max_in_use") stripped.set(key, v);
  sim.set("event_pool", std::move(stripped));
  j.set("sim", std::move(sim));
  const std::string err = validate_bench_json(j);
  EXPECT_NE(err.find("max_in_use"), std::string::npos) << err;
}

// Artifacts written before the queue/pool counters existed omit both
// sections; they stay valid as long as they processed no events.
TEST(ValidateBenchJson, AcceptsPreQueueArtifactsWithoutEvents) {
  Json j = valid_report_json();
  Json sim = *j.find("sim");
  Json stripped = Json::object();
  for (const auto& [key, v] : sim.items())
    if (key != "queue" && key != "event_pool") stripped.set(key, v);
  j.set("sim", std::move(stripped));
  EXPECT_EQ(validate_bench_json(j), "");
}

TEST(ValidateBenchJson, RejectsMalformedEntityClass) {
  Json j = valid_report_json();
  Json sim = *j.find("sim");
  Json entities = Json::object();
  Json broken = Json::object();
  broken.set("sent", 1);  // missing entities/delivered/timers
  entities.set("secure_resource", std::move(broken));
  sim.set("entities", std::move(entities));
  j.set("sim", std::move(sim));
  EXPECT_NE(validate_bench_json(j), "");
}

}  // namespace
}  // namespace kgrid::obs
