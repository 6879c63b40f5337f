// Machine-readable bench artifacts: every bench binary assembles an
// obs::BenchReport and writes a BENCH_<name>.json with the fixed envelope
//
//   {
//     "schema": "kgrid.bench.v1",
//     "bench": "<binary name>",
//     "args": { ...parsed flag values... },
//     "wall_time_s": <process wall time at write>,
//     "sim": { ...sim::EngineMetrics::to_json()... },
//     "crypto": { ...obs::crypto_counters().to_json()... },
//     "series": [ ...one object per printed table row... ],
//     ...optional bench-specific sections (e.g. "protocol")...
//   }
//
// docs/METRICS.md documents every field and maps the series of each bench to
// its paper figure. validate_bench_json() is the single source of truth for
// the required keys — used by the unit tests, the `check_bench_json` tool,
// and CI against real crypto_micro output.
#pragma once

#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "obs/crypto_counters.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"

namespace kgrid::obs {

inline constexpr std::string_view kBenchSchema = "kgrid.bench.v1";

/// A sim section with every required key zeroed — the envelope of benches
/// that never run the simulator (crypto_micro).
inline Json empty_sim_json() {
  Json j = Json::object();
  j.set("time", 0.0);
  j.set("events_processed", std::uint64_t{0});
  j.set("messages_sent", std::uint64_t{0});
  j.set("messages_delivered", std::uint64_t{0});
  j.set("timers_fired", std::uint64_t{0});
  j.set("max_queue_depth", std::uint64_t{0});
  j.set("entities", Json::object());
  Json queue = Json::object();
  queue.set("engines", std::uint64_t{0});
  queue.set("pushes", std::uint64_t{0});
  queue.set("pops", std::uint64_t{0});
  queue.set("resizes", std::uint64_t{0});
  queue.set("max_depth", std::uint64_t{0});
  j.set("queue", std::move(queue));
  Json pool = Json::object();
  pool.set("acquired", std::uint64_t{0});
  pool.set("released", std::uint64_t{0});
  pool.set("overflow", std::uint64_t{0});
  pool.set("max_in_use", std::uint64_t{0});
  pool.set("slots", std::uint64_t{0});
  j.set("event_pool", std::move(pool));
  j.set("message_types", Json::object());
  return j;
}

class BenchReport {
 public:
  explicit BenchReport(std::string bench) : bench_(std::move(bench)) {}

  void set_arg(std::string_view key, Json v) { args_.set(key, std::move(v)); }
  void add_row(Json row) { series_.push_back(std::move(row)); }
  void set_sim(Json sim) { sim_ = std::move(sim); }

  /// Attach a bench-specific top-level section (e.g. "protocol" with the
  /// grid's per-entity-class counters, or a registry dump as "counters").
  void set_section(std::string_view key, Json v) {
    sections_.emplace_back(std::string(key), std::move(v));
  }

  /// Assemble the envelope; wall_time_s and the crypto section are stamped
  /// now, so call once, at the end of the run.
  Json to_json() const {
    Json j = Json::object();
    j.set("schema", kBenchSchema);
    j.set("bench", bench_);
    j.set("args", args_);
    j.set("wall_time_s", wall_.seconds());
    j.set("sim", sim_.is_object() ? sim_ : empty_sim_json());
    j.set("crypto", crypto_counters().to_json());
    j.set("series", series_);
    for (const auto& [key, v] : sections_) j.set(key, v);
    return j;
  }

  /// Write the pretty-printed artifact; false (with a perror-style message
  /// on stderr) when the path is unwritable.
  bool write(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "BenchReport: cannot open %s for writing\n",
                   path.c_str());
      return false;
    }
    const std::string text = to_json().dump(2);
    const bool ok = std::fwrite(text.data(), 1, text.size(), f) == text.size();
    std::fclose(f);
    return ok;
  }

 private:
  std::string bench_;
  Stopwatch wall_;
  Json args_ = Json::object();
  Json series_ = Json::array();
  Json sim_;
  std::vector<std::pair<std::string, Json>> sections_;
};

/// Validate a parsed BENCH_*.json against the kgrid.bench.v1 schema.
/// Returns "" when valid, otherwise a description of the first problem.
inline std::string validate_bench_json(const Json& j) {
  if (!j.is_object()) return "root is not an object";
  const auto require = [&j](std::string_view key) -> const Json* {
    return j.find(key);
  };
  const Json* schema = require("schema");
  if (schema == nullptr || !schema->is_string() ||
      schema->as_string() != kBenchSchema)
    return "missing or wrong \"schema\" (want kgrid.bench.v1)";
  const Json* bench = require("bench");
  if (bench == nullptr || !bench->is_string() || bench->as_string().empty())
    return "missing \"bench\" name";
  const Json* args = require("args");
  if (args == nullptr || !args->is_object()) return "missing \"args\" object";
  const Json* wall = require("wall_time_s");
  if (wall == nullptr || !wall->is_number()) return "missing \"wall_time_s\"";

  const Json* sim = require("sim");
  if (sim == nullptr || !sim->is_object()) return "missing \"sim\" object";
  for (const char* key : {"time", "events_processed", "messages_sent",
                          "messages_delivered", "timers_fired",
                          "max_queue_depth"}) {
    const Json* v = sim->find(key);
    if (v == nullptr || !v->is_number())
      return std::string("sim.") + key + " missing or not a number";
  }
  for (const char* key : {"entities", "message_types"}) {
    const Json* v = sim->find(key);
    if (v == nullptr || !v->is_object())
      return std::string("sim.") + key + " missing or not an object";
  }
  for (const auto& [kind, stats] : sim->find("entities")->items()) {
    for (const char* key : {"entities", "sent", "delivered", "timers"}) {
      const Json* v = stats.find(key);
      if (v == nullptr || !v->is_number())
        return "sim.entities." + kind + "." + key + " missing";
    }
  }
  // Delivery-delay histograms measure (delivery time - send stamp) inside
  // one clock domain, so a negative minimum over a non-empty histogram can
  // only mean the stamps mixed clock domains (the bug the live bench had
  // when it wrote absolute wall-clock sent_at next to relative times).
  for (const auto& [type, stats] : sim->find("message_types")->items()) {
    const Json* delay = stats.find("delay");
    if (delay == nullptr || !delay->is_object()) continue;
    const Json* count = delay->find("count");
    const Json* min = delay->find("min");
    if (count != nullptr && count->is_number() && min != nullptr &&
        min->is_number() && count->as_double() > 0 && min->as_double() < 0)
      return "sim.message_types." + type +
             ".delay.min is negative (send/delivery stamps from different "
             "clock domains)";
  }
  // sim.queue / sim.event_pool describe the engine's scheduler and event
  // pool (sim/event_queue.hpp). Artifacts written before those existed may
  // omit them — but an artifact that actually processed events must carry
  // them, and the queue cannot have been idle while events flowed.
  const bool has_events = sim->find("events_processed")->as_double() > 0;
  const Json* queue = sim->find("queue");
  if (queue == nullptr) {
    if (has_events) return "sim.queue missing despite events_processed > 0";
  } else {
    if (!queue->is_object()) return "sim.queue is not an object";
    for (const char* key :
         {"engines", "pushes", "pops", "resizes", "max_depth"}) {
      const Json* v = queue->find(key);
      if (v == nullptr || !v->is_number())
        return std::string("sim.queue.") + key + " missing or not a number";
    }
    if (has_events && queue->find("pushes")->as_double() == 0 &&
        queue->find("pops")->as_double() == 0)
      return "sim.queue counters all zero despite events_processed > 0";
  }
  const Json* event_pool = sim->find("event_pool");
  if (event_pool == nullptr) {
    if (has_events)
      return "sim.event_pool missing despite events_processed > 0";
  } else {
    if (!event_pool->is_object()) return "sim.event_pool is not an object";
    // All-zero pool counters are legitimate (timers bypass the pool, so a
    // timer-only run never touches it): only presence and types are checked.
    for (const char* key :
         {"acquired", "released", "overflow", "max_in_use", "slots"}) {
      const Json* v = event_pool->find(key);
      if (v == nullptr || !v->is_number())
        return std::string("sim.event_pool.") + key +
               " missing or not a number";
    }
  }
  // sim.executor is optional (absent from single-threaded artifacts and
  // everything written before the executor existed), but when present it
  // must carry the full counter set from sim::Executor::metrics_json().
  if (const Json* exec = sim->find("executor"); exec != nullptr) {
    if (!exec->is_object()) return "sim.executor is not an object";
    for (const char* key : {"threads", "jobs", "inline_jobs", "batches",
                            "batch_items", "max_queue_depth", "busy_s",
                            "wait_s"}) {
      const Json* v = exec->find(key);
      if (v == nullptr || !v->is_number())
        return std::string("sim.executor.") + key + " missing or not a number";
    }
  }
  // sim.shard is optional (absent unless a sharded engine reported — see
  // sim::EngineMetrics::on_shard_stats), but when present it must carry the
  // full sharded-mode counter set (docs/METRICS.md, docs/SHARDING.md).
  if (const Json* shard = sim->find("shard"); shard != nullptr) {
    if (!shard->is_object()) return "sim.shard is not an object";
    for (const char* key :
         {"shards", "windows", "mailbox_events", "max_skew"}) {
      const Json* v = shard->find(key);
      if (v == nullptr || !v->is_number())
        return std::string("sim.shard.") + key + " missing or not a number";
    }
  }
  // sim.timer_wheel: every engine flushes its wheel counters next to its
  // queue counters (sim::EngineMetrics::on_engine_stats), so an artifact
  // that processed events must carry the full wheel counter set
  // (docs/METRICS.md); artifacts without engines may omit it.
  const Json* wheel = sim->find("timer_wheel");
  if (wheel == nullptr) {
    if (has_events)
      return "sim.timer_wheel missing despite events_processed > 0";
  } else {
    if (!wheel->is_object()) return "sim.timer_wheel is not an object";
    for (const char* key : {"scheduled", "fired", "cascades", "far_events",
                            "rebuilds", "max_pending"}) {
      const Json* v = wheel->find(key);
      if (v == nullptr || !v->is_number())
        return std::string("sim.timer_wheel.") + key +
               " missing or not a number";
    }
  }

  const Json* crypto = require("crypto");
  if (crypto == nullptr || !crypto->is_object())
    return "missing \"crypto\" object";
  const Json* hom = crypto->find("hom");
  if (hom == nullptr || !hom->is_object()) return "missing crypto.hom";
  for (const char* key :
       {"encrypts", "decrypts", "adds", "scalar_muls", "rerandomizes"}) {
    const Json* v = hom->find(key);
    if (v == nullptr || !v->is_number())
      return std::string("crypto.hom.") + key + " missing or not a number";
  }
  const Json* paillier = crypto->find("paillier");
  if (paillier == nullptr || !paillier->is_object())
    return "missing crypto.paillier";
  for (const char* key : {"encryptions", "decryptions", "rerandomizations",
                          "keygens", "modexps", "windowed_modexps",
                          "batch_modexps", "mont_muls"}) {
    const Json* v = paillier->find(key);
    if (v == nullptr || !v->is_number())
      return std::string("crypto.paillier.") + key +
             " missing or not a number";
  }

  // "net" is optional (absent from pure-sim artifacts), but when a live
  // transport reported it must carry the full net.live counter set
  // (net/live/transport.hpp; docs/LIVE.md).
  if (const Json* net = j.find("net"); net != nullptr) {
    if (!net->is_object()) return "\"net\" is not an object";
    const Json* live = net->find("live");
    if (live == nullptr || !live->is_object()) return "missing net.live";
    for (const char* key :
         {"bytes_in", "bytes_out", "frames_in", "frames_out",
          "coalesced_frames", "backpressure_stalls"}) {
      const Json* v = live->find(key);
      if (v == nullptr || !v->is_number())
        return std::string("net.live.") + key + " missing or not a number";
    }
  }

  const Json* series = require("series");
  if (series == nullptr || !series->is_array())
    return "missing \"series\" array";
  if (series->elements().empty())
    return "\"series\" is empty (a bench with no rows measured nothing)";
  for (const Json& row : series->elements()) {
    if (!row.is_object()) return "series row is not an object";
    // Rows reporting a latency distribution use the log-bucketed histogram
    // shape (obs/latency_hist.hpp): at minimum the count and the tail
    // quantiles the live bench is judged on.
    if (const Json* latency = row.find("latency"); latency != nullptr) {
      if (!latency->is_object()) return "series row \"latency\" not an object";
      for (const char* key : {"count", "p50", "p99", "p999"}) {
        const Json* v = latency->find(key);
        if (v == nullptr || !v->is_number())
          return std::string("series row latency.") + key +
                 " missing or not a number";
      }
      const Json* count = latency->find("count");
      const Json* min = latency->find("min");
      if (min != nullptr && min->is_number() && count->as_double() > 0 &&
          min->as_double() < 0)
        return "series row latency.min is negative (send/delivery stamps "
               "from different clock domains)";
    }
  }
  return "";
}

}  // namespace kgrid::obs
