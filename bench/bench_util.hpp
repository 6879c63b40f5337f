// Shared helpers for the figure benches.
#pragma once

#include <cstdio>
#include <memory>
#include <string>
#include <utility>

#include "core/env_trace.hpp"
#include "core/grid.hpp"
#include "obs/bench_report.hpp"
#include "sim/trace.hpp"
#include "util/cli.hpp"

namespace kgrid::bench {

/// Parse `--threads=N` for a figure bench. Benches default to every
/// hardware lane (0 from the flag means "auto"); `--threads=1` reproduces
/// the reference inline schedule. Protocol outcomes are identical either
/// way (sim/engine.hpp determinism contract); only wall time changes.
inline std::size_t threads_arg(const Cli& cli) {
  const std::int64_t t = cli.get_int("threads", 0);
  return t <= 0 ? sim::Executor::hardware_threads()
                : static_cast<std::size_t>(t);
}

/// Parse `--shards=N` for a figure bench (docs/SHARDING.md). Follows
/// SecureGridConfig::shards semantics: unset (-1) defers to the KGRID_SHARDS
/// environment override, `--shards=0` forces the plain single-queue engine,
/// N >= 1 runs N shards with the topology's minimum link delay as the
/// conservative lookahead. The merged schedule is shard-count-invariant, so
/// trace hashes recorded at one shard count verify at every other.
inline int shards_arg(const Cli& cli) {
  return static_cast<int>(cli.get_int("shards", -1));
}

/// Glue between a bench binary's Cli and its BENCH_*.json artifact
/// (docs/METRICS.md). Constructed first thing in main() so the wall clock
/// covers the whole run; `--json` (default path BENCH_<name>.json) or
/// `--json=<path>` turns it on. When off, every method is a no-op and no
/// engine instrumentation is attached, so the figures run at the exact
/// uninstrumented speed.
class JsonSink {
 public:
  JsonSink(const Cli& cli, const std::string& bench) : report_(bench) {
    if (!cli.has("json")) return;
    const std::string p = cli.get("json", "");
    path_ = (p.empty() || p == "1") ? "BENCH_" + bench + ".json" : p;
  }

  bool enabled() const { return !path_.empty(); }

  /// Record a parsed flag value under "args".
  void arg(std::string_view key, obs::Json v) {
    if (enabled()) report_.set_arg(key, std::move(v));
  }

  /// Record one series row (one per printed table cell or line).
  void row(obs::Json r) {
    if (enabled()) report_.add_row(std::move(r));
  }

  /// Attach a bench-specific top-level section.
  void section(std::string_view key, obs::Json v) {
    if (enabled()) report_.set_section(key, std::move(v));
  }

  /// Instrument an engine. The one EngineMetrics accumulates across every
  /// engine the bench constructs (the envelope reports totals).
  void attach(sim::Engine& engine) {
    if (enabled()) engine.attach_metrics(&metrics_);
  }

  /// Report this pool's counters as `sim.executor` in the artifact. Like
  /// attach(), the registration is unconditional on the caller's side; the
  /// sink ignores it when `--json` is off. Pass the bench's one shared pool.
  void set_executor(sim::Executor* executor) { executor_ = executor; }

  /// Stamp the sim/crypto/wall-time sections and write the artifact.
  /// Returns false (after printing to stderr) when the file is unwritable.
  bool write() {
    if (!enabled()) return true;
    obs::Json sim = metrics_.to_json();
    if (executor_ != nullptr) sim.set("executor", executor_->metrics_json());
    report_.set_sim(std::move(sim));
    if (!report_.write(path_)) return false;
    std::printf("\nwrote %s\n", path_.c_str());
    return true;
  }

 private:
  std::string path_;
  obs::BenchReport report_;
  sim::EngineMetrics metrics_;
  sim::Executor* executor_ = nullptr;
};

/// Trace record/replay plumbing for a figure bench (sim/trace.hpp,
/// core/env_trace.hpp; handbook: docs/BENCHMARKS.md).
///
///   --trace_record=PATH    build workloads live, record every cell's env
///                          and dispatch-order hash (plus the full event
///                          schedule for cells matching --trace_schedule)
///                          into one trace file
///   --trace_replay=PATH    decode each cell's env from the trace instead
///                          of regenerating it, and verify the run's
///                          dispatch-order hash against the recorded one
///   --trace_schedule=KEY   restrict full-schedule recording to one cell
///                          (schedules store every push; hashes are 16
///                          bytes, so those are always recorded)
///
/// Per-cell use: `cfg.trace = trace.begin(key)` before constructing the
/// grid (construction pushes bootstrap events; a tap attached later would
/// miss them), `trace.end(grid.engine())` after its last run_steps. Workload
/// envs go through `trace.env(key, builder)`. `finish()` writes the file
/// (record) or reports verification failures (replay) — benches return
/// non-zero on a hash mismatch, which is the CI determinism gate.
class TraceSource {
 public:
  TraceSource(const Cli& cli, std::string bench)
      : bench_(std::move(bench)),
        record_path_(cli.get("trace_record", "")),
        replay_path_(cli.get("trace_replay", "")),
        schedule_filter_(cli.get("trace_schedule", "")) {
    KGRID_CHECK(record_path_.empty() || replay_path_.empty(),
                "--trace_record and --trace_replay are mutually exclusive");
    if (replaying()) {
      KGRID_CHECK(sim::TraceFile::load(replay_path_, &file_),
                  "cannot load --trace_replay file");
      const std::string* meta = file_.find("meta");
      KGRID_CHECK(meta != nullptr && *meta == bench_,
                  "trace file was recorded by a different bench");
    } else if (recording()) {
      file_.add("meta", bench_);
    }
  }

  bool recording() const { return !record_path_.empty(); }
  bool replaying() const { return !replay_path_.empty(); }
  bool active() const { return recording() || replaying(); }

  /// The workload for cell `key`: decoded from the trace on replay, built
  /// by `build` otherwise (and recorded on record — once per key; sweep
  /// cells sharing a workload reuse the first recording).
  template <class BuildFn>
  core::GridEnv env(const std::string& key, BuildFn&& build) {
    const std::string entry = "env:" + key;
    if (replaying()) {
      const std::string* bytes = file_.find(entry);
      KGRID_CHECK(bytes != nullptr,
                  "trace has no env for this cell (bench args differ from "
                  "the recording run?)");
      auto env = core::decode_env(*bytes);
      KGRID_CHECK(env.has_value(), "corrupt env entry in trace file");
      return std::move(*env);
    }
    core::GridEnv env = build();
    if (recording() && !file_.has(entry))
      file_.add(entry, core::encode_env(env));
    return env;
  }

  /// The tap for cell `key`'s engine — pass as SecureGridConfig::trace (or
  /// the BaselineGrid trace parameter). nullptr when tracing is off.
  sim::EventTap* begin(const std::string& key) {
    if (!active()) return nullptr;
    KGRID_CHECK(key_.empty(), "TraceSource::begin without matching end");
    key_ = key;
    if (recording() && (schedule_filter_.empty() || schedule_filter_ == key)) {
      recorder_ = std::make_unique<sim::ScheduleRecorder>();
      return recorder_.get();
    }
    hasher_ = std::make_unique<sim::ScheduleHasher>();
    return hasher_.get();
  }

  /// Close the cell opened by begin(): detach the tap, then record the
  /// cell's dispatch hash (record) or verify it (replay).
  void end(sim::Engine& engine) {
    if (!active()) return;
    KGRID_CHECK(!key_.empty(), "TraceSource::end without begin");
    engine.attach_trace(nullptr);
    std::uint64_t dispatched;
    std::uint64_t hash;
    if (recorder_ != nullptr) {
      sim::Schedule schedule = recorder_->finish();
      dispatched = schedule.dispatch_count;
      hash = schedule.dispatch_hash;
      file_.add("sched:" + key_, sim::encode_schedule(schedule));
    } else {
      dispatched = hasher_->dispatched();
      hash = hasher_->hash();
    }
    bool ok = true;
    std::string note;
    if (recording()) {
      util::ByteWriter w;
      w.u64(dispatched);
      w.u64(hash);
      file_.add("hash:" + key_, w.take());
    } else {
      const std::string* bytes = file_.find("hash:" + key_);
      if (bytes == nullptr) {
        ok = false;
        note = "no recorded hash for this cell";
      } else {
        util::ByteReader r(*bytes);
        const std::uint64_t want_dispatched = r.u64();
        const std::uint64_t want_hash = r.u64();
        ok = r.ok() && want_dispatched == dispatched && want_hash == hash;
        if (!ok) {
          char buf[128];
          std::snprintf(buf, sizeof buf,
                        "recorded %llu events/%016llx, replayed %llu/%016llx",
                        static_cast<unsigned long long>(want_dispatched),
                        static_cast<unsigned long long>(want_hash),
                        static_cast<unsigned long long>(dispatched),
                        static_cast<unsigned long long>(hash));
          note = buf;
        }
      }
      if (!ok) {
        ++failures_;
        std::fprintf(stderr, "trace replay MISMATCH at %s: %s\n",
                     key_.c_str(), note.c_str());
      }
    }
    obs::Json cell = obs::Json::object();
    cell.set("key", key_);
    cell.set("dispatched", dispatched);
    char hex[17];
    std::snprintf(hex, sizeof hex, "%016llx",
                  static_cast<unsigned long long>(hash));
    cell.set("hash", hex);
    if (replaying()) cell.set("verified", ok);
    cells_.push_back(std::move(cell));
    key_.clear();
    recorder_.reset();
    hasher_.reset();
  }

  /// The artifact's "trace" section (docs/METRICS.md).
  obs::Json section() const {
    obs::Json j = obs::Json::object();
    j.set("mode", recording() ? "record" : "replay");
    j.set("file", recording() ? record_path_ : replay_path_);
    j.set("cells", cells_);
    if (replaying()) j.set("mismatches", failures_);
    return j;
  }

  /// Write the trace (record) / report the verdict (replay). False — and
  /// the bench should exit non-zero — on an unwritable file or any hash
  /// mismatch.
  bool finish() {
    if (!active()) return true;
    if (recording()) {
      if (!file_.write(record_path_)) {
        std::fprintf(stderr, "cannot write trace file %s\n",
                     record_path_.c_str());
        return false;
      }
      std::printf("recorded trace (%zu entries) -> %s\n", file_.size(),
                  record_path_.c_str());
      return true;
    }
    if (failures_ > 0) {
      std::fprintf(stderr,
                   "trace replay: %zu cell(s) diverged from the recording\n",
                   failures_);
      return false;
    }
    std::printf("trace replay: all %zu cell(s) match the recorded schedule\n",
                cells_.size());
    return true;
  }

 private:
  std::string bench_;
  std::string record_path_;
  std::string replay_path_;
  std::string schedule_filter_;
  sim::TraceFile file_;
  std::string key_;  // non-empty between begin() and end()
  std::unique_ptr<sim::ScheduleRecorder> recorder_;
  std::unique_ptr<sim::ScheduleHasher> hasher_;
  obs::Json cells_ = obs::Json::array();
  std::size_t failures_ = 0;
};

/// Ground truth over the data that has arrived by `step` (initial
/// partitions plus the per-step arrivals every resource has consumed).
inline arm::RuleSet reference_at(const core::GridEnv& env, std::size_t step,
                                 std::size_t arrivals_per_step,
                                 const arm::MiningThresholds& thresholds) {
  data::Database db;
  for (const auto& part : env.initial)
    for (const auto& t : part.transactions()) db.append(t);
  const std::size_t consumed = step * arrivals_per_step;
  for (const auto& stream : env.arrivals)
    for (std::size_t i = 0; i < std::min(consumed, stream.size()); ++i)
      db.append(stream[i]);
  return arm::mine_rules(db, thresholds);
}

/// Drive a grid until `metric()` >= target or the step budget runs out;
/// returns the step count reached (or max_steps+1 when the target was not
/// met).
template <class Grid, class Metric>
std::size_t steps_to_target(Grid& grid, Metric metric, double target,
                            std::size_t max_steps, std::size_t stride = 5) {
  std::size_t steps = 0;
  if (metric() >= target) return 0;
  while (steps < max_steps) {
    grid.run_steps(stride);
    steps += stride;
    if (metric() >= target) return steps;
  }
  return max_steps + 1;
}

}  // namespace kgrid::bench
