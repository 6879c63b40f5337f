// Trace record/replay for the simulation engine.
//
// Every bench in this repo regenerates its workload from seeds, so run-to-run
// comparisons mix engine performance with data-generation drift. This module
// pins the workload instead: a recording run captures the engine's *event
// schedule* — every push with the exact delivery time, origin, and queue
// position it had — and a replay run feeds those pushes back through
// Engine::replay_push at the recorded interleaving. The replayed engine
// exercises the same queue/pool/dispatch machinery on the identical (time,
// seq) stream, with inert entities standing in for the protocol logic.
//
// Correctness is checked by hashing the dispatch order: ScheduleHasher folds
// every dispatched event's coordinates into an FNV-1a hash, and a replay must
// reproduce the recorded hash bit for bit (at any thread or shard count —
// the determinism contract, docs/ARCHITECTURE.md). The hash is the
// same "golden trace" idea as tests/core/golden_fingerprint.hpp, applied to
// the engine's schedule instead of the protocol's output.
//
// On-disk container (TraceFile): a flat key→bytes map, magic "KGTRACE1".
// Benches store one schedule per workload cell ("sched:<key>"), the
// dispatch-order hash per thread-count probe ("hash:<key>"), and the
// serialized GridEnv (core/env_trace.hpp) so data-dependent figures can
// re-run the real protocol on the recorded inputs.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "sim/engine.hpp"
#include "util/bytes.hpp"

namespace kgrid::sim {

/// FNV-1a over the dispatch stream: the engine's golden event-order hash.
/// Attach before the run; hash() is a pure function of the sequence of
/// dispatched (time, sent_at, seq, timer_id, from, to, kind) tuples.
class ScheduleHasher : public EventTap {
 public:
  void on_dispatch(const EventRecord& record) override {
    mix(bits_of(record.time));
    mix(bits_of(record.sent_at));
    mix(record.seq);
    mix(record.timer_id);
    mix(record.from);
    mix(record.to);
    mix(static_cast<std::uint64_t>(record.kind));
    ++dispatched_;
  }

  std::uint64_t hash() const { return hash_; }
  std::uint64_t dispatched() const { return dispatched_; }

 private:
  static std::uint64_t bits_of(double v) {
    std::uint64_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    return bits;
  }

  void mix(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      hash_ ^= (v >> (8 * i)) & 0xff;
      hash_ *= 0x100000001b3ull;
    }
  }

  std::uint64_t hash_ = 0xcbf29ce484222325ull;
  std::uint64_t dispatched_ = 0;
};

/// One recorded push: the event's coordinates plus *when* it was pushed,
/// expressed as the number of dispatches the engine had completed at push
/// time. That single number reproduces the push/dispatch interleaving
/// exactly: replay steps the engine until `dispatches_before` events have
/// been dispatched, then injects the push.
struct SchedulePush {
  std::uint64_t dispatches_before = 0;
  EventRecord record;
};

/// A complete recorded schedule. `dispatch_count` bounds the replay (a
/// recording window may close with events still queued; replay stops where
/// the recording stopped, it does not drain). `dispatch_hash` is the
/// ScheduleHasher value the replay must reproduce. `entity_count` is how
/// many inert entities a replay engine needs registered.
struct Schedule {
  std::uint64_t dispatch_count = 0;
  std::uint64_t dispatch_hash = 0;
  std::uint64_t entity_count = 0;
  std::vector<SchedulePush> pushes;
};

/// Records a Schedule from a live run. Attach to a *fresh* engine (sequence
/// numbers must start at zero) before the first push; detach or destroy
/// after the run and call finish().
class ScheduleRecorder : public EventTap {
 public:
  void on_push(const EventRecord& record) override {
    schedule_.pushes.push_back({hasher_.dispatched(), record});
    const std::uint64_t top =
        static_cast<std::uint64_t>(std::max(record.from, record.to)) + 1;
    if (top > schedule_.entity_count) schedule_.entity_count = top;
  }

  void on_dispatch(const EventRecord& record) override {
    hasher_.on_dispatch(record);
  }

  std::uint64_t dispatched() const { return hasher_.dispatched(); }

  /// Seals the header (dispatch count + hash) and returns the schedule.
  Schedule finish() {
    schedule_.dispatch_count = hasher_.dispatched();
    schedule_.dispatch_hash = hasher_.hash();
    return std::move(schedule_);
  }

 private:
  ScheduleHasher hasher_;
  Schedule schedule_;
};

std::string encode_schedule(const Schedule& schedule);
/// Returns false (leaving *out unspecified) on truncated or corrupt bytes.
bool decode_schedule(std::string_view bytes, Schedule* out);

/// An entity that ignores everything — the stand-in delivery target for
/// replayed events (the schedule carries no payloads, so there is no
/// protocol logic to run). One instance can be registered many times.
class NullEntity : public Entity {
 public:
  void on_message(Engine& engine, EntityId from, Payload& payload) override {
    (void)engine;
    (void)from;
    (void)payload;
  }
};

struct ReplayResult {
  std::uint64_t dispatched = 0;
  std::uint64_t hash = 0;      // dispatch-order hash of the replayed run
  bool hash_matches = false;   // == schedule.dispatch_hash
};

/// Replays `schedule` through a fresh engine: registers `sink` as every
/// delivery target, steps to each push's recorded interleaving point,
/// injects the push via Engine::replay_push, and steps out the recorded
/// dispatch count. The engine must be brand new (no entities, no events).
ReplayResult replay_schedule(Engine& engine, NullEntity& sink,
                             const Schedule& schedule);

/// Flat key→bytes container, magic "KGTRACE1". Keys are ordered as added
/// (writing is deterministic); duplicate keys are rejected on add.
class TraceFile {
 public:
  void add(std::string key, std::string bytes);
  bool has(std::string_view key) const { return find(key) != nullptr; }
  /// nullptr when absent.
  const std::string* find(std::string_view key) const;
  std::vector<std::string> keys() const;
  std::size_t size() const { return entries_.size(); }

  /// Serialize / write to disk. write() returns false on I/O failure.
  std::string encode() const;
  bool write(const std::string& path) const;

  /// Parse / read from disk. Returns false on missing file, bad magic, or
  /// truncation; *out is cleared first.
  static bool decode(std::string_view bytes, TraceFile* out);
  static bool load(const std::string& path, TraceFile* out);

 private:
  std::vector<std::pair<std::string, std::string>> entries_;
};

}  // namespace kgrid::sim
