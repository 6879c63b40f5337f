// Microbenchmarks of the simulation engine's event path — the hot loop
// under every figure bench once the crypto is offloaded (EXPERIMENTS.md
// "Engine event path"). Three workloads on the engine's one scheduler
// (sim/event_queue.hpp: messages in the adaptive calendar queue with pooled
// slots, timers in the hashed hierarchical wheel of sim/timer_wheel.hpp):
//
//   * TimerStorm    — N self-rescheduling timers with jittered periods:
//                     pure scheduler throughput, no payloads.
//   * MessageMesh   — N entities forwarding SecureRuleMessages (per-edge
//                     candidate id + Paillier ciphertext) around a ring:
//                     the payload path (typed variant + pooled slots + COW
//                     cipher bodies).
//   * OffloadHeavy  — N entities running every step through offload():
//                     the pending/barrier machinery plus the queue.
//
// items/s counts processed events (committed in BENCH_engine_micro.json).
//
// Besides google-benchmark's own flags, `--json[=PATH]` (kgrid convention,
// stripped before benchmark::Initialize) writes a kgrid.bench.v1 envelope
// with one series row per run; the artifact's sim section comes from a
// separate instrumented MessageMesh run after the timed benchmarks, so
// metrics overhead never pollutes the measurements. `--threads` is likewise
// stripped and recorded: the engine loop is single-threaded by design, the
// flag exists for CLI uniformity with the figure benches.
//
// `--trace=PATH` (plus optional `--trace_key=KEY`) loads a KGTRACE1 file
// recorded by a figure bench (e.g. fig3_scalability --trace_record) and
// registers BM_TraceReplay, which replays the recorded event schedule
// through a fresh engine each iteration. Unlike the synthetic workloads
// above, the replay pushes the *exact* event stream a real protocol run
// produced, so engine comparisons run on a workload pinned across commits
// (docs/BENCHMARKS.md "Trace replay").
//
// `--shards=N` restricts the BM_ShardedMesh sweep (docs/SHARDING.md) to one
// shard count; by default the sweep runs shards in {1, 2, 4, 8} plus a
// synthetic `speedup` row (shards=4 vs shards=1 items/s, a rate-class leaf
// for bench_diff). Unlike the single-queue workloads, the sharded mesh pays
// per-hop homomorphic work against private per-entity ciphers, so lanes
// have real cycles to overlap when the executor has more than one thread.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/messages.hpp"
#include "crypto/hom.hpp"
#include "obs/bench_report.hpp"
#include "sim/engine.hpp"
#include "sim/executor.hpp"
#include "sim/trace.hpp"
#include "util/rng.hpp"

namespace {

using namespace kgrid;

/// Events processed per benchmark iteration (and the items/s unit).
constexpr std::uint64_t kEventsPerIter = 1024;

/// Cheap deterministic jitter (splitmix64 finalizer) so timer periods and
/// link delays spread events across the heap instead of degenerating into
/// one FIFO band.
inline double jitter(std::uint64_t& s) {
  s += 0x9e3779b97f4a7c15ull;
  std::uint64_t z = s;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  z ^= z >> 31;
  return static_cast<double>(z & 1023) / 1024.0;
}

class TimerEntity : public sim::Entity {
 public:
  TimerEntity(sim::EntityId self, std::uint64_t seed) : self_(self), s_(seed) {}
  void on_message(sim::Engine&, sim::EntityId, sim::Payload&) override {}
  void on_timer(sim::Engine& engine, std::uint64_t) override {
    engine.schedule(self_, 0.5 + jitter(s_), 0);
  }

 private:
  sim::EntityId self_;
  std::uint64_t s_;
};

void BM_TimerStorm(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  sim::Engine engine;
  std::vector<std::unique_ptr<TimerEntity>> entities;
  for (std::size_t i = 0; i < n; ++i) {
    const auto id = static_cast<sim::EntityId>(i);
    entities.push_back(std::make_unique<TimerEntity>(id, i));
    engine.add_entity(entities.back().get(), "timer");
    std::uint64_t s = i;
    engine.schedule(id, jitter(s), 0);
  }
  for (auto _ : state)
    for (std::uint64_t i = 0; i < kEventsPerIter; ++i) engine.step();
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations() * kEventsPerIter));
}
BENCHMARK(BM_TimerStorm)->Arg(1024)->Arg(4096)->Arg(65536);

/// The message the figure benches push through the engine in steady
/// state: a per-edge candidate id (the candidate was announced on the
/// link's first message for it) plus a Paillier ciphertext. Built once
/// (keygen + one encryption) and copied into every in-flight message —
/// under COW a copy is a refcount bump. 1024-bit keys match
/// SecureGridConfig's default, so the per-hop body size is the figure
/// benches' real one.
const core::SecureRuleMessage& mesh_message() {
  static const core::SecureRuleMessage msg = [] {
    Rng rng(1234);
    const hom::ContextPtr ctx = hom::Context::make_paillier(1024, rng);
    return core::SecureRuleMessage{
        /*edge_id=*/0, /*announce=*/nullptr,
        ctx->encrypt_key().encrypt_value(1, rng)};
  }();
  return msg;
}

/// Ring forwarder: every delivery sends the rule message one hop further,
/// so the in-flight population stays constant and each event is one pop +
/// one push with a real protocol payload.
class MeshEntity : public sim::Entity {
 public:
  MeshEntity(sim::EntityId self, sim::EntityId next, std::uint64_t seed)
      : self_(self), next_(next), s_(seed) {}
  void on_message(sim::Engine& engine, sim::EntityId,
                  sim::Payload& payload) override {
    engine.send(self_, next_, 0.5 + jitter(s_),
                payload.get<core::SecureRuleMessage>());
  }

 private:
  sim::EntityId self_;
  sim::EntityId next_;
  std::uint64_t s_;
};

void seed_mesh(sim::Engine& engine, std::size_t n,
               std::vector<std::unique_ptr<MeshEntity>>& entities) {
  for (std::size_t i = 0; i < n; ++i) {
    const auto id = static_cast<sim::EntityId>(i);
    const auto next = static_cast<sim::EntityId>((i + 1) % n);
    entities.push_back(std::make_unique<MeshEntity>(id, next, i));
    engine.add_entity(entities.back().get(), "mesh");
  }
  // In-flight population scales with the grid so the pending set (and the
  // heap depth) grows with the benchmark arg, as it does in the figure runs.
  const std::size_t in_flight = std::max<std::size_t>(64, n / 4);
  std::uint64_t s = 42;
  for (std::size_t m = 0; m < in_flight; ++m) {
    const auto from = static_cast<sim::EntityId>(m % n);
    const auto to = static_cast<sim::EntityId>((m + 1) % n);
    engine.send(from, to, jitter(s), mesh_message());
  }
}

void BM_MessageMesh(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  sim::Engine engine;
  std::vector<std::unique_ptr<MeshEntity>> entities;
  seed_mesh(engine, n, entities);
  for (auto _ : state)
    for (std::uint64_t i = 0; i < kEventsPerIter; ++i) engine.step();
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations() * kEventsPerIter));
}
BENCHMARK(BM_MessageMesh)->Arg(1024)->Arg(4096)->Arg(65536);

/// Every step runs through offload(): job body inline (no executor), apply
/// resolved at the barrier — the figure benches' per-resource crypto shape
/// with the crypto stripped out.
class OffloadEntity : public sim::Entity {
 public:
  OffloadEntity(sim::EntityId self, std::uint64_t seed) : self_(self), s_(seed) {}
  void on_message(sim::Engine&, sim::EntityId, sim::Payload&) override {}
  void on_timer(sim::Engine& engine, std::uint64_t) override {
    engine.offload(self_, [this]() -> sim::Engine::Apply {
      // Stand-in for a step's local work, heavy enough not to vanish.
      std::uint64_t acc = s_;
      for (int i = 0; i < 64; ++i) acc = acc * 6364136223846793005ull + 1;
      return [this, acc](sim::Engine& eng) {
        eng.schedule(self_, 0.5 + jitter(s_), acc | 1);
      };
    });
  }

 private:
  sim::EntityId self_;
  std::uint64_t s_;
};

void BM_OffloadHeavy(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  sim::Engine engine;
  std::vector<std::unique_ptr<OffloadEntity>> entities;
  for (std::size_t i = 0; i < n; ++i) {
    const auto id = static_cast<sim::EntityId>(i);
    entities.push_back(std::make_unique<OffloadEntity>(id, i));
    engine.add_entity(entities.back().get(), "offload");
    std::uint64_t s = i;
    engine.schedule(id, jitter(s), 0);
  }
  for (auto _ : state)
    for (std::uint64_t i = 0; i < kEventsPerIter; ++i) engine.step();
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations() * kEventsPerIter));
}
BENCHMARK(BM_OffloadHeavy)->Arg(256)->Arg(1024);

/// The sharded mesh's crypto context — separate from mesh_message()'s so
/// the two workloads stay independently reproducible.
const hom::ContextPtr& shard_mesh_context() {
  static const hom::ContextPtr ctx = [] {
    Rng rng(4321);
    return hom::Context::make_paillier(1024, rng);
  }();
  return ctx;
}

constexpr std::size_t kShardMeshEntities = 256;
constexpr int kShardMeshAddsPerHop = 4;

/// Ring forwarder for the sharded engine (docs/SHARDING.md): each delivery
/// folds a few homomorphic adds into a *private* accumulator (acc and term
/// are detached at construction, so no cipher body is shared across lanes)
/// and forwards the rule message one hop — which under `lane = id % shards`
/// is always a cross-shard hop, the mailbox worst case. The 0.5 send delay
/// floor is the workload's minimum link delay and hence the lookahead.
class ShardMeshEntity : public sim::Entity {
 public:
  ShardMeshEntity(sim::EntityId self, sim::EntityId next, std::uint64_t seed,
                  hom::EvalHandle eval, hom::Cipher acc, hom::Cipher term)
      : self_(self), next_(next), s_(seed), eval_(std::move(eval)),
        acc_(std::move(acc)), term_(std::move(term)) {
    acc_.detach();
    term_.detach();
  }
  void on_message(sim::Engine& engine, sim::EntityId,
                  sim::Payload& payload) override {
    for (int i = 0; i < kShardMeshAddsPerHop; ++i)
      acc_ = eval_.add(acc_, term_);
    engine.send(self_, next_, 0.5 + jitter(s_),
                payload.get<core::SecureRuleMessage>());
  }

 private:
  sim::EntityId self_;
  sim::EntityId next_;
  std::uint64_t s_;
  hom::EvalHandle eval_;
  hom::Cipher acc_;
  hom::Cipher term_;
};

void seed_sharded_mesh(sim::Engine& engine, std::size_t n,
                       std::vector<std::unique_ptr<ShardMeshEntity>>& entities) {
  const hom::ContextPtr& ctx = shard_mesh_context();
  Rng rng(777);
  const hom::Cipher acc0 = ctx->encrypt_key().encrypt_value(0, rng);
  const hom::Cipher term0 = ctx->encrypt_key().encrypt_value(1, rng);
  for (std::size_t i = 0; i < n; ++i) {
    const auto id = static_cast<sim::EntityId>(i);
    const auto next = static_cast<sim::EntityId>((i + 1) % n);
    entities.push_back(std::make_unique<ShardMeshEntity>(
        id, next, i, ctx->eval_handle(), acc0, term0));
    engine.add_entity(entities.back().get(), "shard_mesh");
  }
  const std::size_t in_flight = std::max<std::size_t>(64, n / 4);
  std::uint64_t s = 42;
  for (std::size_t m = 0; m < in_flight; ++m) {
    const auto from = static_cast<sim::EntityId>(m % n);
    const auto to = static_cast<sim::EntityId>((m + 1) % n);
    engine.send(from, to, jitter(s), mesh_message());
  }
}

/// One benchmark per shard count; the merged schedule is identical at every
/// count (sim/engine.hpp determinism contract), so items/s ratios read as
/// pure parallel speedup. Time advances by a fixed horizon per iteration
/// and items count delivered messages, so every shard count meters the
/// same simulated workload.
void sharded_mesh(benchmark::State& state, std::size_t shards) {
  // An explicit hardware-width pool: lane work runs on pool threads, so the
  // benchmark uses manual (wall) timing — cpu_time would only meter the
  // driver thread and overstate items/s at every width.
  sim::Executor pool(sim::Executor::hardware_threads());
  sim::Engine engine;
  engine.enable_sharding(shards, 0.5);
  engine.attach_executor(&pool);
  std::vector<std::unique_ptr<ShardMeshEntity>> entities;
  seed_sharded_mesh(engine, kShardMeshEntities, entities);
  sim::Time deadline = 0.0;
  std::uint64_t processed = 0;
  for (auto _ : state) {
    const auto t0 = std::chrono::steady_clock::now();
    const std::uint64_t before = engine.messages_delivered();
    deadline += 16.0;
    engine.run_until(deadline);
    processed += engine.messages_delivered() - before;
    state.SetIterationTime(
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(processed));
}

/// Console reporter that additionally captures every run as a series row
/// ({name, iterations, real_time, cpu_time, time_unit, items_per_second}).
class CaptureReporter : public benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& report) override {
    for (const Run& run : report) {
      if (run.error_occurred) continue;
      obs::Json row = obs::Json::object();
      row.set("name", run.benchmark_name());
      row.set("iterations", static_cast<std::uint64_t>(run.iterations));
      row.set("real_time", run.GetAdjustedRealTime());
      row.set("cpu_time", run.GetAdjustedCPUTime());
      row.set("time_unit", benchmark::GetTimeUnitString(run.time_unit));
      // Finalized counters; SetItemsProcessed surfaces as items_per_second.
      for (const auto& [name, counter] : run.counters)
        row.set(name, counter.value);
      rows.push_back(std::move(row));
    }
    ConsoleReporter::ReportRuns(report);
  }

  std::vector<obs::Json> rows;
};

/// The schedule loaded from --trace (kept alive for the registered replay
/// benchmarks) and the trace key it came from.
sim::Schedule replay_schedule_data;
std::string replay_schedule_key;

/// One replay per iteration: a fresh engine, inert sink entities, the
/// recorded push/dispatch interleaving. A hash mismatch is a broken engine
/// (or a corrupted trace), not a slow one — surfaced through
/// google-benchmark's error path so the run fails loudly.
void trace_replay(benchmark::State& state) {
  sim::NullEntity sink;
  for (auto _ : state) {
    sim::Engine engine;
    const sim::ReplayResult r =
        sim::replay_schedule(engine, sink, replay_schedule_data);
    if (!r.hash_matches) {
      state.SkipWithError("replayed dispatch order diverged from recording");
      return;
    }
    benchmark::DoNotOptimize(r.hash);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(
      state.iterations() * replay_schedule_data.dispatch_count));
}

/// Load `sched:<key>` (or the first sched: entry) from a KGTRACE1 file and
/// register BM_TraceReplay. Returns false (with a message) when
/// the file or entry is missing/corrupt.
bool register_trace_replay(const std::string& path, const std::string& key) {
  sim::TraceFile file;
  if (!sim::TraceFile::load(path, &file)) {
    std::fprintf(stderr, "engine_micro: cannot load trace file %s\n",
                 path.c_str());
    return false;
  }
  std::string entry = key.empty() ? std::string() : "sched:" + key;
  if (entry.empty()) {
    for (const std::string& k : file.keys())
      if (k.rfind("sched:", 0) == 0) {
        entry = k;
        break;
      }
    if (entry.empty()) {
      std::fprintf(stderr,
                   "engine_micro: %s has no sched: entries (record with "
                   "--trace_schedule=KEY)\n",
                   path.c_str());
      return false;
    }
  }
  const std::string* bytes = file.find(entry);
  if (bytes == nullptr) {
    std::fprintf(stderr, "engine_micro: %s has no entry \"%s\"\n", path.c_str(),
                 entry.c_str());
    return false;
  }
  if (!sim::decode_schedule(*bytes, &replay_schedule_data)) {
    std::fprintf(stderr, "engine_micro: corrupt schedule \"%s\" in %s\n",
                 entry.c_str(), path.c_str());
    return false;
  }
  replay_schedule_key = entry.substr(std::string_view("sched:").size());
  std::printf("engine_micro: replaying \"%s\" (%llu pushes, %llu dispatches, "
              "%llu entities)\n",
              replay_schedule_key.c_str(),
              static_cast<unsigned long long>(replay_schedule_data.pushes.size()),
              static_cast<unsigned long long>(replay_schedule_data.dispatch_count),
              static_cast<unsigned long long>(replay_schedule_data.entity_count));
  benchmark::RegisterBenchmark("BM_TraceReplay", trace_replay);
  return true;
}

/// One modest instrumented MessageMesh run: the
/// artifact's sim section (queue/event_pool counters, message-type stats)
/// comes from here, outside the timed region.
obs::Json instrumented_sim_section() {
  sim::EngineMetrics metrics;
  {
    sim::Engine engine;
    engine.attach_metrics(&metrics);
    std::vector<std::unique_ptr<MeshEntity>> entities;
    seed_mesh(engine, 1024, entities);
    for (int i = 0; i < 1 << 15; ++i) engine.step();
  }  // ~Engine flushes the queue/pool counters into `metrics`
  // A short sharded mesh into the same accumulator so the artifact's
  // sim.shard block (docs/METRICS.md) carries real window/mailbox counts.
  {
    sim::Executor pool(sim::Executor::hardware_threads());
    sim::Engine engine;
    engine.enable_sharding(4, 0.5);
    engine.attach_executor(&pool);
    engine.attach_metrics(&metrics);
    std::vector<std::unique_ptr<ShardMeshEntity>> entities;
    seed_sharded_mesh(engine, kShardMeshEntities, entities);
    engine.run_until(64.0);
  }
  return metrics.to_json();
}

}  // namespace

int main(int argc, char** argv) {
  // Split off the kgrid-convention flags (--json, --threads, --trace,
  // --trace_key) before google-benchmark sees (and rejects) them.
  std::string json_path;
  std::string threads_flag;
  std::string shards_flag;
  std::string trace_path;
  std::string trace_key;
  std::vector<char*> bench_argv;
  for (int i = 0; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (i > 0 && arg.rfind("--json", 0) == 0) {
      const auto eq = arg.find('=');
      json_path = eq == std::string_view::npos ? std::string()
                                               : std::string(arg.substr(eq + 1));
      if (json_path.empty()) json_path = "BENCH_engine_micro.json";
      continue;
    }
    if (i > 0 && arg.rfind("--threads", 0) == 0) {
      const auto eq = arg.find('=');
      threads_flag = eq == std::string_view::npos
                         ? std::string("auto")
                         : std::string(arg.substr(eq + 1));
      continue;
    }
    if (i > 0 && arg.rfind("--shards", 0) == 0) {
      const auto eq = arg.find('=');
      if (eq != std::string_view::npos) shards_flag = arg.substr(eq + 1);
      continue;
    }
    if (i > 0 && arg.rfind("--trace_key", 0) == 0) {
      const auto eq = arg.find('=');
      if (eq != std::string_view::npos) trace_key = arg.substr(eq + 1);
      continue;
    }
    if (i > 0 && arg.rfind("--trace", 0) == 0) {
      const auto eq = arg.find('=');
      if (eq != std::string_view::npos) trace_path = arg.substr(eq + 1);
      continue;
    }
    bench_argv.push_back(argv[i]);
  }
  const bool json_enabled = !json_path.empty();
  int bench_argc = static_cast<int>(bench_argv.size());

  kgrid::obs::BenchReport report("engine_micro");
  if (!threads_flag.empty()) report.set_arg("threads", threads_flag);
  if (!shards_flag.empty()) report.set_arg("shards", shards_flag);
  if (!trace_path.empty()) report.set_arg("trace", trace_path);
  for (int i = 1; i < bench_argc; ++i)
    report.set_arg("argv" + std::to_string(i), bench_argv[i]);

  if (!trace_path.empty() && !register_trace_replay(trace_path, trace_key))
    return 2;
  if (!trace_path.empty())
    report.set_arg("trace_key", replay_schedule_key);

  // The shard sweep registers late so --shards can narrow it to one count
  // (static BENCHMARK() registration cannot see the flag).
  std::vector<std::size_t> shard_sweep = {1, 2, 4, 8};
  if (!shards_flag.empty()) {
    const long v = std::strtol(shards_flag.c_str(), nullptr, 10);
    if (v >= 1) shard_sweep.assign(1, static_cast<std::size_t>(v));
  }
  for (const std::size_t s : shard_sweep)
    benchmark::RegisterBenchmark(("BM_ShardedMesh/" + std::to_string(s)).c_str(),
                                 [s](benchmark::State& st) {
                                   sharded_mesh(st, s);
                                 })
        ->UseManualTime();

  benchmark::Initialize(&bench_argc, bench_argv.data());
  if (benchmark::ReportUnrecognizedArguments(bench_argc, bench_argv.data()))
    return 1;
  CaptureReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();

  if (json_enabled) {
    // Synthetic shard-speedup row: items/s at shards=4 over shards=1 (both
    // manual-timed, so the ratio is wall-clock parallel speedup). `speedup`
    // is a rate-class leaf for bench_diff — bigger is better, noisy-metric
    // tolerance.
    double ips1 = 0.0, ips4 = 0.0;
    for (const auto& row : reporter.rows) {
      const kgrid::obs::Json* name = row.find("name");
      const kgrid::obs::Json* ips = row.find("items_per_second");
      if (name == nullptr || ips == nullptr || !name->is_string()) continue;
      const std::string& n = name->as_string();
      if (n.rfind("BM_ShardedMesh/1/", 0) == 0) ips1 = ips->as_double();
      if (n.rfind("BM_ShardedMesh/4/", 0) == 0) ips4 = ips->as_double();
    }
    if (ips1 > 0.0 && ips4 > 0.0) {
      kgrid::obs::Json row = kgrid::obs::Json::object();
      row.set("name", "BM_ShardedMesh/speedup_4v1");
      row.set("speedup", ips4 / ips1);
      reporter.rows.push_back(std::move(row));
    }
    for (auto& row : reporter.rows) report.add_row(std::move(row));
    report.set_sim(instrumented_sim_section());
    if (!report.write(json_path)) return 1;
    std::printf("wrote %s\n", json_path.c_str());
  }
  return 0;
}
