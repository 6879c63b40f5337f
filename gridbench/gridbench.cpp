// Whole-grid benchmark program (README.md in this directory; run.py is the
// entry point that builds this binary, checks its outcomes and prints the
// metrics).
//
// One invocation runs one workload for a wall-clock budget, repeating the
// whole workload — input generation, grid construction, protocol run,
// recall evaluation — and prints one JSON document of raw measurements on
// its last stdout line. It drives the grid only through public calls:
// topology builders, core::make_grid_env, the SecureGrid/LiveGrid
// constructors, run_steps, GridEnv::reference, average_recall/
// output_answer, and the existing counters.
//
//   gridbench --workload=scale_plain|quest_arm|live_paillier --seed=N
//             --seconds=S --trace=0|1 [--size=full|tiny] [--threads=LANES]
//
// --trace=0 times every repetition untraced. --trace=1 alternates untraced
// and traced repetitions; traced ones record spans around the calls above,
// attach sim::EngineMetrics and collect the layer counters, and the pair
// gives the tracing overhead.
#include <sched.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/grid.hpp"
#include "net/live/live_grid.hpp"
#include "net/topology.hpp"
#include "obs/crypto_counters.hpp"
#include "obs/json.hpp"
#include "sim/executor.hpp"
#include "sim/metrics.hpp"
#include "util/cli.hpp"
#include "wide/fixword/fixword.hpp"

namespace {

using namespace kgrid;
using Clock = std::chrono::steady_clock;
using obs::Json;

const Clock::time_point kEpoch = Clock::now();

double now_s() {
  return std::chrono::duration<double>(Clock::now() - kEpoch).count();
}

// -- Spans ------------------------------------------------------------------

/// In-memory span recorder for the traced repetitions: name, start, end and
/// parent of every call the benchmark wraps. Disabled, every call is a
/// single branch.
class Tracer {
 public:
  void enable(bool on) { on_ = on; }

  int begin(const char* name) {
    if (!on_) return -1;
    const int parent = open_.empty() ? -1 : open_.back();
    spans_.push_back({name, now_s(), 0.0, parent});
    open_.push_back(static_cast<int>(spans_.size() - 1));
    return open_.back();
  }

  void end(int id) {
    if (id < 0) return;
    spans_[static_cast<std::size_t>(id)].end = now_s();
    open_.pop_back();
  }

  /// Hand over the spans recorded so far as JSON and start afresh.
  Json take() {
    Json out = Json::array();
    for (const Span& s : spans_) {
      Json j = Json::object();
      j.set("name", s.name);
      j.set("start", s.start);
      j.set("end", s.end);
      j.set("parent", s.parent);
      out.push_back(std::move(j));
    }
    spans_.clear();
    return out;
  }

 private:
  struct Span {
    const char* name;
    double start;
    double end;
    int parent;
  };
  bool on_ = false;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, const char* name)
      : tracer_(tracer), id_(tracer.begin(name)) {}
  ~ScopedSpan() { tracer_.end(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer& tracer_;
  int id_;
};

// -- Message latency ----------------------------------------------------------

/// Wall time from EventTap::on_push to on_dispatch of protocol messages.
/// Samples every `stride`-th sequence number (1 = every message) so the
/// million-message workloads keep a bounded sample; only messages pushed
/// after arm() count, which keeps set-up (bootstrap sends waiting out the
/// rest of set-up) out of the figure.
class LatencyTap final : public sim::EventTap {
 public:
  explicit LatencyTap(std::uint64_t stride) : stride_(stride) {}

  /// A fresh grid restarts sequence numbers: forget unmatched pushes and
  /// wait for the next arm().
  void reset() {
    pushed_.clear();
    armed_ = false;
  }
  void arm() { armed_ = true; }

  void on_push(const sim::EventRecord& r) override {
    if (!armed_ || r.kind != sim::EventKind::kMessage || r.seq % stride_ != 0)
      return;
    pushed_.emplace(r.seq, Clock::now());
  }

  void on_dispatch(const sim::EventRecord& r) override {
    if (r.kind != sim::EventKind::kMessage || r.seq % stride_ != 0) return;
    const auto it = pushed_.find(r.seq);
    if (it == pushed_.end()) return;
    samples_ms_.push_back(
        std::chrono::duration<double, std::milli>(Clock::now() - it->second)
            .count());
    pushed_.erase(it);
  }

  std::vector<double>& samples_ms() { return samples_ms_; }

 private:
  std::uint64_t stride_;
  bool armed_ = false;
  std::unordered_map<std::uint64_t, Clock::time_point> pushed_;
  std::vector<double> samples_ms_;
};

/// Linear-interpolated quantile of an unsorted sample (copied, not sorted
/// in place); 0 for an empty sample.
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

// -- Counters -----------------------------------------------------------------

/// Flat name -> value accumulator for one repetition's layer counters
/// (summed over the cells of a multi-grid workload).
using Counters = std::map<std::string, double>;

void add_protocol(Counters& c, core::SecureGrid& grid) {
  for (net::NodeId u = 0; u < grid.size(); ++u) {
    auto& r = grid.resource(u);
    const auto& b = r.broker().stats();
    c["core.broker.messages_out"] += static_cast<double>(b.messages_out);
    c["core.broker.edge_evaluations"] +=
        static_cast<double>(b.edge_evaluations);
    c["core.broker.candidates_registered"] +=
        static_cast<double>(b.candidates_registered);
    const auto& k = r.controller().stats();
    c["core.controller.sfe_sends"] += static_cast<double>(k.sfe_sends);
    c["core.controller.sfe_outputs"] += static_cast<double>(k.sfe_outputs);
    c["core.controller.sends_granted"] += static_cast<double>(k.sends_granted);
    c["core.controller.gate_reveals"] += static_cast<double>(k.gate_reveals);
    c["core.controller.detections"] += static_cast<double>(k.detections);
    c["core.accountant.replies"] +=
        static_cast<double>(r.accountant().stats().replies);
  }
  c["core.monitor_grants"] += static_cast<double>(grid.monitor().grants());
  c["core.monitor_violations"] +=
      static_cast<double>(grid.monitor().violations().size());
}

void add_engine(Counters& c, const sim::EngineMetrics& m) {
  c["sim.events_processed"] += static_cast<double>(m.events_processed());
  c["sim.timers_fired"] += static_cast<double>(m.total_timers());
  c["sim.queue.pushes"] += static_cast<double>(m.queue_stats().pushes);
  c["sim.queue.resizes"] += static_cast<double>(m.queue_stats().resizes);
  c["sim.queue.max_depth"] =
      std::max(c["sim.queue.max_depth"],
               static_cast<double>(m.queue_stats().max_depth));
  c["sim.event_pool.max_in_use"] =
      std::max(c["sim.event_pool.max_in_use"],
               static_cast<double>(m.event_pool_stats().max_in_use));
  c["sim.event_pool.overflow"] +=
      static_cast<double>(m.event_pool_stats().overflow);
  c["sim.timer_wheel.cascades"] +=
      static_cast<double>(m.timer_wheel_stats().cascades);
  c["sim.shard.windows"] += static_cast<double>(m.shard_stats().windows);
  c["sim.shard.mailbox_events"] +=
      static_cast<double>(m.shard_stats().mailbox_events);
  c["sim.shard.max_skew"] = std::max(
      c["sim.shard.max_skew"], static_cast<double>(m.shard_stats().max_skew));
}

void add_executor(Counters& c, const sim::Executor& pool) {
  const Json j = pool.metrics_json();
  for (const char* key : {"jobs", "batches", "batch_items", "busy_s", "wait_s"})
    c[std::string("sim.executor.") + key] += j.find(key)->as_double();
}

void add_crypto(Counters& c) {
  const obs::CryptoCounters& k = obs::crypto_counters();
  c["crypto.hom.encrypts"] += static_cast<double>(k.hom_encrypts.value());
  c["crypto.hom.decrypts"] += static_cast<double>(k.hom_decrypts.value());
  c["crypto.hom.adds"] += static_cast<double>(k.hom_adds.value());
  c["crypto.hom.rerandomizes"] +=
      static_cast<double>(k.hom_rerandomizes.value());
  c["crypto.paillier.keygens"] +=
      static_cast<double>(k.paillier_keygens.value());
  c["crypto.paillier.modexps"] += static_cast<double>(k.modexps.value());
  c["crypto.paillier.batch_modexps"] +=
      static_cast<double>(k.batch_modexps.value());
  c["crypto.paillier.mont_muls"] += static_cast<double>(k.mont_muls.value());
  c["crypto.pool.hits"] += static_cast<double>(k.pool_hits.value());
  c["crypto.pool.misses"] += static_cast<double>(k.pool_misses.value());
}

void add_live(Counters& c, const net::live::LiveStats& s) {
  c["net.live.frames_out"] += static_cast<double>(s.frames_out);
  c["net.live.bytes_out"] += static_cast<double>(s.bytes_out);
  c["net.live.coalesced_frames"] += static_cast<double>(s.coalesced_frames);
  c["net.live.backpressure_stalls"] +=
      static_cast<double>(s.backpressure_stalls);
}

// -- Workloads ------------------------------------------------------------------

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  bool tiny = false;
  std::size_t shards = 0;  // 0 = the plain single-queue engine
  std::size_t lanes = 1;   // executor lanes
};

/// What one cell (one grid, run to its target) produced.
struct Cell {
  Json facts = Json::object();  // outcome facts run.py checks
  double setup_s = 0.0;
  double run_s = 0.0;
  std::uint64_t messages = 0;
  std::uint64_t steps = 0;
  double recall = 0.0;
  double precision = 0.0;
};

/// Per-repetition context shared by the workloads.
struct RepContext {
  Tracer& tracer;
  LatencyTap& tap;
  bool traced;
  bool setup_only;
  Counters counters;
};

/// Step the protocol until `done(steps, recall)` says so: run_steps(1)
/// then the recall check, each under its own span.
template <class Grid, class Recall, class Done>
std::uint64_t run_until(Grid& grid, RepContext& ctx, Recall recall, Done done,
                        double* final_recall) {
  ScopedSpan span(ctx.tracer, "bench.run");
  std::uint64_t steps = 0;
  double r;
  {
    ScopedSpan s(ctx.tracer, "core.recall_eval");
    r = recall();
  }
  while (!done(steps, r)) {
    {
      ScopedSpan s(ctx.tracer, "core.run_steps");
      grid.run_steps(1);
    }
    ++steps;
    ScopedSpan s(ctx.tracer, "core.recall_eval");
    r = recall();
  }
  *final_recall = r;
  return steps;
}

// Every workload runs its figure experiment's own data, overlay and link
// delays; --seed draws the grid's secrets (the SecureGrid seed: Paillier
// key, share tables, per-resource randomness). The schedule depends on
// plaintexts only, so every seed must reproduce the figure's outcomes —
// which run.py checks. A seed that moved the schedule would make the
// exact metrics jump between seeds: recall moves in whole candidate
// periods on quest_arm (steps_to_recall 29 or 34), and a redrawn
// 16384-resource overlay changes the shard load balance (one overlay ran
// 25% slower at equal steps on four lanes).
std::uint64_t secrets_seed(std::uint64_t seed) { return splitmix64(seed); }

/// Figure 3's hand-built single-itemset environment, as generated by
/// bench/fig3_scalability: Barabási–Albert (or path) overlay, WAN-ish
/// delays, and Bernoulli(lambda * (1 + significance)) votes, half preloaded
/// and half streamed in. Sets *truth to whether the vote is frequent over
/// all data.
core::GridEnv single_itemset_env(std::size_t n, double significance,
                                 std::uint64_t seed, bool path_topology,
                                 Tracer& tracer, bool* truth) {
  constexpr std::size_t kLocal = 100;
  constexpr double kLambda = 0.5;
  Rng rng(seed);
  net::Graph overlay = [&] {
    ScopedSpan s(tracer, "net.topology");
    const net::Graph topology = (n > 3 && !path_topology)
                                    ? net::barabasi_albert(n, 2, rng)
                                    : net::path(n);
    return net::spanning_tree(topology, 0);
  }();
  core::GridEnv env{std::move(overlay),
                    net::LinkDelays(seed ^ 0xabcdef, 0.5, 2.0),
                    data::Database{},
                    {},
                    {}};
  const double p = kLambda * (1.0 + significance);
  data::TransactionId id = 0;
  std::uint64_t yes = 0;
  env.initial.reserve(n);
  env.arrivals.reserve(n);
  for (std::size_t u = 0; u < n; ++u) {
    data::Database part;
    std::vector<data::Transaction> stream;
    part.reserve(kLocal / 2);
    stream.reserve(kLocal - kLocal / 2);
    for (std::size_t i = 0; i < kLocal; ++i) {
      const bool vote = rng.bernoulli(p);
      yes += vote;
      const data::Transaction t{id++,
                                vote ? data::Itemset{0} : data::Itemset{1}};
      if (i < kLocal / 2) part.append(t);
      else stream.push_back(t);
    }
    env.initial.push_back(std::move(part));
    env.arrivals.push_back(std::move(stream));
  }
  *truth = static_cast<double>(yes) >= kLambda * static_cast<double>(id);
  return env;
}

/// The single-itemset grid knobs shared by scale_plain and live_paillier.
core::SecureGridConfig single_itemset_config(std::int64_t k) {
  core::SecureGridConfig cfg;
  cfg.env.quest.n_items = 2;  // item 0 = the vote, item 1 = filler
  cfg.secure.n_items = 1;     // vote only on candidate {} => {0}
  cfg.secure.min_freq = 0.5;
  cfg.secure.min_conf = 0.8;
  cfg.secure.k = k;
  cfg.secure.count_budget = 100;
  cfg.secure.candidate_period = 1;
  cfg.secure.arrivals_per_step = 1;
  return cfg;
}

/// Recall of a single-itemset grid: the share of resources whose output
/// answer matches the ground truth (Figure 3's definition).
template <class Grid>
double vote_recall(Grid& grid, bool truth) {
  const arm::Candidate vote = arm::frequency_candidate({0});
  std::size_t right = 0;
  for (net::NodeId u = 0; u < grid.size(); ++u)
    right += grid.resource(u).broker().output_answer(vote) == truth;
  return static_cast<double>(right) / static_cast<double>(grid.size());
}

arm::RuleSet vote_reference(bool truth) {
  arm::RuleSet ref;
  if (truth) ref.insert(arm::frequency_candidate({0}).rule);
  return ref;
}

// scale_plain: one Figure 3 cell — 98% recall on the sharded engine.
Cell scale_plain_cell(const Options& o, RepContext& ctx, std::size_t n,
                      double sig) {
  const std::uint64_t row_seed = 1000 + n;  // Figure 3's seed for row n
  Cell cell;
  const double t0 = now_s();
  const int setup_span = ctx.tracer.begin("bench.setup");
  std::unique_ptr<sim::Executor> pool;
  std::unique_ptr<core::SecureGrid> grid;
  bool truth = false;
  sim::EngineMetrics metrics;  // outlives the grid it may be attached to
  {
    core::SecureGridConfig cfg = single_itemset_config(10);
    cfg.env.n_resources = n;
    cfg.env.seed = secrets_seed(o.seed);
    cfg.shards = static_cast<int>(o.shards);
    pool = std::make_unique<sim::Executor>(o.lanes);
    cfg.executor = pool.get();
    cfg.trace = &ctx.tap;
    ctx.tap.reset();
    core::GridEnv env = [&] {
      ScopedSpan s(ctx.tracer, "data.env_build");
      return single_itemset_env(n, sig, row_seed, false, ctx.tracer, &truth);
    }();
    ScopedSpan s(ctx.tracer, "core.grid_ctor");
    grid = std::make_unique<core::SecureGrid>(cfg, std::move(env));
  }
  ctx.tracer.end(setup_span);
  cell.setup_s = now_s() - t0;
  if (ctx.setup_only) return cell;

  if (ctx.traced) grid->engine().attach_metrics(&metrics);
  ctx.tap.arm();
  const double t1 = now_s();
  cell.steps = run_until(
      *grid, ctx, [&] { return vote_recall(*grid, truth); },
      [](std::uint64_t steps, double r) { return r >= 0.98 || steps >= 400; },
      &cell.recall);
  {
    ScopedSpan s(ctx.tracer, "core.recall_eval");
    cell.precision = grid->average_precision(vote_reference(truth));
  }
  cell.run_s = now_s() - t1;
  cell.messages = grid->engine().messages_delivered();
  if (ctx.traced) {
    grid->engine().attach_metrics(nullptr);
    add_engine(ctx.counters, metrics);
    add_protocol(ctx.counters, *grid);
    add_executor(ctx.counters, *pool);
  }
  cell.facts.set("resources", n);
  cell.facts.set("significance", sig);
  cell.facts.set("steps_to_recall", cell.steps);
  cell.facts.set("converged", cell.recall >= 0.98);
  cell.facts.set("messages_delivered", cell.messages);
  cell.facts.set("recall", cell.recall);
  return cell;
}

std::vector<Cell> scale_plain(const Options& o, RepContext& ctx) {
  const std::size_t n = o.tiny ? 256 : 16384;
  std::vector<Cell> cells;
  for (double sig : {0.03, 0.10, 0.30})
    cells.push_back(scale_plain_cell(o, ctx, n, sig));
  return cells;
}

// quest_arm: Figure 4's T10I4 mining at k = 8 to 90% average recall.
std::vector<Cell> quest_arm(const Options& o, RepContext& ctx) {
  const std::size_t resources = o.tiny ? 16 : 64;
  const std::size_t local = o.tiny ? 100 : 400;
  Cell cell;
  const double t0 = now_s();
  const int setup_span = ctx.tracer.begin("bench.setup");
  core::SecureGridConfig cfg;
  cfg.env.n_resources = resources;
  cfg.env.seed = 4242;  // Figure 4's database, overlay and delays
  cfg.env.quest = data::QuestParams::preset("T10I4");
  cfg.env.quest.n_transactions = resources * local;
  cfg.env.quest.n_items = 100;
  cfg.env.quest.n_patterns = 40;
  cfg.env.delay_lo = 0.5;
  cfg.env.delay_hi = 2.0;
  cfg.secure.min_freq = 0.15;
  cfg.secure.min_conf = 0.8;
  cfg.secure.k = 8;
  cfg.secure.count_budget = 100;
  cfg.secure.candidate_period = 5;
  cfg.secure.arrivals_per_step = 0;
  cfg.attach_monitor = true;
  cfg.shards = 0;
  sim::Executor pool(o.lanes);
  cfg.executor = &pool;
  cfg.trace = &ctx.tap;
  ctx.tap.reset();
  sim::EngineMetrics metrics;  // outlives the grid it may be attached to
  core::GridEnv env = [&] {
    ScopedSpan s(ctx.tracer, "data.env_build");
    return core::make_grid_env(cfg.env);
  }();
  cfg.env.seed = secrets_seed(o.seed);
  std::unique_ptr<core::SecureGrid> grid;
  {
    ScopedSpan s(ctx.tracer, "core.grid_ctor");
    grid = std::make_unique<core::SecureGrid>(cfg, std::move(env));
  }
  arm::RuleSet reference;
  {
    ScopedSpan s(ctx.tracer, "arm.reference");
    reference = grid->env().reference({0.15, 0.8});
  }
  ctx.tracer.end(setup_span);
  cell.setup_s = now_s() - t0;
  if (ctx.setup_only) return {cell};

  if (ctx.traced) grid->engine().attach_metrics(&metrics);
  ctx.tap.arm();
  const double t1 = now_s();
  cell.steps = run_until(
      *grid, ctx, [&] { return grid->average_recall(reference); },
      [](std::uint64_t steps, double r) { return r >= 0.9 || steps >= 400; },
      &cell.recall);
  {
    ScopedSpan s(ctx.tracer, "core.recall_eval");
    cell.precision = grid->average_precision(reference);
  }
  cell.run_s = now_s() - t1;
  cell.messages = grid->engine().messages_delivered();
  if (ctx.traced) {
    grid->engine().attach_metrics(nullptr);
    add_engine(ctx.counters, metrics);
    add_protocol(ctx.counters, *grid);
    add_executor(ctx.counters, pool);
    ctx.counters["arm.reference_rules"] +=
        static_cast<double>(reference.size());
  }
  cell.facts.set("resources", resources);
  cell.facts.set("steps_to_recall", cell.steps);
  cell.facts.set("recall", cell.recall);
  cell.facts.set("precision", cell.precision);
  cell.facts.set("reference_rules", reference.size());
  cell.facts.set("monitor_violations", grid->monitor().violations().size());
  cell.facts.set("messages_delivered", cell.messages);
  return {cell};
}

// live_paillier: a secure single-itemset grid doing real Paillier work on
// every message, over Unix-domain sockets, for a fixed number of steps.
std::vector<Cell> live_paillier(const Options& o, RepContext& ctx) {
  const std::size_t resources = o.tiny ? 8 : 32;
  const std::uint64_t steps = o.tiny ? 8 : 10;
  Cell cell;
  const double t0 = now_s();
  const int setup_span = ctx.tracer.begin("bench.setup");
  core::SecureGridConfig cfg = single_itemset_config(4);
  cfg.env.n_resources = resources;
  const std::uint64_t env_seed = 2024;  // Figure 3's threads-sweep grid
  cfg.backend = hom::Backend::kPaillier;
  // Counters must fit the modulus: a path keeps every degree <= 2, which
  // 512 bits holds (Figure 3's threads sweep uses the same pairing).
  cfg.paillier_bits = 512;
  sim::Executor pool(o.lanes);
  cfg.executor = &pool;
  cfg.trace = &ctx.tap;
  ctx.tap.reset();
  bool truth = false;
  sim::EngineMetrics metrics;  // outlives the grid it may be attached to
  core::GridEnv env = [&] {
    ScopedSpan s(ctx.tracer, "data.env_build");
    return single_itemset_env(resources, 0.10, env_seed, true, ctx.tracer,
                              &truth);
  }();
  cfg.env.seed = secrets_seed(o.seed);
  std::unique_ptr<net::live::LiveGrid> live;
  {
    ScopedSpan s(ctx.tracer, "core.grid_ctor");
    live = std::make_unique<net::live::LiveGrid>(cfg, std::move(env));
  }
  ctx.tracer.end(setup_span);
  cell.setup_s = now_s() - t0;
  if (ctx.setup_only) return {cell};

  if (ctx.traced) live->engine().attach_metrics(&metrics);
  ctx.tap.arm();
  core::SecureGrid& grid = live->grid();
  std::uint64_t reached = 0;  // first step at the recall target, 0 = never
  const double t1 = now_s();
  run_until(
      *live, ctx, [&] { return vote_recall(grid, truth); },
      [&](std::uint64_t done, double r) {
        if (reached == 0 && done > 0 && r >= 0.98) reached = done;
        return done >= steps;
      },
      &cell.recall);
  {
    ScopedSpan s(ctx.tracer, "core.recall_eval");
    cell.precision = grid.average_precision(vote_reference(truth));
  }
  cell.run_s = now_s() - t1;
  cell.messages = grid.engine().messages_delivered();
  cell.steps = reached;
  const net::live::LiveStats& wire = live->transport().stats();
  if (ctx.traced) {
    live->engine().attach_metrics(nullptr);
    add_engine(ctx.counters, metrics);
    add_protocol(ctx.counters, grid);
    add_executor(ctx.counters, pool);
    add_live(ctx.counters, wire);
  }
  cell.facts.set("resources", resources);
  cell.facts.set("steps", steps);
  cell.facts.set("steps_to_recall", reached);
  cell.facts.set("recall", cell.recall);
  cell.facts.set("messages_delivered", cell.messages);
  cell.facts.set("frames_out", wire.frames_out);
  cell.facts.set("frames_in", wire.frames_in);
  cell.facts.set("bytes_out", wire.bytes_out);
  cell.facts.set("bytes_in", wire.bytes_in);
  cell.facts.set("in_flight", live->transport().in_flight());
  return {cell};
}

using Workload = std::vector<Cell> (*)(const Options&, RepContext&);

/// One repetition of the whole workload, summarized.
Json run_rep(const Options& o, Workload workload, Tracer& tracer,
             LatencyTap& tap, bool traced, bool setup_only) {
  tracer.enable(traced);
  RepContext ctx{tracer, tap, traced, setup_only, {}};
  obs::crypto_counters().reset();
  const std::vector<Cell> cells = workload(o, ctx);
  tracer.enable(false);

  Json rep = Json::object();
  double setup_s = 0.0, run_s = 0.0, recall = 0.0, precision = 0.0;
  std::uint64_t messages = 0, steps = 0;
  Json facts = Json::array();
  for (const Cell& c : cells) {
    setup_s += c.setup_s;
    run_s += c.run_s;
    messages += c.messages;
    steps += c.steps;
    recall += c.recall;
    precision += c.precision;
    facts.push_back(c.facts);
  }
  rep.set("traced", traced);
  rep.set("setup_s", setup_s);
  if (setup_only) return rep;
  const auto n = static_cast<double>(cells.size());
  rep.set("run_s", run_s);
  rep.set("messages", messages);
  rep.set("steps_to_recall", steps);
  rep.set("recall", recall / n);
  rep.set("precision", precision / n);
  rep.set("cells", std::move(facts));
  if (traced) {
    Counters& c = ctx.counters;
    add_crypto(c);
    c["crypto.modexps_per_msg"] =
        c["crypto.paillier.modexps"] / static_cast<double>(messages);
    const double takes = c["crypto.pool.hits"] + c["crypto.pool.misses"];
    c["crypto.pool.hit_ratio"] =
        takes > 0 ? c["crypto.pool.hits"] / takes : 0.0;
    c["core.grant_ratio"] =
        c["core.controller.sfe_sends"] > 0
            ? c["core.controller.sends_granted"] / c["core.controller.sfe_sends"]
            : 0.0;
    c["sim.events_per_s"] = c["sim.events_processed"] / run_s;
    c["net.live.bytes_per_frame"] =
        c["net.live.frames_out"] > 0
            ? c["net.live.bytes_out"] / c["net.live.frames_out"]
            : 0.0;
    Json counters = Json::object();
    for (const auto& [name, value] : c) counters.set(name, value);
    rep.set("counters", std::move(counters));
    rep.set("spans", tracer.take());
  }
  return rep;
}

std::size_t nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) == 0)
    return static_cast<std::size_t>(CPU_COUNT(&set));
  return sim::Executor::hardware_threads();
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line))
    if (line.rfind("VmHWM:", 0) == 0)
      return std::strtod(line.c_str() + 6, nullptr) * 1024.0 / 1e6;
  return 0.0;
}

}  // namespace

int main(int argc, char** argv) {
  // The benchmark fixes its own shard, lane and kernel choices; library
  // environment overrides must not leak in from the caller's shell.
  for (const char* var : {"KGRID_THREADS", "KGRID_SHARDS", "KGRID_BACKEND"})
    unsetenv(var);

  const Cli cli(argc, argv);
  Options o;
  o.workload = cli.get("workload", "");
  o.seed = static_cast<std::uint64_t>(cli.get_int("seed", 0));
  o.tiny = cli.get("size", "full") == "tiny";
  const double seconds = cli.get_double("seconds", 10.0);
  const bool trace = cli.get_int("trace", 0) != 0;
  const std::size_t cpus = nproc();
  const std::size_t max_threads = std::min<std::size_t>(4, cpus);

  // Executor lanes (--threads overrides): scale_plain runs its shards'
  // windows on one lane, as the committed Figure 3 artifact does — with
  // one lane per shard, every shard waits at each window barrier for the
  // slowest, and a burst of stolen CPU time doubled a run's run_s.
  // quest_arm is the unsharded, inline engine. live_paillier offloads each
  // resource's crypto to min(4, nproc) lanes.
  Workload workload = nullptr;
  std::uint64_t stride = 16;  // latency sample stride (see LatencyTap)
  std::size_t lanes = max_threads;
  if (o.workload == "scale_plain") {
    workload = scale_plain;
    o.shards = max_threads;
    lanes = 1;
  } else if (o.workload == "quest_arm") {
    workload = quest_arm;
    lanes = 1;
  } else if (o.workload == "live_paillier") {
    workload = live_paillier;
    stride = 1;
  } else {
    std::fprintf(stderr, "gridbench: unknown --workload '%s'\n",
                 o.workload.c_str());
    return 2;
  }
  o.lanes = static_cast<std::size_t>(
      cli.get_int("threads", static_cast<std::int64_t>(lanes)));

  Json out = Json::object();
  out.set("workload", o.workload);
  out.set("seed", o.seed);
  out.set("size", o.tiny ? "tiny" : "full");
  Json host = Json::object();
  host.set("nproc", cpus);
  host.set("fixword_backend",
           std::string(wide::fixword::active_backend().name()));
  host.set("build_type", GRIDBENCH_BUILD_TYPE);
  host.set("cxx_flags", GRIDBENCH_CXX_FLAGS);
  host.set("compiler", __VERSION__);
  host.set("shards", o.shards);
  host.set("threads", o.lanes);
  out.set("host", std::move(host));

  Tracer tracer;
  LatencyTap tap(stride);

  Json reps = Json::array();
  std::vector<double> setups;
  const double start = now_s();
  // Repeat while another repetition of the average length still fits the
  // budget, and at least twice (--trace=1 alternates untraced and traced,
  // so both see the same machine state). The floor, not the budget, sets
  // the length of a run whose repetitions take longer than half of it.
  for (std::size_t i = 0;; ++i) {
    const bool traced = trace && i % 2 == 1;
    const double elapsed = now_s() - start;
    const double per_rep = i > 0 ? elapsed / static_cast<double>(i) : 0.0;
    if (i >= 2 && elapsed + per_rep > seconds) break;
    Json rep = run_rep(o, workload, tracer, tap, traced, false);
    setups.push_back(rep.find("setup_s")->as_double());
    reps.push_back(std::move(rep));
  }
  // setup_s is a median of several set-ups even when few full repetitions
  // fit the budget.
  while (!trace && setups.size() < 5) {
    Json rep = run_rep(o, workload, tracer, tap, false, true);
    setups.push_back(rep.find("setup_s")->as_double());
  }
  out.set("reps", std::move(reps));
  Json setup_samples = Json::array();
  for (double s : setups) setup_samples.push_back(s);
  out.set("setup_samples", std::move(setup_samples));
  Json latency = Json::object();
  latency.set("count", tap.samples_ms().size());
  latency.set("p50", quantile(tap.samples_ms(), 0.50));
  latency.set("p99", quantile(tap.samples_ms(), 0.99));
  out.set("latency_ms", std::move(latency));
  out.set("peak_rss_mb", peak_rss_mb());
  std::printf("%s\n", out.dump().c_str());
  return 0;
}
