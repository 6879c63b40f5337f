// Deterministic discrete-event simulation engine.
//
// This is the substrate for the paper's evaluation: "we implemented a
// simulator capable of running thousands of simulated resources, connected
// via links with different propagation delays as in the real world" (§6).
//
// Entities exchange messages (delivered after a caller-chosen delay) and
// receive timers. Events with equal timestamps are processed in insertion
// order, so a run is a pure function of the initial state and the seeds —
// no wall-clock or thread nondeterminism can leak into measurements.
//
// Event path (sim/event_queue.hpp, sim/payload.hpp): messages carry a typed
// Payload variant over the protocol's closed message set and live in a
// slab-allocated pool with freelist recycling; the scheduler keeps messages
// in an adaptive calendar queue and timers in a hashed hierarchical timer
// wheel (sim/timer_wheel.hpp), merged at pop in exact (time, seq) order.
// tests/sim/reference_scheduler.hpp replays recorded schedules through a
// plain binary heap as the differential oracle for that order.
//
// Threading model (see docs/ARCHITECTURE.md for the full contract):
//
//   * The event loop is single-threaded. Every on_message/on_timer handler
//     and every offload apply-closure runs on the thread driving step()/
//     run_until() — entity state needs no locking from handlers.
//   * Handlers may push CPU-heavy, self-contained work (a resource's
//     per-step crypto) off the loop with offload(): the job runs on an
//     Executor worker, and the Apply closure it returns is the only part
//     that touches the engine (sending messages, scheduling timers). A job
//     must read/write only its own entity's state plus immutable or
//     internally synchronized shared state.
//   * Barrier rule: pending applies are resolved on the simulation thread,
//     in submission order, before (a) virtual time advances past the
//     submission tick, (b) any event is delivered to an entity with a job
//     in flight, (c) the loop reports an empty queue, or (d) run_until
//     returns. All four triggers are pure functions of the event queue, so
//     the merge points — and therefore seq assignment and the whole event
//     trace — are identical for every thread count, including 1. With no
//     executor attached (or a 1-lane executor) the job body runs inline at
//     offload() and only the apply is deferred, which is the exact same
//     schedule.
//
// Sharded parallel mode (docs/SHARDING.md for the full model and proof
// sketch): enable_sharding(N, lookahead) partitions entities across N
// per-shard event queues (lane_of(id) == id % N, each lane a full
// EventQueue: calendar queue plus timer wheel) and advances the shards in
// bounded time windows. Each window starts at the globally earliest
// pending event time W and runs every shard — in parallel on the attached
// executor — up to but not including W + lookahead. Because the lookahead
// is at most the topology's minimum link delay (net::LinkDelays::
// min_delay()), no shard can causally affect another inside a window:
// cross-shard sends always land at or beyond the horizon and are routed
// through per-shard-pair mailboxes, drained into the destination queues at
// the window barrier. At that barrier the per-shard dispatch logs are
// k-way merged in (time, seq) order on the driving thread, which assigns
// the final sequence numbers, emits the EventTap stream, and replays the
// metrics hooks — so the merged schedule, the ScheduleHasher value, and a
// recorded trace are bit-identical at every shard count (and every thread
// count). For workloads without offload() the sharded schedule equals the
// plain engine's; with offload() the job body and its Apply run inline on
// the shard (there is no global barrier a lane could defer to), which is a
// different — but internally consistent and shard-count-invariant —
// deterministic family. The default (no enable_sharding call) leaves the
// plain single-queue engine untouched.
//
// Instrumentation is opt-in: attach_metrics() hooks an EngineMetrics
// (sim/metrics.hpp) into the event loop for per-entity-class and
// per-message-type accounting; detached (the default), every hook is a
// single null-pointer test (the with_metrics helper). Queue and event-pool
// counters are tallied unconditionally (plain increments) and flushed to
// the attached metrics on destruction or via flush_stats().
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <span>
#include <typeinfo>
#include <vector>

#include "sim/event_queue.hpp"
#include "sim/executor.hpp"
#include "sim/metrics.hpp"
#include "sim/payload.hpp"
#include "sim/shard.hpp"
#include "util/check.hpp"

namespace kgrid::sim {

class Engine;

/// One event of the engine's schedule, as observed by an EventTap: the
/// payload-free coordinates that the determinism contract pins. Everything
/// here is reproduced bit for bit by a trace replay (sim/trace.hpp).
struct EventRecord {
  Time time = 0.0;     // delivery time
  Time sent_at = 0.0;  // push time (now() at send/schedule)
  std::uint64_t seq = 0;
  std::uint64_t timer_id = 0;
  EntityId from = 0;
  EntityId to = 0;
  EventKind kind = EventKind::kTimer;
};

/// Observation point for the engine's event schedule. Both hooks run on the
/// simulation thread (pushes happen from handlers, applies, or the driver;
/// dispatches from step()), so implementations need no locking.
/// sim/trace.hpp builds schedule recording and the golden event-order hash
/// on top of this interface.
class EventTap {
 public:
  virtual ~EventTap() = default;
  /// An event was pushed (send/schedule/replay_push), after seq assignment.
  virtual void on_push(const EventRecord& record) { (void)record; }
  /// An event was popped for dispatch — the (time, seq)-ordered stream.
  virtual void on_dispatch(const EventRecord& record) { (void)record; }
  /// A message is about to reach its recipient's handler. Unlike the hooks
  /// above, this one runs where the handler runs: on the simulation thread
  /// in plain and live mode, but on the recipient's shard lane in sharded
  /// mode, concurrently with the other lanes. Lanes own disjoint
  /// recipients, so a tap that writes only state kept per `to` needs no
  /// locking; per recipient, calls arrive in dispatch order.
  virtual void on_message(EntityId from, EntityId to, const Payload& payload) {
    (void)from;
    (void)to;
    (void)payload;
  }
};

/// Message carrier for live mode (net/live/transport.hpp; handbook:
/// docs/LIVE.md). When attached, Engine::send hands every message — after
/// sequence assignment, tap notification, and metrics, exactly as in plain
/// mode — to dispatch() instead of the local queue. The transport moves the
/// bytes (serialize, socket, deserialize) and re-injects each message via
/// Engine::transport_push with the record verbatim. Because the event queue
/// orders by (time, seq) and both stamps travel with the frame, the
/// dispatch order — and with it schedule hashes, mined rules, and
/// malicious-detection verdicts — is bit-identical to the engine-only run.
/// That is the sim-as-oracle argument: the wire changes how bytes move, not
/// what the schedule is.
class Transport {
 public:
  virtual ~Transport() = default;

  /// Carry one just-sent message. Must result in exactly one
  /// transport_push of the same record (and an equivalent payload) on the
  /// destination engine; until then the message counts as in flight.
  /// Runs on the simulation thread (send is handler-side) and may pump I/O
  /// internally under backpressure — which can deliver other frames into
  /// the queue mid-handler, a legal push like any other.
  virtual void dispatch(const EventRecord& record, Payload&& payload) = 0;

  /// Make I/O progress: flush pending writes, read and deliver arrived
  /// frames. `block` waits (bounded) for readiness; non-blocking pumps
  /// poll. Returns true when any frame was delivered.
  virtual bool pump(bool block) = 0;

  /// Messages accepted by dispatch() and not yet re-injected. The engine
  /// drains this to zero before every pop — the transport analogue of the
  /// offload barrier — so an in-flight frame can never be overtaken by a
  /// locally queued event that sorts after it.
  virtual std::uint64_t in_flight() const = 0;

  /// Called by Engine::attach_transport with the engine frames deliver
  /// into. Default no-op for transports bound out of band.
  virtual void on_attach(Engine& engine) { (void)engine; }
};

/// Base class for everything that lives on the simulated grid.
class Entity {
 public:
  virtual ~Entity() = default;

  /// A message from another entity arrived.
  virtual void on_message(Engine& engine, EntityId from, Payload& payload) = 0;

  /// A timer scheduled via Engine::schedule fired.
  virtual void on_timer(Engine& engine, std::uint64_t timer_id) {
    (void)engine;
    (void)timer_id;
  }
};

class Engine {
 public:
  /// What an offloaded job hands back: a closure the engine runs on the
  /// simulation thread at the barrier (sends, schedules, bookkeeping).
  using Apply = std::function<void(Engine&)>;
  /// An offloaded job: heavy computation, run off-loop, returning its Apply.
  using Job = std::function<Apply()>;

  Engine() = default;
  ~Engine() { flush_stats(); }

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Registers an entity; the engine does not own it (grid harnesses own
  /// their resources and typically outlive the engine). `kind` labels the
  /// entity's class for instrumentation ("secure_resource", ...); it must
  /// outlive the engine (pass a string literal).
  EntityId add_entity(Entity* entity, const char* kind = "entity") {
    entities_.push_back(entity);
    kinds_.push_back(kind);
    busy_.push_back(0);
    with_metrics([&](EngineMetrics& m) { m.on_entity(kind); });
    return static_cast<EntityId>(entities_.size() - 1);
  }

  /// Attach (or detach, with nullptr) instrumentation. Already-registered
  /// entities are reported to the new sink; event counts accumulate from
  /// the moment of attachment. Detaching flushes the queue/pool counters
  /// to the outgoing sink first.
  void attach_metrics(EngineMetrics* metrics) {
    if (metrics == nullptr) flush_stats();
    metrics_ = metrics;
    if (metrics_ != nullptr)
      for (const char* kind : kinds_) metrics_->on_entity(kind);
  }

  EngineMetrics* metrics() const { return metrics_; }

  /// Attach (or detach, with nullptr) the worker pool offload() submits
  /// jobs to. Detached, offload() runs jobs inline at submission — the
  /// deterministic reference schedule every thread count must reproduce.
  void attach_executor(Executor* executor) { executor_ = executor; }
  Executor* executor() const { return executor_; }

  /// Attach (or detach, with nullptr) a schedule observer. Detached (the
  /// default), each hook site is a single null-pointer test. A tap that
  /// records a schedule for replay must be attached before the first push
  /// (sequence numbers must start at zero — see Engine::replay_push).
  void attach_trace(EventTap* tap) { tap_ = tap; }
  EventTap* trace() const { return tap_; }

  /// Attach (or detach, with nullptr) a live transport: every subsequent
  /// send() travels through Transport::dispatch instead of the local queue
  /// (class comment above; docs/LIVE.md). Timers stay local — they are
  /// entity-private alarms, not network traffic. Mutually exclusive with
  /// sharded mode: shards own per-lane queues the transport cannot target.
  void attach_transport(Transport* transport) {
    KGRID_CHECK(transport == nullptr || !sharded(),
                "live transport is unavailable in sharded mode");
    transport_ = transport;
    if (transport_ != nullptr) transport_->on_attach(*this);
  }
  Transport* transport() const { return transport_; }

  /// Re-inject one transported message exactly as dispatched: the record
  /// travels verbatim (no new seq, no tap on_push — both fired at send
  /// time), the payload goes straight into its pooled event slot. Called by
  /// the transport from pump()/dispatch() on the simulation thread.
  void transport_push(const EventRecord& record, Payload&& payload) {
    KGRID_CHECK(record.to < entities_.size(), "transport push to unknown entity");
    queue_.push(record.time, record.seq, record.from, record.to, record.kind,
                record.timer_id, std::move(payload), record.sent_at);
  }

  /// Switch this engine into sharded parallel mode (header comment and
  /// docs/SHARDING.md): `shards` per-shard event queues advanced in
  /// conservative-lookahead windows, merged at window barriers. `lookahead`
  /// must be positive and no larger than the minimum cross-entity delivery
  /// delay of the workload (for a grid: net::LinkDelays::min_delay());
  /// cross-shard events under that horizon fail a KGRID_CHECK. Must be
  /// called on a fresh engine — before any send/schedule/replay_push — so
  /// sequence numbering starts at zero in sharded custody; entities may be
  /// registered before or after. Windows run in parallel when a multi-lane
  /// executor is attached, sequentially (same schedule) otherwise.
  void enable_sharding(std::size_t shards, Time lookahead) {
    KGRID_CHECK(shards >= 1, "shard count must be at least 1");
    KGRID_CHECK(lookahead > 0.0, "sharded mode needs a positive lookahead");
    KGRID_CHECK(lanes_.empty(), "sharding already enabled");
    KGRID_CHECK(transport_ == nullptr,
                "sharded mode is unavailable with a live transport");
    KGRID_CHECK(next_seq_ == 0 && queue_.empty() && pending_.empty(),
                "enable_sharding requires a fresh engine");
    lookahead_ = lookahead;
    lanes_.reserve(shards);
    for (std::size_t i = 0; i < shards; ++i) {
      lanes_.push_back(std::make_unique<Lane>(i));
      lanes_.back()->outbox.resize(shards);
    }
  }

  bool sharded() const { return !lanes_.empty(); }
  std::size_t shards() const { return lanes_.size(); }
  Time lookahead() const { return lookahead_; }
  const ShardStats& shard_stats() const { return shard_stats_; }

  Time now() const {
    if (const Lane* lane = current_lane()) return lane->now;
    return now_;
  }
  std::uint64_t messages_delivered() const { return messages_delivered_; }
  std::uint64_t messages_sent() const { return messages_sent_; }
  bool idle() const {
    if (sharded()) {
      // Outboxes drain at every window barrier, so between runs the lanes'
      // queues are the entire pending set.
      for (const auto& lane : lanes_)
        if (!lane->queue.empty()) return false;
      return true;
    }
    return queue_.empty() && pending_.empty() &&
           (transport_ == nullptr || transport_->in_flight() == 0);
  }

  const QueueStats& queue_stats() const { return queue_.stats(); }
  const EventPoolStats& event_pool_stats() const { return queue_.pool_stats(); }
  const TimerWheelStats& timer_wheel_stats() const {
    return queue_.wheel_stats();
  }

  /// Pre-size the event arenas for roughly `total` simultaneously pending
  /// events (split evenly across lanes in sharded mode). Grid harnesses
  /// call this with a topology-derived estimate so steady-state runs never
  /// demand-grow — EventPoolStats::overflow stays zero and check_bench_json
  /// stays quiet. Growth remains automatic (geometric) if the estimate is
  /// short.
  void reserve_events(std::size_t total) {
    if (sharded()) {
      const std::size_t per = (total + lanes_.size() - 1) / lanes_.size();
      for (const auto& lane : lanes_) lane->queue.reserve_pool(per);
    } else {
      queue_.reserve_pool(total);
    }
  }

  /// Queue a message for delivery `delay` time units from now. `payload`
  /// is a Payload or any message type Payload accepts, forwarded straight
  /// into the pooled event slot (zero intermediate copies or moves).
  template <class P = Payload>
  void send(EntityId from, EntityId to, Time delay, P&& payload = Payload()) {
    KGRID_CHECK(to < entities_.size(), "send to unknown entity");
    KGRID_CHECK(delay >= 0.0, "negative delay");
    if (Lane* lane = current_lane()) {
      lane_push(*lane,
                EventRecord{lane->now + delay, lane->now, 0, 0, from, to,
                            EventKind::kMessage},
                std::forward<P>(payload));
      return;
    }
    ++messages_sent_;
    const std::uint64_t seq = next_seq_++;
    const EventRecord rec{now_ + delay, now_,          seq, 0, from, to,
                          EventKind::kMessage};
    if (transport_ != nullptr) {
      // Live mode: same seq, tap, and metrics as the local path — only the
      // carrier differs. The frame re-enters via transport_push.
      if (tap_ != nullptr) tap_->on_push(rec);
      with_metrics([&](EngineMetrics& m) { m.on_send(kind_of(from)); });
      transport_->dispatch(rec, Payload(std::forward<P>(payload)));
      return;
    }
    target_queue(to).push(now_ + delay, seq, from, to, EventKind::kMessage, 0,
                          std::forward<P>(payload), now_);
    if (sharded()) ++live_events_;
    if (tap_ != nullptr) tap_->on_push(rec);
    with_metrics([&](EngineMetrics& m) {
      m.on_send(kind_of(from));
      m.on_queue_depth(pending_events());
    });
  }

  /// Queue a timer for `entity`, firing `delay` from now.
  void schedule(EntityId entity, Time delay, std::uint64_t timer_id) {
    KGRID_CHECK(entity < entities_.size(), "schedule for unknown entity");
    KGRID_CHECK(delay >= 0.0, "negative delay");
    if (Lane* lane = current_lane()) {
      lane_push(*lane,
                EventRecord{lane->now + delay, lane->now, 0, timer_id, entity,
                            entity, EventKind::kTimer},
                Payload());
      return;
    }
    const std::uint64_t seq = next_seq_++;
    target_queue(entity).push(now_ + delay, seq, entity, entity,
                              EventKind::kTimer, timer_id, Payload(), now_);
    if (sharded()) ++live_events_;
    if (tap_ != nullptr)
      tap_->on_push({now_ + delay, now_, seq, timer_id, entity, entity,
                     EventKind::kTimer});
    with_metrics([&](EngineMetrics& m) { m.on_queue_depth(pending_events()); });
  }

  /// Re-enqueue one recorded event exactly as originally pushed — the
  /// trace-replay path (sim/trace.hpp). Unlike send()/schedule(), the
  /// delivery time and sent_at stamp are taken verbatim from the record, so
  /// no floating-point round trip through a delay can perturb the schedule.
  /// Replays drive a fresh engine and inject pushes in recorded order, so
  /// the record's seq must equal the engine's next; messages carry an empty
  /// payload (payload bytes are not part of the schedule contract).
  void replay_push(const EventRecord& record) {
    KGRID_CHECK(record.to < entities_.size(), "replay to unknown entity");
    KGRID_CHECK(current_lane() == nullptr,
                "replay_push is a driver-side interface");
    KGRID_CHECK(record.seq == next_seq_, "replayed schedule out of order");
    KGRID_CHECK(record.time >= now_, "replayed event in the past");
    if (record.kind == EventKind::kMessage) ++messages_sent_;
    target_queue(record.to).push(record.time, next_seq_++, record.from,
                                 record.to, record.kind, record.timer_id,
                                 Payload(), record.sent_at);
    if (sharded()) ++live_events_;
    if (tap_ != nullptr) tap_->on_push(record);
    with_metrics([&](EngineMetrics& m) {
      if (record.kind == EventKind::kMessage) m.on_send(kind_of(record.from));
      m.on_queue_depth(pending_events());
    });
  }

  /// Submit a job on `entity`'s behalf. The job body runs on an executor
  /// worker (inline right here when no multi-lane executor is attached);
  /// the Apply it returns runs on the simulation thread at the next
  /// barrier, in submission order. The entity counts as busy until then:
  /// no event is delivered to it while its job is in flight.
  void offload(EntityId entity, Job job) {
    KGRID_CHECK(entity < entities_.size(), "offload for unknown entity");
    if (sharded()) {
      // Sharded mode: the job body and its Apply run inline, right here.
      // Shards cannot share the plain engine's global barrier (its triggers
      // read the whole queue), so deferring applies would make the schedule
      // depend on per-shard queue state — i.e. on the shard count. Inline
      // resolution keeps the schedule a pure function of the merged event
      // order at every shard and thread count; it is a different family
      // than the plain engine's deferred-apply schedule (header comment).
      if (Lane* lane = current_lane()) {
        lane->offload_log.push_back(entity);
      } else {
        with_metrics([&](EngineMetrics& m) { m.on_offload(kind_of(entity)); });
      }
      Apply apply = job();
      if (apply) apply(*this);
      return;
    }
    Pending p;
    p.entity = entity;
    if (executor_ != nullptr && executor_->threads() > 1) {
      auto slot = std::make_shared<Apply>();
      p.result = slot;
      p.ticket = executor_->submit(
          [job = std::move(job), slot] { *slot = job(); });
    } else {
      p.apply = job();
    }
    ++busy_[entity];
    pending_.push_back(std::move(p));
    with_metrics([&](EngineMetrics& m) { m.on_offload(kind_of(entity)); });
  }

  /// Process a single event. Returns false if nothing is left to do.
  /// Plain mode only: sharded mode advances whole windows, not events —
  /// use run_until / run_to_quiescence.
  bool step() {
    KGRID_CHECK(!sharded(), "step() is unavailable in sharded mode");
    // Transport barrier: every in-flight frame lands before the next pop,
    // so a frame can never be overtaken by a locally queued event that
    // sorts after it. Then the offload barrier, triggers (a)-(c): next
    // event would advance time past the submission tick, or targets a busy
    // entity, or the queue is empty. resolve_pending() may enqueue events
    // and further jobs — and its applies may send through the transport —
    // so both barriers re-check until quiescent.
    for (;;) {
      drain_transport();
      if (!pending_.empty() &&
          (queue_.empty() || queue_.top_time() > now_ ||
           busy_[queue_.top_to()] > 0)) {
        resolve_pending();
        continue;
      }
      break;
    }
    if (queue_.empty()) return false;
    // Zero-copy delivery: the payload is dispatched by reference from its
    // pool slot; the slot is recycled only after the handler returns (so
    // handlers can push new events without invalidating it).
    const EventQueue::Popped ev = queue_.pop();
    if (tap_ != nullptr)
      tap_->on_dispatch({ev.time, ev.sent_at, ev.seq, ev.timer_id, ev.from,
                         ev.to, ev.kind});
    with_metrics([&](EngineMetrics& m) { m.advance_time(ev.time - now_); });
    now_ = ev.time;
    Entity* target = entities_[ev.to];
    if (ev.kind == EventKind::kMessage) {
      ++messages_delivered_;
      with_metrics([&](EngineMetrics& m) {
        m.on_deliver(kinds_[ev.to], ev.payload->type(), ev.time - ev.sent_at);
      });
      if (tap_ != nullptr) tap_->on_message(ev.from, ev.to, *ev.payload);
      target->on_message(*this, ev.from, *ev.payload);
    } else {
      with_metrics([&](EngineMetrics& m) { m.on_timer_fired(kinds_[ev.to]); });
      target->on_timer(*this, ev.timer_id);
    }
    queue_.finish(ev);
    return true;
  }

  /// Process every event with time <= deadline (events spawned during the
  /// run are included if they fall inside the deadline). Barrier trigger
  /// (d): every pending job is resolved before this returns, so callers
  /// always observe quiesced entity state.
  void run_until(Time deadline) {
    if (sharded()) {
      for (;;) {
        const Time start = earliest_pending();
        if (!(start <= deadline)) break;  // also breaks on no pending (inf)
        run_window(start, deadline);
      }
    } else {
      for (;;) {
        while (!queue_.empty() && queue_.top_time() <= deadline) step();
        if (transport_ != nullptr && transport_->in_flight() > 0) {
          drain_transport();  // may land events inside the deadline
          continue;
        }
        if (pending_.empty()) break;
        resolve_pending();  // may enqueue events inside the deadline
      }
    }
    with_metrics([&](EngineMetrics& m) {
      if (deadline > now_) m.advance_time(deadline - now_);
    });
    now_ = std::max(now_, deadline);
  }

  /// Drain the queue completely (for protocols that quiesce).
  /// `max_events` guards against livelock in tests.
  std::uint64_t run_to_quiescence(std::uint64_t max_events) {
    std::uint64_t processed = 0;
    if (sharded()) {
      for (;;) {
        const Time start = earliest_pending();
        if (start == std::numeric_limits<Time>::infinity()) break;
        KGRID_CHECK(processed < max_events,
                    "run_to_quiescence exceeded budget");
        processed += run_window(start, std::numeric_limits<Time>::infinity());
      }
      return processed;
    }
    while (!idle()) {
      KGRID_CHECK(processed < max_events, "run_to_quiescence exceeded budget");
      if (!step()) break;
      ++processed;
    }
    return processed;
  }

  /// Push the queue/event-pool counters accumulated since the last flush
  /// into the attached metrics (no-op when detached). Called automatically
  /// on destruction, so benches that destroy engines before writing their
  /// artifact need no explicit call; tests that read the metrics while the
  /// engine is alive call this directly.
  void flush_stats() {
    if (metrics_ == nullptr) return;
    if (sharded()) {
      // Lane counters aggregate: pushes/pops/resizes and pool traffic sum
      // across shards (so the totals match a plain run of the same
      // schedule); depth high-water marks are per-shard maxima, not a
      // global queue depth (docs/METRICS.md, sharded note).
      QueueStats dq;
      EventPoolStats dp;
      TimerWheelStats dw;
      for (const auto& lp : lanes_) {
        Lane& lane = *lp;
        const QueueStats& q = lane.queue.stats();
        const EventPoolStats& p = lane.queue.pool_stats();
        const TimerWheelStats& w = lane.queue.wheel_stats();
        dq.pushes += q.pushes - lane.flushed_queue.pushes;
        dq.pops += q.pops - lane.flushed_queue.pops;
        dq.resizes += q.resizes - lane.flushed_queue.resizes;
        dq.max_depth = std::max(dq.max_depth, q.max_depth);
        dp.acquired += p.acquired - lane.flushed_pool.acquired;
        dp.released += p.released - lane.flushed_pool.released;
        dp.overflow += p.overflow - lane.flushed_pool.overflow;
        dp.max_in_use = std::max(dp.max_in_use, p.max_in_use);
        dp.slots += p.slots;
        dw.scheduled += w.scheduled - lane.flushed_wheel.scheduled;
        dw.fired += w.fired - lane.flushed_wheel.fired;
        dw.cascades += w.cascades - lane.flushed_wheel.cascades;
        dw.far_events += w.far_events - lane.flushed_wheel.far_events;
        dw.rebuilds += w.rebuilds - lane.flushed_wheel.rebuilds;
        dw.max_pending = std::max(dw.max_pending, w.max_pending);
        lane.flushed_queue = q;
        lane.flushed_pool = p;
        lane.flushed_wheel = w;
      }
      metrics_->on_engine_stats(dq, dp, dw, !stats_flushed_);
      metrics_->on_shard_stats(
          lanes_.size(),
          ShardStats{shard_stats_.windows - flushed_shard_.windows,
                     shard_stats_.mailbox_events - flushed_shard_.mailbox_events,
                     shard_stats_.max_skew});
      stats_flushed_ = true;
      flushed_shard_ = shard_stats_;
      return;
    }
    const QueueStats& q = queue_.stats();
    const EventPoolStats& p = queue_.pool_stats();
    const TimerWheelStats& w = queue_.wheel_stats();
    QueueStats dq{q.pushes - flushed_queue_.pushes, q.pops - flushed_queue_.pops,
                  q.resizes - flushed_queue_.resizes, q.max_depth};
    EventPoolStats dp{p.acquired - flushed_pool_.acquired,
                      p.released - flushed_pool_.released,
                      p.overflow - flushed_pool_.overflow, p.max_in_use,
                      p.slots};
    TimerWheelStats dw{w.scheduled - flushed_wheel_.scheduled,
                       w.fired - flushed_wheel_.fired,
                       w.cascades - flushed_wheel_.cascades,
                       w.far_events - flushed_wheel_.far_events,
                       w.rebuilds - flushed_wheel_.rebuilds, w.max_pending};
    metrics_->on_engine_stats(dq, dp, dw, !stats_flushed_);
    stats_flushed_ = true;
    flushed_queue_ = q;
    flushed_pool_ = p;
    flushed_wheel_ = w;
  }

 private:
  /// One offloaded job awaiting its barrier. Exactly one of `apply`
  /// (inline mode) or `result` (worker mode) carries the Apply.
  struct Pending {
    EntityId entity = 0;
    Apply apply;
    std::shared_ptr<Apply> result;
    Executor::Ticket ticket;
  };

  /// The transport barrier body: pump until nothing is in flight. The
  /// transport's pump() is responsible for bounded blocking (and for
  /// failing loudly when a peer stops making progress), so this loop
  /// terminates for any healthy wire.
  void drain_transport() {
    if (transport_ == nullptr) return;
    while (transport_->in_flight() > 0) transport_->pump(true);
  }

  /// Run every pending Apply in submission order (waiting out in-flight
  /// jobs first). Applies may send, schedule, and offload again; newly
  /// offloaded jobs are appended and resolved in this same pass.
  void resolve_pending() {
    for (std::size_t i = 0; i < pending_.size(); ++i) {
      Pending p = std::move(pending_[i]);  // applies may grow pending_
      Apply apply;
      if (p.result != nullptr) {
        executor_->wait(p.ticket);
        apply = std::move(*p.result);
      } else {
        apply = std::move(p.apply);
      }
      KGRID_CHECK(busy_[p.entity] > 0, "pending/busy accounting mismatch");
      --busy_[p.entity];
      if (apply) apply(*this);
    }
    pending_.clear();
  }

  // ---- Sharded mode (docs/SHARDING.md) ----------------------------------
  //
  // Per-shard state. During a window, a lane is touched only by the one
  // thread executing it (entities_/kinds_ and the window bounds are
  // read-only then); between windows, only the driving thread touches
  // anything. That ownership discipline is the whole synchronization story
  // — no locks, no atomics, TSan-clean by construction.

  // A deferred event parked in a per-shard-pair mailbox until the window
  // barrier — everything at or beyond the lookahead horizon, plus every
  // cross-shard delivery — is a fully materialized sim::Event: its seq is
  // stamped with the final sequence number during the barrier merge, then
  // the whole mailbox drains into the destination queue as one
  // EventQueue::push_batch (one arena acquire_run for the run, payloads
  // moved straight into their slots).

  /// One push issued during a lane's window, in handler order. Local pushes
  /// under the horizon carry a provisional seq (>= seq_base_) and already
  /// sit in the lane's queue; deferred pushes reference their mailbox slot.
  struct LanePush {
    EventRecord rec;
    std::uint32_t dst = 0;   // destination lane (deferred only)
    std::uint32_t slot = 0;  // index into outbox[dst] (deferred only)
    bool deferred = false;
  };

  /// One dispatch of a lane's window: the record as popped (seq possibly
  /// provisional), the payload's dynamic type for the metrics replay, and
  /// the half-open ranges of pushes/offloads its handler issued.
  struct LaneDispatch {
    EventRecord rec;
    const std::type_info* payload_type = nullptr;  // messages only
    std::uint32_t push_begin = 0;
    std::uint32_t push_end = 0;
    std::uint32_t offload_begin = 0;
    std::uint32_t offload_end = 0;
  };

  struct Lane {
    explicit Lane(std::size_t idx) : index(idx) {}
    EventQueue queue;
    std::size_t index;
    Time now = 0.0;
    std::uint64_t provisionals = 0;  // provisional seqs handed out this window
    std::vector<LaneDispatch> dispatch_log;
    std::vector<LanePush> push_log;
    std::vector<EntityId> offload_log;
    std::vector<std::vector<Event>> outbox;  // per destination lane
    std::vector<std::uint64_t> concrete;  // provisional -> final seq (merge)
    std::size_t merge_next = 0;           // merge cursor into dispatch_log
    QueueStats flushed_queue;             // flush_stats delta snapshots
    EventPoolStats flushed_pool;
    TimerWheelStats flushed_wheel;
  };

  static constexpr std::uint64_t kUnresolved = ~std::uint64_t{0};

  /// The lane this thread is currently executing a window for, or null on
  /// the driver side (between windows, or plain mode). Keyed by engine so
  /// an entity driving a second engine from a handler cannot cross wires.
  Lane* current_lane() const {
    return tl_engine_ == this ? tl_lane_ : nullptr;
  }

  std::size_t lane_of(EntityId id) const { return id % lanes_.size(); }

  EventQueue& target_queue(EntityId to) {
    return sharded() ? lanes_[lane_of(to)]->queue : queue_;
  }

  /// The pending-event count on_queue_depth reports: the single queue's
  /// size in plain mode, the merge-maintained live-event count in sharded
  /// mode (identical trajectory — see merge_entry).
  std::size_t pending_events() const {
    return sharded() ? static_cast<std::size_t>(live_events_) : queue_.size();
  }

  Time earliest_pending() const {
    Time start = std::numeric_limits<Time>::infinity();
    for (const auto& lane : lanes_)
      if (!lane->queue.empty())
        start = std::min(start, lane->queue.top_time());
    return start;
  }

  /// A push issued from inside a lane's window. Local pushes under the
  /// horizon go straight into the lane's queue under a provisional seq
  /// (seq_base_ + n: above every final seq assigned so far, and resolved to
  /// ascending final seqs in this order, so the queue's (time, seq) order
  /// already equals the final order). Everything else is deferred to a
  /// mailbox; cross-shard deliveries must sit at or beyond the horizon —
  /// that is exactly the conservative-lookahead contract.
  template <class P>
  void lane_push(Lane& lane, EventRecord rec, P&& payload) {
    const std::size_t dst = lane_of(rec.to);
    if (dst == lane.index && rec.time < window_end_) {
      rec.seq = seq_base_ + lane.provisionals++;
      lane.queue.push(rec.time, rec.seq, rec.from, rec.to, rec.kind,
                      rec.timer_id, std::forward<P>(payload), rec.sent_at);
      lane.push_log.push_back(LanePush{rec, 0, 0, false});
    } else {
      KGRID_CHECK(dst == lane.index || rec.time >= window_end_,
                  "cross-shard event under the lookahead horizon");
      auto& box = lane.outbox[dst];
      lane.push_log.push_back(LanePush{rec, static_cast<std::uint32_t>(dst),
                                       static_cast<std::uint32_t>(box.size()),
                                       true});
      box.push_back(Event{rec.time, rec.sent_at, rec.seq, rec.timer_id,
                          rec.from, rec.to, rec.kind,
                          Payload(std::forward<P>(payload))});
      // Cross-shard handoff re-materializes value semantics: the receiving
      // shard must never share a copy-on-write message body with the
      // sender's shard (the body's lazily cached Paillier form is mutated
      // without synchronization — crypto/hom.hpp).
      if (dst != lane.index) box.back().payload.detach();
    }
  }

  /// One event of a lane's window: pop, log, advance lane time, dispatch.
  /// No metrics, no shared counters, and no tap beyond the per-recipient
  /// on_message — the rest is replayed in merged order at the barrier.
  void lane_step(Lane& lane) {
    const EventQueue::Popped ev = lane.queue.pop();
    lane.dispatch_log.push_back(LaneDispatch{
        {ev.time, ev.sent_at, ev.seq, ev.timer_id, ev.from, ev.to, ev.kind},
        ev.kind == EventKind::kMessage ? &ev.payload->type() : nullptr,
        static_cast<std::uint32_t>(lane.push_log.size()), 0,
        static_cast<std::uint32_t>(lane.offload_log.size()), 0});
    const std::size_t entry = lane.dispatch_log.size() - 1;
    lane.now = ev.time;
    Entity* target = entities_[ev.to];
    if (ev.kind == EventKind::kMessage) {
      if (tap_ != nullptr) tap_->on_message(ev.from, ev.to, *ev.payload);
      target->on_message(*this, ev.from, *ev.payload);
    } else {
      target->on_timer(*this, ev.timer_id);
    }
    lane.dispatch_log[entry].push_end =
        static_cast<std::uint32_t>(lane.push_log.size());
    lane.dispatch_log[entry].offload_end =
        static_cast<std::uint32_t>(lane.offload_log.size());
    lane.queue.finish(ev);
  }

  /// One lookahead window: every shard runs [start, start + lookahead_) —
  /// in parallel when a multi-lane executor is attached — then the driver
  /// merges the logs at the barrier. Returns the events dispatched.
  std::uint64_t run_window(Time start, Time deadline) {
    window_end_ = start + lookahead_;
    seq_base_ = next_seq_;
    const auto body = [this, deadline](std::size_t li) {
      Lane& lane = *lanes_[li];
      // Nested crypto batches from this lane must not enqueue helper tasks
      // behind the other lanes' window tasks.
      Executor::ScopedWorker nested_inline;
      tl_engine_ = this;
      tl_lane_ = &lane;
      while (!lane.queue.empty() && lane.queue.top_time() < window_end_ &&
             lane.queue.top_time() <= deadline)
        lane_step(lane);
      tl_lane_ = nullptr;
      tl_engine_ = nullptr;
    };
    if (executor_ != nullptr && executor_->threads() > 1 && lanes_.size() > 1)
      executor_->parallel_for(lanes_.size(), body);
    else
      for (std::size_t i = 0; i < lanes_.size(); ++i) body(i);
    std::uint64_t dispatched = 0;
    for (const auto& lane : lanes_) dispatched += lane->dispatch_log.size();
    merge_window();
    return dispatched;
  }

  /// A provisional seq resolves through its lane's merge-time table; final
  /// seqs pass through. A lane head is always resolvable: the event's
  /// parent dispatch is earlier in the *same* lane's log, hence already
  /// merged and its pushes already numbered.
  std::uint64_t resolved_seq(const Lane& lane, std::uint64_t seq) const {
    if (seq < seq_base_) return seq;
    const std::uint64_t i = seq - seq_base_;
    KGRID_CHECK(i < lane.concrete.size() && lane.concrete[i] != kUnresolved,
                "provisional seq resolved before its parent merged");
    return lane.concrete[i];
  }

  /// The window barrier: k-way merge of the per-lane dispatch logs in
  /// (time, final seq) order, replaying the tap and metrics stream and
  /// assigning final sequence numbers push by push — exactly the sequence a
  /// single-queue engine executing the merged schedule would have produced.
  /// Then the mailboxes (every entry now carrying its final seq) drain into
  /// their destination queues, invisible to the tap (their on_push fired
  /// during the merge, at its in-handler position).
  void merge_window() {
    std::uint64_t min_d = ~std::uint64_t{0};
    std::uint64_t max_d = 0;
    for (const auto& lp : lanes_) {
      Lane& lane = *lp;
      lane.merge_next = 0;
      lane.concrete.assign(lane.provisionals, kUnresolved);
      const auto d = static_cast<std::uint64_t>(lane.dispatch_log.size());
      min_d = std::min(min_d, d);
      max_d = std::max(max_d, d);
    }
    for (;;) {
      Lane* best = nullptr;
      Time best_time = 0.0;
      std::uint64_t best_seq = 0;
      for (const auto& lp : lanes_) {
        Lane& lane = *lp;
        if (lane.merge_next >= lane.dispatch_log.size()) continue;
        const EventRecord& r = lane.dispatch_log[lane.merge_next].rec;
        const std::uint64_t rs = resolved_seq(lane, r.seq);
        if (best == nullptr || r.time < best_time ||
            (r.time == best_time && rs < best_seq)) {
          best = &lane;
          best_time = r.time;
          best_seq = rs;
        }
      }
      if (best == nullptr) break;
      merge_entry(*best, best_seq);
      ++best->merge_next;
    }
    for (const auto& src : lanes_) {
      for (std::size_t d = 0; d < lanes_.size(); ++d) {
        lanes_[d]->queue.push_batch(std::span<Event>(src->outbox[d]));
        src->outbox[d].clear();
      }
    }
    ++shard_stats_.windows;
    shard_stats_.max_skew = std::max(shard_stats_.max_skew, max_d - min_d);
    for (const auto& lp : lanes_) {
      Lane& lane = *lp;
      lane.dispatch_log.clear();
      lane.push_log.clear();
      lane.offload_log.clear();
      lane.provisionals = 0;
    }
  }

  /// Replay one merged dispatch on the driver: tap + metrics exactly as the
  /// plain engine's step() would have emitted them, then its handler's
  /// pushes in call order (assigning final seqs, which is what makes the
  /// merged order shard-count-invariant), then its offload tallies.
  void merge_entry(Lane& lane, std::uint64_t seq) {
    const LaneDispatch& d = lane.dispatch_log[lane.merge_next];
    EventRecord rec = d.rec;
    rec.seq = seq;
    if (tap_ != nullptr) tap_->on_dispatch(rec);
    with_metrics([&](EngineMetrics& m) { m.advance_time(rec.time - now_); });
    now_ = rec.time;  // merged dispatch times are nondecreasing
    --live_events_;
    if (rec.kind == EventKind::kMessage) {
      ++messages_delivered_;
      with_metrics([&](EngineMetrics& m) {
        m.on_deliver(kinds_[rec.to], *d.payload_type, rec.time - rec.sent_at);
      });
    } else {
      with_metrics([&](EngineMetrics& m) { m.on_timer_fired(kinds_[rec.to]); });
    }
    for (std::uint32_t i = d.push_begin; i < d.push_end; ++i) {
      LanePush& p = lane.push_log[i];
      const std::uint64_t final_seq = next_seq_++;
      if (p.deferred)
        lane.outbox[p.dst][p.slot].seq = final_seq;
      else
        lane.concrete[p.rec.seq - seq_base_] = final_seq;
      p.rec.seq = final_seq;
      if (p.rec.kind == EventKind::kMessage) ++messages_sent_;
      ++live_events_;
      if (p.deferred && p.dst != lane.index) ++shard_stats_.mailbox_events;
      if (tap_ != nullptr) tap_->on_push(p.rec);
      with_metrics([&](EngineMetrics& m) {
        if (p.rec.kind == EventKind::kMessage) m.on_send(kind_of(p.rec.from));
        m.on_queue_depth(pending_events());
      });
    }
    for (std::uint32_t i = d.offload_begin; i < d.offload_end; ++i)
      with_metrics([&](EngineMetrics& m) {
        m.on_offload(kind_of(lane.offload_log[i]));
      });
  }

  /// The attached-metrics guard: every instrumentation hook funnels through
  /// here so the detached cost stays one null test.
  template <class Fn>
  void with_metrics(Fn&& fn) {
    if (metrics_ != nullptr) fn(*metrics_);
  }

  /// Kind label for a sender id; test harnesses send with ids that were
  /// never registered ("from the outside"), which we label as external.
  const char* kind_of(EntityId id) const {
    return id < kinds_.size() ? kinds_[id] : "external";
  }

  std::vector<Entity*> entities_;
  std::vector<const char*> kinds_;
  std::vector<std::uint32_t> busy_;  // in-flight offload jobs per entity
  EventQueue queue_;
  std::vector<Pending> pending_;  // submission-order apply queue
  Time now_ = 0.0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t messages_delivered_ = 0;
  std::uint64_t messages_sent_ = 0;
  EngineMetrics* metrics_ = nullptr;
  Executor* executor_ = nullptr;
  EventTap* tap_ = nullptr;
  Transport* transport_ = nullptr;
  bool stats_flushed_ = false;    // this engine already counted in "engines"
  QueueStats flushed_queue_;      // snapshot at last flush (delta reporting)
  EventPoolStats flushed_pool_;
  TimerWheelStats flushed_wheel_;

  // Sharded mode (empty lanes_ == plain single-queue engine).
  std::vector<std::unique_ptr<Lane>> lanes_;
  Time lookahead_ = 0.0;
  Time window_end_ = 0.0;     // current window's horizon (driver-written)
  std::uint64_t seq_base_ = 0;  // final seqs < this; provisionals >= this
  std::uint64_t live_events_ = 0;  // merge-maintained pending-event count
  ShardStats shard_stats_;
  ShardStats flushed_shard_;  // snapshot at last flush (delta reporting)
  // Which lane (of which engine) this thread is currently executing.
  inline static thread_local Engine* tl_engine_ = nullptr;
  inline static thread_local Lane* tl_lane_ = nullptr;
};

}  // namespace kgrid::sim
