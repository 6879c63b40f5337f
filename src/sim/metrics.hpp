// Opt-in instrumentation for sim::Engine (docs/METRICS.md).
//
// The engine runs uninstrumented by default (a null-pointer check per
// event); attaching an EngineMetrics turns on:
//   * per-entity-class accounting — every add_entity() call carries a kind
//     label ("secure_resource", "baseline_resource", ...), and sends,
//     deliveries, and timer firings are tallied per kind;
//   * per-message-type delivery counts and delivery-delay histograms,
//     keyed by the demangled payload type (SecureRuleMessage,
//     MaliciousReport, ...);
//   * event-queue depth high-water mark and total simulated time processed.
//
// One EngineMetrics may be attached to several engines in sequence (the
// figure benches sweep configurations, each with a fresh engine); counts and
// simulated time accumulate. All state is a pure function of the simulated
// event sequence, so two identical seeded runs export identical JSON.
#pragma once

#include <cxxabi.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <map>
#include <string>
#include <string_view>
#include <typeindex>
#include <typeinfo>
#include <unordered_map>

#include "obs/json.hpp"
#include "obs/latency_hist.hpp"
#include "obs/metrics.hpp"
#include "sim/event_queue.hpp"
#include "sim/shard.hpp"

namespace kgrid::sim {

class EngineMetrics {
 public:
  struct KindStats {
    std::uint64_t entities = 0;
    std::uint64_t sent = 0;
    std::uint64_t delivered = 0;
    std::uint64_t timers = 0;
    std::uint64_t offloaded = 0;
  };

  // -- Hooks called by Engine (only when attached) --

  void on_entity(std::string_view kind) { ++kinds(kind).entities; }
  void on_send(std::string_view kind) { ++kinds(kind).sent; }
  void on_offload(std::string_view kind) { ++kinds(kind).offloaded; }
  void on_timer_fired(std::string_view kind) {
    ++kinds(kind).timers;
    ++events_;
  }

  void on_deliver(std::string_view kind, const std::type_info& payload_type,
                  double delay) {
    ++kinds(kind).delivered;
    ++events_;
    TypeStats& type = type_stats(payload_type);
    ++type.delivered;
    type.delay.add(delay);
  }

  void on_queue_depth(std::size_t depth) {
    if (depth > max_queue_depth_) max_queue_depth_ = depth;
  }

  /// Engine::flush_stats() pushes the queue/event-pool/timer-wheel counters
  /// here as deltas since the previous flush (so repeated flushes never
  /// double count); maxima merge by max. `first_flush` is true the first
  /// time a given engine reports, which is when it joins the `engines`
  /// count.
  void on_engine_stats(const QueueStats& queue, const EventPoolStats& pool,
                       const TimerWheelStats& wheel, bool first_flush) {
    if (first_flush) ++queue_engines_;
    queue_.pushes += queue.pushes;
    queue_.pops += queue.pops;
    queue_.resizes += queue.resizes;
    queue_.max_depth = std::max(queue_.max_depth, queue.max_depth);
    pool_.acquired += pool.acquired;
    pool_.released += pool.released;
    pool_.overflow += pool.overflow;
    pool_.max_in_use = std::max(pool_.max_in_use, pool.max_in_use);
    pool_.slots = std::max(pool_.slots, pool.slots);
    wheel_.scheduled += wheel.scheduled;
    wheel_.fired += wheel.fired;
    wheel_.cascades += wheel.cascades;
    wheel_.far_events += wheel.far_events;
    wheel_.rebuilds += wheel.rebuilds;
    wheel_.max_pending = std::max(wheel_.max_pending, wheel.max_pending);
  }

  /// Engine::flush_stats() pushes sharded-mode counters here the same way:
  /// window and mailbox counts as deltas, the skew high-water by max. The
  /// shard count merges by max (a sweep over shard counts reports the
  /// largest); zero calls leave the sim.shard JSON section absent entirely.
  void on_shard_stats(std::uint64_t shards, const ShardStats& delta) {
    shards_ = std::max(shards_, shards);
    shard_.windows += delta.windows;
    shard_.mailbox_events += delta.mailbox_events;
    shard_.max_skew = std::max(shard_.max_skew, delta.max_skew);
  }

  void advance_time(double dt) { sim_time_ += dt; }

  // -- Read side --

  double sim_time() const { return sim_time_; }
  std::uint64_t events_processed() const { return events_; }
  std::uint64_t max_queue_depth() const { return max_queue_depth_; }
  const QueueStats& queue_stats() const { return queue_; }
  const EventPoolStats& event_pool_stats() const { return pool_; }
  std::uint64_t shards() const { return shards_; }
  const ShardStats& shard_stats() const { return shard_; }
  const TimerWheelStats& timer_wheel_stats() const { return wheel_; }
  const std::map<std::string, KindStats, std::less<>>& by_kind() const {
    return kinds_;
  }

  std::uint64_t total_sent() const {
    std::uint64_t n = 0;
    for (const auto& [kind, stats] : kinds_) n += stats.sent;
    return n;
  }

  std::uint64_t total_delivered() const {
    std::uint64_t n = 0;
    for (const auto& [kind, stats] : kinds_) n += stats.delivered;
    return n;
  }

  std::uint64_t total_timers() const {
    std::uint64_t n = 0;
    for (const auto& [kind, stats] : kinds_) n += stats.timers;
    return n;
  }

  /// The "sim" section of the bench envelope (schema in docs/METRICS.md).
  obs::Json to_json() const {
    obs::Json j = obs::Json::object();
    j.set("time", sim_time_);
    j.set("events_processed", events_);
    j.set("messages_sent", total_sent());
    j.set("messages_delivered", total_delivered());
    j.set("timers_fired", total_timers());
    j.set("max_queue_depth", max_queue_depth_);
    obs::Json entities = obs::Json::object();
    for (const auto& [kind, stats] : kinds_) {
      obs::Json k = obs::Json::object();
      k.set("entities", stats.entities);
      k.set("sent", stats.sent);
      k.set("delivered", stats.delivered);
      k.set("timers", stats.timers);
      k.set("offloaded", stats.offloaded);
      entities.set(kind, std::move(k));
    }
    j.set("entities", std::move(entities));
    obs::Json queue = obs::Json::object();
    queue.set("engines", queue_engines_);
    queue.set("pushes", queue_.pushes);
    queue.set("pops", queue_.pops);
    queue.set("resizes", queue_.resizes);
    queue.set("max_depth", queue_.max_depth);
    j.set("queue", std::move(queue));
    obs::Json pool = obs::Json::object();
    pool.set("acquired", pool_.acquired);
    pool.set("released", pool_.released);
    pool.set("overflow", pool_.overflow);
    pool.set("max_in_use", pool_.max_in_use);
    pool.set("slots", pool_.slots);
    j.set("event_pool", std::move(pool));
    if (shards_ > 0) {
      obs::Json shard = obs::Json::object();
      shard.set("shards", shards_);
      shard.set("windows", shard_.windows);
      shard.set("mailbox_events", shard_.mailbox_events);
      shard.set("max_skew", shard_.max_skew);
      j.set("shard", std::move(shard));
    }
    if (queue_engines_ > 0) {
      obs::Json wheel = obs::Json::object();
      wheel.set("scheduled", wheel_.scheduled);
      wheel.set("fired", wheel_.fired);
      wheel.set("cascades", wheel_.cascades);
      wheel.set("far_events", wheel_.far_events);
      wheel.set("rebuilds", wheel_.rebuilds);
      wheel.set("max_pending", wheel_.max_pending);
      j.set("timer_wheel", std::move(wheel));
    }
    obs::Json types = obs::Json::object();
    for (const auto& [name, stats] : types_) {
      obs::Json t = obs::Json::object();
      t.set("delivered", stats.delivered);
      t.set("delay", stats.delay.to_json());
      types.set(name, std::move(t));
    }
    j.set("message_types", std::move(types));
    return j;
  }

 private:
  // Delivery delays go through the log-bucketed histogram
  // (obs/latency_hist.hpp): fixed memory on the per-event hot path, and
  // tail quantiles that stay honest when a run delivers millions of
  // messages (the prefix-retaining obs::Histogram saturates there).
  struct TypeStats {
    std::uint64_t delivered = 0;
    obs::LogHistogram delay;
  };

  KindStats& kinds(std::string_view kind) {
    // Single-entry memo: a run's hooks fire with one kind almost always
    // (every fig3 entity is a secure_resource), and these are per-event
    // calls. Map nodes are address-stable, so the memo never dangles.
    if (last_kind_ != nullptr && kind == last_kind_name_) return *last_kind_;
    auto it = kinds_.find(kind);
    if (it == kinds_.end())
      it = kinds_.emplace(std::string(kind), KindStats{}).first;
    last_kind_name_ = it->first;
    last_kind_ = &it->second;
    return it->second;
  }

  TypeStats& type_stats(const std::type_info& type) {
    // Same single-entry memo, keyed by type_info identity (one address per
    // type within a binary).
    if (&type == last_type_) return *last_type_stats_;
    const std::type_index idx(type);
    const auto cached = type_cache_.find(idx);
    TypeStats* stats;
    if (cached != type_cache_.end()) {
      stats = cached->second;
    } else {
      stats = &types_[demangle(type.name())];
      type_cache_.emplace(idx, stats);
    }
    last_type_ = &type;
    last_type_stats_ = stats;
    return *stats;
  }

  static std::string demangle(const char* mangled) {
    int status = 0;
    char* demangled = abi::__cxa_demangle(mangled, nullptr, nullptr, &status);
    if (status != 0 || demangled == nullptr) return mangled;
    std::string out(demangled);
    std::free(demangled);
    return out;
  }

  std::map<std::string, KindStats, std::less<>> kinds_;
  std::map<std::string, TypeStats, std::less<>> types_;
  std::unordered_map<std::type_index, TypeStats*> type_cache_;
  std::string_view last_kind_name_;
  KindStats* last_kind_ = nullptr;
  const std::type_info* last_type_ = nullptr;
  TypeStats* last_type_stats_ = nullptr;
  std::uint64_t events_ = 0;
  std::uint64_t max_queue_depth_ = 0;
  double sim_time_ = 0.0;
  QueueStats queue_;
  EventPoolStats pool_;
  std::uint64_t queue_engines_ = 0;
  std::uint64_t shards_ = 0;  // 0: no sharded engine ever reported
  ShardStats shard_;
  TimerWheelStats wheel_;
};

}  // namespace kgrid::sim
