// Whole-grid harnesses: construct a GridEnv, instantiate one resource per
// node (secure or baseline), distribute crypto material, and drive the
// simulation while sampling the paper's metrics. These are the top-level
// objects the examples and figure benches use.
#pragma once

#include <map>
#include <memory>
#include <vector>

#include "arm/metrics.hpp"
#include "core/env.hpp"
#include "obs/json.hpp"
#include "core/ktpp.hpp"
#include "core/resource.hpp"
#include "majority/majority_rule.hpp"
#include "sim/engine.hpp"

namespace kgrid::core {

struct SecureGridConfig {
  GridEnvConfig env;
  SecureConfig secure;
  hom::Backend backend = hom::Backend::kPlain;
  std::size_t paillier_bits = 1024;  // used with Backend::kPaillier
  /// Per-resource attack assignments (resource id -> behaviour).
  std::map<net::NodeId, ResourceAttack> attacks;
  bool attach_monitor = false;  // audit every reveal against Def. 3.1
  /// Executor lanes for per-resource crypto jobs: 0 = library default
  /// (KGRID_THREADS env override, else 1), 1 = fully inline (the reference
  /// schedule), N > 1 = worker pool. Protocol outcomes are identical for
  /// every value — see the determinism contract in sim/engine.hpp.
  std::size_t threads = 0;
  /// Share a caller-owned executor instead (benches sweeping many grids
  /// reuse one pool); overrides `threads` when non-null.
  sim::Executor* executor = nullptr;
  /// Schedule observer (sim/trace.hpp recorder/hasher), attached before any
  /// resource starts — construction already pushes bootstrap events, and a
  /// recorder attached later would miss them. Must outlive the grid's runs.
  sim::EventTap* trace = nullptr;
  /// Live transport (net/live/transport.hpp; docs/LIVE.md): when non-null,
  /// every protocol message travels over real sockets instead of the local
  /// event queue — attached before any bootstrap push, so the whole
  /// schedule rides the wire. Must outlive the grid. Mutually exclusive
  /// with sharded mode; the env-default shard override is ignored (an
  /// explicit shards >= 1 request is a hard error).
  sim::Transport* transport = nullptr;
  /// Sharded parallel event processing (docs/SHARDING.md): -1 = library
  /// default (KGRID_SHARDS env override, else plain), 0 = force the plain
  /// single-queue engine, N >= 1 = that many shards with the topology's
  /// minimum link delay as the conservative lookahead. Requesting shards
  /// explicitly with a zero minimum delay is a hard error; the env default
  /// falls back to plain instead. The schedule is shard-count-invariant,
  /// but sharded grids resolve offloaded crypto inline (sim/engine.hpp), so
  /// their schedule family differs from the plain engine's.
  int shards = -1;
};

/// Resolve a grid's shard knob against its delay model and switch the
/// engine into sharded mode when asked to (see SecureGridConfig::shards).
inline void maybe_enable_sharding(sim::Engine& engine, int shards,
                                  const net::LinkDelays& delays) {
  const std::size_t n = shards > 0 ? static_cast<std::size_t>(shards)
                                   : (shards < 0 ? sim::default_shards() : 0);
  if (n == 0) return;
  const double lookahead = delays.min_delay();
  if (shards > 0)
    KGRID_CHECK(lookahead > 0.0,
                "sharded grid needs a positive minimum link delay");
  else if (lookahead <= 0.0)
    return;  // environment default on a zero-delay env: stay plain
  engine.enable_sharding(n, lookahead);
}

/// Secure-Majority-Rule over a simulated data grid.
class SecureGrid {
 public:
  explicit SecureGrid(const SecureGridConfig& config)
      : SecureGrid(config, make_grid_env(config.env)) {}

  /// Run over a caller-built environment (custom topology or data, e.g. the
  /// single-itemset significance experiments of the paper's Figure 3).
  SecureGrid(const SecureGridConfig& config, GridEnv env)
      : config_(config), env_(std::move(env)), monitor_(config.secure.k) {
    maybe_enable_sharding(
        engine_,
        // Live transport: ignore the KGRID_SHARDS env default (attach_
        // transport would reject the combination through no fault of the
        // caller); explicit shard requests still error in attach_transport.
        config.transport != nullptr && config.shards < 0 ? 0 : config.shards,
        env_.delays);
    if (config.transport != nullptr) engine_.attach_transport(config.transport);
    if (config.trace != nullptr) engine_.attach_trace(config.trace);
    if (config.executor != nullptr) {
      engine_.attach_executor(config.executor);
    } else {
      const std::size_t lanes = config.threads == 0
                                    ? sim::Executor::default_threads()
                                    : config.threads;
      if (lanes > 1) {
        owned_executor_ = std::make_unique<sim::Executor>(lanes);
        engine_.attach_executor(owned_executor_.get());
      }
    }
    // Pre-size the event arenas from the topology: the steady-state
    // in-flight population is a few messages per resource (per-step
    // reports to each tree neighbor, degree ~2 on the spanning overlay)
    // plus one pending timer; 8 slots each covers the fig3 sweeps with
    // slack so the pool never demand-grows (overflow stays 0).
    engine_.reserve_events(8 * (env_.overlay.size() + 1));
    Rng rng(config.env.seed ^ 0xdeadbeef);
    crypto_ = config.backend == hom::Backend::kPlain
                  ? hom::Context::make_plain()
                  : hom::Context::make_paillier(config.paillier_bits, rng);

    SecureConfig secure = config.secure;
    if (secure.n_items == 0) secure.n_items = config.env.quest.n_items;

    for (net::NodeId u = 0; u < env_.overlay.size(); ++u) {
      auto r = std::make_unique<SecureResource>(
          u, secure, env_.overlay.neighbors(u), crypto_, &env_.delays,
          rng.split());
      r->load_initial(env_.initial[u]);
      r->stream_arrivals(env_.arrivals[u]);
      if (const auto it = config.attacks.find(u); it != config.attacks.end())
        r->set_attack(it->second);
      if (config.attach_monitor) r->controller().set_monitor(&monitor_);
      const sim::EntityId id = engine_.add_entity(r.get(), "secure_resource");
      KGRID_CHECK(id == u, "entity id must equal node id");
      resources_.push_back(std::move(r));
    }

    // Preprocessing: every accountant distributes its encrypted share
    // tokens to its neighbours' brokers (paper §5.2), together with the
    // public layout metadata those brokers need to address it.
    for (net::NodeId u = 0; u < resources_.size(); ++u) {
      const auto& neighbors = env_.overlay.neighbors(u);
      for (std::size_t slot = 1; slot <= neighbors.size(); ++slot) {
        const net::NodeId v = neighbors[slot - 1];
        resources_[v]->broker().install_token(
            u, resources_[u]->accountant().share_token(slot),
            resources_[u]->accountant().layout(), slot);
      }
    }

    // start() must precede seeding: it binds the resource to its entity id,
    // which outgoing bootstrap messages carry as their sender.
    for (net::NodeId u = 0; u < resources_.size(); ++u) {
      resources_[u]->start(engine_, u, 1.0);
      resources_[u]->seed_candidates(engine_);
    }
  }

  sim::Engine& engine() { return engine_; }
  const GridEnv& env() const { return env_; }
  const KTtpMonitor& monitor() const { return monitor_; }
  std::size_t size() const { return resources_.size(); }
  SecureResource& resource(net::NodeId u) { return *resources_[u]; }

  void run_steps(std::size_t steps) {
    engine_.run_until(engine_.now() + static_cast<double>(steps));
  }

  double average_recall(const arm::RuleSet& reference) const {
    double total = 0;
    for (const auto& r : resources_)
      total += arm::recall(r->interim(), reference);
    return total / static_cast<double>(resources_.size());
  }

  double average_precision(const arm::RuleSet& reference) const {
    double total = 0;
    for (const auto& r : resources_)
      total += arm::precision(r->interim(), reference);
    return total / static_cast<double>(resources_.size());
  }

  /// Join a fresh resource as a leaf attached to `attach_to` (which must
  /// have a spare layout slot — see SecureConfig::spare_slots), loading
  /// `db` as its local database. Mirrors the paper's dynamic-membership
  /// claim: the algorithm "dynamically adjusts to new data or newly added
  /// resources". Returns the new resource's id.
  net::NodeId join_leaf(net::NodeId attach_to, const data::Database& db) {
    KGRID_CHECK(attach_to < resources_.size(), "attach target out of range");
    Rng rng(config_.env.seed ^ (0x1757 + resources_.size()));
    SecureConfig secure = config_.secure;
    if (secure.n_items == 0) secure.n_items = config_.env.quest.n_items;
    const auto new_id = static_cast<net::NodeId>(resources_.size());

    auto r = std::make_unique<SecureResource>(
        new_id, secure, std::vector<net::NodeId>{attach_to}, crypto_,
        &env_.delays, rng.split());
    r->load_initial(db);
    if (config_.attach_monitor) r->controller().set_monitor(&monitor_);
    const sim::EntityId id = engine_.add_entity(r.get(), "secure_resource");
    KGRID_CHECK(id == new_id, "entity id must equal node id");
    resources_.push_back(std::move(r));

    SecureResource& fresh = *resources_[new_id];
    SecureResource& anchor = *resources_[attach_to];
    const std::size_t anchor_slot = anchor.add_neighbor(new_id);

    // Share-token exchange, exactly as at setup.
    fresh.broker().install_token(attach_to,
                                 anchor.accountant().share_token(anchor_slot),
                                 anchor.accountant().layout(), anchor_slot);
    anchor.broker().install_token(new_id, fresh.accountant().share_token(1),
                                  fresh.accountant().layout(), 1);

    fresh.start(engine_, new_id, 1.0);
    fresh.seed_candidates(engine_);
    return new_id;
  }

  /// Protocol-level counters aggregated across every resource (schema in
  /// docs/METRICS.md, "protocol" section): accountant replies and share
  /// tokens, broker traffic, controller SFE evaluations, k-gate reveals,
  /// detections, and the KTtpMonitor's grant count when attached.
  obs::Json protocol_stats() {
    Accountant::Stats acc;
    Broker::Stats brk;
    Controller::Stats ctl;
    for (const auto& r : resources_) {
      const auto& a = r->accountant().stats();
      acc.replies += a.replies;
      acc.share_tokens += a.share_tokens;
      const auto& b = r->broker().stats();
      brk.messages_out += b.messages_out;
      brk.candidates_registered += b.candidates_registered;
      brk.edge_evaluations += b.edge_evaluations;
      const auto& c = r->controller().stats();
      ctl.sfe_sends += c.sfe_sends;
      ctl.sfe_outputs += c.sfe_outputs;
      ctl.sends_granted += c.sends_granted;
      ctl.gate_reveals += c.gate_reveals;
      ctl.detections += c.detections;
    }
    obs::Json j = obs::Json::object();
    obs::Json ja = obs::Json::object();
    ja.set("replies", acc.replies);
    ja.set("share_tokens", acc.share_tokens);
    j.set("accountant", std::move(ja));
    obs::Json jb = obs::Json::object();
    jb.set("messages_out", brk.messages_out);
    jb.set("candidates_registered", brk.candidates_registered);
    jb.set("edge_evaluations", brk.edge_evaluations);
    j.set("broker", std::move(jb));
    obs::Json jc = obs::Json::object();
    jc.set("sfe_sends", ctl.sfe_sends);
    jc.set("sfe_outputs", ctl.sfe_outputs);
    jc.set("sends_granted", ctl.sends_granted);
    jc.set("gate_reveals", ctl.gate_reveals);
    jc.set("detections", ctl.detections);
    j.set("controller", std::move(jc));
    j.set("monitor_grants", monitor_.grants());
    return j;
  }

  /// Fraction of resources that have quarantined `culprit`.
  double quarantine_coverage(net::NodeId culprit) const {
    std::size_t n = 0;
    for (const auto& r : resources_)
      n += r->id() != culprit && r->quarantined().contains(culprit);
    return static_cast<double>(n) /
           static_cast<double>(resources_.size() - 1);
  }

 private:
  SecureGridConfig config_;
  GridEnv env_;
  hom::ContextPtr crypto_;
  KTtpMonitor monitor_;
  sim::Engine engine_;
  std::vector<std::unique_ptr<SecureResource>> resources_;
  // Declared last: destroyed first, so pool workers join (and any stray
  // in-flight job finishes) before the resources its jobs reference die.
  std::unique_ptr<sim::Executor> owned_executor_;
};

/// The non-private Majority-Rule baseline over the same environment
/// (the "[20]" series in the paper's Figure 2).
class BaselineGrid {
 public:
  BaselineGrid(const GridEnvConfig& env_config,
               const majority::MajorityRuleConfig& config,
               std::size_t threads = 0, sim::EventTap* trace = nullptr,
               int shards = -1)
      : BaselineGrid(env_config, config, make_grid_env(env_config), threads,
                     trace, shards) {}

  /// `threads` follows SecureGridConfig::threads semantics (0 = library
  /// default, 1 = inline, N > 1 = worker pool; outcomes thread-invariant).
  /// `trace` follows SecureGridConfig::trace (attached before any pushes);
  /// `shards` follows SecureGridConfig::shards.
  BaselineGrid(const GridEnvConfig& env_config,
               const majority::MajorityRuleConfig& config, GridEnv env,
               std::size_t threads = 0, sim::EventTap* trace = nullptr,
               int shards = -1)
      : env_(std::move(env)) {
    maybe_enable_sharding(engine_, shards, env_.delays);
    if (trace != nullptr) engine_.attach_trace(trace);
    const std::size_t lanes =
        threads == 0 ? sim::Executor::default_threads() : threads;
    if (lanes > 1) {
      owned_executor_ = std::make_unique<sim::Executor>(lanes);
      engine_.attach_executor(owned_executor_.get());
    }
    majority::MajorityRuleConfig cfg = config;
    if (cfg.n_items == 0) cfg.n_items = env_config.quest.n_items;
    for (net::NodeId u = 0; u < env_.overlay.size(); ++u) {
      auto r = std::make_unique<majority::MajorityRuleResource>(
          u, cfg, env_.overlay.neighbors(u), &env_.delays);
      r->load_initial(env_.initial[u]);
      r->stream_arrivals(env_.arrivals[u]);
      const sim::EntityId id = engine_.add_entity(r.get(), "baseline_resource");
      KGRID_CHECK(id == u, "entity id must equal node id");
      resources_.push_back(std::move(r));
    }
    for (net::NodeId u = 0; u < resources_.size(); ++u)
      resources_[u]->start(engine_, u, 1.0);
  }

  sim::Engine& engine() { return engine_; }
  const GridEnv& env() const { return env_; }
  std::size_t size() const { return resources_.size(); }
  majority::MajorityRuleResource& resource(net::NodeId u) {
    return *resources_[u];
  }

  void run_steps(std::size_t steps) {
    engine_.run_until(engine_.now() + static_cast<double>(steps));
  }

  double average_recall(const arm::RuleSet& reference) const {
    double total = 0;
    for (const auto& r : resources_)
      total += arm::recall(r->interim(), reference);
    return total / static_cast<double>(resources_.size());
  }

  double average_precision(const arm::RuleSet& reference) const {
    double total = 0;
    for (const auto& r : resources_)
      total += arm::precision(r->interim(), reference);
    return total / static_cast<double>(resources_.size());
  }

 private:
  GridEnv env_;
  sim::Engine engine_;
  std::vector<std::unique_ptr<majority::MajorityRuleResource>> resources_;
  // Declared last: destroyed first, so workers join before resources die.
  std::unique_ptr<sim::Executor> owned_executor_;
};

}  // namespace kgrid::core
