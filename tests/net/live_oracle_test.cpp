// Sim-vs-live differential oracle (docs/LIVE.md "The oracle"): the same
// workload run through the in-memory engine and through loopback sockets
// (UDS and TCP) must produce byte-identical protocol fingerprints — mined
// interim rule sets, protocol counters, quarantine verdicts — and the
// identical dispatch-order schedule hash. The transport preserves the
// engine's (time, seq) schedule by construction (sim/engine.hpp
// attach_transport); this test is the end-to-end proof.
#include "net/live/live_grid.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <utility>

#include "core/grid.hpp"
#include "data/quest.hpp"
#include "sim/trace.hpp"
#include "../core/golden_fingerprint.hpp"

namespace kgrid {
namespace {

core::SecureGridConfig oracle_config() {
  core::SecureGridConfig cfg;
  cfg.env.n_resources = 8;
  cfg.env.seed = 42;
  cfg.env.quest.n_items = 6;
  cfg.env.quest.n_transactions = 160;
  cfg.secure.k = 3;
  // Include the malicious path so the oracle pins detection verdicts too.
  core::ResourceAttack attack;
  attack.broker = core::BrokerBehavior::kDoubleCount;
  attack.active_from_step = 5;
  cfg.attacks[2] = attack;
  return cfg;
}

struct OracleRun {
  std::uint64_t schedule_hash = 0;
  std::uint64_t dispatched = 0;
  std::string fingerprint;
  double quarantine = 0.0;
  std::uint64_t cipher_hash = 0;
};

OracleRun run_sim(const core::SecureGridConfig& base, std::size_t steps) {
  test::CipherHasher hasher;
  core::SecureGridConfig cfg = base;
  cfg.trace = &hasher;
  // LiveGrid always runs the plain engine, so the oracle must too: a
  // KGRID_SHARDS default would put it in the sharded schedule family,
  // which resolves offloaded crypto inline and so orders events differently.
  cfg.shards = 0;
  core::SecureGrid grid(cfg);
  grid.run_steps(steps);
  return {hasher.hash(), hasher.dispatched(), test::grid_fingerprint(grid),
          grid.quarantine_coverage(2), hasher.cipher_hash()};
}

OracleRun run_live(const core::SecureGridConfig& base, std::size_t steps,
                   net::live::TransportKind kind) {
  test::CipherHasher hasher;
  core::SecureGridConfig cfg = base;
  cfg.trace = &hasher;
  net::live::SocketTransport::Options options;
  options.kind = kind;
  net::live::LiveGrid live(cfg, options);
  live.run_steps(steps);
  // Every frame the engine handed to the sockets came back and was
  // dispatched — nothing got lost on the wire.
  EXPECT_EQ(live.transport().in_flight(), 0u);
  EXPECT_EQ(live.transport().stats().frames_in,
            live.transport().stats().frames_out);
  EXPECT_GT(live.transport().stats().frames_in, 0u);
  EXPECT_EQ(live.transport().stats().bytes_in,
            live.transport().stats().bytes_out);
  return {hasher.hash(), hasher.dispatched(),
          test::grid_fingerprint(live.grid()),
          live.grid().quarantine_coverage(2), hasher.cipher_hash()};
}

TEST(LiveOracle, UdsMatchesSimExactly) {
  const core::SecureGridConfig cfg = oracle_config();
  const OracleRun sim = run_sim(cfg, 25);
  const OracleRun uds = run_live(cfg, 25, net::live::TransportKind::kUds);
  EXPECT_EQ(uds.schedule_hash, sim.schedule_hash);
  EXPECT_EQ(uds.dispatched, sim.dispatched);
  EXPECT_EQ(uds.fingerprint, sim.fingerprint);
  EXPECT_EQ(uds.quarantine, sim.quarantine);
  // The attack actually fired: quarantine verdicts are a real signal here,
  // not trivially-equal zeros.
  EXPECT_GT(sim.quarantine, 0.0);
}

TEST(LiveOracle, TcpMatchesSimExactly) {
  const core::SecureGridConfig cfg = oracle_config();
  const OracleRun sim = run_sim(cfg, 25);
  const OracleRun tcp = run_live(cfg, 25, net::live::TransportKind::kTcp);
  EXPECT_EQ(tcp.schedule_hash, sim.schedule_hash);
  EXPECT_EQ(tcp.dispatched, sim.dispatched);
  EXPECT_EQ(tcp.fingerprint, sim.fingerprint);
  EXPECT_EQ(tcp.quarantine, sim.quarantine);
}

TEST(LiveOracle, Fig2QuestWorkloadMatchesOverBothTransports) {
  // The fig2 T5I2 cell (bench/fig2_convergence.cpp), scaled down to ctest
  // size: same Quest preset, thresholds, arrival dynamics, and delays —
  // mined rule sets and verdicts must match the sim bit for bit over both
  // socket families.
  core::SecureGridConfig cfg;
  cfg.env.n_resources = 6;
  cfg.env.seed = 97;
  cfg.env.quest = data::QuestParams::preset("T5I2");
  cfg.env.quest.n_transactions = 6 * 60;
  cfg.env.quest.n_items = 40;
  cfg.env.quest.n_patterns = 10;
  cfg.env.initial_fraction = 0.9;
  cfg.env.delay_lo = 0.5;
  cfg.env.delay_hi = 2.0;
  cfg.secure.min_freq = 0.10;
  cfg.secure.min_conf = 0.8;
  cfg.secure.k = 3;
  cfg.secure.count_budget = 100;
  cfg.secure.candidate_period = 1;
  cfg.secure.arrivals_per_step = 20;

  const OracleRun sim = run_sim(cfg, 12);
  const OracleRun uds = run_live(cfg, 12, net::live::TransportKind::kUds);
  const OracleRun tcp = run_live(cfg, 12, net::live::TransportKind::kTcp);
  EXPECT_EQ(uds.schedule_hash, sim.schedule_hash);
  EXPECT_EQ(uds.fingerprint, sim.fingerprint);
  EXPECT_EQ(tcp.schedule_hash, sim.schedule_hash);
  EXPECT_EQ(tcp.fingerprint, sim.fingerprint);
  // The workload actually mined something ("lhs=>rhs" interim rules in the
  // fingerprint); empty-vs-empty would be a vacuous oracle.
  EXPECT_NE(sim.fingerprint.find("=>"), std::string::npos);
  EXPECT_GT(sim.dispatched, 0u);
}

TEST(LiveOracle, PaillierTrafficRidesTheWire) {
  // Real ciphertext frames (BigInt limbs on the wire), tiny grid so the
  // 512-bit keygen and per-message crypto stay fast.
  core::SecureGridConfig cfg;
  cfg.env.n_resources = 3;
  cfg.env.seed = 13;
  cfg.env.quest.n_items = 6;
  cfg.env.quest.n_transactions = 60;
  cfg.env.quest.n_patterns = 4;
  cfg.env.quest.avg_transaction_len = 4;
  cfg.env.quest.avg_pattern_len = 2;
  cfg.secure.k = 2;
  cfg.secure.arrivals_per_step = 0;
  cfg.backend = hom::Backend::kPaillier;
  cfg.paillier_bits = 512;
  cfg.threads = 4;  // ciphertexts are a pure function of the seeds at any width

  const OracleRun sim = run_sim(cfg, 8);
  const OracleRun uds = run_live(cfg, 8, net::live::TransportKind::kUds);
  const OracleRun tcp = run_live(cfg, 8, net::live::TransportKind::kTcp);
  EXPECT_EQ(uds.schedule_hash, sim.schedule_hash);
  EXPECT_EQ(uds.fingerprint, sim.fingerprint);
  EXPECT_EQ(tcp.schedule_hash, sim.schedule_hash);
  EXPECT_EQ(tcp.fingerprint, sim.fingerprint);
  // Every delivered ciphertext is bit-identical on all three carriers.
  EXPECT_EQ(uds.cipher_hash, sim.cipher_hash);
  EXPECT_EQ(tcp.cipher_hash, sim.cipher_hash);
}

TEST(LiveOracle, BackpressureStallsStillDeliverEverything) {
  // A deliberately tiny send ring forces the dispatch path through its
  // stall-and-pump loop; the outcome must not change.
  const core::SecureGridConfig cfg = oracle_config();
  const OracleRun sim = run_sim(cfg, 15);

  sim::ScheduleHasher hasher;
  core::SecureGridConfig live_cfg = cfg;
  live_cfg.trace = &hasher;
  net::live::SocketTransport::Options options;
  options.send_ring_bytes = 256;  // a handful of frames per peer
  net::live::LiveGrid live(live_cfg, options);
  live.run_steps(15);
  EXPECT_EQ(hasher.hash(), sim.schedule_hash);
  EXPECT_EQ(test::grid_fingerprint(live.grid()), sim.fingerprint);
}

TEST(LiveOracle, ShardingIsMutuallyExclusive) {
  core::SecureGridConfig cfg = oracle_config();
  cfg.shards = 2;
  net::live::SocketTransport::Options options;
  EXPECT_DEATH(net::live::LiveGrid(cfg, options),
               "unavailable with a live transport");
}

}  // namespace
}  // namespace kgrid
