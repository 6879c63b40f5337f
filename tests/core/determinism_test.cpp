// Cross-thread-count determinism: a SecureGrid run is a pure function of
// its seeds, so the protocol-level fingerprint must be bit-identical at
// every executor width (ISSUE: threads in {1, 2, 8} -> identical final
// counters and message traces).
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <utility>

#include "golden_fingerprint.hpp"
#include "sim/trace.hpp"

namespace kgrid {
namespace {

std::string run_fingerprint(core::SecureGridConfig cfg, std::size_t threads,
                            std::size_t steps) {
  cfg.threads = threads;
  core::SecureGrid grid(cfg);
  grid.run_steps(steps);
  return test::grid_fingerprint(grid);
}

TEST(Determinism, PlainBackendInvariantAcrossThreadCounts) {
  core::SecureGridConfig cfg;
  cfg.env.n_resources = 10;
  cfg.env.seed = 99;
  cfg.env.quest.n_items = 8;
  cfg.env.quest.n_transactions = 200;
  cfg.secure.k = 4;
  cfg.secure.arrivals_per_step = 5;

  const std::string reference = run_fingerprint(cfg, 1, 30);
  for (const std::size_t threads : {2u, 8u})
    EXPECT_EQ(run_fingerprint(cfg, threads, 30), reference)
        << "threads=" << threads;
}

TEST(Determinism, EventDrivenInvariantAcrossThreadCounts) {
  core::SecureGridConfig cfg;
  cfg.env.n_resources = 6;
  cfg.env.seed = 5;
  cfg.env.quest.n_items = 6;
  cfg.env.quest.n_transactions = 120;
  cfg.secure.k = 3;
  cfg.secure.event_driven = true;

  const std::string reference = run_fingerprint(cfg, 1, 20);
  for (const std::size_t threads : {2u, 8u})
    EXPECT_EQ(run_fingerprint(cfg, threads, 20), reference)
        << "threads=" << threads;
}

TEST(Determinism, PaillierBackendInvariantAcrossThreadCounts) {
  // Real Paillier on a deliberately tiny grid. Every blinding factor comes
  // from a seeded Rng stream, so beyond the plaintext fingerprint the
  // ciphertext bits themselves must match: at every executor width, and at
  // every shard count (each recipient sees the same cipher sequence even
  // though the sharded schedule family orders events differently).
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

  struct Run {
    std::string fingerprint;
    std::uint64_t cipher_hash = 0;
    std::uint64_t ciphers = 0;
  };
  const auto run = [&cfg](std::size_t threads, int shards) {
    test::CipherHasher hasher;
    core::SecureGridConfig c = cfg;
    c.threads = threads;
    c.shards = shards;
    c.trace = &hasher;
    core::SecureGrid grid(c);
    grid.run_steps(8);
    return Run{test::grid_fingerprint(grid), hasher.cipher_hash(),
               hasher.ciphers()};
  };

  const Run reference = run(1, 0);
  EXPECT_GT(reference.ciphers, 0u);
  const std::pair<std::size_t, int> configs[] = {{2, 0}, {8, 0}, {2, 1},
                                                 {2, 4}};
  for (const auto& [threads, shards] : configs) {
    const Run r = run(threads, shards);
    EXPECT_EQ(r.fingerprint, reference.fingerprint)
        << "threads=" << threads << " shards=" << shards;
    EXPECT_EQ(r.cipher_hash, reference.cipher_hash)
        << "threads=" << threads << " shards=" << shards;
  }
}

TEST(Determinism, AttackDetectionInvariantAcrossThreadCounts) {
  // The detection path (forged shares -> MaliciousReport flood ->
  // quarantine) must also be schedule-independent.
  core::SecureGridConfig cfg;
  cfg.env.n_resources = 8;
  cfg.env.seed = 42;
  cfg.env.quest.n_items = 6;
  cfg.env.quest.n_transactions = 160;
  cfg.secure.k = 3;
  core::ResourceAttack attack;
  attack.broker = core::BrokerBehavior::kDoubleCount;
  attack.active_from_step = 5;
  cfg.attacks[2] = attack;

  const std::string reference = run_fingerprint(cfg, 1, 25);
  for (const std::size_t threads : {2u, 8u})
    EXPECT_EQ(run_fingerprint(cfg, threads, 25), reference)
        << "threads=" << threads;
}

TEST(Determinism, ShardedGridInvariantAcrossShardCounts) {
  // Sharded parallel mode (docs/SHARDING.md): the merged event schedule and
  // the protocol outcome must be bit-identical at every shard count, and
  // the protocol outcome must also match the plain engine's (sharded runs
  // resolve offloaded crypto inline — a different schedule family — but
  // protocol-visible state is schedule-family-invariant).
  core::SecureGridConfig cfg;
  cfg.env.n_resources = 8;
  cfg.env.seed = 21;
  cfg.env.quest.n_items = 6;
  cfg.env.quest.n_transactions = 160;
  cfg.secure.k = 3;
  cfg.secure.event_driven = true;
  cfg.threads = 2;
  core::ResourceAttack attack;
  attack.broker = core::BrokerBehavior::kDoubleCount;
  attack.active_from_step = 5;
  cfg.attacks[2] = attack;

  const auto run = [&cfg](int shards) {
    sim::ScheduleHasher hasher;
    core::SecureGridConfig c = cfg;
    c.shards = shards;
    c.trace = &hasher;
    core::SecureGrid grid(c);
    grid.run_steps(20);
    return std::pair<std::uint64_t, std::string>(
        hasher.hash(), test::grid_fingerprint(grid));
  };
  const auto [hash_ref, fingerprint_ref] = run(1);
  for (const int shards : {2, 4}) {
    const auto [hash, fingerprint] = run(shards);
    EXPECT_EQ(hash, hash_ref) << "shards=" << shards;
    EXPECT_EQ(fingerprint, fingerprint_ref) << "shards=" << shards;
  }
  const auto [plain_hash, plain_fingerprint] = run(0);
  (void)plain_hash;  // different schedule family — only the outcome matches
  EXPECT_EQ(plain_fingerprint, fingerprint_ref);
}

TEST(Determinism, SharedExecutorMatchesOwnedExecutor) {
  // Benches share one pool across many grids via cfg.executor; that must
  // not change outcomes relative to a per-grid owned pool.
  core::SecureGridConfig cfg;
  cfg.env.n_resources = 8;
  cfg.env.seed = 7;
  cfg.env.quest.n_items = 6;
  cfg.env.quest.n_transactions = 120;
  cfg.secure.k = 3;

  const std::string reference = run_fingerprint(cfg, 2, 15);
  sim::Executor shared(2);
  cfg.executor = &shared;
  core::SecureGrid grid(cfg);
  grid.run_steps(15);
  EXPECT_EQ(test::grid_fingerprint(grid), reference);
}

}  // namespace
}  // namespace kgrid
