// Whole-grid integration tests of Secure-Majority-Rule.
#include <gtest/gtest.h>

#include "core/grid.hpp"
#include "util/rng.hpp"

namespace kgrid::core {
namespace {

SecureGridConfig small_config(std::uint64_t seed) {
  SecureGridConfig cfg;
  cfg.env.n_resources = 8;
  cfg.env.seed = seed;
  cfg.env.quest.n_transactions = 1600;
  cfg.env.quest.n_items = 24;
  cfg.env.quest.n_patterns = 10;
  cfg.env.quest.avg_transaction_len = 6;
  cfg.env.quest.avg_pattern_len = 3;
  cfg.secure.min_freq = 0.2;
  cfg.secure.min_conf = 0.8;
  cfg.secure.k = 2;
  cfg.secure.count_budget = 100;
  cfg.secure.arrivals_per_step = 0;
  cfg.attach_monitor = true;
  return cfg;
}

TEST(SecureGrid, ConvergesToGroundTruth) {
  SecureGrid grid(small_config(21));
  const auto reference =
      grid.env().reference({0.2, 0.8});
  ASSERT_FALSE(reference.empty());
  grid.run_steps(150);
  EXPECT_GT(grid.average_recall(reference), 0.9);
  EXPECT_GT(grid.average_precision(reference), 0.9);
}

TEST(SecureGrid, MonitorSeesNoKTtpViolations) {
  SecureGrid grid(small_config(22));
  grid.run_steps(120);
  EXPECT_GT(grid.monitor().grants(), 0u);
  EXPECT_TRUE(grid.monitor().violations().empty())
      << grid.monitor().violations()[0].context;
}

TEST(SecureGrid, RecallImprovesOverTime) {
  SecureGrid grid(small_config(23));
  const auto reference = grid.env().reference({0.2, 0.8});
  grid.run_steps(6);
  const double early = grid.average_recall(reference);
  grid.run_steps(150);
  const double late = grid.average_recall(reference);
  EXPECT_GE(late, early);
  EXPECT_GT(late, 0.9);
}

TEST(SecureGrid, LargerKSlowsConvergence) {
  // The paper's Figure 4 trend: higher privacy -> more steps to the same
  // recall. Measured here as recall after a fixed budget of steps.
  auto recall_with_k = [](std::int64_t k) {
    SecureGridConfig cfg = small_config(24);
    cfg.secure.k = k;
    cfg.attach_monitor = false;
    SecureGrid grid(cfg);
    const auto reference = grid.env().reference({0.2, 0.8});
    grid.run_steps(25);
    return grid.average_recall(reference);
  };
  const double low_k = recall_with_k(1);
  const double high_k = recall_with_k(500);
  EXPECT_GE(low_k, high_k);
  EXPECT_GT(low_k, 0.35);
  EXPECT_LT(high_k, 0.2);  // an absurd k effectively blocks all reveals
}

TEST(SecureGrid, DynamicArrivalsReachTheModel) {
  SecureGridConfig cfg = small_config(25);
  cfg.env.initial_fraction = 0.5;
  cfg.secure.arrivals_per_step = 20;
  SecureGrid grid(cfg);
  const auto reference = grid.env().reference({0.2, 0.8});
  grid.run_steps(200);
  EXPECT_GT(grid.average_recall(reference), 0.85);
  EXPECT_GT(grid.average_precision(reference), 0.85);
}

TEST(SecureGrid, PaillierBackendEndToEnd) {
  // Tiny grid under real Paillier: correctness must be identical in kind
  // (convergence to ground truth), just slower per operation.
  SecureGridConfig cfg;
  cfg.env.n_resources = 3;
  cfg.env.seed = 26;
  cfg.env.quest.n_transactions = 150;
  cfg.env.quest.n_items = 8;
  cfg.env.quest.n_patterns = 4;
  cfg.env.quest.avg_transaction_len = 4;
  cfg.env.quest.avg_pattern_len = 2;
  cfg.secure.min_freq = 0.3;
  cfg.secure.min_conf = 0.8;
  cfg.secure.k = 1;
  cfg.secure.arrivals_per_step = 0;
  cfg.backend = hom::Backend::kPaillier;
  cfg.paillier_bits = 512;
  SecureGrid grid(cfg);
  const auto reference = grid.env().reference({0.3, 0.8});
  grid.run_steps(40);
  EXPECT_GT(grid.average_recall(reference), 0.9);
  EXPECT_GT(grid.average_precision(reference), 0.9);
}

TEST(SecureGrid, LeafJoinBringsNewDataIntoTheModel) {
  SecureGridConfig cfg = small_config(28);
  cfg.env.n_resources = 6;
  cfg.secure.spare_slots = 2;
  cfg.secure.arrivals_per_step = 20;
  SecureGrid grid(cfg);
  const auto reference = grid.env().reference({0.2, 0.8});
  grid.run_steps(60);  // converge on the original six partitions

  // Pick an in-domain item pair that is not frequent yet.
  arm::Rule new_rule{{}, {0, 1}};
  for (data::Item i = 0; i < 24 && reference.contains(new_rule); ++i)
    for (data::Item j = i + 1; j < 24; ++j) {
      new_rule = arm::Rule{{}, {i, j}};
      if (!reference.contains(new_rule)) break;
    }
  ASSERT_FALSE(reference.contains(new_rule));

  // k (=2) resources join, each carrying enough of the pair to tip the
  // global frequency over MinFreq. (Joining fewer than k resources cannot
  // change any output: Definition 3.1 requires k new participants per
  // reveal — that boundary is exactly what the k-gate enforces.)
  const std::size_t boost = static_cast<std::size_t>(
      0.4 * static_cast<double>(grid.env().global.size()));
  for (int r = 0; r < 2; ++r) {
    data::Database fresh;
    std::vector<data::Transaction> stream;
    for (data::TransactionId i = 0; i < boost; ++i) {
      const data::Transaction t{1000000 + 10000 * r + i, new_rule.rhs};
      if (i < boost / 2) fresh.append(t);
      else stream.push_back(t);
    }
    const net::NodeId joined = grid.join_leaf(0, fresh);
    EXPECT_EQ(joined, 6u + r);
    // The rest of the new member's records arrive over time — the paper's
    // dynamic setting, whose trickle is also what re-opens suppressed
    // edges (see DESIGN.md).
    grid.resource(joined).queue_arrivals(std::move(stream));
  }
  grid.run_steps(200);

  // The grid (old members included) now reports the new itemset.
  std::size_t holders = 0;
  for (net::NodeId u = 0; u < grid.size(); ++u)
    holders += grid.resource(u).interim().contains(new_rule);
  EXPECT_GE(holders, grid.size() - 2) << "join data did not propagate";
  // And privacy held throughout.
  EXPECT_TRUE(grid.monitor().violations().empty());
}

TEST(SecureGrid, LeafJoinBootstrapsItsEdgeDictionary) {
  // A joiner's link starts with empty candidate dictionaries on both
  // sides: the anchor announces every candidate it holds on the new edge,
  // the joiner announces its own, and neither side ever sees an id it was
  // not told about.
  SecureGridConfig cfg = small_config(29);
  cfg.env.n_resources = 5;
  cfg.secure.spare_slots = 1;
  SecureGrid grid(cfg);
  grid.run_steps(30);
  const std::size_t anchor_candidates =
      grid.resource(0).broker().candidate_count();
  ASSERT_GT(anchor_candidates, cfg.env.quest.n_items);  // derived ones too
  const net::NodeId joined = grid.join_leaf(0, grid.env().initial[1]);
  grid.run_steps(10);
  // The joiner learned the anchor's derived candidates from announcements.
  EXPECT_GE(grid.resource(joined).broker().candidate_count(),
            anchor_candidates);
  for (net::NodeId u = 0; u < grid.size(); ++u) {
    EXPECT_EQ(grid.resource(u).broker().stats().messages_rejected, 0u) << u;
    EXPECT_TRUE(grid.resource(u).quarantined().empty()) << u;
  }
}

TEST(SecureGrid, EventDrivenModeMatchesBatched) {
  SecureGridConfig cfg = small_config(29);
  cfg.env.n_resources = 6;
  SecureGrid batched(cfg);
  cfg.secure.event_driven = true;
  SecureGrid eventful(cfg);
  const auto reference = batched.env().reference({0.2, 0.8});
  batched.run_steps(120);
  eventful.run_steps(120);
  EXPECT_GT(batched.average_recall(reference), 0.9);
  EXPECT_GT(eventful.average_recall(reference), 0.9);
  // The event-driven discipline ripples more messages for the same result.
  EXPECT_GT(eventful.engine().messages_delivered(),
            batched.engine().messages_delivered());
}

TEST(SecureGrid, MatchesBaselineResult) {
  // Secure and baseline must converge to the same rule set on the same
  // environment (privacy changes the path, not the destination).
  SecureGridConfig cfg = small_config(27);
  SecureGrid secure(cfg);
  majority::MajorityRuleConfig base;
  base.min_freq = cfg.secure.min_freq;
  base.min_conf = cfg.secure.min_conf;
  base.count_budget = cfg.secure.count_budget;
  base.arrivals_per_step = 0;
  BaselineGrid baseline(cfg.env, base);

  const auto reference = secure.env().reference({0.2, 0.8});
  secure.run_steps(180);
  baseline.run_steps(180);
  EXPECT_GT(secure.average_recall(reference), 0.9);
  EXPECT_GT(baseline.average_recall(reference), 0.9);
  EXPECT_GT(secure.average_precision(reference), 0.9);
  EXPECT_GT(baseline.average_precision(reference), 0.9);
}

}  // namespace
}  // namespace kgrid::core
