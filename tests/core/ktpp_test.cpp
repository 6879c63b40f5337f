#include "core/ktpp.hpp"

#include <gtest/gtest.h>

namespace kgrid::core {
namespace {

// Two output gates of resource 0 (candidates 0 and 1).
const KTtpMonitor::Gate a{0, 0, KTtpMonitor::kOutputGate};
const KTtpMonitor::Gate b{0, 1, KTtpMonitor::kOutputGate};
const arm::Rule rule{{}, {1}};

TEST(KTtp, FirstGrantNeedsKOfBoth) {
  KTtpMonitor m(10);
  m.on_reveal(a, rule, 100, 12);  // both >= k against the empty set
  EXPECT_TRUE(m.violations().empty());
  EXPECT_EQ(m.grants(), 1u);

  KTtpMonitor m2(10);
  m2.on_reveal(a, rule, 100, 5);  // only 5 resources
  ASSERT_EQ(m2.violations().size(), 1u);
  EXPECT_EQ(m2.violations()[0].num_delta, 5);
}

TEST(KTtp, SubsequentGrantsNeedKNewOfBoth) {
  KTtpMonitor m(10);
  m.on_reveal(a, rule, 100, 20);
  m.on_reveal(a, rule, 115, 31);  // +15 transactions, +11 resources: fine
  EXPECT_TRUE(m.violations().empty());
  m.on_reveal(a, rule, 130, 35);  // +15, +4: resource delta too small
  ASSERT_EQ(m.violations().size(), 1u);
  EXPECT_EQ(m.violations()[0].num_delta, 4);
}

TEST(KTtp, ContextsAreIndependent) {
  KTtpMonitor m(10);
  m.on_reveal(a, rule, 100, 20);
  m.on_reveal(b, rule, 100, 20);  // new context: compared against empty, fine
  EXPECT_TRUE(m.violations().empty());
}

TEST(KTtp, NonMonotoneGroupFlagged) {
  KTtpMonitor m(5);
  m.on_reveal(a, rule, 100, 20);
  m.on_reveal(a, rule, 90, 30);  // fewer transactions than before: impossible
  ASSERT_GE(m.violations().size(), 1u);
}

TEST(KTtp, TransactionDeltaAlsoEnforced) {
  KTtpMonitor m(10);
  m.on_reveal(a, rule, 100, 20);
  m.on_reveal(a, rule, 105, 40);  // +5 transactions < k
  ASSERT_EQ(m.violations().size(), 1u);
  EXPECT_EQ(m.violations()[0].count_delta, 5);
}

}  // namespace
}  // namespace kgrid::core
