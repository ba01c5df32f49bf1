// Failpoint semantics: the table's rows, arm/disarm, probability and
// count gates, spec parsing, and the macro's unarmed fast path.

#include <gtest/gtest.h>

#include <atomic>
#include <iterator>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/failpoint.hpp"

namespace ats {
namespace {

// The test's chokepoint: closure_spill's row, which no code under test
// here reaches.  Evaluates the macro exactly like a planted site would,
// returning whether this pass threw.
bool hitTestSite() {
  try {
    ATS_FAILPOINT(closure_spill);
    return false;
  } catch (const FailpointError&) {
    return true;
  }
}

Failpoint& testSite() { return failpoint(FailpointId::closure_spill); }

bool anyArmed() {
  for (const Failpoint& row : gFailpoints)
    if (row.armed()) return true;
  return false;
}

constexpr FailpointId kDelayOnly[] = {FailpointId::addbuf_overflow,
                                      FailpointId::serve_batch,
                                      FailpointId::deque_grow};

// Every test starts from a disarmed table with zeroed counters, so the
// tests pass in one process, in any order, and under ATS_FAILPOINTS.
class FailpointTest : public ::testing::Test {
 protected:
  void SetUp() override {
    disarmAllFailpoints();
    for (Failpoint& row : gFailpoints) row.resetCounters();
  }
};

TEST_F(FailpointTest, EverySiteHasItsNameAndAStableNonZeroId) {
  const char* const kNames[] = {"closure_spill", "deps_register",
                                "table_insert",  "pool_carve",
                                "task_invoke",   "addbuf_overflow",
                                "serve_batch",   "deque_grow"};
  static_assert(std::size(kNames) == kFailpointCount);
  std::set<std::uint32_t> ids;
  for (std::size_t i = 0; i < kFailpointCount; ++i) {
    const Failpoint& row = failpoint(static_cast<FailpointId>(i));
    EXPECT_STREQ(row.name(), kNames[i]);
    EXPECT_EQ(row.id(), i + 1)
        << "0 means 'not a failpoint' in trace payloads";
    ids.insert(row.id());
  }
  EXPECT_EQ(ids.size(), kFailpointCount) << "ids are distinct";
}

TEST_F(FailpointTest, UnknownSiteNameIsRejected) {
  EXPECT_FALSE(armFailpointSpec("serve_btach:0.05:0:delay-us:20"));
  EXPECT_FALSE(anyArmed()) << "a misspelled name must arm nothing";
}

// At the three delay-only rows a throw would lose a task or unwind
// through a held lock, so every way of asking for one is refused.
TEST_F(FailpointTest, DelayOnlySitesRefuseThrow) {
  for (const FailpointId id : kDelayOnly) {
    Failpoint& row = failpoint(id);
    const std::string name = row.name();
    EXPECT_FALSE(armFailpointSpec(name + ":1:1")) << "throw is the default";
    EXPECT_FALSE(armFailpointSpec(name + ":1:1:throw")) << name;
    EXPECT_FALSE(row.arm(FailpointMode::Throw, 1.0, 1)) << name;
    EXPECT_FALSE(row.armed()) << name;

    EXPECT_TRUE(armFailpointSpec(name + ":0.05:0:delay-us:20")) << name;
    EXPECT_EQ(row.mode(), FailpointMode::DelayUs);
    row.disarm();
    EXPECT_TRUE(armFailpointSpec(name + ":1:1:abort")) << name;
    EXPECT_EQ(row.mode(), FailpointMode::Abort);
    row.disarm();
  }
}

TEST_F(FailpointTest, UnarmedSiteNeverEvaluates) {
  for (int i = 0; i < 1000; ++i) EXPECT_FALSE(hitTestSite());
  EXPECT_EQ(testSite().evaluations(), 0u)
      << "unarmed passes must not reach the slow path at all";
}

TEST_F(FailpointTest, CountBudgetFiresExactlyNThenSelfDisarms) {
  testSite().arm(FailpointMode::Throw, 1.0, 3);
  int thrown = 0;
  for (int i = 0; i < 100; ++i) thrown += hitTestSite() ? 1 : 0;
  EXPECT_EQ(thrown, 3);
  EXPECT_EQ(testSite().fires(), 3u);
  EXPECT_FALSE(testSite().armed()) << "budget spent => back to one-load path";
}

TEST_F(FailpointTest, ZeroCountMeansUnlimited) {
  testSite().arm(FailpointMode::Throw, 1.0, 0);
  for (int i = 0; i < 50; ++i) EXPECT_TRUE(hitTestSite());
  EXPECT_TRUE(testSite().armed());
  testSite().disarm();
  EXPECT_FALSE(hitTestSite());
}

TEST_F(FailpointTest, ProbabilityZeroEvaluatesButNeverFires) {
  testSite().arm(FailpointMode::Throw, 0.0, 0);
  for (int i = 0; i < 1000; ++i) EXPECT_FALSE(hitTestSite());
  EXPECT_EQ(testSite().evaluations(), 1000u);
  EXPECT_EQ(testSite().fires(), 0u);
  testSite().disarm();
}

TEST_F(FailpointTest, FractionalProbabilityFiresRoughlyProportionally) {
  testSite().arm(FailpointMode::Throw, 0.5, 0);
  int thrown = 0;
  const int kTrials = 4000;
  for (int i = 0; i < kTrials; ++i) thrown += hitTestSite() ? 1 : 0;
  testSite().disarm();
  // 0.5 +- 5 sigma on 4000 Bernoulli trials: [1842, 2158].
  EXPECT_GT(thrown, 1842);
  EXPECT_LT(thrown, 2158);
}

TEST_F(FailpointTest, CountBudgetIsExactUnderConcurrency) {
  constexpr std::uint64_t kBudget = 64;
  testSite().arm(FailpointMode::Throw, 1.0, kBudget);
  std::atomic<int> thrown{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&thrown] {
      for (int i = 0; i < 1000; ++i)
        if (hitTestSite()) thrown.fetch_add(1, std::memory_order_relaxed);
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(thrown.load(), static_cast<int>(kBudget))
      << "racing threads must not overshoot (or undershoot) the budget";
  EXPECT_EQ(testSite().fires(), kBudget);
}

TEST_F(FailpointTest, DelayModeSleepsInsteadOfThrowing) {
  testSite().arm(FailpointMode::DelayUs, 1.0, 2, /*delayUs=*/100);
  EXPECT_FALSE(hitTestSite());
  EXPECT_FALSE(hitTestSite());
  EXPECT_EQ(testSite().fires(), 2u);
  EXPECT_FALSE(testSite().armed());
}

TEST_F(FailpointTest, ArmFromSpecParsesAllFields) {
  Failpoint& fp = testSite();
  EXPECT_TRUE(armFailpointSpec("closure_spill:0.25:7"));
  EXPECT_TRUE(fp.armed());
  EXPECT_EQ(fp.mode(), FailpointMode::Throw) << "throw is the default mode";
  fp.disarm();

  EXPECT_TRUE(armFailpointSpec("closure_spill:1:1:delay-us:250"));
  EXPECT_EQ(fp.mode(), FailpointMode::DelayUs);
  fp.disarm();

  EXPECT_TRUE(armFailpointSpec("closure_spill:1:1:abort"));
  EXPECT_EQ(fp.mode(), FailpointMode::Abort);
  fp.disarm();
}

TEST_F(FailpointTest, ArmFromSpecRejectsMalformedInput) {
  EXPECT_FALSE(armFailpointSpec(""));
  EXPECT_FALSE(armFailpointSpec("task_invoke"));
  EXPECT_FALSE(armFailpointSpec("task_invoke:0.5"));        // missing count
  EXPECT_FALSE(armFailpointSpec(":0.5:0"));                 // empty name
  EXPECT_FALSE(armFailpointSpec("task_invoke:notanum:0"));  // bad prob
  EXPECT_FALSE(armFailpointSpec("task_invoke:1.5:0"));      // prob > 1
  EXPECT_FALSE(armFailpointSpec("task_invoke:-0.1:0"));     // prob < 0
  EXPECT_FALSE(armFailpointSpec("task_invoke:0.5:x"));      // bad count
  EXPECT_FALSE(armFailpointSpec("task_invoke:0.5:0:explode"));  // bad mode
  EXPECT_FALSE(armFailpointSpec("task_invoke:1:1:delay:20"));   // delay-us
  EXPECT_FALSE(armFailpointSpec("task_invoke:1:1:delay-us:zz"));  // bad delay
  EXPECT_FALSE(armFailpointSpec("task_invoke:1:1:throw:0:x"));  // 6 fields
  EXPECT_FALSE(anyArmed());
}

TEST_F(FailpointTest, DisarmAllSweepsEveryNode) {
  ASSERT_TRUE(testSite().arm(FailpointMode::Throw, 1.0, 0));
  ASSERT_TRUE(failpoint(FailpointId::serve_batch)
                  .arm(FailpointMode::DelayUs, 1.0, 0, 10));
  disarmAllFailpoints();
  EXPECT_FALSE(anyArmed());
}

TEST_F(FailpointTest, ErrorCarriesTheSiteRegistryId) {
  testSite().arm(FailpointMode::Throw, 1.0, 1);
  try {
    ATS_FAILPOINT(closure_spill);
    FAIL() << "armed prob-1 site must throw";
  } catch (const FailpointError& error) {
    EXPECT_EQ(error.id(), testSite().id());
    EXPECT_NE(std::string(error.what()).find("closure_spill"),
              std::string::npos);
  }
}

TEST(FailpointAbortDeathTest, AbortModeDiesThroughFatal) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  testSite().arm(FailpointMode::Abort, 1.0, 1);
  EXPECT_DEATH(hitTestSite(), "ats: FATAL .*failpoint 'closure_spill' fired");
}

// ATS_FAILPOINTS goes through armFailpointList before main, so a spec
// that cannot be armed stops the process there instead of leaving a
// drill that perturbs nothing.
TEST(FailpointAbortDeathTest, UnarmableEnvironmentSpecIsFatal) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(armFailpointList("task_invoke:0.01:0,serve_batch:0.05:0"),
               "ats: FATAL .*cannot arm 'serve_batch:0.05:0'");
}

}  // namespace
}  // namespace ats
