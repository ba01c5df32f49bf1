#include "containers/spsc_queue.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

namespace ats {
namespace {

/// consumeN's uncapped form: drain everything published.
constexpr std::size_t kNoCap = ~std::size_t{0};

TEST(SpscQueue, CapacityRoundsUpToPowerOfTwo) {
  EXPECT_EQ(SpscQueue<int>(1).capacity(), 2u);
  EXPECT_EQ(SpscQueue<int>(2).capacity(), 2u);
  EXPECT_EQ(SpscQueue<int>(100).capacity(), 128u);
  EXPECT_EQ(SpscQueue<int>(256).capacity(), 256u);
}

TEST(SpscQueue, PushPopPreservesValuesAcrossWrapAround) {
  SpscQueue<std::uint64_t> q(8);
  std::uint64_t nextPush = 0;
  std::uint64_t nextPop = 0;
  // Uneven push/pop cadence over many times the capacity, so the
  // free-running indices wrap the mask repeatedly at shifting offsets.
  for (int round = 0; round < 1000; ++round) {
    const int pushes = 1 + round % 3;
    for (int p = 0; p < pushes; ++p) {
      if (q.push(nextPush)) ++nextPush;
    }
    std::uint64_t v = 0;
    ASSERT_TRUE(q.pop(v));
    ASSERT_EQ(v, nextPop);
    ++nextPop;
  }
  std::uint64_t v = 0;
  while (q.pop(v)) {
    ASSERT_EQ(v, nextPop);
    ++nextPop;
  }
  EXPECT_EQ(nextPop, nextPush);
  EXPECT_TRUE(q.empty());
}

TEST(SpscQueue, SimpleFifoOrderThroughWrap) {
  SpscQueue<int> q(4);
  int expectedNext = 0;
  int pushedNext = 0;
  for (int round = 0; round < 50; ++round) {
    while (q.push(pushedNext)) ++pushedNext;
    int v = -1;
    while (q.pop(v)) {
      ASSERT_EQ(v, expectedNext);
      ++expectedNext;
    }
  }
  EXPECT_EQ(expectedNext, pushedNext);
}

TEST(SpscQueue, FullQueueRejectsPushUntilPop) {
  SpscQueue<int> q(4);
  EXPECT_EQ(q.capacity(), 4u);
  for (int i = 0; i < 4; ++i) ASSERT_TRUE(q.push(i));
  EXPECT_FALSE(q.push(99));
  EXPECT_FALSE(q.push(99));
  EXPECT_EQ(q.size(), 4u);

  int v = -1;
  ASSERT_TRUE(q.pop(v));
  EXPECT_EQ(v, 0);
  EXPECT_TRUE(q.push(4));  // slot freed
  EXPECT_FALSE(q.push(5)); // and full again
}

TEST(SpscQueue, ConsumeAllDrainsBatchInOrder) {
  SpscQueue<int> q(16);
  for (int i = 0; i < 10; ++i) ASSERT_TRUE(q.push(i));

  std::vector<int> got;
  const std::size_t n = q.consumeN(kNoCap, [&](int v) { got.push_back(v); });
  EXPECT_EQ(n, 10u);
  ASSERT_EQ(got.size(), 10u);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(got[static_cast<std::size_t>(i)], i);
  EXPECT_TRUE(q.empty());

  // Empty drain is a no-op returning zero.
  EXPECT_EQ(q.consumeN(kNoCap, [&](int v) { got.push_back(v); }), 0u);
  EXPECT_EQ(got.size(), 10u);
}

TEST(SpscQueue, ConsumeNDrainsBoundedPrefixInOrder) {
  SpscQueue<int> q(16);
  for (int i = 0; i < 10; ++i) ASSERT_TRUE(q.push(i));

  std::vector<int> got;
  EXPECT_EQ(q.consumeN(4, [&](int v) { got.push_back(v); }), 4u);
  EXPECT_EQ(q.size(), 6u);
  // What stayed behind is still published, still FIFO; an over-large cap
  // drains everything published.
  EXPECT_EQ(q.consumeN(100, [&](int v) { got.push_back(v); }), 6u);
  ASSERT_EQ(got.size(), 10u);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(got[static_cast<std::size_t>(i)], i);
  EXPECT_TRUE(q.empty());

  // Empty drain and zero-cap drain are no-ops returning zero.
  EXPECT_EQ(q.consumeN(4, [](int) {}), 0u);
  ASSERT_TRUE(q.push(42));
  EXPECT_EQ(q.consumeN(0, [](int) {}), 0u);
  EXPECT_EQ(q.size(), 1u);
}

TEST(SpscQueue, ConsumeNAcrossWrapAround) {
  SpscQueue<int> q(4);  // tiny capacity: every partial drain straddles the mask
  int pushed = 0;
  int expected = 0;
  for (int round = 0; round < 40; ++round) {
    while (q.push(pushed)) ++pushed;
    const std::size_t drained = q.consumeN(3, [&](int v) {
      ASSERT_EQ(v, expected);
      ++expected;
    });
    ASSERT_LE(drained, 3u);
  }
  q.consumeN(kNoCap, [&](int v) {
    ASSERT_EQ(v, expected);
    ++expected;
  });
  EXPECT_EQ(expected, pushed);
  EXPECT_TRUE(q.empty());
}

TEST(SpscQueue, MoveOnlyElements) {
  SpscQueue<std::unique_ptr<int>> q(4);
  ASSERT_TRUE(q.push(std::make_unique<int>(7)));
  std::unique_ptr<int> out;
  ASSERT_TRUE(q.pop(out));
  ASSERT_NE(out, nullptr);
  EXPECT_EQ(*out, 7);
}

TEST(SpscQueue, CrossThreadStressPreservesSequence) {
  // Tight ring so both full and empty edges are hit constantly.
  constexpr std::uint64_t kItems = 200000;
  SpscQueue<std::uint64_t> q(64);

  std::thread producer([&] {
    for (std::uint64_t i = 0; i < kItems; ++i) {
      while (!q.push(i)) std::this_thread::yield();
    }
  });

  std::uint64_t expected = 0;
  while (expected < kItems) {
    std::uint64_t v = 0;
    if (q.pop(v)) {
      ASSERT_EQ(v, expected);
      ++expected;
    } else {
      std::this_thread::yield();
    }
  }
  producer.join();
  EXPECT_TRUE(q.empty());
}

TEST(SpscQueue, CrossThreadConsumeAllStress) {
  constexpr std::uint64_t kItems = 200000;
  SpscQueue<std::uint64_t> q(128);

  std::thread producer([&] {
    for (std::uint64_t i = 1; i <= kItems; ++i) {
      while (!q.push(i)) std::this_thread::yield();
    }
  });

  std::uint64_t count = 0;
  std::uint64_t sum = 0;
  std::uint64_t prev = 0;
  while (count < kItems) {
    const std::size_t n = q.consumeN(kNoCap, [&](std::uint64_t v) {
      ASSERT_EQ(v, prev + 1);  // batches must stay ordered and gapless
      prev = v;
      sum += v;
    });
    count += n;
    if (n == 0) std::this_thread::yield();
  }
  producer.join();
  EXPECT_EQ(sum, kItems * (kItems + 1) / 2);
}

}  // namespace
}  // namespace ats
