#include "common/stats.hpp"

#include <gtest/gtest.h>

namespace ats {
namespace {

TEST(Quartiles, EmptyIsAllZero) {
  const Quartiles q = quartilesOf({});
  EXPECT_DOUBLE_EQ(q.q1, 0.0);
  EXPECT_DOUBLE_EQ(q.median, 0.0);
  EXPECT_DOUBLE_EQ(q.q3, 0.0);
  EXPECT_DOUBLE_EQ(q.iqr(), 0.0);
}

TEST(Quartiles, KnownSample) {
  // Unsorted on purpose.  Positions 1.75, 3.5 and 5.25 of the sorted
  // {2, 4, 4, 4, 5, 5, 7, 9}: q1 = 4, median = 4.5, q3 = 5 + 0.25 * 2.
  const Quartiles q = quartilesOf({9.0, 4.0, 2.0, 5.0, 4.0, 7.0, 4.0, 5.0});
  EXPECT_DOUBLE_EQ(q.q1, 4.0);
  EXPECT_DOUBLE_EQ(q.median, 4.5);
  EXPECT_DOUBLE_EQ(q.q3, 5.5);
  EXPECT_DOUBLE_EQ(q.iqr(), 1.5);
}

TEST(Quartiles, SingleSampleHasZeroSpread) {
  const Quartiles q = quartilesOf({42.0});
  EXPECT_DOUBLE_EQ(q.q1, 42.0);
  EXPECT_DOUBLE_EQ(q.median, 42.0);
  EXPECT_DOUBLE_EQ(q.q3, 42.0);
  EXPECT_DOUBLE_EQ(q.iqr(), 0.0);
}

TEST(Quartiles, OneOutlierDoesNotMoveTheMedian) {
  // The figure cells' reason for the median: one slow rep out of five
  // (here a 10x outlier) leaves the median where the other four put it.
  const Quartiles q = quartilesOf({100.0, 101.0, 10.0, 99.0, 100.0});
  EXPECT_DOUBLE_EQ(q.median, 100.0);
  EXPECT_DOUBLE_EQ(q.q1, 99.0);
  EXPECT_DOUBLE_EQ(q.q3, 100.0);
}

}  // namespace
}  // namespace ats
