#include "stats.hpp"

#include <gtest/gtest.h>

namespace perfbench {
namespace {

TEST(TailPercentile, KeepsTenSamplesBeyond) {
  EXPECT_EQ(TailPercentile(1000), 99);
  EXPECT_EQ(TailPercentile(5000), 99);  // capped at p99
  EXPECT_EQ(TailPercentile(999), 98);
  EXPECT_EQ(TailPercentile(270), 96);
  EXPECT_EQ(TailPercentile(20), 50);
  EXPECT_THROW(TailPercentile(19), std::invalid_argument);
  for (std::size_t n = 20; n < 3000; n += 7) {
    const int p = TailPercentile(n);
    std::vector<double> values(n);
    for (std::size_t i = 0; i < n; ++i) values[i] = static_cast<double>(i);
    const double cut = Percentile(values, p);
    const auto beyond = static_cast<std::size_t>(
        std::count_if(values.begin(), values.end(),
                      [cut](double v) { return v > cut; }));
    EXPECT_GE(beyond, 10u) << "n=" << n;
    if (p < 99) {
      // One percentile higher would leave fewer than ten beyond.
      EXPECT_LT((100 - (p + 1)) * n, 1000u) << "n=" << n;
    }
  }
}

TEST(Percentile, NearestRank) {
  const std::vector<double> values = {5, 1, 4, 2, 3};
  EXPECT_EQ(Percentile(values, 50), 3);
  EXPECT_EQ(Percentile(values, 100), 5);
  EXPECT_EQ(Percentile(values, 0), 1);
  EXPECT_EQ(Percentile(values, 81), 5);
  EXPECT_EQ(Percentile(values, 80), 4);
  EXPECT_EQ(Median({4, 1, 3, 2}), 2.5);
}

TEST(Quartiles, MatchPythonStatisticsQuantiles) {
  // Expected values from statistics.quantiles(values, n=4).
  auto q = Quartiles({1, 2, 3, 4, 5, 6, 7, 8, 9, 10});
  EXPECT_DOUBLE_EQ(q[0], 2.75);
  EXPECT_DOUBLE_EQ(q[1], 5.5);
  EXPECT_DOUBLE_EQ(q[2], 8.25);
  q = Quartiles({5.0, 1.0, 3.0});
  EXPECT_DOUBLE_EQ(q[0], 1.0);
  EXPECT_DOUBLE_EQ(q[1], 3.0);
  EXPECT_DOUBLE_EQ(q[2], 5.0);
  q = Quartiles({2.5, 9.0, 4.0, 7.5, 1.0, 3.0, 8.0});
  EXPECT_DOUBLE_EQ(q[0], 2.5);
  EXPECT_DOUBLE_EQ(q[1], 4.0);
  EXPECT_DOUBLE_EQ(q[2], 8.0);
  EXPECT_THROW(Quartiles({1.0}), std::invalid_argument);
}

TEST(SelfTime, DurationMinusUnionOfChildren) {
  const Interval parent{0, 100};
  EXPECT_DOUBLE_EQ(SelfTime(parent, {}), 100);
  // Disjoint children add up.
  EXPECT_DOUBLE_EQ(SelfTime(parent, {{10, 20}, {30, 50}}), 70);
  // Overlapping and nested children count once.
  EXPECT_DOUBLE_EQ(SelfTime(parent, {{10, 40}, {30, 50}, {35, 45}}), 60);
  // Parts outside the parent are clipped away.
  EXPECT_DOUBLE_EQ(SelfTime(parent, {{-20, 10}, {90, 130}}), 80);
  EXPECT_DOUBLE_EQ(SelfTime(parent, {{150, 160}}), 100);
  // Order of the children does not matter.
  EXPECT_DOUBLE_EQ(SelfTime(parent, {{60, 70}, {0, 5}, {65, 80}}), 75);
}

TEST(ReportDigest, OrderIndependentAndFieldSensitive) {
  const std::vector<ReportKey> reports = {
      {1, 0, 0, 2, 40, 3}, {1, 0, 1, 1, 12, 0}, {1, 1, 0, 2, 44, 5}};
  const std::uint64_t digest = ReportDigest(reports);
  EXPECT_EQ(ReportDigest({reports[2], reports[0], reports[1]}), digest);

  for (int field = 0; field < 6; ++field) {
    std::vector<ReportKey> changed = reports;
    std::int64_t* values[] = {&changed[1].job,           &changed[1].layer,
                              &changed[1].specimen,      &changed[1].cluster_count,
                              &changed[1].window_events, &changed[1].noise_events};
    *values[field] += 1;
    EXPECT_NE(ReportDigest(changed), digest) << "field " << field;
  }
  EXPECT_NE(ReportDigest({reports[0], reports[1]}), digest);  // missing
  EXPECT_NE(ReportDigest({reports[0], reports[1], reports[2], reports[2]}),
            digest);  // duplicated
}

}  // namespace
}  // namespace perfbench
