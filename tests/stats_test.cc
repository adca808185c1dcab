#include "common/stats.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <vector>

#include "common/rng.h"

namespace distserve {
namespace {

TEST(OnlineStatsTest, EmptyIsZero) {
  OnlineStats stats;
  EXPECT_EQ(stats.count(), 0);
  EXPECT_EQ(stats.mean(), 0.0);
  EXPECT_EQ(stats.variance(), 0.0);
  EXPECT_EQ(stats.min(), 0.0);
  EXPECT_EQ(stats.max(), 0.0);
}

TEST(OnlineStatsTest, BasicMoments) {
  OnlineStats stats;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) {
    stats.Add(x);
  }
  EXPECT_EQ(stats.count(), 8);
  EXPECT_DOUBLE_EQ(stats.mean(), 5.0);
  EXPECT_DOUBLE_EQ(stats.variance(), 4.0);
  EXPECT_DOUBLE_EQ(stats.stddev(), 2.0);
  EXPECT_DOUBLE_EQ(stats.min(), 2.0);
  EXPECT_DOUBLE_EQ(stats.max(), 9.0);
  EXPECT_DOUBLE_EQ(stats.sum(), 40.0);
}

TEST(OnlineStatsTest, MergeMatchesSequential) {
  Rng rng(5);
  OnlineStats whole;
  OnlineStats left;
  OnlineStats right;
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.Normal(10.0, 3.0);
    whole.Add(x);
    (i < 400 ? left : right).Add(x);
  }
  left.Merge(right);
  EXPECT_EQ(left.count(), whole.count());
  EXPECT_NEAR(left.mean(), whole.mean(), 1e-9);
  EXPECT_NEAR(left.variance(), whole.variance(), 1e-6);
  EXPECT_DOUBLE_EQ(left.min(), whole.min());
  EXPECT_DOUBLE_EQ(left.max(), whole.max());
}

TEST(OnlineStatsTest, MergeWithEmpty) {
  OnlineStats a;
  a.Add(1.0);
  a.Add(3.0);
  OnlineStats empty;
  a.Merge(empty);
  EXPECT_EQ(a.count(), 2);
  OnlineStats b;
  b.Merge(a);
  EXPECT_EQ(b.count(), 2);
  EXPECT_DOUBLE_EQ(b.mean(), 2.0);
}

// Pins the empty-tracker contract (stats.h): order statistics of zero samples are NaN —
// deterministically, not 0.0 masquerading as "zero latency" — while the empirical CDF used by
// SLO-attainment accounting stays 0.0 so attainment math never sees a NaN.
TEST(PercentileTest, EmptyTrackerOrderStatisticsAreNaN) {
  PercentileTracker tracker;
  EXPECT_TRUE(std::isnan(tracker.Percentile(50)));
  EXPECT_TRUE(std::isnan(tracker.Percentile(0)));
  EXPECT_TRUE(std::isnan(tracker.Percentile(100)));
  EXPECT_TRUE(std::isnan(tracker.Median()));
  EXPECT_TRUE(std::isnan(tracker.Mean()));
  EXPECT_TRUE(std::isnan(tracker.Min()));
  EXPECT_TRUE(std::isnan(tracker.Max()));
  EXPECT_EQ(tracker.FractionAtOrBelow(1.0), 0.0);
  EXPECT_TRUE(tracker.empty());
  EXPECT_TRUE(tracker.Sorted().empty());
  // One sample flips every query back to finite values.
  tracker.Add(2.0);
  EXPECT_EQ(tracker.Percentile(50), 2.0);
  EXPECT_EQ(tracker.Min(), 2.0);
  EXPECT_EQ(tracker.Max(), 2.0);
  EXPECT_EQ(tracker.Mean(), 2.0);
}

TEST(PercentileTest, SingleSample) {
  PercentileTracker tracker;
  tracker.Add(5.0);
  EXPECT_DOUBLE_EQ(tracker.Percentile(0), 5.0);
  EXPECT_DOUBLE_EQ(tracker.Percentile(50), 5.0);
  EXPECT_DOUBLE_EQ(tracker.Percentile(100), 5.0);
}

TEST(PercentileTest, ExactQuartilesWithInterpolation) {
  PercentileTracker tracker;
  for (double x : {1.0, 2.0, 3.0, 4.0, 5.0}) {
    tracker.Add(x);
  }
  EXPECT_DOUBLE_EQ(tracker.Percentile(0), 1.0);
  EXPECT_DOUBLE_EQ(tracker.Percentile(25), 2.0);
  EXPECT_DOUBLE_EQ(tracker.Percentile(50), 3.0);
  EXPECT_DOUBLE_EQ(tracker.Percentile(100), 5.0);
  EXPECT_DOUBLE_EQ(tracker.Percentile(12.5), 1.5);
}

TEST(PercentileTest, UnsortedInsertionOrder) {
  PercentileTracker tracker;
  for (double x : {9.0, 1.0, 5.0, 3.0, 7.0}) {
    tracker.Add(x);
  }
  EXPECT_DOUBLE_EQ(tracker.Median(), 5.0);
  EXPECT_DOUBLE_EQ(tracker.Min(), 1.0);
  EXPECT_DOUBLE_EQ(tracker.Max(), 9.0);
}

TEST(PercentileTest, AddAfterQueryResorts) {
  PercentileTracker tracker;
  tracker.Add(10.0);
  tracker.Add(20.0);
  EXPECT_DOUBLE_EQ(tracker.Median(), 15.0);
  tracker.Add(0.0);
  EXPECT_DOUBLE_EQ(tracker.Median(), 10.0);
}

TEST(PercentileTest, FractionAtOrBelow) {
  PercentileTracker tracker;
  for (int i = 1; i <= 10; ++i) {
    tracker.Add(static_cast<double>(i));
  }
  EXPECT_DOUBLE_EQ(tracker.FractionAtOrBelow(0.5), 0.0);
  EXPECT_DOUBLE_EQ(tracker.FractionAtOrBelow(5.0), 0.5);
  EXPECT_DOUBLE_EQ(tracker.FractionAtOrBelow(10.0), 1.0);
  EXPECT_DOUBLE_EQ(tracker.FractionAtOrBelow(100.0), 1.0);
}

// A percentile of an unsorted tracker selects its order statistics instead of sorting; the
// result must be bitwise the one read off a sorted copy, ties, tiny sizes and both ends of
// the range included.
uint64_t Bits(double x) {
  uint64_t bits = 0;
  std::memcpy(&bits, &x, sizeof(bits));
  return bits;
}

double SortedReference(std::vector<double> samples, double q) {
  std::sort(samples.begin(), samples.end());
  if (samples.size() == 1) {
    return samples[0];
  }
  const double rank = q / 100.0 * static_cast<double>(samples.size() - 1);
  const size_t lo = static_cast<size_t>(rank);
  const size_t hi = std::min(lo + 1, samples.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return samples[lo] * (1.0 - frac) + samples[hi] * frac;
}

TEST(PercentileTest, SelectionIsBitwiseTheSortedPercentile) {
  Rng rng(17);
  const double qs[] = {0.0, 50.0, 90.0, 99.0, 100.0};
  for (const size_t n : {1u, 2u, 3u, 4u, 7u, 10u, 101u, 1000u, 4001u}) {
    for (int trial = 0; trial < 8; ++trial) {
      std::vector<double> samples;
      for (size_t i = 0; i < n; ++i) {
        // Half the trials draw from eight values only, so most samples tie.
        samples.push_back(trial % 2 == 0 ? static_cast<double>(rng.UniformInt(0, 7))
                                         : rng.LogNormal(0.0, 1.5));
      }
      PercentileTracker repeated;  // every query after the first sees a partitioned order
      for (const double x : samples) {
        repeated.Add(x);
      }
      for (const double q : qs) {
        PercentileTracker fresh;
        for (const double x : samples) {
          fresh.Add(x);
        }
        const uint64_t want = Bits(SortedReference(samples, q));
        EXPECT_EQ(Bits(fresh.Percentile(q)), want) << "n=" << n << " q=" << q;
        EXPECT_EQ(Bits(repeated.Percentile(q)), want) << "n=" << n << " q=" << q;
      }
      EXPECT_EQ(repeated.Sorted().size(), n);  // selection reorders, never loses, samples
      EXPECT_EQ(Bits(repeated.Percentile(99.0)), Bits(SortedReference(samples, 99.0)));
    }
  }
}

TEST(HistogramTest, BinningAndClamping) {
  Histogram hist(0.0, 10.0, 5);
  hist.Add(0.5);    // bin 0
  hist.Add(9.99);   // bin 4
  hist.Add(-3.0);   // clamps to bin 0
  hist.Add(42.0);   // clamps to bin 4
  hist.Add(5.0);    // bin 2 (left-closed)
  EXPECT_EQ(hist.total(), 5);
  EXPECT_EQ(hist.bin_count(0), 2);
  EXPECT_EQ(hist.bin_count(1), 0);
  EXPECT_EQ(hist.bin_count(2), 1);
  EXPECT_EQ(hist.bin_count(4), 2);
  EXPECT_DOUBLE_EQ(hist.bin_lo(2), 4.0);
  EXPECT_DOUBLE_EQ(hist.bin_hi(2), 6.0);
}

TEST(HistogramTest, RenderContainsCounts) {
  Histogram hist(0.0, 2.0, 2);
  hist.Add(0.5);
  hist.Add(1.5);
  hist.Add(1.6);
  const std::string render = hist.Render(10);
  EXPECT_NE(render.find("1"), std::string::npos);
  EXPECT_NE(render.find("2"), std::string::npos);
  EXPECT_NE(render.find("#"), std::string::npos);
}

// The percentile is caller input: one outside [0, 100] aborts in every build.
TEST(PercentileTrackerDeathTest, PercentileOutOfRangeAborts) {
  PercentileTracker tracker;
  tracker.Add(1.0);
  EXPECT_DEATH(tracker.Percentile(101.0), "q >= 0.0 && q <= 100.0");
}

}  // namespace
}  // namespace distserve
