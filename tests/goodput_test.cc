#include "placement/goodput.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <utility>
#include <vector>

#include "workload/dataset.h"

namespace distserve::placement {
namespace {

GoodputSearchOptions FastOptions() {
  GoodputSearchOptions options;
  options.num_requests = 100;
  options.min_trace_duration = 0.0;
  options.max_requests = 100;
  options.bisection_iters = 20;
  return options;
}

TEST(GoodputTest, RecoversAnalyticThreshold) {
  // Synthetic verdict: passes iff observed trace rate <= 5 rps.
  workload::FixedDataset dataset(100, 10);
  auto passes = [](const workload::Trace& trace) {
    const workload::TraceStats stats = workload::ComputeTraceStats(trace);
    return stats.observed_rate <= 5.0;
  };
  const double rate = FindMaxRate(passes, dataset, FastOptions());
  EXPECT_NEAR(rate, 5.0, 0.5);
}

TEST(GoodputTest, HopelessConfigReturnsZero) {
  workload::FixedDataset dataset(100, 10);
  auto never = [](const workload::Trace&) { return false; };
  EXPECT_DOUBLE_EQ(FindMaxRate(never, dataset, FastOptions()), 0.0);
}

TEST(GoodputTest, AlwaysPassingCapsOut) {
  workload::FixedDataset dataset(100, 10);
  auto always = [](const workload::Trace&) { return true; };
  EXPECT_GT(FindMaxRate(always, dataset, FastOptions()), 1e4);
}

TEST(GoodputTest, AttainmentTargetMatters) {
  // Attainment decays smoothly with rate: a = max(0, 1 - rate/10), judged against the
  // search's own target.
  workload::FixedDataset dataset(100, 10);
  auto decay_meets = [](double target) {
    return [target](const workload::Trace& trace) {
      const double rate = workload::ComputeTraceStats(trace).observed_rate;
      return std::max(0.0, 1.0 - rate / 10.0) >= target;
    };
  };
  GoodputSearchOptions strict = FastOptions();
  strict.attainment_target = 0.9;
  GoodputSearchOptions loose = FastOptions();
  loose.attainment_target = 0.5;
  const double strict_rate = FindMaxRate(decay_meets(0.9), dataset, strict);
  const double loose_rate = FindMaxRate(decay_meets(0.5), dataset, loose);
  EXPECT_LT(strict_rate, loose_rate);
  EXPECT_NEAR(strict_rate, 1.0, 0.5);
  EXPECT_NEAR(loose_rate, 5.0, 1.0);
}

TEST(GoodputTest, WarmStartMatchesColdSearch) {
  // Attainment decays monotonically with rate, so a hinted search must land on exactly the
  // cold search's answer no matter how wrong the hint is — it only changes the probe count.
  workload::FixedDataset dataset(100, 10);
  auto decay = [](const workload::Trace& trace) {
    const double rate = workload::ComputeTraceStats(trace).observed_rate;
    return std::max(0.0, 1.0 - rate / 10.0) >= 0.9;
  };
  GoodputSearchStats cold_stats;
  const double cold = FindMaxRate(decay, dataset, FastOptions(), &cold_stats);
  for (const double hint : {0.05, 0.4, 1.0, cold, 3.0 * cold, 40.0, 900.0}) {
    GoodputSearchOptions options = FastOptions();
    options.rate_hint = hint;
    GoodputSearchStats warm_stats;
    const double warm = FindMaxRate(decay, dataset, options, &warm_stats);
    EXPECT_DOUBLE_EQ(warm, cold) << "hint=" << hint;
    EXPECT_GT(warm_stats.probes, 0);
  }
  // An accurate hint may not probe more than the cold search does.
  GoodputSearchOptions accurate = FastOptions();
  accurate.rate_hint = cold;
  GoodputSearchStats accurate_stats;
  FindMaxRate(decay, dataset, accurate, &accurate_stats);
  EXPECT_LE(accurate_stats.probes, cold_stats.probes);
}

TEST(GoodputTest, WarmStartHopelessStillZero) {
  workload::FixedDataset dataset(100, 10);
  auto never = [](const workload::Trace&) { return false; };
  GoodputSearchOptions options = FastOptions();
  options.rate_hint = 12.0;
  EXPECT_DOUBLE_EQ(FindMaxRate(never, dataset, options), 0.0);
}

TEST(GoodputTest, WarmStartAlwaysPassingCapsOut) {
  workload::FixedDataset dataset(100, 10);
  auto always = [](const workload::Trace&) { return true; };
  GoodputSearchOptions options = FastOptions();
  options.rate_hint = 2.0;
  EXPECT_GT(FindMaxRate(always, dataset, options), 1e4);
}

// The cap-out exit (GoodputSearchOptions::rate_cap) is exact for any attainment function,
// monotone or not: min(capped, c) == min(uncapped, c) bit for bit, with no more probes, cold
// and hinted, at caps on, between and above the probe lattice (rate_probe * 2^k).
TEST(GoodputTest, RateCapExitIsExact) {
  workload::FixedDataset dataset(100, 10);
  auto observed = [](const workload::Trace& trace) {
    return workload::ComputeTraceStats(trace).observed_rate;
  };
  const std::vector<std::pair<const char*, std::function<bool(const workload::Trace&)>>>
      attainments = {
          {"monotone", [&](const workload::Trace& t) { return observed(t) <= 5.0; }},
          {"always", [](const workload::Trace&) { return true; }},
          {"sawtooth", [&](const workload::Trace& t) { return std::fmod(observed(t), 3.0) < 1.5; }},
      };
  int searches_cut = 0;
  for (const auto& [name, attainment] : attainments) {
    for (const double hint : {0.0, 0.3, 4.0, 50.0}) {
      GoodputSearchOptions uncapped = FastOptions();
      uncapped.rate_hint = hint;
      GoodputSearchStats uncapped_stats;
      const double full = FindMaxRate(attainment, dataset, uncapped, &uncapped_stats);
      for (const double cap : {1.0, 2.0, 4.0, 8.0, 64.0,        // on lattice points
                               0.3, 3.0, 5.5, 12.5, 1000.0,     // between them
                               2e5, 1e300}) {                   // above the whole lattice
        GoodputSearchOptions capped = uncapped;
        capped.rate_cap = cap;
        GoodputSearchStats capped_stats;
        const double cut = FindMaxRate(attainment, dataset, capped, &capped_stats);
        EXPECT_EQ(std::min(cut, cap), std::min(full, cap))
            << name << " hint=" << hint << " cap=" << cap;
        EXPECT_LE(capped_stats.probes, uncapped_stats.probes)
            << name << " hint=" << hint << " cap=" << cap;
        if (capped_stats.probes < uncapped_stats.probes) {
          ++searches_cut;
        }
      }
    }
  }
  // Not vacuous: the exit does cut searches short.
  EXPECT_GT(searches_cut, 0);
}

TEST(GoodputTest, TraceCacheDoesNotChangeResultAndHits) {
  workload::FixedDataset dataset(100, 10);
  auto decay = [](const workload::Trace& trace) {
    const double rate = workload::ComputeTraceStats(trace).observed_rate;
    return std::max(0.0, 1.0 - rate / 10.0) >= 0.9;
  };
  const double uncached = FindMaxRate(decay, dataset, FastOptions());
  workload::TraceCache cache;
  GoodputSearchOptions options = FastOptions();
  options.trace_cache = &cache;
  const double first = FindMaxRate(decay, dataset, options);
  GoodputSearchStats second_stats;
  const double second = FindMaxRate(decay, dataset, options, &second_stats);
  EXPECT_DOUBLE_EQ(first, uncached);
  EXPECT_DOUBLE_EQ(second, uncached);
  // The second search re-visits the exact probes: every trace comes from the cache's draws.
  EXPECT_EQ(second_stats.trace_cache_hits, second_stats.probes);
}

TEST(GoodputTest, TraceSizeScalesWithRate) {
  workload::FixedDataset dataset(100, 10);
  GoodputSearchOptions options;
  options.num_requests = 50;
  options.min_trace_duration = 10.0;
  options.max_requests = 500;
  int max_seen = 0;
  auto spy = [&](const workload::Trace& trace) {
    max_seen = std::max(max_seen, static_cast<int>(trace.size()));
    return workload::ComputeTraceStats(trace).observed_rate <= 20.0;
  };
  FindMaxRate(spy, dataset, options);
  // Probes above 5 rps must have generated more than the 50-request floor.
  EXPECT_GT(max_seen, 100);
  EXPECT_LE(max_seen, 500);
}

}  // namespace
}  // namespace distserve::placement
