#include "workload/trace_cache.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <memory>
#include <vector>

#include "common/thread_pool.h"
#include "workload/dataset.h"
#include "workload/generator.h"

namespace distserve::workload {
namespace {

TraceSpec Spec(double rate, int num_requests = 50, uint64_t seed = 7, double cv = 1.0) {
  TraceSpec spec;
  spec.rate = rate;
  spec.num_requests = num_requests;
  spec.seed = seed;
  spec.burstiness_cv = cv;
  return spec;
}

bool BitEqual(double a, double b) { return std::memcmp(&a, &b, sizeof(double)) == 0; }

// Whole-trace bit identity: ids, lengths and the exact bits of every arrival time.
::testing::AssertionResult SameTrace(const Trace& got, const Trace& want) {
  if (got.size() != want.size()) {
    return ::testing::AssertionFailure() << "size " << got.size() << " vs " << want.size();
  }
  for (size_t i = 0; i < want.size(); ++i) {
    if (got[i].id != want[i].id || got[i].input_len != want[i].input_len ||
        got[i].output_len != want[i].output_len ||
        !BitEqual(got[i].arrival_time, want[i].arrival_time)) {
      return ::testing::AssertionFailure()
             << "request " << i << ": arrival " << got[i].arrival_time << " vs "
             << want[i].arrival_time;
    }
  }
  return ::testing::AssertionSuccess();
}

TEST(TraceCacheTest, MissThenHitReturnsSameTrace) {
  FixedDataset dataset(100, 10);
  TraceCache cache;
  bool drew = false;
  const Trace first = cache.Get(Spec(2.0), dataset, &drew);
  EXPECT_TRUE(drew);
  const Trace second = cache.Get(Spec(2.0), dataset, &drew);
  EXPECT_FALSE(drew);  // served from the stream, not drawn again
  EXPECT_TRUE(SameTrace(second, first));
  EXPECT_EQ(cache.stats().misses, 1);
  EXPECT_EQ(cache.stats().hits, 1);
  EXPECT_EQ(cache.stats().entries, 1);
}

TEST(TraceCacheTest, CachedTraceBitIdenticalToFreshGeneration) {
  FixedDataset dataset(100, 10);
  TraceCache cache;
  const TraceSpec spec = Spec(3.5, 80, 42);
  EXPECT_TRUE(SameTrace(cache.Get(spec, dataset), GenerateTrace(spec, dataset)));
  // And again from the stream it left behind.
  EXPECT_TRUE(SameTrace(cache.Get(spec, dataset), GenerateTrace(spec, dataset)));
}

TEST(TraceCacheTest, DistinctSpecsAreDistinctEntries) {
  // A stream is keyed by (seed, burstiness, dataset): every other input is a distinct stream.
  FixedDataset dataset(100, 10);
  TraceCache cache;
  cache.Get(Spec(2.0), dataset);
  // A different seed, then a different burstiness.
  cache.Get(Spec(2.0, 50, 8), dataset);
  cache.Get(Spec(2.0, 50, 7, 2.0), dataset);
  EXPECT_EQ(cache.stats().misses, 3);
  EXPECT_EQ(cache.stats().hits, 0);
  EXPECT_EQ(cache.stats().entries, 3);
  // Rate and request count are not: another rate spaces the same draws (a hit), and a longer
  // trace grows the same stream (a miss, but no new entry).
  cache.Get(Spec(4.0), dataset);
  EXPECT_EQ(cache.stats().hits, 1);
  cache.Get(Spec(2.0, 60), dataset);
  EXPECT_EQ(cache.stats().misses, 4);
  EXPECT_EQ(cache.stats().entries, 3);
  EXPECT_EQ(cache.stats().cached_requests, 60 + 50 + 50);
}

TEST(TraceCacheTest, DatasetIdentityDistinguishesSameName) {
  // Two distributions with the same display name must not share draw streams.
  LognormalDataset::Params a;
  a.name = "synthetic";
  a.input_mu = 5.0;
  LognormalDataset::Params b = a;
  b.input_mu = 6.0;
  const LognormalDataset da(a);
  const LognormalDataset db(b);
  ASSERT_EQ(da.name(), db.name());
  ASSERT_NE(da.identity(), db.identity());
  TraceCache cache;
  const Trace ta = cache.Get(Spec(2.0), da);
  const Trace tb = cache.Get(Spec(2.0), db);
  EXPECT_EQ(cache.stats().misses, 2);
  EXPECT_EQ(cache.stats().entries, 2);
  EXPECT_TRUE(SameTrace(ta, GenerateTrace(Spec(2.0), da)));
  EXPECT_TRUE(SameTrace(tb, GenerateTrace(Spec(2.0), db)));
  EXPECT_FALSE(SameTrace(ta, tb));
}

TEST(TraceCacheTest, EvictsLeastRecentlyUsedOverBudget) {
  FixedDataset dataset(100, 10);
  TraceCache cache(/*max_cached_requests=*/100);
  const Trace first = cache.Get(Spec(2.0, 60, 1), dataset);
  cache.Get(Spec(2.0, 60, 2), dataset);  // 120 draws resident: evicts seed 1's stream
  EXPECT_EQ(cache.stats().evictions, 1);
  EXPECT_EQ(cache.stats().entries, 1);
  EXPECT_LE(cache.stats().cached_requests, 100);
  // The evicted stream is drawn again on the next request (a miss, not a hit), at any rate,
  // and its draws come out exactly as before.
  bool drew = false;
  const Trace again = cache.Get(Spec(2.0, 60, 1), dataset, &drew);
  EXPECT_TRUE(drew);
  EXPECT_EQ(cache.stats().hits, 0);
  EXPECT_TRUE(SameTrace(again, first));
}

TEST(TraceCacheTest, OversizedTraceStillCached) {
  // A single stream larger than the whole budget is kept (the budget keeps >= 1 stream);
  // otherwise the planner's highest-rate probe would never hit.
  FixedDataset dataset(100, 10);
  TraceCache cache(/*max_cached_requests=*/10);
  cache.Get(Spec(2.0, 50, 1), dataset);
  EXPECT_EQ(cache.stats().entries, 1);
  cache.Get(Spec(2.0, 50, 1), dataset);
  EXPECT_EQ(cache.stats().hits, 1);
  // Growing it past the budget keeps it too.
  cache.Get(Spec(5.0, 80, 1), dataset);
  EXPECT_EQ(cache.stats().entries, 1);
  EXPECT_EQ(cache.stats().evictions, 0);
  cache.Get(Spec(9.0, 80, 1), dataset);
  EXPECT_EQ(cache.stats().hits, 2);
}

TEST(TraceCacheTest, ClearResetsEverything) {
  FixedDataset dataset(100, 10);
  TraceCache cache;
  cache.Get(Spec(2.0), dataset);
  cache.Get(Spec(2.0), dataset);
  cache.Clear();
  EXPECT_EQ(cache.stats().entries, 0);
  EXPECT_EQ(cache.stats().hits, 0);
  EXPECT_EQ(cache.stats().misses, 0);
  EXPECT_EQ(cache.stats().evictions, 0);
  EXPECT_EQ(cache.stats().cached_requests, 0);
  cache.Get(Spec(2.0), dataset);
  EXPECT_EQ(cache.stats().misses, 1);
  EXPECT_EQ(cache.stats().cached_requests, 50);
}

// The three dataset kinds a planner draws from: a parametric fit, fixed lengths, and an
// empirical resample of a recorded trace.
struct Datasets {
  std::unique_ptr<Dataset> lognormal = MakeShareGptLike();
  FixedDataset fixed{256, 32};
  EmpiricalDataset empirical = EmpiricalDataset::FromTrace(
      "recorded", GenerateTrace(Spec(1.0, 300, 99), *MakeHumanEvalLike()));
  std::vector<const Dataset*> all() const { return {lognormal.get(), &fixed, &empirical}; }
};

// Get is GenerateTrace bit for bit over the planner's probe space: lattice rates
// (rate_probe * 2^k), bisection midpoints between them and off-lattice rates; every cv from
// the clamp band's floor to its ceiling (cv > 1 takes Gamma's shape < 1 branch); request
// counts that grow the stream and then read shorter prefixes of it; three seeds; and all
// three dataset kinds.
TEST(TraceCacheTest, GetIsGenerateTraceAcrossTheProbeGrid) {
  const Datasets datasets;
  const std::vector<double> lattice = {1.0, 2.0, 8.0, 64.0};
  const std::vector<double> midpoints = {0.75, 3.0, 5.0, 6.5, 48.0};
  const std::vector<double> off_lattice = {0.013, 0.37, 3.3, 17.9, 1234.5};
  std::vector<double> rates = lattice;
  rates.insert(rates.end(), midpoints.begin(), midpoints.end());
  rates.insert(rates.end(), off_lattice.begin(), off_lattice.end());
  const std::vector<double> cvs = {1.0 / 64.0, 0.5, 1.0, 2.0, 64.0};
  const std::vector<int> counts = {40, 700, 1500, 250, 1};  // grow, then shrink
  TraceCache cache;
  int gets = 0;
  for (const uint64_t seed : {uint64_t{3}, uint64_t{1234}, uint64_t{0xfeedface}}) {
    for (const double cv : cvs) {
      for (const Dataset* dataset : datasets.all()) {
        for (const int count : counts) {
          for (const double rate : rates) {
            const TraceSpec spec = Spec(rate, count, seed, cv);
            ASSERT_TRUE(SameTrace(cache.Get(spec, *dataset), GenerateTrace(spec, *dataset)))
                << "seed=" << seed << " cv=" << cv << " dataset=" << dataset->name()
                << " count=" << count << " rate=" << rate;
            ++gets;
          }
        }
      }
    }
  }
  // One stream per (seed, cv, dataset); it grows only when the count first rises.
  const TraceCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.entries, 3 * 5 * 3);
  EXPECT_EQ(stats.misses, 3 * 5 * 3 * 3);
  EXPECT_EQ(stats.hits + stats.misses, gets);
  EXPECT_EQ(stats.cached_requests, 3 * 5 * 3 * 1500);
}

// Concurrent callers on a thread pool share streams while they grow: every trace is still
// GenerateTrace's, and the counters add up. Runs under the thread sanitizer in CI.
TEST(TraceCacheTest, ConcurrentGetsAreGenerateTrace) {
  const Datasets datasets;
  TraceCache cache(/*max_cached_requests=*/6000);  // small enough to evict while growing
  ThreadPool pool(3);
  constexpr int kTasks = 96;
  std::atomic<int> mismatches{0};
  pool.ParallelFor(kTasks, [&](int64_t t) {
    const Dataset& dataset = *datasets.all()[static_cast<size_t>(t % 3)];
    const uint64_t seed = static_cast<uint64_t>(t % 4);
    const double cv = (t % 5 == 0) ? 2.0 : 1.0;
    const TraceSpec spec = Spec(0.5 + static_cast<double>(t % 7), 100 + 37 * (t % 23), seed, cv);
    if (!SameTrace(cache.Get(spec, dataset), GenerateTrace(spec, dataset))) {
      mismatches.fetch_add(1);
    }
  });
  EXPECT_EQ(mismatches.load(), 0);
  const TraceCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.hits + stats.misses, kTasks);
  EXPECT_LE(stats.entries, 3 * 4 * 2);
}

}  // namespace
}  // namespace distserve::workload
