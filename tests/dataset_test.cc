#include "workload/dataset.h"

#include <gtest/gtest.h>

#include <vector>

#include "common/thread_pool.h"

namespace distserve::workload {
namespace {

TEST(DatasetTest, FixedDatasetConstant) {
  FixedDataset dataset(512, 64);
  Rng rng(1);
  for (int i = 0; i < 10; ++i) {
    const LengthSample s = dataset.Sample(rng);
    EXPECT_EQ(s.input_len, 512);
    EXPECT_EQ(s.output_len, 64);
  }
  EXPECT_EQ(dataset.name(), "fixed-512x64");
}

TEST(DatasetTest, ShareGptBoundsAndScale) {
  const auto dataset = MakeShareGptLike();
  Rng rng(2);
  double in_sum = 0.0;
  double out_sum = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const LengthSample s = dataset->Sample(rng);
    EXPECT_GE(s.input_len, 4);
    EXPECT_LE(s.input_len, 2048);
    EXPECT_GE(s.output_len, 2);
    EXPECT_LE(s.output_len, 1024);
    in_sum += s.input_len;
    out_sum += s.output_len;
  }
  // Figure 7a scale: a few hundred tokens each way.
  EXPECT_GT(in_sum / n, 150.0);
  EXPECT_LT(in_sum / n, 500.0);
  EXPECT_GT(out_sum / n, 100.0);
  EXPECT_LT(out_sum / n, 400.0);
}

TEST(DatasetTest, LongBenchHasMuchLongerInputs) {
  const auto sharegpt = MakeShareGptLike();
  const auto longbench = MakeLongBenchLike();
  const LengthSample sg = sharegpt->MeanLengths(3, 8192);
  const LengthSample lb = longbench->MeanLengths(33, 8192);
  // Figure 7c: summarization prompts are ~10x chatbot prompts; outputs stay short.
  EXPECT_GT(lb.input_len, 5 * sg.input_len);
  EXPECT_LT(lb.output_len, 2 * sg.output_len);
}

TEST(DatasetTest, HumanEvalShortBothWays) {
  const auto humaneval = MakeHumanEvalLike();
  const LengthSample he = humaneval->MeanLengths(4, 8192);
  EXPECT_LT(he.input_len, 300);
  EXPECT_LT(he.output_len, 150);
}

TEST(DatasetTest, SamplingIsSeedDeterministic) {
  const auto a = MakeShareGptLike();
  Rng rng1(99);
  Rng rng2(99);
  for (int i = 0; i < 100; ++i) {
    const LengthSample s1 = a->Sample(rng1);
    const LengthSample s2 = a->Sample(rng2);
    EXPECT_EQ(s1.input_len, s2.input_len);
    EXPECT_EQ(s1.output_len, s2.output_len);
  }
}

TEST(DatasetTest, EmpiricalResamplesObservedPairsOnly) {
  std::vector<LengthSample> obs = {{10, 20}, {30, 40}, {50, 60}};
  EmpiricalDataset dataset("test", obs);
  Rng rng(5);
  for (int i = 0; i < 200; ++i) {
    const LengthSample s = dataset.Sample(rng);
    const bool known = (s.input_len == 10 && s.output_len == 20) ||
                       (s.input_len == 30 && s.output_len == 40) ||
                       (s.input_len == 50 && s.output_len == 60);
    EXPECT_TRUE(known);
  }
}

TEST(DatasetTest, EmpiricalFromTracePreservesMarginals) {
  Trace trace;
  for (int i = 0; i < 100; ++i) {
    trace.push_back(Request{i, 0.0, 100 + i, 10 + i});
  }
  const EmpiricalDataset dataset = EmpiricalDataset::FromTrace("fit", trace);
  EXPECT_EQ(dataset.observation_count(), 100u);
  const LengthSample mean = dataset.MeanLengths(6, 20000);
  EXPECT_NEAR(mean.input_len, 149, 5);
  EXPECT_NEAR(mean.output_len, 59, 5);
}

TEST(DatasetTest, MakeDatasetByName) {
  EXPECT_EQ(MakeDatasetByName("sharegpt")->name(), "sharegpt-like");
  EXPECT_EQ(MakeDatasetByName("humaneval")->name(), "humaneval-like");
  EXPECT_EQ(MakeDatasetByName("longbench")->name(), "longbench-like");
}

// The Monte Carlo run MeanLengths memoizes, recomputed from scratch with the same arithmetic.
LengthSample FreshMeanLengths(const Dataset& dataset, uint64_t seed, int trials) {
  Rng rng(seed);
  double in_sum = 0.0;
  double out_sum = 0.0;
  for (int i = 0; i < trials; ++i) {
    const LengthSample s = dataset.Sample(rng);
    in_sum += s.input_len;
    out_sum += s.output_len;
  }
  return LengthSample{static_cast<int>(in_sum / trials), static_cast<int>(out_sum / trials)};
}

// Both the first (sampling) and every later (memoized) call equal a fresh run, per key.
void ExpectMemoMatchesFresh(const Dataset& dataset) {
  for (int pass = 0; pass < 2; ++pass) {
    for (const uint64_t seed : {1ull, 7ull, 0x9e3779b97f4a7c15ull}) {
      for (const int trials : {4096, 333}) {
        const LengthSample memo = dataset.MeanLengths(seed, trials);
        const LengthSample fresh = FreshMeanLengths(dataset, seed, trials);
        EXPECT_EQ(memo.input_len, fresh.input_len) << dataset.name() << " seed " << seed;
        EXPECT_EQ(memo.output_len, fresh.output_len) << dataset.name() << " seed " << seed;
      }
    }
  }
}

Trace RampTrace(int n, int input_base, int output_base) {
  Trace trace;
  for (int i = 0; i < n; ++i) {
    trace.push_back(Request{i, 0.0, input_base + 7 * i, output_base + 3 * i});
  }
  return trace;
}

TEST(MeanLengthMemoTest, MatchesFreshMonteCarloOnEveryDatasetKind) {
  ExpectMemoMatchesFresh(*MakeShareGptLike());
  ExpectMemoMatchesFresh(*MakeLongBenchLike());
  ExpectMemoMatchesFresh(FixedDataset(512, 64));
  ExpectMemoMatchesFresh(EmpiricalDataset::FromTrace("ramp", RampTrace(50, 100, 10)));
}

TEST(MeanLengthMemoTest, CopiesAndAssignmentsNeverServeAStaleEntry) {
  const EmpiricalDataset original = EmpiricalDataset::FromTrace("ramp", RampTrace(50, 100, 10));
  ExpectMemoMatchesFresh(original);  // fills the original's memo
  const EmpiricalDataset copy = original;
  ExpectMemoMatchesFresh(copy);

  // Assigning a different distribution over a dataset with a filled memo must not keep the
  // old entries: they were sampled from the old observations.
  EmpiricalDataset target = EmpiricalDataset::FromTrace("ramp", RampTrace(50, 100, 10));
  const LengthSample before = target.MeanLengths(7, 4096);
  target = EmpiricalDataset::FromTrace("long", RampTrace(50, 5000, 400));
  const LengthSample after = target.MeanLengths(7, 4096);
  EXPECT_NE(after.input_len, before.input_len);
  ExpectMemoMatchesFresh(target);
}

TEST(MeanLengthMemoTest, ConcurrentCallersAgreeWithAFreshRun) {
  const auto dataset = MakeShareGptLike();
  constexpr int kCallers = 4;
  const std::vector<uint64_t> seeds = {11, 12, 13, 14, 15, 16};
  // Every caller asks for every seed, starting at a different one, so first computations and
  // lookups of the same key race.
  std::vector<std::vector<LengthSample>> got(kCallers, std::vector<LengthSample>(seeds.size()));
  ThreadPool pool(kCallers);
  pool.ParallelFor(kCallers, [&](int64_t caller) {
    for (size_t k = 0; k < seeds.size(); ++k) {
      const size_t at = (k + static_cast<size_t>(caller)) % seeds.size();
      got[static_cast<size_t>(caller)][at] = dataset->MeanLengths(seeds[at]);
    }
  });
  for (size_t at = 0; at < seeds.size(); ++at) {
    const LengthSample fresh = FreshMeanLengths(*dataset, seeds[at], 4096);
    for (int caller = 0; caller < kCallers; ++caller) {
      EXPECT_EQ(got[static_cast<size_t>(caller)][at].input_len, fresh.input_len);
      EXPECT_EQ(got[static_cast<size_t>(caller)][at].output_len, fresh.output_len);
    }
  }
}

TEST(DatasetDeathTest, UnknownNameAborts) {
  EXPECT_DEATH(MakeDatasetByName("imagenet"), "unknown dataset");
}

}  // namespace
}  // namespace distserve::workload
