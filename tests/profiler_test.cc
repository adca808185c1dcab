#include "workload/profiler.h"

#include <gtest/gtest.h>

namespace distserve::workload {
namespace {

Request MakeReq(int id, double t, int in, int out) { return Request{id, t, in, out}; }

TEST(ProfilerTest, NoDriftOnStableWorkload) {
  WorkloadProfiler profiler({/*window_size=*/32, /*drift_threshold=*/0.5});
  for (int i = 0; i < 200; ++i) {
    profiler.Observe(MakeReq(i, i * 0.5, 100, 50));
    EXPECT_FALSE(profiler.DriftDetected()) << "at request " << i;
  }
}

TEST(ProfilerTest, DetectsInputLengthShift) {
  WorkloadProfiler profiler({32, 0.5});
  int id = 0;
  for (; id < 80; ++id) {
    profiler.Observe(MakeReq(id, id * 0.5, 100, 50));
  }
  EXPECT_FALSE(profiler.DriftDetected());
  // Shift input length 10x at the same rate.
  bool detected = false;
  for (int i = 0; i < 80; ++i, ++id) {
    profiler.Observe(MakeReq(id, id * 0.5, 1000, 50));
    detected |= profiler.DriftDetected();
  }
  EXPECT_TRUE(detected);
}

TEST(ProfilerTest, DetectsRateShift) {
  WorkloadProfiler profiler({32, 0.5});
  int id = 0;
  double t = 0.0;
  for (; id < 80; ++id) {
    t += 1.0;  // 1 req/s
    profiler.Observe(MakeReq(id, t, 100, 50));
  }
  bool detected = false;
  for (int i = 0; i < 80; ++i, ++id) {
    t += 0.1;  // 10 req/s
    profiler.Observe(MakeReq(id, t, 100, 50));
    detected |= profiler.DriftDetected();
  }
  EXPECT_TRUE(detected);
}

TEST(ProfilerTest, SmallShiftBelowThresholdIgnored) {
  WorkloadProfiler profiler({32, 0.5});
  int id = 0;
  for (; id < 80; ++id) {
    profiler.Observe(MakeReq(id, id * 0.5, 100, 50));
  }
  for (int i = 0; i < 80; ++i, ++id) {
    profiler.Observe(MakeReq(id, id * 0.5, 120, 55));  // +20%, below 50% threshold
    EXPECT_FALSE(profiler.DriftDetected());
  }
}

TEST(ProfilerTest, RebaseClearsDrift) {
  WorkloadProfiler profiler({16, 0.5});
  int id = 0;
  for (; id < 40; ++id) {
    profiler.Observe(MakeReq(id, id * 0.5, 100, 50));
  }
  // Feed the new regime until drift is flagged (it is transient: once both windows contain
  // the new regime the statistics re-converge, which is exactly why Rebase exists).
  bool detected = false;
  for (int i = 0; i < 200 && !detected; ++i, ++id) {
    profiler.Observe(MakeReq(id, id * 0.5, 1000, 50));
    detected = profiler.DriftDetected();
  }
  ASSERT_TRUE(detected);
  // Flush the recent window with pure new-regime traffic, then rebase on it.
  for (int i = 0; i < 16; ++i, ++id) {
    profiler.Observe(MakeReq(id, id * 0.5, 1000, 50));
  }
  profiler.Rebase();
  EXPECT_FALSE(profiler.DriftDetected());
  // Continuing with the new regime stays quiet.
  for (int i = 0; i < 40; ++i, ++id) {
    profiler.Observe(MakeReq(id, id * 0.5, 1000, 50));
    EXPECT_FALSE(profiler.DriftDetected());
  }
}

TEST(ProfilerTest, FitRecentReflectsRecentWindow) {
  WorkloadProfiler profiler({8, 0.5});
  for (int i = 0; i < 8; ++i) {
    profiler.Observe(MakeReq(i, i * 1.0, 100, 10));
  }
  for (int i = 8; i < 16; ++i) {
    profiler.Observe(MakeReq(i, i * 1.0, 400, 40));
  }
  const EmpiricalDataset fitted = profiler.FitRecent();
  const LengthSample mean = fitted.MeanLengths(1, 4096);
  EXPECT_EQ(mean.input_len, 400);
  EXPECT_EQ(mean.output_len, 40);
}

TEST(ProfilerTest, WindowStatsRates) {
  WorkloadProfiler profiler({4, 0.5});
  profiler.Observe(MakeReq(0, 0.0, 10, 1));
  profiler.Observe(MakeReq(1, 1.0, 10, 1));
  profiler.Observe(MakeReq(2, 2.0, 10, 1));
  profiler.Observe(MakeReq(3, 3.0, 10, 1));
  const auto stats = profiler.RecentStats();
  EXPECT_EQ(stats.count, 4);
  EXPECT_DOUBLE_EQ(stats.rate, 1.0);
  EXPECT_DOUBLE_EQ(stats.mean_input_len, 10.0);
}

}  // namespace
}  // namespace distserve::workload
