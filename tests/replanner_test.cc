#include "serving/replanner.h"

#include <gtest/gtest.h>

#include "workload/generator.h"

namespace distserve::serving {
namespace {

Replanner::Options SmallOptions(double cooldown = 0.0) {
  Replanner::Options options;
  options.profiler.window_size = 32;
  options.profiler.drift_threshold = 0.5;
  options.cooldown = cooldown;
  return options;
}

TEST(ReplannerTest, NoReplanOnStableTraffic) {
  int replans = 0;
  Replanner replanner(SmallOptions(),
                      [&](const workload::EmpiricalDataset&, double, double) { ++replans; });
  for (int i = 0; i < 500; ++i) {
    replanner.Observe(workload::Request{i, i * 0.25, 200, 100});
  }
  EXPECT_EQ(replans, 0);
  EXPECT_EQ(replanner.replans_triggered(), 0);
}

TEST(ReplannerTest, ReplanFiresOnShiftWithFittedDataset) {
  int replans = 0;
  double fitted_mean_input = 0.0;
  double observed_rate = 0.0;
  Replanner replanner(
      SmallOptions(),
      [&](const workload::EmpiricalDataset& fitted, double rate, double /*when*/) {
        ++replans;
        fitted_mean_input = fitted.MeanLengths(1, 2048).input_len;
        observed_rate = rate;
      });
  int id = 0;
  for (; id < 100; ++id) {
    replanner.Observe(workload::Request{id, id * 1.0, 100, 50});
  }
  for (int i = 0; i < 100; ++i, ++id) {
    replanner.Observe(workload::Request{id, 100.0 + i * 0.1, 1000, 50});
  }
  EXPECT_GE(replans, 1);
  // The fitted dataset reflects the new regime (some old requests may linger in the window).
  EXPECT_GT(fitted_mean_input, 500.0);
  EXPECT_GT(observed_rate, 2.0);
}

TEST(ReplannerTest, CooldownSuppressesRapidReplans) {
  auto run_with_cooldown = [](double cooldown) {
    int replans = 0;
    Replanner replanner(SmallOptions(cooldown),
                        [&](const workload::EmpiricalDataset&, double, double) { ++replans; });
    int id = 0;
    double t = 0.0;
    // Oscillating workload: alternate regimes every 80 requests.
    for (int phase = 0; phase < 8; ++phase) {
      const int len = (phase % 2 == 0) ? 100 : 1000;
      for (int i = 0; i < 80; ++i, ++id) {
        t += 0.5;
        replanner.Observe(workload::Request{id, t, len, 50});
      }
    }
    return replans;
  };
  const int no_cooldown = run_with_cooldown(0.0);
  const int with_cooldown = run_with_cooldown(10000.0);
  EXPECT_GT(no_cooldown, 1);
  EXPECT_EQ(with_cooldown, 1);
}

TEST(ReplannerTest, RebaseAfterReplanPreventsRefire) {
  int replans = 0;
  Replanner replanner(SmallOptions(),
                      [&](const workload::EmpiricalDataset&, double, double) { ++replans; });
  int id = 0;
  for (; id < 100; ++id) {
    replanner.Observe(workload::Request{id, id * 1.0, 100, 50});
  }
  for (int i = 0; i < 300; ++i, ++id) {
    replanner.Observe(workload::Request{id, 100.0 + i * 1.0, 1000, 50});
  }
  // The single shift triggers once (possibly twice while the mixed-regime window flushes),
  // not repeatedly: the profiler rebased onto the new regime.
  EXPECT_GE(replans, 1);
  EXPECT_LE(replans, 2);
}

TEST(ReplannerTest, NotifyFailureWithoutCallbackCountsDroppedTriggers) {
  Replanner replanner(SmallOptions(),
                      [](const workload::EmpiricalDataset&, double, double) {});
  for (int i = 0; i < 50; ++i) {
    replanner.Observe(workload::Request{i, i * 0.5, 200, 100});
  }
  // No on_failure callback installed: triggers are dropped, counted, and warned about once —
  // never silently swallowed.
  replanner.NotifyFailure(30.0, 8);
  replanner.NotifyFailure(31.0, 16);
  EXPECT_EQ(replanner.failures_reported(), 2);
  EXPECT_EQ(replanner.failure_triggers_dropped(), 2);
  EXPECT_EQ(replanner.failure_replans_triggered(), 0);

  // Wiring the callback stops the dropping; the drop count is sticky history.
  int fired = 0;
  replanner.set_on_failure(
      [&](const workload::EmpiricalDataset&, double, double, int) { ++fired; });
  replanner.NotifyFailure(200.0, 8);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(replanner.failures_reported(), 3);
  EXPECT_EQ(replanner.failure_triggers_dropped(), 2);
  EXPECT_EQ(replanner.failure_replans_triggered(), 1);
}

}  // namespace
}  // namespace distserve::serving
