#include "common/rng.h"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

namespace distserve {
namespace {

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(a.NextU64(), b.NextU64());
  }
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.NextU64() == b.NextU64()) {
      ++equal;
    }
  }
  EXPECT_LT(equal, 2);
}

TEST(RngTest, ForkIsIndependentOfParentDraws) {
  Rng a(7);
  Rng fork_before = a.Fork(1);
  a.NextU64();
  a.NextU64();
  Rng fork_after = a.Fork(1);
  // Forking depends only on the seed and stream id, not on generator state.
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(fork_before.NextU64(), fork_after.NextU64());
  }
}

TEST(RngTest, ForkStreamsDiffer) {
  Rng a(7);
  Rng s1 = a.Fork(1);
  Rng s2 = a.Fork(2);
  EXPECT_NE(s1.NextU64(), s2.NextU64());
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(3);
  for (int i = 0; i < 10000; ++i) {
    const double x = rng.NextDouble();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(RngTest, UniformIntCoversRangeInclusively) {
  Rng rng(11);
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 5000; ++i) {
    const int64_t v = rng.UniformInt(3, 7);
    EXPECT_GE(v, 3);
    EXPECT_LE(v, 7);
    saw_lo |= (v == 3);
    saw_hi |= (v == 7);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngTest, UniformIntSingleton) {
  Rng rng(5);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(rng.UniformInt(4, 4), 4);
  }
}

TEST(RngTest, ExponentialMeanMatchesRate) {
  Rng rng(13);
  const double rate = 2.5;
  double sum = 0.0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    sum += rng.Exponential(rate);
  }
  EXPECT_NEAR(sum / n, 1.0 / rate, 0.01);
}

TEST(RngTest, NormalMomentsMatch) {
  Rng rng(17);
  const int n = 200000;
  double sum = 0.0;
  double sq = 0.0;
  for (int i = 0; i < n; ++i) {
    const double x = rng.Normal(3.0, 2.0);
    sum += x;
    sq += x * x;
  }
  const double mean = sum / n;
  const double var = sq / n - mean * mean;
  EXPECT_NEAR(mean, 3.0, 0.03);
  EXPECT_NEAR(var, 4.0, 0.1);
}

TEST(RngTest, GammaMomentsMatch) {
  Rng rng(19);
  const double shape = 4.0;
  const double scale = 0.5;
  const int n = 200000;
  double sum = 0.0;
  double sq = 0.0;
  for (int i = 0; i < n; ++i) {
    const double x = rng.Gamma(shape, scale);
    EXPECT_GT(x, 0.0);
    sum += x;
    sq += x * x;
  }
  const double mean = sum / n;
  const double var = sq / n - mean * mean;
  EXPECT_NEAR(mean, shape * scale, 0.02);
  EXPECT_NEAR(var, shape * scale * scale, 0.05);
}

TEST(RngTest, GammaShapeBelowOne) {
  Rng rng(23);
  const double shape = 0.5;
  const double scale = 2.0;
  const int n = 200000;
  double sum = 0.0;
  for (int i = 0; i < n; ++i) {
    const double x = rng.Gamma(shape, scale);
    EXPECT_GT(x, 0.0);
    sum += x;
  }
  EXPECT_NEAR(sum / n, shape * scale, 0.03);
}

TEST(RngTest, LogNormalMedian) {
  Rng rng(29);
  std::vector<double> xs;
  for (int i = 0; i < 100001; ++i) {
    xs.push_back(rng.LogNormal(2.0, 0.7));
  }
  std::nth_element(xs.begin(), xs.begin() + 50000, xs.end());
  EXPECT_NEAR(xs[50000], std::exp(2.0), 0.15);
}

TEST(RngTest, BernoulliFrequency) {
  Rng rng(31);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    hits += rng.Bernoulli(0.3) ? 1 : 0;
  }
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(RngTest, JumpedZeroIsACopy) {
  Rng a(42);
  Rng b = a.Jumped(0);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.NextU64(), b.NextU64());
  }
}

TEST(RngTest, JumpIsDeterministicAndAdvances) {
  Rng a(42);
  Rng b(42);
  a.Jump();
  b.Jump();
  Rng unjumped(42);
  bool diverged = false;
  for (int i = 0; i < 100; ++i) {
    const uint64_t va = a.NextU64();
    EXPECT_EQ(va, b.NextU64());
    diverged = diverged || va != unjumped.NextU64();
  }
  EXPECT_TRUE(diverged);
}

TEST(RngTest, JumpedStreamsAreIndependentOfEnumeration) {
  // Jumped(k) is a pure function of (state, k): computing stream 3 directly equals jumping
  // three times — the property the fleet generator's per-source streams rely on.
  const Rng root(7);
  Rng direct = root.Jumped(3);
  Rng stepped = root;
  stepped.Jump();
  stepped.Jump();
  stepped.Jump();
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(direct.NextU64(), stepped.NextU64());
  }
}

TEST(RngTest, JumpDropsCachedNormal) {
  // A half-consumed Box–Muller pair must not leak across a jump. One Normal call and two
  // consume the same uniforms (the second comes from the cache), so these two generators
  // share the underlying state and differ only in the cached half-pair — which Jump drops.
  Rng tainted(11);
  (void)tainted.Normal(0.0, 1.0);  // leaves a cached second normal behind
  Rng clean(11);
  (void)clean.Normal(0.0, 1.0);
  (void)clean.Normal(0.0, 1.0);  // consumes the cache; same uniform draws as `tainted`
  tainted.Jump();
  clean.Jump();
  EXPECT_DOUBLE_EQ(tainted.Normal(0.0, 1.0), clean.Normal(0.0, 1.0));
}

TEST(RngTest, SplitMix64KnownSequenceIsStable) {
  uint64_t state = 0;
  const uint64_t first = SplitMix64(state);
  const uint64_t second = SplitMix64(state);
  uint64_t state2 = 0;
  EXPECT_EQ(SplitMix64(state2), first);
  EXPECT_EQ(SplitMix64(state2), second);
  EXPECT_NE(first, second);
}

// Distribution parameters are caller input: a bad one aborts in every build, not only in
// debug builds.
TEST(RngDeathTest, UniformIntEmptyRangeAborts) {
  Rng rng(1);
  EXPECT_DEATH(rng.UniformInt(5, 4), "lo <= hi");
}

TEST(RngDeathTest, ExponentialNonPositiveRateAborts) {
  Rng rng(1);
  EXPECT_DEATH(rng.Exponential(0.0), "rate > 0");
}

TEST(RngDeathTest, GammaNonPositiveShapeAborts) {
  Rng rng(1);
  EXPECT_DEATH(rng.Gamma(0.0, 1.0), "shape > 0");
}

TEST(RngDeathTest, GammaNonPositiveScaleAborts) {
  Rng rng(1);
  EXPECT_DEATH(rng.Gamma(1.0, -1.0), "scale > 0");
}

}  // namespace
}  // namespace distserve
