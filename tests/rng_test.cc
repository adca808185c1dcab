#include "common/rng.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
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

// Marsaglia–Tsang written out as one function, the form Gamma had before it was split into
// UnitGamma and GammaDraw::Scaled: the split must not move a single bit.
double ReferenceGamma(Rng& rng, double shape, double scale) {
  if (shape < 1.0) {
    const double u = rng.NextDouble();
    return ReferenceGamma(rng, shape + 1.0, scale) * std::pow(u, 1.0 / shape);
  }
  const double d = shape - 1.0 / 3.0;
  const double c = 1.0 / std::sqrt(9.0 * d);
  while (true) {
    const double x = rng.Normal(0.0, 1.0);
    double v = 1.0 + c * x;
    if (v <= 0.0) {
      continue;
    }
    v = v * v * v;
    const double u = rng.NextDouble();
    if (u < 1.0 - 0.0331 * x * x * x * x) {
      return d * v * scale;
    }
    if (u > 0.0 && std::log(u) < 0.5 * x * x + d * (1.0 - v + std::log(v))) {
      return d * v * scale;
    }
  }
}

TEST(RngTest, UnitGammaScaledIsGammaBitForBit) {
  for (const double shape : {1.0 / 4096.0, 0.25, 0.999, 1.0, 4.0, 4096.0}) {
    for (const double scale : {1e-6, 0.37, 1.0, 250.0}) {
      Rng reference(61);
      Rng gamma(61);
      Rng unit(61);
      for (int i = 0; i < 2000; ++i) {
        const double want = ReferenceGamma(reference, shape, scale);
        const double got = gamma.Gamma(shape, scale);
        const double scaled = unit.UnitGamma(shape).Scaled(scale);
        ASSERT_EQ(std::memcmp(&got, &want, sizeof(double)), 0)
            << "shape=" << shape << " scale=" << scale << " draw " << i;
        ASSERT_EQ(std::memcmp(&scaled, &want, sizeof(double)), 0)
            << "shape=" << shape << " scale=" << scale << " draw " << i;
      }
      // All three consumed the same draws.
      const uint64_t next = reference.NextU64();
      EXPECT_EQ(gamma.NextU64(), next);
      EXPECT_EQ(unit.NextU64(), next);
    }
  }
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
