#include "common/rng.h"

#include <cmath>

#include "common/logging.h"

namespace distserve {
namespace {

inline uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

}  // namespace

uint64_t SplitMix64(uint64_t& state) {
  state += 0x9e3779b97f4a7c15ULL;
  uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

Rng::Rng(uint64_t seed) : seed_(seed) {
  uint64_t sm = seed;
  for (auto& word : s_) {
    word = SplitMix64(sm);
  }
}

Rng Rng::Fork(uint64_t stream_id) const {
  uint64_t sm = seed_ ^ (0x6a09e667f3bcc909ULL + stream_id * 0x9e3779b97f4a7c15ULL);
  return Rng(SplitMix64(sm));
}

void Rng::Jump() {
  // The xoshiro256 jump polynomial (public domain, Blackman & Vigna): equivalent to 2^128
  // calls to NextU64.
  static constexpr uint64_t kJump[] = {0x180ec6d33cfd0abaULL, 0xd5a61266f0c9392cULL,
                                       0xa9582618e03fc9aaULL, 0x39abdc4529b1661cULL};
  uint64_t s0 = 0;
  uint64_t s1 = 0;
  uint64_t s2 = 0;
  uint64_t s3 = 0;
  for (const uint64_t word : kJump) {
    for (int bit = 0; bit < 64; ++bit) {
      if ((word & (1ULL << bit)) != 0) {
        s0 ^= s_[0];
        s1 ^= s_[1];
        s2 ^= s_[2];
        s3 ^= s_[3];
      }
      NextU64();
    }
  }
  s_[0] = s0;
  s_[1] = s1;
  s_[2] = s2;
  s_[3] = s3;
  // A jump starts a fresh stream; a half-consumed Box–Muller pair must not leak into it.
  has_cached_normal_ = false;
}

Rng Rng::Jumped(uint64_t n) const {
  Rng out = *this;
  for (uint64_t i = 0; i < n; ++i) {
    out.Jump();
  }
  return out;
}

uint64_t Rng::NextU64() {
  const uint64_t result = Rotl(s_[1] * 5, 7) * 9;
  const uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = Rotl(s_[3], 45);
  return result;
}

double Rng::NextDouble() {
  // 53 high-quality bits -> [0, 1).
  return static_cast<double>(NextU64() >> 11) * 0x1.0p-53;
}

int64_t Rng::UniformInt(int64_t lo, int64_t hi) {
  DS_CHECK(lo <= hi);
  const uint64_t span = static_cast<uint64_t>(hi - lo) + 1;
  if (span == 0) {
    // Full 64-bit range.
    return static_cast<int64_t>(NextU64());
  }
  // Rejection sampling to avoid modulo bias.
  const uint64_t limit = UINT64_MAX - UINT64_MAX % span;
  uint64_t draw;
  do {
    draw = NextU64();
  } while (draw >= limit);
  return lo + static_cast<int64_t>(draw % span);
}

double Rng::Uniform(double lo, double hi) { return lo + (hi - lo) * NextDouble(); }

double Rng::Exponential(double rate) {
  DS_CHECK(rate > 0.0);
  double u;
  do {
    u = NextDouble();
  } while (u <= 0.0);
  return -std::log(u) / rate;
}

double Rng::Normal(double mean, double stddev) {
  if (has_cached_normal_) {
    has_cached_normal_ = false;
    return mean + stddev * cached_normal_;
  }
  double u1;
  do {
    u1 = NextDouble();
  } while (u1 <= 0.0);
  const double u2 = NextDouble();
  const double radius = std::sqrt(-2.0 * std::log(u1));
  const double theta = 2.0 * M_PI * u2;
  cached_normal_ = radius * std::sin(theta);
  has_cached_normal_ = true;
  return mean + stddev * radius * std::cos(theta);
}

double Rng::LogNormal(double mu, double sigma) { return std::exp(Normal(mu, sigma)); }

double Rng::Gamma(double shape, double scale) {
  DS_CHECK(shape > 0.0);
  DS_CHECK(scale > 0.0);
  return UnitGamma(shape).Scaled(scale);
}

GammaDraw Rng::UnitGamma(double shape) {
  DS_CHECK(shape > 0.0);
  if (shape < 1.0) {
    // Boost shape above 1 and correct with a power of a uniform (Marsaglia–Tsang trick).
    const double u = NextDouble();
    return GammaDraw{UnitGamma(shape + 1.0).unit, std::pow(u, 1.0 / shape)};
  }
  const double d = shape - 1.0 / 3.0;
  const double c = 1.0 / std::sqrt(9.0 * d);
  while (true) {
    double x = Normal(0.0, 1.0);
    double v = 1.0 + c * x;
    if (v <= 0.0) {
      continue;
    }
    v = v * v * v;
    const double u = NextDouble();
    if (u < 1.0 - 0.0331 * x * x * x * x) {
      return GammaDraw{d * v};
    }
    if (u > 0.0 && std::log(u) < 0.5 * x * x + d * (1.0 - v + std::log(v))) {
      return GammaDraw{d * v};
    }
  }
}

bool Rng::Bernoulli(double p) { return NextDouble() < p; }

}  // namespace distserve
