// Deterministic pseudo-random number generation for reproducible simulations.
//
// Every stochastic component in the library (arrival processes, dataset samplers, goodput
// search resampling) draws from an explicitly seeded Rng so that a (seed, config) pair fully
// determines an experiment. We implement xoshiro256** seeded via SplitMix64 — both are public
// domain algorithms — instead of <random> engines because their cross-platform output is
// bit-exact and cheap to fork into independent streams.
#ifndef DISTSERVE_COMMON_RNG_H_
#define DISTSERVE_COMMON_RNG_H_

#include <cstdint>

namespace distserve {

// One Gamma(shape, scale) draw split into its scale-free part and its scaling, so that one
// draw can be scaled to many scales: Scaled(scale) is bit-identical to what Gamma(shape, scale)
// returns from the same generator state. The probe-trace cache (workload/trace_cache.h) keeps
// these draws and rescales them to every probe rate.
struct GammaDraw {
  double unit = 0.0;   // Marsaglia–Tsang's d * v (at shape + 1 when the shape is boosted)
  double boost = 1.0;  // pow(u, 1/shape) for shape < 1; exactly 1 otherwise
  double Scaled(double scale) const { return unit * scale * boost; }
};

// SplitMix64: used to expand a 64-bit seed into xoshiro state, and as a cheap standalone
// stateless hash for deriving substream seeds.
uint64_t SplitMix64(uint64_t& state);

// xoshiro256** generator with a suite of distribution samplers.
class Rng {
 public:
  explicit Rng(uint64_t seed);

  // Creates an independent generator derived from this one's seed and `stream_id`. Forked
  // streams are used to decouple e.g. arrival sampling from length sampling, so adding draws to
  // one does not perturb the other.
  Rng Fork(uint64_t stream_id) const;

  // Advances the state by exactly 2^128 draws without generating them (the standard
  // xoshiro256 jump polynomial). Unlike Fork's rehash, jumping partitions one generator's
  // orbit into provably non-overlapping subsequences of 2^128 draws each.
  void Jump();

  // Splittable substream derivation: a copy of this generator advanced by n * 2^128 draws.
  // Jumped(0) is an exact copy; Jumped(a) and Jumped(b) for a != b never overlap within
  // 2^128 draws. The fleet workload generator gives source k the streams Jumped(k), so each
  // source's arrival/length sequence is a fixed function of (seed, k) — independent of how
  // many sources exist or how the simulation is sharded (DESIGN.md §17).
  Rng Jumped(uint64_t n) const;

  // Uniform on [0, 2^64).
  uint64_t NextU64();

  // Uniform on [0, 1).
  double NextDouble();

  // Uniform integer on [lo, hi] inclusive. Requires lo <= hi.
  int64_t UniformInt(int64_t lo, int64_t hi);

  // Uniform real on [lo, hi).
  double Uniform(double lo, double hi);

  // Exponential with the given rate (mean 1/rate). Requires rate > 0.
  double Exponential(double rate);

  // Standard normal via Box–Muller (cached second value for efficiency).
  double Normal(double mean, double stddev);

  // Lognormal: exp(Normal(mu, sigma)).
  double LogNormal(double mu, double sigma);

  // Gamma(shape k, scale theta) via Marsaglia–Tsang; used for bursty arrival processes.
  // Equal to UnitGamma(shape).Scaled(scale).
  double Gamma(double shape, double scale);

  // The scale-free part of one Gamma(shape, .) draw; consumes exactly the draws Gamma does.
  GammaDraw UnitGamma(double shape);

  // Bernoulli trial.
  bool Bernoulli(double p);

  uint64_t seed() const { return seed_; }

 private:
  uint64_t seed_;
  uint64_t s_[4];
  bool has_cached_normal_ = false;
  double cached_normal_ = 0.0;
};

}  // namespace distserve

#endif  // DISTSERVE_COMMON_RNG_H_
