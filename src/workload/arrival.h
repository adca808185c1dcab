// Arrival processes: generators of request inter-arrival gaps.
//
// The paper's datasets carry no timestamps, so it generates arrivals from a Poisson process at
// a controlled rate (§6.1). We additionally provide a Gamma-renewal process whose coefficient
// of variation dials burstiness up or down (CV = 1 recovers Poisson) — used by the
// burstiness/pull-transfer failure-injection experiments — and a deterministic process used by
// queueing-theory validation tests (M/D/1 needs Poisson, but fixed-interval gives D/D/1).
//
// Time-varying traffic (DESIGN.md §18): a RateSchedule is a deterministic requests/second
// profile rate(t) — a piecewise-linear diurnal curve plus multiplicative flash-crowd spikes —
// and ScheduledArrivals samples a non-homogeneous arrival stream against it by Lewis–Shedler
// thinning of a renewal process running at the schedule's peak rate. rate(t) is exposed
// directly so analytic tiers (M/D/1 pricing, roofline bounds) stay usable on any window of
// the schedule without sampling.
//
// Every process honors one contract, checked at the exits: NextGap returns a finite value
// >= 0, and constructors reject (DS_CHECK) non-finite or non-positive rates/CVs rather than
// letting a NaN rate poison every downstream arrival time.
#ifndef DISTSERVE_WORKLOAD_ARRIVAL_H_
#define DISTSERVE_WORKLOAD_ARRIVAL_H_

#include <memory>
#include <vector>

#include "common/rng.h"

namespace distserve::workload {

class ArrivalProcess {
 public:
  virtual ~ArrivalProcess() = default;

  // Next inter-arrival gap in seconds. Contract: finite and >= 0 for every implementation.
  virtual double NextGap(Rng& rng) = 0;

  // Mean request rate (requests/second) this process targets.
  virtual double rate() const = 0;
};

// Poisson arrivals: exponential gaps with the given rate.
class PoissonArrivals : public ArrivalProcess {
 public:
  explicit PoissonArrivals(double rate);
  double NextGap(Rng& rng) override;
  double rate() const override { return rate_; }

 private:
  double rate_;
};

// Gamma-renewal arrivals with mean rate `rate` and coefficient of variation `cv`.
// cv > 1 produces bursty traffic; cv < 1 smoother-than-Poisson; cv == 1 is exactly Poisson.
// CVs are clamped to [kMinCv, kMaxCv] (with a one-line warning): outside that band the
// Gamma shape parameter (1/cv^2) is extreme enough that sampled gaps underflow to zero or
// lose their target mean to floating-point truncation, silently violating the process's
// rate contract instead of its burstiness knob.
class GammaArrivals : public ArrivalProcess {
 public:
  static constexpr double kMinCv = 1.0 / 64.0;
  static constexpr double kMaxCv = 64.0;

  GammaArrivals(double rate, double cv);
  // Gap(rng.UnitGamma(shape())).
  double NextGap(Rng& rng) override;
  // The gap one unit draw makes at this process's rate: draws taken once at shape() can be
  // spaced at any rate with the same cv (workload::TraceCache does), bit-identical to NextGap.
  double Gap(const GammaDraw& draw) const;
  double rate() const override { return rate_; }
  double cv() const { return cv_; }  // post-clamp value actually in effect
  double shape() const { return shape_; }

 private:
  double rate_;
  double cv_;
  double shape_;
  double scale_;
};

// Deterministic arrivals: constant gap 1/rate.
class FixedArrivals : public ArrivalProcess {
 public:
  explicit FixedArrivals(double rate);
  double NextGap(Rng& rng) override;
  double rate() const override { return rate_; }

 private:
  double rate_;
};

// A deterministic requests/second profile over time: a piecewise-linear base curve through
// `knots`, times multiplicative flash-crowd spikes. Immutable once built apart from AddSpike,
// and everything is closed-form, so rate(t) is exact and cheap — the analytic planner tiers
// consume it directly (mean rate over a control window = trapezoid integral / width).
class RateSchedule {
 public:
  struct Knot {
    double time = 0.0;  // seconds from schedule start
    double rate = 0.0;  // requests/second
  };
  // A flash crowd: the base rate is multiplied by `multiplier` during [start, start +
  // duration). Overlapping spikes compound.
  struct Spike {
    double start = 0.0;
    double duration = 0.0;
    double multiplier = 1.0;
  };

  // Knot times must be strictly increasing and start at 0; rates finite and > 0. When
  // `periodic`, t wraps modulo the last knot's time (the day repeats), so the last knot's
  // rate should match the first's for a continuous profile; otherwise t past the last knot
  // holds the final rate.
  explicit RateSchedule(std::vector<Knot> knots, bool periodic = false);

  // Spike bounds must be finite, duration > 0, multiplier finite and > 0. Spikes apply in
  // absolute time (they do not wrap with a periodic base).
  void AddSpike(const Spike& spike);

  // Instantaneous rate at absolute time t (>= 0): linear interpolation between knots, times
  // every spike covering t.
  double rate(double t) const;

  // Upper envelope of rate(t) over all t >= 0 — peak knot rate times the worst-case product
  // of overlapping spike multipliers. The thinning bound for ScheduledArrivals, and the rate
  // static provisioning must plan for.
  double max_rate() const;

  // Mean of rate(t) over [0, horizon] (exact trapezoid integral of the piecewise-linear
  // profile, spikes included). The rate an average-provisioned baseline would plan for.
  double MeanRate(double horizon) const;

  double period() const { return knots_.back().time; }
  bool periodic() const { return periodic_; }

  // A plausible diurnal day of `period` seconds: trough at t=0 (night), morning ramp, broad
  // afternoon peak, evening decline back to the trough. Periodic.
  static RateSchedule Diurnal(double trough_rate, double peak_rate, double period);

 private:
  double BaseRate(double t) const;

  std::vector<Knot> knots_;
  std::vector<Spike> spikes_;
  bool periodic_ = false;
};

// Non-homogeneous arrivals against a RateSchedule via Lewis–Shedler thinning: candidate
// events are drawn from a Gamma renewal process (burstiness `cv`) running at the schedule's
// max_rate(), and each candidate at time t is accepted with probability rate(t)/max_rate().
// With cv == 1 this is the exact non-homogeneous Poisson construction; other CVs transplant
// the renewal burstiness onto the schedule (the standard simulation approximation — the
// local mean tracks rate(t), the local CV is approximate).
//
// Thinning needs absolute time, so this is not an ArrivalProcess; GenerateScheduledTrace
// (generator.h) drives it.
class ScheduledArrivals {
 public:
  // `schedule` is non-owning and must outlive this process.
  ScheduledArrivals(const RateSchedule* schedule, double cv);

  // The next absolute arrival time after `now`. Finite, > now whenever any candidate gap is
  // positive (equal to `now` only for zero-gap candidates, matching the base process).
  double NextArrival(Rng& rng, double now);

  double rate(double t) const { return schedule_->rate(t); }
  const RateSchedule& schedule() const { return *schedule_; }

 private:
  const RateSchedule* schedule_;
  GammaArrivals base_;  // candidate process at max_rate()
};

}  // namespace distserve::workload

#endif  // DISTSERVE_WORKLOAD_ARRIVAL_H_
