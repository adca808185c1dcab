#include "workload/arrival.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/logging.h"

namespace distserve::workload {

namespace {

// Constructors reject bad rates up front: DS_CHECK_GT alone lets +inf through (inf > 0), and
// an infinite rate yields 0-width gaps that collapse a whole trace onto one timestamp.
void CheckRate(double rate, const char* who) {
  DS_CHECK(std::isfinite(rate)) << who << ": rate must be finite, got " << rate;
  DS_CHECK_GT(rate, 0.0) << who << ": rate must be > 0";
}

// Final line of defense for the NextGap contract: never hand a negative, NaN, or infinite
// gap downstream even if a sampler misbehaves at the numeric edges.
double SanitizeGap(double gap) {
  if (!(gap >= 0.0)) {  // catches NaN (any comparison with NaN is false) and negatives
    return 0.0;
  }
  if (!std::isfinite(gap)) {
    return std::numeric_limits<double>::max();
  }
  return gap;
}

}  // namespace

PoissonArrivals::PoissonArrivals(double rate) : rate_(rate) {
  CheckRate(rate, "PoissonArrivals");
}

double PoissonArrivals::NextGap(Rng& rng) { return SanitizeGap(rng.Exponential(rate_)); }

GammaArrivals::GammaArrivals(double rate, double cv) : rate_(rate), cv_(cv) {
  CheckRate(rate, "GammaArrivals");
  DS_CHECK(std::isfinite(cv)) << "GammaArrivals: cv must be finite, got " << cv;
  DS_CHECK_GT(cv, 0.0) << "GammaArrivals: cv must be > 0";
  if (cv < kMinCv || cv > kMaxCv) {
    const double clamped = std::clamp(cv, kMinCv, kMaxCv);
    DS_LOG(Warning) << "GammaArrivals: cv " << cv << " outside [" << kMinCv << ", " << kMaxCv
                    << "], clamping to " << clamped
                    << " (Gamma shape 1/cv^2 would underflow gap samples past this band)";
    cv_ = clamped;
  }
  // For Gamma(shape k, scale theta): mean = k*theta, CV = 1/sqrt(k).
  shape_ = 1.0 / (cv_ * cv_);
  scale_ = 1.0 / (rate_ * shape_);
}

double GammaArrivals::NextGap(Rng& rng) { return Gap(rng.UnitGamma(shape_)); }

double GammaArrivals::Gap(const GammaDraw& draw) const {
  return SanitizeGap(draw.Scaled(scale_));
}

FixedArrivals::FixedArrivals(double rate) : rate_(rate) { CheckRate(rate, "FixedArrivals"); }

double FixedArrivals::NextGap(Rng& /*rng*/) { return 1.0 / rate_; }

RateSchedule::RateSchedule(std::vector<Knot> knots, bool periodic)
    : knots_(std::move(knots)), periodic_(periodic) {
  DS_CHECK_GE(knots_.size(), 2u) << "RateSchedule: need at least two knots";
  DS_CHECK_EQ(knots_.front().time, 0.0) << "RateSchedule: first knot must be at t=0";
  for (size_t i = 0; i < knots_.size(); ++i) {
    DS_CHECK(std::isfinite(knots_[i].time)) << "RateSchedule: knot time must be finite";
    DS_CHECK(std::isfinite(knots_[i].rate)) << "RateSchedule: knot rate must be finite";
    DS_CHECK_GT(knots_[i].rate, 0.0) << "RateSchedule: knot rate must be > 0";
    if (i > 0) {
      DS_CHECK_GT(knots_[i].time, knots_[i - 1].time)
          << "RateSchedule: knot times must be strictly increasing";
    }
  }
}

void RateSchedule::AddSpike(const Spike& spike) {
  DS_CHECK(std::isfinite(spike.start) && spike.start >= 0.0)
      << "RateSchedule: spike start must be finite and >= 0";
  DS_CHECK(std::isfinite(spike.duration) && spike.duration > 0.0)
      << "RateSchedule: spike duration must be finite and > 0";
  DS_CHECK(std::isfinite(spike.multiplier) && spike.multiplier > 0.0)
      << "RateSchedule: spike multiplier must be finite and > 0";
  spikes_.push_back(spike);
}

double RateSchedule::BaseRate(double t) const {
  if (periodic_) {
    t = std::fmod(t, period());
    if (t < 0.0) {
      t += period();
    }
  }
  if (t <= knots_.front().time) {
    return knots_.front().rate;
  }
  if (t >= knots_.back().time) {
    return knots_.back().rate;
  }
  // Linear interpolation within the segment containing t.
  for (size_t i = 1; i < knots_.size(); ++i) {
    if (t <= knots_[i].time) {
      const Knot& a = knots_[i - 1];
      const Knot& b = knots_[i];
      const double frac = (t - a.time) / (b.time - a.time);
      return a.rate + frac * (b.rate - a.rate);
    }
  }
  return knots_.back().rate;
}

double RateSchedule::rate(double t) const {
  DS_CHECK(std::isfinite(t) && t >= 0.0) << "RateSchedule::rate: t must be finite and >= 0";
  double r = BaseRate(t);
  for (const Spike& s : spikes_) {
    if (t >= s.start && t < s.start + s.duration) {
      r *= s.multiplier;
    }
  }
  return r;
}

double RateSchedule::max_rate() const {
  double peak = 0.0;
  for (const Knot& k : knots_) {
    peak = std::max(peak, k.rate);
  }
  // Worst-case compounding of overlapping spikes: the product of multipliers over every
  // spike subset that shares an instant. Spike counts are tiny (a handful per day), so scan
  // interval endpoints — the product only changes at a spike boundary.
  double worst = 1.0;
  for (const Spike& probe : spikes_) {
    double product = 1.0;
    for (const Spike& s : spikes_) {
      if (probe.start >= s.start && probe.start < s.start + s.duration) {
        product *= s.multiplier;
      }
    }
    worst = std::max(worst, product);
  }
  return peak * worst;
}

double RateSchedule::MeanRate(double horizon) const {
  DS_CHECK(std::isfinite(horizon) && horizon > 0.0)
      << "RateSchedule::MeanRate: horizon must be finite and > 0";
  // The profile is piecewise linear with breakpoints at knots (plus period wraps) and spike
  // edges; a trapezoid over each breakpoint-free interval is exact. Collect breakpoints in
  // [0, horizon], sort, integrate.
  std::vector<double> cuts{0.0, horizon};
  const double T = period();
  if (periodic_) {
    for (double base = 0.0; base < horizon; base += T) {
      for (const Knot& k : knots_) {
        const double t = base + k.time;
        if (t > 0.0 && t < horizon) {
          cuts.push_back(t);
        }
      }
    }
  } else {
    for (const Knot& k : knots_) {
      if (k.time > 0.0 && k.time < horizon) {
        cuts.push_back(k.time);
      }
    }
  }
  for (const Spike& s : spikes_) {
    for (double t : {s.start, s.start + s.duration}) {
      if (t > 0.0 && t < horizon) {
        cuts.push_back(t);
      }
    }
  }
  std::sort(cuts.begin(), cuts.end());
  cuts.erase(std::unique(cuts.begin(), cuts.end()), cuts.end());
  double integral = 0.0;
  for (size_t i = 1; i < cuts.size(); ++i) {
    const double a = cuts[i - 1];
    const double b = cuts[i];
    // Evaluate just inside the interval so half-open spike edges land on the correct side.
    const double mid_shift = (b - a) * 1e-9;
    integral += 0.5 * (rate(a + mid_shift) + rate(b - mid_shift)) * (b - a);
  }
  return integral / horizon;
}

RateSchedule RateSchedule::Diurnal(double trough_rate, double peak_rate, double period) {
  DS_CHECK(std::isfinite(trough_rate) && trough_rate > 0.0);
  DS_CHECK(std::isfinite(peak_rate) && peak_rate >= trough_rate);
  DS_CHECK(std::isfinite(period) && period > 0.0);
  const double mid = 0.5 * (trough_rate + peak_rate);
  std::vector<Knot> knots{
      {0.00 * period, trough_rate},  // deep night
      {0.25 * period, mid},          // morning ramp
      {0.45 * period, peak_rate},    // early-afternoon peak
      {0.65 * period, peak_rate},    // broad plateau
      {0.80 * period, mid},          // evening decline
      {1.00 * period, trough_rate},  // back to night
  };
  return RateSchedule(std::move(knots), /*periodic=*/true);
}

ScheduledArrivals::ScheduledArrivals(const RateSchedule* schedule, double cv)
    : schedule_(schedule), base_(schedule->max_rate(), cv) {
  DS_CHECK(schedule != nullptr);
}

double ScheduledArrivals::NextArrival(Rng& rng, double now) {
  DS_CHECK(std::isfinite(now) && now >= 0.0);
  const double max_rate = schedule_->max_rate();
  double t = now;
  while (true) {
    t += base_.NextGap(rng);
    if (!std::isfinite(t)) {
      // A sanitized max-gap candidate overflowed absolute time; treat as "never" by clamping
      // to the largest representable time — callers bound generation by a horizon anyway.
      return std::numeric_limits<double>::max();
    }
    // Accept with probability rate(t)/max_rate; one uniform per candidate.
    if (rng.NextDouble() * max_rate <= schedule_->rate(t)) {
      return t;
    }
  }
}

}  // namespace distserve::workload
