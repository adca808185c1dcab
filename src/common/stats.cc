#include "common/stats.h"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <limits>
#include <sstream>

#include "common/logging.h"

namespace distserve {

void OnlineStats::Add(double x) {
  if (count_ == 0) {
    min_ = x;
    max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++count_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (x - mean_);
}

void OnlineStats::Merge(const OnlineStats& other) {
  if (other.count_ == 0) {
    return;
  }
  if (count_ == 0) {
    *this = other;
    return;
  }
  const double delta = other.mean_ - mean_;
  const int64_t n = count_ + other.count_;
  m2_ += other.m2_ +
         delta * delta * static_cast<double>(count_) * static_cast<double>(other.count_) /
             static_cast<double>(n);
  mean_ += delta * static_cast<double>(other.count_) / static_cast<double>(n);
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
  count_ = n;
}

double OnlineStats::variance() const {
  return count_ > 1 ? m2_ / static_cast<double>(count_) : 0.0;
}

double OnlineStats::stddev() const { return std::sqrt(variance()); }

void PercentileTracker::Add(double x) {
  samples_.push_back(x);
  sorted_ = false;
}

void PercentileTracker::EnsureSorted() const {
  if (!sorted_) {
    std::sort(samples_.begin(), samples_.end());
    sorted_ = true;
  }
}

double PercentileTracker::Percentile(double q) const {
  if (samples_.empty()) {
    return std::numeric_limits<double>::quiet_NaN();
  }
  DS_CHECK(q >= 0.0 && q <= 100.0);
  if (samples_.size() == 1) {
    return samples_[0];
  }
  const double rank = q / 100.0 * static_cast<double>(samples_.size() - 1);
  const size_t lo = static_cast<size_t>(rank);
  const size_t hi = std::min(lo + 1, samples_.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  double lo_value = 0.0;
  double hi_value = 0.0;
  if (sorted_) {
    lo_value = samples_[lo];
    hi_value = samples_[hi];
  } else {
    // Select rather than sort: one O(n) partition around order statistic `lo` leaves only
    // larger-or-equal samples after it, so order statistic `lo + 1` is their minimum. Both
    // are the exact sorted values, so the result is bitwise the sorted one.
    const auto nth = samples_.begin() + static_cast<std::ptrdiff_t>(lo);
    std::nth_element(samples_.begin(), nth, samples_.end());
    lo_value = *nth;
    hi_value = hi == lo ? lo_value : *std::min_element(nth + 1, samples_.end());
  }
  return lo_value * (1.0 - frac) + hi_value * frac;
}

double PercentileTracker::Mean() const {
  if (samples_.empty()) {
    return std::numeric_limits<double>::quiet_NaN();
  }
  double sum = 0.0;
  for (double s : samples_) {
    sum += s;
  }
  return sum / static_cast<double>(samples_.size());
}

double PercentileTracker::Max() const {
  if (samples_.empty()) {
    return std::numeric_limits<double>::quiet_NaN();
  }
  EnsureSorted();
  return samples_.back();
}

double PercentileTracker::Min() const {
  if (samples_.empty()) {
    return std::numeric_limits<double>::quiet_NaN();
  }
  EnsureSorted();
  return samples_.front();
}

double PercentileTracker::FractionAtOrBelow(double threshold) const {
  if (samples_.empty()) {
    return 0.0;
  }
  EnsureSorted();
  const auto it = std::upper_bound(samples_.begin(), samples_.end(), threshold);
  return static_cast<double>(it - samples_.begin()) / static_cast<double>(samples_.size());
}

std::vector<double> PercentileTracker::Sorted() const {
  EnsureSorted();
  return samples_;
}

Histogram::Histogram(double lo, double hi, size_t num_bins)
    : lo_(lo), hi_(hi), bin_width_((hi - lo) / static_cast<double>(num_bins)), counts_(num_bins, 0) {
  DS_CHECK_GT(hi, lo);
  DS_CHECK_GT(num_bins, 0u);
}

void Histogram::Add(double x) {
  double idx = (x - lo_) / bin_width_;
  int64_t bin = static_cast<int64_t>(std::floor(idx));
  bin = std::clamp<int64_t>(bin, 0, static_cast<int64_t>(counts_.size()) - 1);
  ++counts_[static_cast<size_t>(bin)];
  ++total_;
}

double Histogram::bin_lo(size_t i) const { return lo_ + bin_width_ * static_cast<double>(i); }

std::string Histogram::Render(size_t width) const {
  int64_t max_count = 1;
  for (int64_t c : counts_) {
    max_count = std::max(max_count, c);
  }
  std::ostringstream out;
  for (size_t i = 0; i < counts_.size(); ++i) {
    const size_t bar =
        static_cast<size_t>(static_cast<double>(counts_[i]) / static_cast<double>(max_count) *
                            static_cast<double>(width));
    out << "[" << bin_lo(i) << ", " << bin_hi(i) << ") " << std::string(bar, '#') << " "
        << counts_[i] << "\n";
  }
  return out.str();
}

}  // namespace distserve
