// Statistics utilities: streaming moments, percentile samples, fixed-bin histograms and CDFs.
//
// These back every metric the benches print (P90 TTFT, SLO attainment curves, transfer-time
// CDFs), so they are kept allocation-light and deterministic.
#ifndef DISTSERVE_COMMON_STATS_H_
#define DISTSERVE_COMMON_STATS_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace distserve {

// Streaming mean/variance/min/max via Welford's algorithm.
class OnlineStats {
 public:
  void Add(double x);
  void Merge(const OnlineStats& other);

  int64_t count() const { return count_; }
  double mean() const { return count_ > 0 ? mean_ : 0.0; }
  double variance() const;  // Population variance; 0 for fewer than 2 samples.
  double stddev() const;
  double min() const { return count_ > 0 ? min_ : 0.0; }
  double max() const { return count_ > 0 ? max_ : 0.0; }
  double sum() const { return mean_ * static_cast<double>(count_); }

 private:
  int64_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

// Collects raw samples for exact percentile queries. A percentile of an unsorted tracker
// selects its two order statistics in O(n) (a one-off p99 over a run's records is the common
// query); Min, Max, FractionAtOrBelow and Sorted sort once and cache the order.
class PercentileTracker {
 public:
  void Add(double x);
  void Reserve(size_t n) { samples_.reserve(n); }

  size_t count() const { return samples_.size(); }
  bool empty() const { return samples_.empty(); }

  // Empty-tracker contract (pinned by stats_test): Percentile/Mean/Min/Max return quiet NaN —
  // there is no order statistic of zero samples, and the old silent 0.0 read as "zero
  // latency" in bench tables for zero-request smoke configs. FractionAtOrBelow alone returns
  // 0.0 (an attainment over zero requests is "none attained", and the SLO-attainment path
  // must stay NaN-free). Callers printing human tables should check empty() first.

  // Exact percentile with linear interpolation between order statistics; q in [0, 100].
  double Percentile(double q) const;
  double Median() const { return Percentile(50.0); }
  double Mean() const;
  double Max() const;
  double Min() const;

  // Fraction of samples <= threshold (the empirical CDF); 0 when empty (see above).
  double FractionAtOrBelow(double threshold) const;

  // Sorted copy of the samples (for CDF dumps).
  std::vector<double> Sorted() const;

 private:
  void EnsureSorted() const;

  mutable std::vector<double> samples_;
  mutable bool sorted_ = true;
};

// Fixed-width-bin histogram over [lo, hi); out-of-range samples clamp to the edge bins.
class Histogram {
 public:
  Histogram(double lo, double hi, size_t num_bins);

  void Add(double x);

  size_t num_bins() const { return counts_.size(); }
  int64_t bin_count(size_t i) const { return counts_[i]; }
  double bin_lo(size_t i) const;
  double bin_hi(size_t i) const { return bin_lo(i + 1); }
  int64_t total() const { return total_; }

  // Multi-line ASCII rendering used by bench_fig7_datasets.
  std::string Render(size_t width) const;

 private:
  double lo_;
  double hi_;
  double bin_width_;
  std::vector<int64_t> counts_;
  int64_t total_ = 0;
};

}  // namespace distserve

#endif  // DISTSERVE_COMMON_STATS_H_
