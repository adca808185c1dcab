#include "placement/goodput.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"

namespace distserve::placement {

namespace {
// Probes above this rate are "effectively unbounded for this trial size" (legacy cap).
constexpr double kRateCeiling = 1e5;
}  // namespace

double FindMaxRate(const std::function<bool(const workload::Trace&)>& passes,
                   const workload::Dataset& dataset, const GoodputSearchOptions& options,
                   GoodputSearchStats* stats) {
  DS_CHECK(passes != nullptr);
  DS_CHECK_GT(options.rate_floor, 0.0);
  DS_CHECK_GT(options.rate_probe, 0.0);
  auto passes_at = [&](double rate) {
    workload::TraceSpec spec;
    spec.rate = rate;
    spec.burstiness_cv = options.burstiness_cv;
    const double wanted = rate * options.min_trace_duration;
    spec.num_requests = static_cast<int>(std::clamp<double>(
        wanted, options.num_requests, options.max_requests));
    spec.seed = options.seed;
    if (stats != nullptr) {
      ++stats->probes;
    }
    if (options.trace_cache != nullptr) {
      bool drew = false;
      const workload::Trace trace = options.trace_cache->Get(spec, dataset, &drew);
      if (stats != nullptr && !drew) {
        ++stats->trace_cache_hits;
      }
      return passes(trace);
    }
    return passes(workload::GenerateTrace(spec, dataset));
  };
  // The exponential-probe lattice: rate_probe * 2^k. Keeping every probe on this lattice —
  // warm-started or not — keeps hinted searches on the same pass/fail boundary as cold ones.
  // (Trace sharing does not depend on it: the trace cache serves any rate.)
  auto lattice = [&](int k) { return options.rate_probe * std::ldexp(1.0, k); };
  // Cap-out short-circuit (see GoodputSearchOptions::rate_cap): `capped(r)` is checked
  // exactly when r has just been established as a passing rate, i.e. whenever the running
  // result `lo` is raised. Since the uncut search can only return a value >= any passing
  // probe, exiting with r here is indistinguishable from the full walk to a caller that
  // clamps the result to the cap.
  const bool has_cap = options.rate_cap > 0.0 && std::isfinite(options.rate_cap);
  auto capped = [&](double passing_rate) { return has_cap && passing_rate >= options.rate_cap; };

  double lo;
  int first_fail_k;  // hi = lattice(first_fail_k)
  // Non-finite hints (possible once hints round-trip through external storage) would poison
  // the lattice-index arithmetic below; treat them as "no hint" and run the cold probe.
  if (options.rate_hint > 0.0 && std::isfinite(options.rate_hint)) {
    int k0 = std::max(
        0, static_cast<int>(std::lround(std::log2(options.rate_hint / options.rate_probe))));
    while (k0 > 0 && lattice(k0) > kRateCeiling) {
      --k0;
    }
    if (passes_at(lattice(k0))) {
      // Walk up to the first failing lattice point (identical to the cold walk from k0).
      lo = lattice(k0);
      if (capped(lo)) {
        return lo;
      }
      int k = k0 + 1;
      while (true) {
        if (lattice(k) > kRateCeiling) {
          return lo;  // effectively unbounded for this trial size
        }
        if (!passes_at(lattice(k))) {
          break;
        }
        lo = lattice(k);
        if (capped(lo)) {
          return lo;
        }
        ++k;
      }
      first_fail_k = k;
    } else {
      // Walk down to the last passing lattice point.
      int k = k0 - 1;
      while (k >= 0 && !passes_at(lattice(k))) {
        --k;
      }
      if (k < 0) {
        if (!passes_at(options.rate_floor)) {
          return 0.0;
        }
        lo = options.rate_floor;
        first_fail_k = 0;
      } else {
        lo = lattice(k);
        if (capped(lo)) {
          return lo;
        }
        first_fail_k = k + 1;
      }
    }
  } else {
    if (!passes_at(options.rate_floor)) {
      return 0.0;
    }
    // Exponential probe for the first failing rate.
    lo = options.rate_floor;
    int k = 0;
    while (passes_at(lattice(k))) {
      lo = lattice(k);
      if (capped(lo)) {
        return lo;
      }
      ++k;
      if (lattice(k) > kRateCeiling) {
        return lo;  // effectively unbounded for this trial size
      }
    }
    first_fail_k = k;
  }
  // Bisection between the last passing and first failing rates.
  double hi = lattice(first_fail_k);
  for (int i = 0; i < options.bisection_iters; ++i) {
    const double mid = 0.5 * (lo + hi);
    if (passes_at(mid)) {
      lo = mid;
      if (capped(lo)) {
        return lo;
      }
    } else {
      hi = mid;
    }
  }
  return lo;
}

}  // namespace distserve::placement
