// Goodput measurement: the maximum request rate a configuration sustains while meeting the
// SLO-attainment target (the paper's per-GPU goodput metric, §1).
//
// The paper "enumerates the placements via binary search and finds the maximum rate that meets
// the SLO attainment target with simulation trials" (§4.1). FindMaxRate does exactly that: an
// exponential probe to bracket the knee, then bisection; each probe resamples a trace at the
// candidate rate from the workload distribution (as the paper does). Probe traces are fetched
// through an optional workload::TraceCache, which draws each seed's arrivals and lengths once
// and spaces them at any probe rate, so the dozens of searches a planner runs against
// different parallelism configs draw each trace's randomness once between them.
//
// The search only ever asks whether a probe passes, so a probe is a verdict, not a ratio: the
// caller judges the trace against options.attainment_target, and may stop simulating as soon
// as the verdict is settled (SloVerdict and the Prefill/DecodeProbePasses probes in
// fast_sim.h).
//
// `rate_hint` warm-starts the exponential probe near a previously measured rate for the same
// configuration (replanning after traffic drift). The probe stays on the same lattice and
// walks to the same pass/fail boundary, so for attainment functions that are non-increasing
// in rate — which the SLO simulators are, up to sampling noise — the result is identical to
// the cold search; the hint only changes how many probes it takes to get there.
#ifndef DISTSERVE_PLACEMENT_GOODPUT_H_
#define DISTSERVE_PLACEMENT_GOODPUT_H_

#include <functional>

#include "workload/generator.h"
#include "workload/trace_cache.h"

namespace distserve::placement {

struct GoodputSearchOptions {
  double attainment_target = 0.9;
  double rate_floor = 0.02;   // below this the config is considered useless
  double rate_probe = 1.0;    // initial probe rate (anchor of the probe lattice)
  int bisection_iters = 10;
  // Trace sizing: at least `num_requests`, grown so the trace spans `min_trace_duration`
  // virtual seconds at the candidate rate (decode residence is tens of seconds, so short
  // traces never reach steady state and wildly overestimate goodput), capped at
  // `max_requests` to bound planner cost on hopeless high-rate probes.
  int num_requests = 400;
  double min_trace_duration = 60.0;
  int max_requests = 20000;
  double burstiness_cv = 1.0;
  uint64_t seed = 1234;

  // Shared probe-trace cache (non-owning; may be null). Its traces are bit-identical to
  // fresh generation, so enabling the cache never changes results.
  workload::TraceCache* trace_cache = nullptr;

  // When > 0 (and finite; anything else is ignored), start the exponential probe at the
  // lattice point nearest this rate instead of at rate_probe. Two sources today: the
  // previous search's result for the same config (replanning after traffic drift), and —
  // on cold searches — the tier-1 analytic estimate of the config's max rate
  // (placement/analytic_tier.h). Callers with an analytic rate bound should clamp the hint
  // to it first — a hint loaded from disk can predate a recalibration (see algorithms.cc).
  double rate_hint = 0.0;

  // When > 0 (and finite), the search short-circuits as soon as a PASSING probe's rate
  // reaches this cap, returning that probe's rate. Exact for any caller that clamps the
  // result to the same cap: the search's running result only ever increases and is always a
  // passing rate, so the uncut search would have returned some R >= the passing probe >=
  // cap, and min(R, cap) == cap == min(early_exit_rate, cap) — bit for bit, with no
  // monotonicity assumption on the attainment function. This is what collapses "cap-out"
  // searches (decode configs whose attainment never fails at any probe rate) from a full
  // exponential walk to the rate ceiling into one or two probes. The placement search sets
  // it to the tier-1 analytic cap it already clamps results to (see algorithms.cc); leave 0
  // to resolve the raw rate fully.
  double rate_cap = 0.0;
};

// Cost accounting for one search (Figure 12 / PlannerResult reporting).
struct GoodputSearchStats {
  int probes = 0;             // verdicts asked for (trace simulations requested)
  int trace_cache_hits = 0;   // probes whose trace the cache served without new draws
};

// `passes(trace)` returns whether one probe trace's SLO attainment meets
// options.attainment_target. Returns the largest rate (requests/second) whose probe passes,
// or 0 when even rate_floor fails.
double FindMaxRate(const std::function<bool(const workload::Trace&)>& passes,
                   const workload::Dataset& dataset, const GoodputSearchOptions& options,
                   GoodputSearchStats* stats = nullptr);

}  // namespace distserve::placement

#endif  // DISTSERVE_PLACEMENT_GOODPUT_H_
