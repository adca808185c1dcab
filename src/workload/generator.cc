#include "workload/generator.h"

#include <algorithm>

#include "common/logging.h"

namespace distserve::workload {

Trace GenerateTrace(const TraceSpec& spec, const Dataset& dataset) {
  DS_CHECK_GT(spec.rate, 0.0);
  DS_CHECK_GT(spec.num_requests, 0);
  const Rng root(spec.seed);
  Rng arrival_rng = root.Fork(kArrivalStream);
  Rng length_rng = root.Fork(kLengthStream);
  GammaArrivals arrivals(spec.rate, spec.burstiness_cv);

  Trace trace;
  trace.reserve(static_cast<size_t>(spec.num_requests));
  double clock = 0.0;
  for (int i = 0; i < spec.num_requests; ++i) {
    if (i > 0) {
      clock += arrivals.NextGap(arrival_rng);
    }
    const LengthSample lens = dataset.Sample(length_rng);
    trace.push_back(Request{/*id=*/i, /*arrival_time=*/clock, lens.input_len, lens.output_len});
  }
  return trace;
}

Trace GenerateShiftingTrace(const TraceSpec& spec, const Dataset& first, const Dataset& second,
                            int shift_after, double second_rate) {
  DS_CHECK_GT(shift_after, 0);
  DS_CHECK_LT(shift_after, spec.num_requests);
  DS_CHECK_GT(second_rate, 0.0);
  const Rng root(spec.seed);
  Rng arrival_rng = root.Fork(kArrivalStream);
  Rng length_rng = root.Fork(kLengthStream);
  GammaArrivals first_arrivals(spec.rate, spec.burstiness_cv);
  GammaArrivals second_arrivals(second_rate, spec.burstiness_cv);

  Trace trace;
  trace.reserve(static_cast<size_t>(spec.num_requests));
  double clock = 0.0;
  for (int i = 0; i < spec.num_requests; ++i) {
    const bool shifted = i >= shift_after;
    if (i > 0) {
      clock += (shifted ? second_arrivals : first_arrivals).NextGap(arrival_rng);
    }
    const LengthSample lens = (shifted ? second : first).Sample(length_rng);
    trace.push_back(Request{/*id=*/i, /*arrival_time=*/clock, lens.input_len, lens.output_len});
  }
  return trace;
}

Trace GenerateSourceTrace(const FleetTraceSpec& spec, const Dataset& dataset, int source) {
  DS_CHECK_GT(spec.rate_per_source, 0.0);
  DS_CHECK_GT(spec.requests_per_source, 0);
  DS_CHECK_GE(source, 0);
  const Rng root(spec.seed);
  Rng arrival_rng = root.Fork(kArrivalStream).Jumped(static_cast<uint64_t>(source));
  Rng length_rng = root.Fork(kLengthStream).Jumped(static_cast<uint64_t>(source));
  GammaArrivals arrivals(spec.rate_per_source, spec.burstiness_cv);

  Trace trace;
  trace.reserve(static_cast<size_t>(spec.requests_per_source));
  double clock = 0.0;
  for (int i = 0; i < spec.requests_per_source; ++i) {
    if (i > 0) {
      clock += arrivals.NextGap(arrival_rng);
    }
    const LengthSample lens = dataset.Sample(length_rng);
    trace.push_back(Request{/*id=*/i, /*arrival_time=*/clock, lens.input_len, lens.output_len});
  }
  return trace;
}

Trace GenerateFleetTrace(const FleetTraceSpec& spec, const Dataset& dataset) {
  DS_CHECK_GT(spec.num_sources, 0);
  // Tag each request with its source so equal arrival times merge in source order — a total
  // order that no shard mapping can disturb.
  struct Tagged {
    Request request;
    int source;
  };
  std::vector<Tagged> merged;
  merged.reserve(static_cast<size_t>(spec.num_sources) *
                 static_cast<size_t>(spec.requests_per_source));
  for (int s = 0; s < spec.num_sources; ++s) {
    for (Request& r : GenerateSourceTrace(spec, dataset, s)) {
      merged.push_back(Tagged{r, s});
    }
  }
  std::sort(merged.begin(), merged.end(), [](const Tagged& a, const Tagged& b) {
    if (a.request.arrival_time != b.request.arrival_time) {
      return a.request.arrival_time < b.request.arrival_time;
    }
    if (a.source != b.source) {
      return a.source < b.source;
    }
    return a.request.id < b.request.id;
  });
  Trace trace;
  trace.reserve(merged.size());
  for (size_t i = 0; i < merged.size(); ++i) {
    Request r = merged[i].request;
    r.id = static_cast<workload::RequestId>(i);
    trace.push_back(r);
  }
  return trace;
}

Trace GenerateScheduledTrace(const ScheduledTraceSpec& spec, const Dataset& dataset) {
  DS_CHECK(spec.schedule != nullptr) << "GenerateScheduledTrace: schedule is required";
  DS_CHECK(spec.horizon > 0.0) << "GenerateScheduledTrace: horizon must be > 0";
  const Rng root(spec.seed);
  Rng arrival_rng = root.Fork(kArrivalStream);
  Rng length_rng = root.Fork(kLengthStream);
  ScheduledArrivals arrivals(spec.schedule, spec.burstiness_cv);

  Trace trace;
  trace.reserve(static_cast<size_t>(spec.schedule->MeanRate(spec.horizon) * spec.horizon) + 16);
  double clock = arrivals.NextArrival(arrival_rng, 0.0);
  int id = 0;
  while (clock < spec.horizon) {
    const LengthSample lens = dataset.Sample(length_rng);
    trace.push_back(
        Request{/*id=*/id++, /*arrival_time=*/clock, lens.input_len, lens.output_len});
    clock = arrivals.NextArrival(arrival_rng, clock);
  }
  return trace;
}

TraceStats ComputeTraceStats(const Trace& trace) {
  TraceStats stats;
  if (trace.empty()) {
    return stats;
  }
  double in_sum = 0.0;
  double out_sum = 0.0;
  for (const Request& r : trace) {
    in_sum += r.input_len;
    out_sum += r.output_len;
    stats.max_input_len = std::max(stats.max_input_len, r.input_len);
    stats.max_output_len = std::max(stats.max_output_len, r.output_len);
    stats.duration = std::max(stats.duration, r.arrival_time);
  }
  stats.mean_input_len = in_sum / static_cast<double>(trace.size());
  stats.mean_output_len = out_sum / static_cast<double>(trace.size());
  stats.observed_rate =
      stats.duration > 0.0 ? static_cast<double>(trace.size()) / stats.duration : 0.0;
  return stats;
}

}  // namespace distserve::workload
