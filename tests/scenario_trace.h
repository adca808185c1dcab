// A shared test trace for the streamed-arrival bit-identity tests (serving, vLLM, fleet).
#ifndef DISTSERVE_TESTS_SCENARIO_TRACE_H_
#define DISTSERVE_TESTS_SCENARIO_TRACE_H_

#include <cstdint>

#include "workload/dataset.h"
#include "workload/generator.h"
#include "workload/scenario.h"

namespace distserve::test_util {

// ShareGPT traffic with every scenario axis on (prefix hits, two tenants, cancels, deadlines)
// and exact ties: every 7th request arrives with the one before it, and every 11th is
// cancelled exactly when a later request arrives.
inline workload::Trace ScenarioTraceWithTies(int n, double rate, uint64_t seed) {
  const auto dataset = workload::MakeDatasetByName("sharegpt");
  workload::TraceSpec spec;
  spec.rate = rate;
  spec.num_requests = n;
  spec.seed = seed;
  workload::Trace trace = workload::GenerateTrace(spec, *dataset);
  workload::PrefixCacheSpec prefix;
  prefix.hit_rate = 0.5;
  prefix.seed = seed;
  workload::ApplyPrefixCache(&trace, prefix);
  workload::TenantSpec tenants;
  tenants.high_priority_fraction = 0.3;
  tenants.seed = seed;
  workload::ApplyTenantClasses(&trace, tenants);
  workload::CancellationSpec cancels;
  cancels.cancel_rate = 0.2;
  cancels.cancel_after_mean = 0.5;
  cancels.timeout = 8.0;
  cancels.seed = seed;
  workload::ApplyCancellations(&trace, cancels);
  for (size_t i = 7; i < trace.size(); i += 7) {
    trace[i].arrival_time = trace[i - 1].arrival_time;
  }
  for (size_t i = 0; i + 3 < trace.size(); i += 11) {
    trace[i].cancel_at = trace[i + 3].arrival_time;
  }
  return trace;
}

}  // namespace distserve::test_util

#endif  // DISTSERVE_TESTS_SCENARIO_TRACE_H_
