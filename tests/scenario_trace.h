// Shared test helpers for the serving systems: a trace for the streamed-arrival bit-identity
// tests (serving, vLLM, fleet), hand-built requests, and an outcome check.
#ifndef DISTSERVE_TESTS_SCENARIO_TRACE_H_
#define DISTSERVE_TESTS_SCENARIO_TRACE_H_

#include <gtest/gtest.h>

#include <cstdint>
#include <set>

#include "metrics/collector.h"
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

// One hand-built request; ids follow the trace index.
inline workload::Request MakeRequest(workload::RequestId id, double arrival, int input_len,
                                     int output_len) {
  workload::Request req;
  req.id = id;
  req.arrival_time = arrival;
  req.input_len = input_len;
  req.output_len = output_len;
  return req;
}

// Every request of the trace ended in exactly one outcome: completed, lost, cancelled or
// timed out, with no id in two outcome lists.
inline void ExpectOneOutcomePerRequest(const metrics::Collector& results, size_t trace_size) {
  std::set<workload::RequestId> ids;
  for (const auto* records : {&results.records(), &results.lost_records(),
                              &results.cancelled_records(), &results.timed_out_records()}) {
    for (const metrics::RequestRecord& r : *records) {
      EXPECT_TRUE(ids.insert(r.id).second) << "request " << r.id << " has two outcomes";
    }
  }
  EXPECT_EQ(ids.size(), trace_size);
}

}  // namespace distserve::test_util

#endif  // DISTSERVE_TESTS_SCENARIO_TRACE_H_
