// The fast placement simulator (§4.1 "Simulator building").
//
// Algorithm 1/2 evaluate hundreds of candidate configurations, each via a goodput binary
// search — too many trials for the full DES engine. This module is a second, independent
// implementation of the serving physics as plain loops over a trace: no event queue, no KV
// transfer, no per-block memory accounting (token-granular reservations instead). It plays the
// role of the paper's simulator; the engine-level DES plays the role of their real system, and
// bench_tab2_simulator_accuracy compares the two exactly as the paper's Table 2 does.
//
// Approximations (versus the engine): round-robin dispatch instead of shortest-queue /
// least-loaded, zero transfer time, token-granular memory. The paper reports <2% attainment
// error for its simulator; ours lands in the same range because both implementations share the
// Appendix-A latency model, which dominates.
#ifndef DISTSERVE_PLACEMENT_FAST_SIM_H_
#define DISTSERVE_PLACEMENT_FAST_SIM_H_

#include <cstdint>
#include <vector>

#include "metrics/collector.h"
#include "model/latency_model.h"
#include "workload/request.h"

namespace distserve::placement {

// Per-request outcome of a fast simulation.
struct FastRecord {
  double ttft = 0.0;
  double tpot = 0.0;
};

// Joint/marginal SLO attainment over fast records.
metrics::Attainment FastAttainment(const std::vector<FastRecord>& records,
                                   const metrics::SloSpec& slo);

// Prefill-only instance: FCFS, L_m-aware batching, pipeline-bubble cadence. Returns, per
// request (trace order), the absolute first-token time.
std::vector<double> SimulatePrefillFinishTimes(const model::LatencyModel& lm,
                                               const workload::Trace& trace,
                                               int64_t target_tokens, int max_batch_size);

// Decode-only instance: requests arrive at `ready_times` (first token already produced),
// admission reserves the full final context against `kv_capacity_tokens`, and the batch steps
// at the micro-batch lane cadence. Returns per-request TPOT (0 for single-token outputs).
std::vector<double> SimulateDecodeTpots(const model::LatencyModel& lm,
                                        int64_t kv_capacity_tokens,
                                        const workload::Trace& trace,
                                        const std::vector<double>& ready_times,
                                        int max_batch_size);

struct DisaggregatedFastConfig {
  int num_prefill = 1;
  int num_decode = 1;
  int64_t prefill_target_tokens = 512;
  int prefill_max_batch = 64;
  int64_t decode_kv_capacity_tokens = 0;
  int decode_max_batch = 512;
};

// Full disaggregated pipeline: round-robin over prefill instances, then round-robin over
// decode instances with arrivals at prefill completion.
std::vector<FastRecord> SimulateDisaggregated(const model::LatencyModel& prefill_lm,
                                              const model::LatencyModel& decode_lm,
                                              const workload::Trace& trace,
                                              const DisaggregatedFastConfig& config);

struct ColocatedFastConfig {
  int num_instances = 1;
  int64_t kv_capacity_tokens = 0;
  int max_batch_size = 256;
  int64_t max_prefill_tokens_per_step = 4096;
  // Sarathi-style chunked prefill: per-step token budget shared by resident decodes (one
  // token each) and prompt chunks filling the remainder. 0 (default) = vLLM prefill-priority
  // scheduling with monolithic prompts; > 0 mirrors ColocatedInstance's kChunked mode with
  // Options::chunk_budget.
  int64_t chunk_budget = 0;
  // Per-iteration host overhead (see ColocatedInstance::Options::cpu_overhead_per_step).
  double cpu_overhead_per_step = 0.0;
};

// Colocated (vLLM-style) continuous batching: mixed prefill+decode steps, monolithic prompts
// (or chunked prompts piggybacked on decodes when chunk_budget > 0).
std::vector<FastRecord> SimulateColocated(const model::LatencyModel& lm,
                                          const workload::Trace& trace,
                                          const ColocatedFastConfig& config);

}  // namespace distserve::placement

#endif  // DISTSERVE_PLACEMENT_FAST_SIM_H_
