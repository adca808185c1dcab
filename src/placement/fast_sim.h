// The fast placement simulator (§4.1 "Simulator building").
//
// Algorithms 1/2 evaluate hundreds of candidate configurations, each via a goodput binary
// search: too many trials for the engine-level DES. This module is an event-free driver of the
// engines' own schedule kernels (engine/batch_former.h: FormPrefillBatch, PipelineCadence,
// DecodeBatch), stepped in plain loops over a trace. It plays the role of the paper's
// simulator and the DES that of their real system: bench_tab2_simulator_accuracy compares the
// two as the paper's Table 2 does, and fast_sim_engine_diff_test checks that single instances
// agree exactly where none of these deliberate differences applies:
//   - round-robin routing instead of shortest-queue / least-loaded dispatch;
//   - no KV transfers, faults, cancels or priorities, and prefill never stalls on KV;
//   - token-granular KV instead of blocks: on ShareGPT lengths vLLM results diverge from the
//     DES once KV binds (from 5 req/s on one OPT-13B replica), on block-aligned traces not;
//   - vLLM mode admits and selects prompts in one pass (the engine admits, then selects);
//   - decode with pp > 1 steps one merged batch (ceil(B/pp) members, ctx/pp tokens) where the
//     DES runs pp lanes.
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

// A goodput probe's pass/fail rule, `double(ok) / double(n) >= target`, decided from running
// counts. need_ok() is the smallest ok count that passes (n + 1 when none does), so the
// verdict is settled as soon as ok reaches it or more than n - need_ok() requests have failed:
// a probe can stop simulating there without changing its verdict.
class SloVerdict {
 public:
  SloVerdict(int64_t n, double target);

  // Counts one request's outcome; returns whether the verdict is still open.
  bool Count(bool ok) {
    ++(ok ? ok_ : fail_);
    return !settled();
  }
  bool settled() const { return ok_ >= need_ok_ || fail_ > n_ - need_ok_; }
  bool passed() const { return ok_ >= need_ok_; }
  int64_t need_ok() const { return need_ok_; }

 private:
  int64_t n_;
  int64_t need_ok_;
  int64_t ok_ = 0;
  int64_t fail_ = 0;
};

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

// Goodput-probe verdicts on one instance: SloVerdict(trace.size(), target) over the
// per-request outcomes of SimulatePrefillFinishTimes (finish - arrival <= ttft_slo) or
// SimulateDecodeTpots (tpot <= tpot_slo). Each simulation stops once its verdict is settled,
// so a clearly passing or failing probe simulates only part of its trace.
bool PrefillProbePasses(const model::LatencyModel& lm, const workload::Trace& trace,
                        int64_t target_tokens, int max_batch_size, double ttft_slo,
                        double target);
bool DecodeProbePasses(const model::LatencyModel& lm, int64_t kv_capacity_tokens,
                       const workload::Trace& trace, const std::vector<double>& ready_times,
                       int max_batch_size, double tpot_slo, double target);

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
