// A colocated prefill+decode instance: the vLLM-style baseline (§2.2, §6.1).
//
// One model replica serves both phases with iteration-level continuous batching (Orca): each
// engine step carries every resident decode request plus newly admitted prefills, and takes
// the mixed-batch time from the unified roofline model — which is precisely where
// prefill-decoding interference comes from (a 512-token prompt in the batch pushes the shared
// GEMMs into the compute-bound regime, stretching every decode token in that step; Figure 2).
//
// Two scheduling modes:
//   * kPrefillPriority (vLLM, the paper's baseline): when prompts wait, the engine runs a
//     prefill-only iteration (bounded by the per-step token budget and KV memory), stalling
//     every resident decode for its duration — the queuing flavour of interference (§2.3
//     "ineffective scheduling");
//   * kChunked (SARATHI): prompts split into chunks piggybacked onto decodes — trading TTFT
//     for TPOT, as §2.2 describes. Every step carries a fixed token budget
//     (Options::chunk_budget) shared by the resident decodes (one token each) and prompt
//     chunks from as many waiting prompts as fit — the Sarathi-style chunked-prefill
//     colocation "Beyond the Buzz" argues can rival disaggregation.
//
// Scenario support (all inert on unannotated traces):
//   * prefix-cache hits (workload::Request::cached_prefix_len) skip prefill *compute* — the
//     chunk window starts at the cached length — but still reserve full KV;
//   * tenant priorities: admission picks the highest-priority waiting request first, and a
//     blocked higher-priority prompt may preempt (evict) the lowest-priority resident decode,
//     which re-queues and re-prefills from scratch;
//   * Cancel() tears a request down at the next step boundary, releasing its KV.
//
// The paper's evaluated vLLM supports intra-op parallelism only, so pp must be 1 here.
#ifndef DISTSERVE_ENGINE_COLOCATED_INSTANCE_H_
#define DISTSERVE_ENGINE_COLOCATED_INSTANCE_H_

#include <deque>
#include <functional>
#include <vector>

#include "engine/kv_block_manager.h"
#include "engine/request_state.h"
#include "model/latency_model.h"
#include "simcore/simulator.h"

namespace distserve::trace {
class Recorder;
}

namespace distserve::engine {

class ColocatedInstance {
 public:
  struct Options {
    // Values are stable (1 belonged to a removed mixed-batch mode): parameterized test
    // names print them.
    enum class SchedulingMode {
      kPrefillPriority = 0,  // vLLM: prefill-only iterations stall decodes
      kChunked = 2,          // SARATHI: chunked prefill piggybacked on decodes
    };

    SchedulingMode mode = SchedulingMode::kPrefillPriority;
    int max_batch_size = 256;
    // Prefill tokens admitted into one step (vLLM's max_num_batched_tokens analogue).
    int64_t max_prefill_tokens_per_step = 4096;
    // kChunked only (and required > 0 there): per-step token budget shared by resident
    // decodes (one token each) and prompt chunks filling the remainder, across multiple
    // prompts.
    int64_t chunk_budget = 0;
    int kv_block_size = 16;
    // Host-side scheduler/runtime overhead added to every iteration. The 2023-era vLLM the
    // paper evaluates runs a Python scheduling loop costing O(ms) per iteration — one of the
    // stated motivations for DistServe's C++ engine (§5). Zero by default; the vLLM baseline
    // sets kVllmStepCpuOverhead.
    double cpu_overhead_per_step = 0.0;
  };

  ColocatedInstance(simcore::Simulator* sim, model::LatencyModel latency_model,
                    int64_t kv_capacity_tokens, Options options, int id);

  ColocatedInstance(const ColocatedInstance&) = delete;
  ColocatedInstance& operator=(const ColocatedInstance&) = delete;

  void set_on_complete(std::function<void(RequestState*)> fn) { on_complete_ = std::move(fn); }

  // Fired once when a Cancel() finishes tearing the request down (KV released). The caller
  // set the terminal phase (kCancelled / kTimedOut) before calling Cancel.
  void set_on_cancelled(std::function<void(RequestState*)> fn) {
    on_cancelled_ = std::move(fn);
  }

  // Fired when a resident decode is evicted by a higher-priority tenant (it re-queues and
  // will re-prefill; the callback is for counters only).
  void set_on_preempt(std::function<void(RequestState*)> fn) { on_preempt_ = std::move(fn); }

  // Optional span recorder (trace/recorder.h); null leaves the hot path untouched.
  void set_recorder(trace::Recorder* recorder) { recorder_ = recorder; }

  // Adds an arriving request to the waiting queue (FCFS within a tenant class; higher
  // priorities admit first).
  void Enqueue(RequestState* request);

  // Client cancellation / timeout. The caller must have set request->phase to kCancelled or
  // kTimedOut. Teardown is immediate when the request is queued or between steps; a request
  // inside the executing step is reaped at the step boundary (cancel_pending). Either way KV
  // is fully released and on_cancelled fires exactly once.
  void Cancel(RequestState* request);

  int64_t load() const {
    return static_cast<int64_t>(waiting_.size() + prefilling_.size() + decoding_.size());
  }
  size_t waiting_count() const { return waiting_.size(); }

  int id() const { return id_; }
  const KvBlockManager& kv() const { return kv_; }

  // Observability.
  int64_t steps_executed() const { return steps_executed_; }
  int64_t tokens_generated() const { return tokens_generated_; }
  double busy_seconds() const { return busy_seconds_; }
  int64_t preemptions() const { return preemptions_; }
  int64_t cancellations() const { return cancellations_; }

 private:
  void MaybeStep();
  void StepEnd(std::vector<RequestState*> prefilled_now, bool decodes_advanced);
  // Adds one prompt's chunk (or whole remaining prompt) to `workload`; stamps prefill_start
  // on the first computed token and opens the prefill_exec span.
  void AddPrefillWork(RequestState* request, int64_t chunk, model::BatchWorkload* workload);
  // Admission scan: highest priority first, FCFS within a class; plain front() when no
  // annotated priorities ever arrived (single-tenant fast path).
  std::deque<RequestState*>::iterator PickWaiting();
  // Evicts the lowest-priority resident decode strictly below `floor`; returns true if one
  // was evicted (its KV is freed and it re-queues for a full re-prefill).
  bool PreemptLowestBelow(int floor);
  void FinishCancel(RequestState* request, double now);

  simcore::Simulator* sim_;
  model::LatencyModel latency_model_;
  KvBlockManager kv_;
  Options options_;
  int id_;

  std::function<void(RequestState*)> on_complete_;
  std::function<void(RequestState*)> on_cancelled_;
  std::function<void(RequestState*)> on_preempt_;
  trace::Recorder* recorder_ = nullptr;

  std::deque<RequestState*> waiting_;       // not yet admitted (no KV reserved)
  std::deque<RequestState*> prefilling_;    // admitted, prompt partially processed (chunked)
  std::vector<RequestState*> decoding_;     // prompt done, generating tokens
  // Invariant: sum of context_len() over `decoding_`, maintained incrementally on
  // join/step/complete so batch formation is O(1) (integer adds are exactly associative, so
  // this matches a per-step rescan bit for bit).
  int64_t decode_ctx_tokens_ = 0;
  bool step_in_flight_ = false;
  // True once any enqueued request carried priority != 0; gates the admission scan so
  // single-tenant runs keep the plain FCFS front() path.
  bool priorities_active_ = false;

  int64_t steps_executed_ = 0;
  int64_t tokens_generated_ = 0;
  double busy_seconds_ = 0.0;
  int64_t preemptions_ = 0;
  int64_t cancellations_ = 0;
};

}  // namespace distserve::engine

#endif  // DISTSERVE_ENGINE_COLOCATED_INSTANCE_H_
