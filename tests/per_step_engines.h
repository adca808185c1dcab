// Per-step reference engines for engine_run_stepping_test: verbatim copies of the decode lanes
// and the colocated engine as they were before per-run stepping, when every decode step was
// one DES event and walked every resident request. The differential test drives these and the
// production engines with the same inputs and requires bit-identical records and counters.
// Kept only as a test oracle; nothing in src/ links it.
#ifndef DISTSERVE_TESTS_PER_STEP_ENGINES_H_
#define DISTSERVE_TESTS_PER_STEP_ENGINES_H_

#include <deque>
#include <functional>
#include <vector>

#include "engine/kv_block_manager.h"
#include "engine/request_state.h"
#include "model/latency_model.h"
#include "simcore/simulator.h"
#include "trace/recorder.h"

namespace distserve::engine::per_step {

class DecodeInstance {
 public:
  struct Options {
    // Cap on concurrently decoding requests across all lanes.
    int max_batch_size = 512;
    int kv_block_size = 16;
    // Fraction of KV blocks the admission path may use (1.0 = all). Lowering it forces
    // earlier backpressure onto prefill instances.
    double admission_watermark = 1.0;
  };

  // Issued when the instance wants a request's KV moved here; the callback must fire when the
  // transfer completes. The serving layer routes it over the right link. A null TransferFn
  // (unit tests) completes transfers instantly.
  using TransferFn = std::function<void(RequestState*, std::function<void()> done)>;

  DecodeInstance(simcore::Simulator* sim, model::LatencyModel latency_model,
                 int64_t kv_capacity_tokens, Options options, int id);

  DecodeInstance(const DecodeInstance&) = delete;
  DecodeInstance& operator=(const DecodeInstance&) = delete;

  void set_transfer_fn(TransferFn fn) { transfer_fn_ = std::move(fn); }
  void set_on_complete(std::function<void(RequestState*)> fn) { on_complete_ = std::move(fn); }

  // Fired when a resident request is evicted by a higher-priority tenant's admission. The
  // victim's decode-side KV is gone; the serving layer must re-prefill it (the same recovery
  // path as a KV-loss fault).
  void set_on_preempt(std::function<void(RequestState*)> fn) { on_preempt_ = std::move(fn); }

  // Optional span recorder (trace/recorder.h); null leaves the hot path untouched.
  void set_recorder(trace::Recorder* recorder) { recorder_ = recorder; }

  // Hands over a request whose prefill just finished (first token already produced).
  // Requires output_len >= 2 (single-token requests never reach decode).
  void Submit(RequestState* request);

  // Fault injection (serving::FaultPlan). Fail() kills the instance: pending, transferring,
  // joining, and active requests are dropped, the KV pool is cleared, and scheduled events are
  // invalidated via an epoch bump; the serving layer re-routes the stranded requests (those
  // whose pull had completed lost their KV and must re-prefill). Recover() brings the instance
  // back empty. Both idempotent.
  void Fail();
  void Recover();
  bool alive() const { return alive_; }

  // Withdraws one request this instance currently owns (its prefill died, or its ingress link
  // exhausted retries and the serving layer re-routes it). Releases any KV reservation; the
  // request's own attempt counter squashes in-flight transfer callbacks.
  void Abort(RequestState* request);

  // Dispatch load signal (§4.3: dispatch to the least loaded decoding instance).
  int64_t load() const { return static_cast<int64_t>(pending_.size()) + resident_count_; }

  int id() const { return id_; }
  const KvBlockManager& kv() const { return kv_; }
  const model::LatencyModel& latency_model() const { return latency_model_; }

  // Observability.
  int64_t tokens_generated() const { return tokens_generated_; }
  int64_t steps_executed() const { return steps_executed_; }
  double busy_seconds() const { return busy_seconds_; }
  int64_t resident_requests() const { return resident_count_; }
  int64_t preemptions() const { return preemptions_; }

 private:
  // Admission scan over pending_: highest priority first, FCFS within a class; plain front()
  // when no prioritized request was ever submitted (single-tenant fast path).
  std::deque<RequestState*>::iterator PickPending();
  // Evicts the lowest-priority joining/active resident strictly below `floor`: releases its
  // KV, emits a preempt span, and hands it to on_preempt_. Returns false when no such victim.
  bool PreemptLowestBelow(int floor);
  struct Lane {
    std::vector<RequestState*> active;
    std::vector<RequestState*> joining;  // admitted, waiting for the next step boundary
    // Invariant: sum of context_len() over `active` — maintained incrementally on
    // admit/evict/step so forming a batch is O(1), not O(batch). Integer adds are exactly
    // associative, so this matches the per-step rescan bit for bit.
    int64_t ctx_tokens = 0;
    bool step_in_flight = false;
  };

  void TryAdmit();
  void OnTransferDone(RequestState* request);
  void LaneMaybeStep(size_t lane_idx);
  void LaneStepEnd(size_t lane_idx);
  int per_lane_cap() const;

  simcore::Simulator* sim_;
  model::LatencyModel latency_model_;
  KvBlockManager kv_;
  Options options_;
  int id_;

  TransferFn transfer_fn_;
  std::function<void(RequestState*)> on_complete_;
  std::function<void(RequestState*)> on_preempt_;
  trace::Recorder* recorder_ = nullptr;

  // Fault state: events scheduled before a Fail() carry the old epoch and become no-ops.
  bool alive_ = true;
  uint64_t epoch_ = 0;

  std::deque<RequestState*> pending_;  // waiting for memory reservation
  std::vector<Lane> lanes_;
  int64_t resident_count_ = 0;  // admitted (transferring, joining, or active)
  // True once any submitted request carried priority != 0; gates the admission scan so
  // single-tenant runs keep the plain FCFS front() path.
  bool priorities_active_ = false;

  int64_t tokens_generated_ = 0;
  int64_t steps_executed_ = 0;
  double busy_seconds_ = 0.0;
  int64_t preemptions_ = 0;
};

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

}  // namespace distserve::engine::per_step

#endif  // DISTSERVE_TESTS_PER_STEP_ENGINES_H_
