// A disaggregated decode instance (§3.2).
//
// Receives requests whose prefill finished elsewhere, pulls their KV caches (§4.3 "combat
// burstiness": the pull is issued only once this instance has reserved memory, so prefill-side
// memory absorbs bursts), then generates the remaining output tokens with continuous batching.
//
// Pipeline parallelism is modelled as `pp` independent micro-batch lanes: real pipelined
// decode keeps pp micro-batches in flight, so each lane steps at the whole-model forward
// latency while aggregate throughput scales with the total resident batch — the steady-state
// behaviour of GPipe-style decode (per-token latency ~= full forward time; throughput ~= B per
// stage time). Requests are assigned to the least-loaded lane on admission.
//
// Memory admission reserves the full final context (prompt + all output tokens) up front,
// modelling vLLM's preemption-free steady state; the simulator knows output lengths, so this
// is exact rather than optimistic. A watermark knob admits less aggressively for the
// backpressure tests.
#ifndef DISTSERVE_ENGINE_DECODE_INSTANCE_H_
#define DISTSERVE_ENGINE_DECODE_INSTANCE_H_

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

}  // namespace distserve::engine

#endif  // DISTSERVE_ENGINE_DECODE_INSTANCE_H_
