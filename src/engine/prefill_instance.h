// A disaggregated prefill instance (§3.1).
//
// One complete copy of the model weights under a (tp, pp) parallelism plan, dedicated to
// prefill. Requests queue FCFS; batches are formed by the L_m-aware policy (batch_former.h)
// and flow through the pp pipeline stages. The instance models:
//
//   * pipeline cadence: a new batch may enter stage 0 every StageTime of the previous batch;
//   * pipeline bubbles: when a shorter batch follows a longer one it must additionally wait
//     (pp-1) * (T_prev - T_next), the classic bubble from non-uniform prompt lengths (§3.3);
//   * KV backpressure: computed prompts hold their KV cache on this instance until the decode
//     side pulls it (§4.3 "combat burstiness"); when the pool is full, launching stalls, which
//     surfaces as prefill queueing delay.
//
// Completion of a batch stamps first_token on every member and fires the on_complete callback
// (the serving layer then dispatches to a decode instance and schedules the pull).
#ifndef DISTSERVE_ENGINE_PREFILL_INSTANCE_H_
#define DISTSERVE_ENGINE_PREFILL_INSTANCE_H_

#include <deque>
#include <functional>
#include <vector>

#include "engine/batch_former.h"
#include "engine/kv_block_manager.h"
#include "engine/request_state.h"
#include "model/latency_model.h"
#include "simcore/simulator.h"

namespace distserve::trace {
class Recorder;
}

namespace distserve::engine {

class PrefillInstance {
 public:
  struct Options {
    PrefillBatchPolicy batch_policy;
    int kv_block_size = 16;
  };

  PrefillInstance(simcore::Simulator* sim, model::LatencyModel latency_model,
                  int64_t kv_capacity_tokens, Options options, int id);

  PrefillInstance(const PrefillInstance&) = delete;
  PrefillInstance& operator=(const PrefillInstance&) = delete;

  // Fired once per request when its prefill finishes (first token ready, KV resident here).
  void set_on_complete(std::function<void(RequestState*)> fn) { on_complete_ = std::move(fn); }

  // Optional span recorder (trace/recorder.h); null leaves the hot path untouched.
  void set_recorder(trace::Recorder* recorder) { recorder_ = recorder; }

  // Adds a request to the FCFS queue. The prompt must fit the KV pool outright.
  void Enqueue(RequestState* request);

  // Releases the request's KV (called when the decode side finished pulling, or directly for
  // single-token outputs that never decode). Unblocks a stalled launcher. No-op after Fail()
  // (the pool was dropped wholesale; stale pull completions must not double-release).
  void ReleaseKv(RequestState* request);

  // Fault injection (serving::FaultPlan). Fail() kills the instance: the queue and in-flight
  // batches are dropped, the KV pool is cleared, and every scheduled event is invalidated via
  // an epoch bump — the serving layer re-routes the stranded requests. Recover() brings the
  // instance back empty. Both are idempotent.
  void Fail();
  void Recover();
  bool alive() const { return alive_; }

  // Removes a request still waiting in the FCFS queue (client cancel / timeout before its
  // batch formed). Returns false when the request is not queued here — already executing or
  // completed — in which case the caller defers the teardown to the batch boundary.
  bool Withdraw(RequestState* request);

  // Dispatch load signals (§4.3: dispatch to the prefill instance with the shortest queue).
  size_t queue_length() const { return queue_.size(); }
  int64_t queued_tokens() const { return queued_tokens_; }
  // Queued plus in-flight prompt tokens: the controller's load signal, so an instance that is
  // busy executing (empty queue, full pipeline) still reads as loaded.
  int64_t outstanding_tokens() const { return queued_tokens_ + inflight_tokens_; }

  int id() const { return id_; }
  const model::LatencyModel& latency_model() const { return latency_model_; }
  const KvBlockManager& kv() const { return kv_; }

  // Observability.
  int64_t batches_launched() const { return batches_launched_; }
  double busy_seconds() const { return busy_seconds_; }     // stage-0 occupancy
  double bubble_seconds() const { return bubble_seconds_; } // waits inserted for bubbles

 private:
  void MaybeScheduleLaunch();
  void OnLaunchEvent();
  void ExecuteBatch(std::vector<RequestState*> batch, double stage_time, double full_time);

  simcore::Simulator* sim_;
  model::LatencyModel latency_model_;
  KvBlockManager kv_;
  Options options_;
  int id_;

  std::deque<RequestState*> queue_;
  int64_t queued_tokens_ = 0;
  int64_t inflight_tokens_ = 0;
  std::function<void(RequestState*)> on_complete_;
  trace::Recorder* recorder_ = nullptr;

  // Fault state: events scheduled before a Fail() carry the old epoch and become no-ops.
  bool alive_ = true;
  uint64_t epoch_ = 0;

  bool launch_scheduled_ = false;
  bool stalled_on_memory_ = false;
  double stage0_free_at_ = 0.0;
  double prev_entry_ = 0.0;
  double prev_stage_time_ = 0.0;

  int64_t batches_launched_ = 0;
  double busy_seconds_ = 0.0;
  double bubble_seconds_ = 0.0;
};

}  // namespace distserve::engine

#endif  // DISTSERVE_ENGINE_PREFILL_INSTANCE_H_
