// A disaggregated prefill instance (§3.1).
//
// One complete copy of the model weights under a (tp, pp) parallelism plan, dedicated to
// prefill. Requests queue FCFS; batches are formed by the L_m-aware policy (batch_former.h)
// and flow through the pp pipeline stages. The instance models:
//
//   * pipeline cadence and bubbles (PipelineCadence): a batch enters stage 0 once the previous
//     one has left it, and a shorter batch after a longer one also waits out the bubble (§3.3);
//   * KV backpressure: computed prompts hold their KV cache on this instance until the decode
//     side pulls it (§4.3 "combat burstiness"); when the pool is full, launching stalls, which
//     surfaces as prefill queueing delay.
//
// Completion of a batch stamps first_token on every member and fires the on_complete callback
// (the serving layer then dispatches to a decode instance and schedules the pull).
//
// Launches cost no event of their own where none could be observed. An idle instance whose
// Enqueue ends the caller's event (last_in_event, inside Simulator::Run) launches at once
// when nothing else is pending at now: a zero-delay launch event would have fired next. With
// pp = 1, stage 0 frees exactly when the batch in flight completes, so a launch armed while
// it runs reserves the sequence number its event would have taken (Simulator::ReserveSeqs)
// and the completion runs it: in place when nothing else is pending at now, otherwise as an
// event under that number. Every other launch (enqueues outside Run or several in one
// callback, a stalled launcher unblocked by ReleaseKv, pp > 1 cadence and bubble waits) stays
// an event, so each launch fires in the same (time, sequence) order as a launch event would.
#ifndef DISTSERVE_ENGINE_PREFILL_INSTANCE_H_
#define DISTSERVE_ENGINE_PREFILL_INSTANCE_H_

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

  // Whether launches may run inside the events that cause them (the default; see the header
  // comment). An instance whose simulator also runs other systems' events turns it off:
  // whether an event is pending at now then depends on those events, and so would the
  // number of events fired, which a fleet keeps independent of how its groups share
  // simulators. Launch order and every sim value are the same either way.
  void set_launch_in_place(bool enabled) { launch_in_place_ = enabled; }

  // Adds a request to the FCFS queue. The prompt must fit the KV pool outright.
  // `last_in_event` promises that the calling event callback does nothing after this call;
  // an idle instance may then launch the batch at once instead of scheduling a zero-delay
  // launch event, when no other event is pending at now (see the header comment). Leave it
  // false outside Simulator::Run and when one callback enqueues several requests.
  void Enqueue(RequestState* request, bool last_in_event = false);

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
  // Arms the next launch: at once when `may_launch_inline` and nothing could fire before it,
  // under a reserved sequence number when it waits for the batch in flight (pp = 1), and as
  // a launch event otherwise.
  void MaybeScheduleLaunch(bool may_launch_inline = false);
  // Runs the launch reserved for the batch that just completed: in place when nothing else is
  // pending at now, else as an event under the reserved sequence number.
  void LaunchAtReservedSeq();
  void OnLaunchEvent();
  void ExecuteBatch(std::vector<RequestState*> batch, double stage_time, double full_time);

  simcore::Simulator* sim_;
  model::LatencyModel latency_model_;
  KvBlockManager kv_;
  Options options_;
  int id_;

  RequestQueue queue_;
  // Batch vectors whose batches completed, reused by later launches so forming a batch
  // allocates nothing in steady state (under pp > 1 several batches are in flight at once).
  std::vector<std::vector<RequestState*>> spare_batches_;
  int64_t queued_tokens_ = 0;
  int64_t inflight_tokens_ = 0;
  int inflight_batches_ = 0;
  std::function<void(RequestState*)> on_complete_;
  trace::Recorder* recorder_ = nullptr;

  // Fault state: events scheduled before a Fail() carry the old epoch and become no-ops.
  bool alive_ = true;
  uint64_t epoch_ = 0;

  bool launch_in_place_ = true;
  // True while a launch is armed: scheduled, reserved, or held through a bubble wait.
  bool launch_scheduled_ = false;
  // The armed launch waits for the batch in flight; its completion runs it under launch_seq_.
  bool launch_at_completion_ = false;
  uint64_t launch_seq_ = 0;
  bool stalled_on_memory_ = false;
  PipelineCadence cadence_;

  int64_t batches_launched_ = 0;
  double busy_seconds_ = 0.0;
  double bubble_seconds_ = 0.0;
};

}  // namespace distserve::engine

#endif  // DISTSERVE_ENGINE_PREFILL_INSTANCE_H_
