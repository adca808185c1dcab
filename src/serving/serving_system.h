// The end-to-end DistServe runtime (Figure 6).
//
// Builds prefill and decode instances per a PlacementPlan, wires the centralized controller
// policies of §4.3 — dispatch each arrival to the prefill instance with the shortest queue
// (by queued tokens), then hand the finished prefill to the least-loaded decode instance —
// and routes pull-based KV transfers over per-decode-instance ingress links. Running a trace
// yields a metrics::Collector with the full per-request lifecycle.
//
// Fault tolerance (§4.3 extended): a ServingConfig may carry a FaultPlan, injected as ordinary
// simulator events. When an instance dies, its queued/in-flight work and KV pool die with it;
// the controller re-routes every stranded request — prefill work restarts from scratch on a
// healthy instance, requests whose computed KV was lost (on the dead prefill before the pull,
// or on the dead decode after it) are re-prefilled (the paper's KV-loss cost), and requests
// whose prefill KV copy survived are merely re-dispatched. Dead transfer links drop bytes
// silently; every pull has a watchdog timeout and is retried with exponential backoff,
// re-routing to another decode instance on exhaustion and failing fast only when no healthy
// route exists. Requests with no live target are parked and re-routed on recovery.
//
// Request state is O(in-flight): each request's RequestState occupies a slot of a
// ChunkedStore from Submit until its outcome (completed, lost, cancelled or timed out), and
// the slot then goes to a later request. Engine pointers are valid for exactly that span;
// events that can outlive it (cancel and deadline events, fault re-routes, KV pull
// completions and watchdogs) check the slot's serial or the run-wide pull number first.
//
// This engine-level runtime is the "real system" of our Table-2 reproduction; the fast
// placement simulator (placement/fast_sim.h) drives the same engine kernels without events.
#ifndef DISTSERVE_SERVING_SERVING_SYSTEM_H_
#define DISTSERVE_SERVING_SERVING_SYSTEM_H_

#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "cluster/topology.h"
#include "common/chunked_store.h"
#include "engine/decode_instance.h"
#include "engine/prefill_instance.h"
#include "engine/request_state.h"
#include "metrics/collector.h"
#include "placement/placement.h"
#include "serving/fault_plan.h"
#include "serving/transfer.h"
#include "simcore/simulator.h"
#include "workload/request.h"

namespace distserve::trace {
class Recorder;
}

namespace distserve::serving {

// Knobs for the failure-handling paths; all delays in virtual seconds.
struct FaultOptions {
  // Failure detection + controller rescheduling latency applied to every fault-driven
  // re-route (the paper's controller is centralized, so detection is fast but not free).
  double redispatch_delay = 0.25;
  // Slack beyond a pull's expected completion before the watchdog declares it dead.
  double transfer_timeout = 0.25;
  // Base wait before reissuing a pull on a link that was already dead at issue time; retry k
  // waits transfer_backoff * 2^k.
  double transfer_backoff = 0.25;
  // Pull reissues on the same link before routing around it (or failing fast).
  int max_transfer_retries = 3;
};

struct ServingConfig {
  model::ModelSpec model;
  cluster::ClusterSpec cluster;
  placement::PlacementPlan plan;

  // Engine knobs. A batch_policy.target_tokens of 0 auto-derives L_m from the latency model
  // (never below 512, matching the paper's observation that A100 saturates around 512 tokens
  // on a 13B model).
  engine::PrefillInstance::Options prefill_options;
  engine::DecodeInstance::Options decode_options;

  // Optional override of the latency coefficients (e.g. fitted ones); when unset they are
  // derived from cluster.gpu.
  std::optional<model::LatencyCoefficients> coefficients;

  // Deterministic failure schedule; empty means a fault-free run (bit-identical to a config
  // that never mentions faults).
  FaultPlan faults;
  FaultOptions fault_options;

  // Optional per-request span recorder (trace/recorder.h, DESIGN.md §14). Null (the default)
  // records nothing and costs one pointer check per call site; results are bit-identical
  // either way. The recorder must outlive the system.
  trace::Recorder* recorder = nullptr;

  // Optional external simulator (DESIGN.md §17). Null (the default) gives the system its own
  // private clock, the classic standalone mode. A fleet run passes one shard of a
  // simcore::ShardedSimulator instead, so several groups share (or split) virtual time; the
  // simulator must outlive the system, and the caller drives it (Run() is standalone-only).
  // Prefill launches then stay events (PrefillInstance::set_launch_in_place), so the number
  // of events fired does not depend on which systems share the simulator.
  simcore::Simulator* sim = nullptr;
};

class ServingSystem {
 public:
  explicit ServingSystem(ServingConfig config);

  ServingSystem(const ServingSystem&) = delete;
  ServingSystem& operator=(const ServingSystem&) = delete;
  ~ServingSystem();

  // Replays the trace to completion and returns the per-request records. With a fault plan a
  // request may fail fast (retry exhaustion with no healthy route) or end the run stranded
  // with every instance dead; both are recorded as lost, not completed. Arrival times must
  // not decrease (a trace that does aborts, naming the offending index).
  //
  // A system runs once: a second Run, or a Run after streaming, aborts. The clock, the links'
  // busy-until times and the prefill instances' stage-0 free times are absolute simulated
  // times that a second run would inherit from the first; build a new system for each trace
  // instead.
  metrics::Collector Run(const workload::Trace& trace);

  // --- Streaming interface (fleet runs over an external simulator; serving/fleet.h) ---
  // The Run() above is BeginStream + the trace's arrivals streamed through
  // Simulator::StreamArrivals (one pending arrival at a time, each calling Submit) +
  // ScheduleFaults + drive the simulator + FinishStream(now), so the two modes share every
  // code path. The streamed arrivals tie against other events exactly as one ScheduleAt per
  // request before ScheduleFaults would, so a caller that schedules its arrivals that way
  // gets bit-identical results.

  // Starts the stream and a new trace recorder run. Call before scheduling any arrivals. A
  // system streams once, like it runs once: a second BeginStream aborts.
  void BeginStream(size_t expected_requests);

  // Admits one request at the simulator's current time. Call it from within an event, as the
  // last thing that event does: an idle prefill instance may start the request's batch
  // before Submit returns (PrefillInstance::Enqueue's last_in_event). The request's recorded
  // arrival stays request.arrival_time — admission later than that models controller
  // dispatch latency and is charged to TTFT. The request's state lives in this system until
  // the request's outcome.
  void Submit(const workload::Request& request);

  // Schedules the config's fault plan as simulator events. Run() does this itself; streaming
  // callers do it once, after BeginStream.
  void ScheduleFaults();

  // Completes the stream: fails-fast any still-parked requests, closes fault downtime
  // intervals at `end_time` (a fleet passes the canonical fleet-wide end so accounting is
  // shard-count independent), verifies nothing was silently dropped, and yields the records.
  metrics::Collector FinishStream(double end_time);

  // Fired when a request leaves the system — completed (phase kDone), lost (kLost), cancelled
  // or timed out — from within the simulation. Not fired for the FinishStream fail-fast sweep:
  // the stream is already over. Fleet routers use this to post completion notifications
  // across shards. The state is released right after the call: do not keep a reference.
  void set_on_request_done(std::function<void(const engine::RequestState&)> fn) {
    on_request_done_ = std::move(fn);
  }

  // True while the system can make progress on new arrivals: at least one live prefill and
  // one live decode instance. The fleet router's dispatch filter.
  bool Serviceable() const;

  // Fired after each fault-plan event is applied (failure-driven replanning hooks in here).
  void set_fault_callback(std::function<void(const FaultEvent&)> fn) {
    fault_callback_ = std::move(fn);
  }

  // Observability (valid after Run).
  const std::vector<std::unique_ptr<engine::PrefillInstance>>& prefill_instances() const {
    return prefills_;
  }
  const std::vector<std::unique_ptr<engine::DecodeInstance>>& decode_instances() const {
    return decodes_;
  }
  const std::vector<std::unique_ptr<Link>>& ingress_links() const { return links_; }
  const simcore::Simulator& simulator() const { return *sim_; }

  // The auto-derived prefill batch token target actually in effect.
  int64_t prefill_token_target() const { return prefill_token_target_; }

 private:
  // Enqueues on the live prefill instance with the least outstanding tokens, or parks.
  // `last_in_event` as in PrefillInstance::Enqueue.
  void DispatchArrival(engine::RequestState* request, bool last_in_event = false);
  void DispatchToDecode(engine::RequestState* request);
  void OnPrefillDone(engine::RequestState* request);
  void OnDecodeDone(engine::RequestState* request);

  // Scenario machinery (client abandonment + multi-tenant preemption).
  // Schedules the request's cancel_at / deadline events (no-ops when both are 0).
  void ScheduleAbandonment(engine::RequestState* request);
  // Tears the request down per its phase. Immediate except for an executing prefill batch,
  // where teardown is deferred (cancel_pending) to the batch boundary.
  void CancelRequest(engine::RequestState* request, bool timed_out);
  // Terminal bookkeeping shared by the immediate and deferred paths: stamps the terminal
  // phase, records the outcome, emits the drop span, fires the done callback.
  void FinishAbandon(engine::RequestState* request, bool timed_out);
  // A decode instance evicted `request` for a higher-priority tenant: its decode-side KV is
  // gone, so it re-prefills (same recovery as a KV-loss fault, charged to scenario counters).
  void OnDecodePreempt(engine::RequestState* request);

  // Fault machinery.
  void ApplyFault(const FaultEvent& event);
  void OnPrefillFailure(int index);
  void OnDecodeFailure(int index);
  void StartKvPull(size_t link_idx, engine::RequestState* request,
                   engine::DecodeInstance::TransferDone done);
  // Schedules the watchdog StartKvPull reserved for the request's pull in flight.
  void ArmKvWatchdog(size_t link_idx, engine::RequestState* request,
                     engine::DecodeInstance::TransferDone done);
  void OnKvPullTimeout(size_t link_idx, engine::RequestState* request,
                       engine::DecodeInstance::TransferDone done);
  // Re-routes one stranded request per its phase (kPending -> prefill, kDecodePending ->
  // decode), after the detection delay. Parks it when no live target exists.
  void ScheduleReroute(engine::RequestState* request);
  void RouteAfterFault(engine::RequestState* request);
  void Park(engine::RequestState* request);
  void FlushParked();
  void FailFast(engine::RequestState* request);
  metrics::FaultStats& fault_stats() { return collector_.fault_stats(); }

  ServingConfig config_;
  std::unique_ptr<simcore::Simulator> owned_sim_;  // standalone mode only
  simcore::Simulator* sim_ = nullptr;              // owned_sim_ or config_.sim
  std::vector<std::unique_ptr<engine::PrefillInstance>> prefills_;
  std::vector<std::unique_ptr<engine::DecodeInstance>> decodes_;
  std::vector<std::unique_ptr<Link>> links_;  // one ingress link per decode instance
  ChunkedStore<engine::RequestState> states_;  // one slot per request in flight
  metrics::Collector collector_;
  std::function<void(const FaultEvent&)> fault_callback_;
  std::function<void(const engine::RequestState&)> on_request_done_;
  bool finishing_ = false;  // suppresses on_request_done_ during FinishStream's sweep
  bool started_ = false;    // BeginStream was called (a system runs or streams once)

  // Requests with no live target, re-routed when a component recovers.
  std::deque<engine::RequestState*> parked_;
  // Per-(domain, index) time of the unrecovered failure, for downtime accounting; keyed as
  // domain * max_index + index in a flat map below.
  std::vector<std::optional<double>> prefill_down_since_;
  std::vector<std::optional<double>> decode_down_since_;
  std::vector<std::optional<double>> link_down_since_;

  int64_t kv_bytes_per_prompt_token_ = 0;
  int64_t prefill_token_target_ = 0;
  int64_t completed_ = 0;
  int64_t submitted_ = 0;  // this stream's Submit calls
  // Numbers every KV pull of the system's life (RequestState::transfer_seq); wraps after
  // 2^32 pulls, far beyond the lifetime of any pull closure.
  uint32_t pull_seq_ = 0;
};

}  // namespace distserve::serving

#endif  // DISTSERVE_SERVING_SERVING_SYSTEM_H_
