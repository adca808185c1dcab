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
//
// Each lane steps per run, not per token (engine/step_run.h). A lane keeps a step counter and
// its members in a min-heap keyed on the lane step at which each emits its last token; a
// member's progress is the lane's step minus its join step, written into
// RequestState::decode_steps_done only when read (completion, Abort, preemption, Fail). The
// lane fires one DES event per membership-stable run, at its earliest completion or after
// kDecodeStepChunk steps; an Abort or preemption cuts the run at the end of the step in
// flight. A join below the lane cap folds into the run there instead (StepRun::FoldDecode),
// unless a tenant waits blocked, who may preempt the joiner at that boundary; then it cuts.
// Until the fold's boundary commits, the joiners stay in the lane's joining list, and any
// change to them unfolds the run back to a cut. The per-step engine also re-ran admission at
// every step end, so a change to its inputs between run events (the blocked head of the
// queue aborted, or a join that a blocked tenant may preempt) cuts whichever run's step ends
// first. Step times, busy time and step counts are accumulated step by step in the order the
// per-step engine used, so every sim time and counter is bit-identical to stepping one event
// per token (tests/engine_run_stepping_test.cc keeps that engine as its reference).
#ifndef DISTSERVE_ENGINE_DECODE_INSTANCE_H_
#define DISTSERVE_ENGINE_DECODE_INSTANCE_H_

#include <functional>
#include <vector>

#include "engine/kv_block_manager.h"
#include "engine/request_state.h"
#include "engine/step_run.h"
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

  // What a TransferFn calls when the pull lands: a 24-byte value that ends the transfer on
  // `instance` unless the instance failed after issuing it. It is a plain value rather than a
  // std::function<void()> so that it rides inside the link's completion event and the serving
  // layer's watchdog, copied by value, without a heap allocation per request.
  struct TransferDone {
    DecodeInstance* instance;
    RequestState* request;
    uint64_t epoch;

    void operator()() const;
  };

  // Issued when the instance wants a request's KV moved here; `done` must be called once when
  // the transfer completes. The serving layer routes it over the right link. A null
  // TransferFn (unit tests) completes transfers instantly.
  using TransferFn = std::function<void(RequestState*, TransferDone done)>;

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
  // Bumped by every Fail(); the TransferDone of a pull carries the epoch it was issued in.
  uint64_t epoch() const { return epoch_; }

  // Withdraws one request this instance currently owns (its prefill died, or its ingress link
  // exhausted retries and the serving layer re-routes it). Releases any KV reservation; the
  // request's own attempt counter squashes in-flight transfer callbacks.
  void Abort(RequestState* request);

  // Dispatch load signal (§4.3: dispatch to the least loaded decoding instance).
  int64_t load() const { return static_cast<int64_t>(pending_.size()) + resident_count_; }

  int id() const { return id_; }
  const KvBlockManager& kv() const { return kv_; }
  const model::LatencyModel& latency_model() const { return latency_model_; }

  // Observability. Counters read as the per-step engine's at the simulator's current time,
  // also mid-run: steps and busy time count every step started by now, tokens every step
  // ended by now.
  int64_t tokens_generated() const;
  int64_t steps_executed() const;
  double busy_seconds() const;
  int64_t resident_requests() const { return resident_count_; }
  int64_t preemptions() const { return preemptions_; }

 private:
  // Admission scan over pending_: highest priority first, FCFS within a class; plain front()
  // when no prioritized request was ever submitted (single-tenant fast path).
  RequestQueue::iterator PickPending();
  // Evicts the lowest-priority joining/active resident strictly below `floor`: releases its
  // KV, emits a preempt span, and hands it to on_preempt_. Returns false when no such victim.
  bool PreemptLowestBelow(int floor);

  struct Lane {
    DecodeBatch batch;                   // members: stepping together
    std::vector<RequestState*> joining;  // admitted, waiting for the next run to start
    StepRun run;
  };

  void TryAdmit();
  void OnTransferDone(RequestState* request);
  // Joiners that merge into the lane at its next run boundary: up to the lane cap.
  size_t JoinersAdmitted(const Lane& lane) const;
  // Folds the lane's joiners into its run at the end of the step in flight: the run keeps
  // its steps through that one and continues with the merged batch (StepRun::FoldDecode).
  void FoldJoiners(size_t lane_idx);
  // Cuts a run with a pending fold back to the fold's boundary, where its event then admits
  // the joiners as a cut run's does (the lane's joiners changed before they merged).
  void UnfoldRun(size_t lane_idx);
  // Commits a fold's boundary: ends the step before it, traces the run up to it, and starts
  // the merged batch's run there.
  void CommitFold(size_t lane_idx);
  // Joins up to the lane cap of joiners into the batch at `at`; returns how many.
  size_t MergeJoiners(size_t lane_idx, double at);
  // Commits step 0 of a run the first `admit` joiners just merged into, traces each member's
  // first step (members from `first_joiner` on are the joiners), and drops the joiners.
  void StartMergedRun(size_t lane_idx, size_t admit, int64_t first_joiner);
  // Merges joiners up to the lane cap and starts the lane's next run (no-op mid-run).
  void LaneMaybeStep(size_t lane_idx);
  // The run's event: ends its last step, completes the members that finished on it, then
  // admits and starts the next run.
  void LaneRunEnd(size_t lane_idx);
  int per_lane_cap() const;

  // Commits every lane's step starts at or before `now`, in the order the per-step engine
  // started them (by time; equal times by lane index). Every entry point calls it first.
  void CommitThrough(double now);
  // Commits lane `lane_idx`'s next step start: ends the step before it, adds its busy time,
  // and traces each member's decode_step transition at the step's start.
  void CommitStart(size_t lane_idx);
  // The lane with the earliest start at or before `now` among positions cursor(lane); -1
  // when none is due.
  template <typename Cursor>
  int EarliestDueLane(double now, Cursor cursor) const;
  // Traces a decode_step transition at `at` for each member that joined before `seq_limit`.
  void TraceMembers(size_t lane_idx, double at, int64_t seq_limit);
  // Emits the run's instance span over its first `steps` steps.
  void TraceRun(size_t lane_idx, int steps);
  // Moves the lane's event to the end of the step in flight (membership changed mid-run).
  void CutRun(size_t lane_idx);
  // Moves the lane's run event to the run's end. A cut or a first fold gives it a fresh
  // sequence number, the one a cut always took; a re-fold or an unfold (`keep_seq`) keeps
  // the one the first fold took, so an unfolded run ends exactly as the cut it replaced.
  void MoveRunEvent(size_t lane_idx, bool keep_seq);
  // Cuts the run whose step in flight ends first: the admission queue or the preemption
  // candidates changed without an admission pass, and the per-step schedule makes one at
  // every step end.
  void CutEarliestRun();

  simcore::Simulator* sim_;
  model::LatencyModel latency_model_;
  KvBlockManager kv_;
  Options options_;
  int id_;

  TransferFn transfer_fn_;
  std::function<void(RequestState*)> on_complete_;
  std::function<void(RequestState*)> on_preempt_;
  trace::Recorder* recorder_ = nullptr;

  // Fault state: transfer completions issued before a Fail() carry the old epoch and become
  // no-ops (Fail cancels the lanes' run events outright).
  bool alive_ = true;
  uint64_t epoch_ = 0;

  RequestQueue pending_;  // waiting for memory reservation
  std::vector<Lane> lanes_;
  int64_t resident_count_ = 0;  // admitted (transferring, joining, or active)
  // True once any submitted request carried priority != 0; gates the admission scan so
  // single-tenant runs keep the plain FCFS front() path.
  bool priorities_active_ = false;

  // Scratch for ordering completions, reused across runs.
  std::vector<DecodeBatch::Member> finished_;

  // Committed counters: through the last committed step start (tokens: step end).
  int64_t tokens_generated_ = 0;
  int64_t steps_executed_ = 0;
  double busy_seconds_ = 0.0;
  int64_t preemptions_ = 0;
};

}  // namespace distserve::engine

#endif  // DISTSERVE_ENGINE_DECODE_INSTANCE_H_
