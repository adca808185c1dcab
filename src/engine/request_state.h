// Mutable runtime state of an in-flight request, shared by every engine component.
//
// The serving layer owns RequestState objects; instances and links receive raw pointers, which
// is safe because the simulation is single-threaded. Lifetime rule: a pointer is valid from
// the serving system's Submit until the request's outcome (completed, lost, cancelled or timed
// out). At the outcome the serving layer hands the state's slot to its next request, so no
// component may keep the pointer past it; an event that can fire later holds the slot's serial
// next to the pointer (common/chunked_store.h) and does nothing once it no longer matches.
// Timestamps are stamped into `record` as the request crosses each lifecycle boundary.
#ifndef DISTSERVE_ENGINE_REQUEST_STATE_H_
#define DISTSERVE_ENGINE_REQUEST_STATE_H_

#include <cstdint>
#include <iterator>

#include "common/ring_queue.h"
#include "metrics/collector.h"
#include "workload/request.h"

namespace distserve::engine {

// Lifecycle position of a request, maintained by the engine so the serving layer's fault
// handler can tell which requests a dying component strands and what each one loses (queued
// work, computed KV, or decode progress).
enum class RequestPhase {
  kPending,        // not yet dispatched (arrival event pending, or orphaned by a fault)
  kPrefillQueued,  // in a prefill instance's FCFS queue
  kPrefilling,     // member of an executing prefill batch
  kDecodePending,  // handed to a decode instance, waiting for memory admission
  kTransferring,   // KV pull in flight (prefill side still holds the KV)
  kDecoding,       // KV resident on the decode instance (prefill copy released)
  kDone,
  kLost,       // failed fast after retry exhaustion with no healthy route
  kCancelled,  // client cancelled (workload::Request::cancel_at) before completion
  kTimedOut,   // missed its completion deadline (workload::Request::deadline)
};

struct RequestState {
  workload::Request request;
  metrics::RequestRecord record;

  RequestPhase phase = RequestPhase::kPending;

  // Fault bookkeeping. `attempt` increments on every fault-driven re-route; callbacks issued
  // for an earlier attempt compare it and become no-ops. `transfer_seq` names the KV pull in
  // flight: a retry of the same attempt invalidates the previous pull's completion and
  // watchdog. The serving layer numbers pulls across the whole run, so a pull closure of a
  // slot's earlier occupant never matches the current one.
  int attempt = 0;
  uint32_t transfer_seq = 0;
  int transfer_tries = 0;   // consecutive failed pulls this attempt
  int prefill_restarts = 0; // times prefill restarted from scratch (instance died mid-prefill)
  int kv_reprefills = 0;    // re-prefills forced by losing already-computed KV
  // The watchdog of the KV pull in flight: the time it fires and the event sequence number
  // reserved for it when the pull started. The serving layer schedules it only once it can
  // fire (the link dies before the pull lands). `kv_watchdog_reserved`: not scheduled yet;
  // it matters only while the pull is in flight (kTransferring).
  double kv_watchdog_at = 0.0;
  uint64_t kv_watchdog_seq = 0;
  bool kv_watchdog_reserved = false;
  bool parked = false;      // waiting in the controller's parked list for a recovery

  // Scenario bookkeeping. `cancel_pending` is set when a cancel/timeout fires while the
  // request is inside an executing batch or an in-flight KV pull — tearing those down
  // mid-step would corrupt the engine's incremental accounting, so the owning component
  // finishes the unit of work and the serving layer completes the teardown at the next
  // boundary. `preemptions` counts decode-queue evictions by a higher-priority tenant.
  bool cancel_pending = false;
  // Valid while cancel_pending: whether the deferred abandonment was a deadline miss
  // (kTimedOut) rather than a client cancel. Stored separately because the phase keeps
  // tracking the engine position until the teardown completes.
  bool abandon_timed_out = false;
  int preemptions = 0;

  // Decode progress: tokens generated by decode steps so far (the first output token comes
  // from prefill, so a request finishes when decode_steps_done == output_len - 1). While the
  // request is resident on a decode lane or colocated engine, its progress lives in that
  // engine's step counter (engine step minus join step); the engine writes it here when it is
  // read: on completion, Abort/Cancel, preemption and Fail.
  int decode_steps_done = 0;

  // Prefill progress for chunked-prefill engines (SARATHI baseline): prompt tokens already
  // processed. Monolithic prefill jumps this from 0 to input_len in one step.
  int prefill_tokens_done = 0;

  // Instance bookkeeping (indices into the serving system's instance vectors).
  int prefill_instance = -1;
  int decode_instance = -1;

  explicit RequestState(const workload::Request& req) : request(req) {
    record.id = req.id;
    record.arrival = req.arrival_time;
    record.input_len = req.input_len;
    record.output_len = req.output_len;
    record.priority = req.priority;
  }

  int remaining_decode_steps() const { return request.output_len - 1 - decode_steps_done; }

  // Sequence length currently resident (prompt + first token + decode tokens so far).
  int64_t context_len() const { return request.input_len + 1 + decode_steps_done; }
};

// The engines' FIFO request queues (prefill queue, decode admission queue, colocated waiting
// and prefilling queues): a ring that stops allocating once it has grown to its peak length.
using RequestQueue = RingQueue<RequestState*>;

// The engines' admission order over a non-empty waiting queue: highest priority first, FCFS
// within a class. `priorities_active` says whether a prioritized request was ever queued;
// until then the pick is plain front() (the single-tenant fast path).
inline RequestQueue::iterator PickByPriority(RequestQueue& queue, bool priorities_active) {
  if (!priorities_active) {
    return queue.begin();
  }
  auto best = queue.begin();
  for (auto it = std::next(queue.begin()); it != queue.end(); ++it) {
    if ((*it)->request.priority > (*best)->request.priority) {
      best = it;  // strictly greater: FCFS stays stable within a class
    }
  }
  return best;
}

}  // namespace distserve::engine

#endif  // DISTSERVE_ENGINE_REQUEST_STATE_H_
