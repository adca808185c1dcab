// Span taxonomy for per-request latency attribution (DESIGN.md §14).
//
// A request's life is a gap-free sequence of spans in simulated time:
//
//   arrival → prefill_queue → prefill_exec[batch i] → decode_admit → kv_transfer
//           → decode_queue → decode_step* → done
//
// plus the fault-path spans `restart`, `re_prefill`, `redispatch`, and `link_retry`, which
// splice into the sequence wherever a failure strands the request. Each span carries the
// component it was spent on (a stable pid per instance, a tid per lane/stage), so the Chrome
// trace export groups work by instance while the attribution layer (attribution.h) folds the
// same spans into the Figure-10 stage breakdown.
//
// The `decode_admit` span (prefill done → decode-side KV reservation) exists so timelines
// tile [arrival, completion] exactly; the classic five-stage table excludes it, matching
// metrics::Collector::ComputeBreakdown, whose DecodeQueueTime starts at transfer_end.
#ifndef DISTSERVE_TRACE_SPAN_H_
#define DISTSERVE_TRACE_SPAN_H_

#include <cstdint>

#include "workload/request.h"

namespace distserve::trace {

enum class SpanKind : uint8_t {
  // Lifecycle stages.
  kPrefillQueue = 0,  // FCFS wait in a prefill instance's queue
  kPrefillExec,       // member of an executing prefill batch (detail: batch index / step)
  kDecodeAdmit,       // prefill done, waiting for the decode side's KV reservation
  kKvTransfer,        // KV pull in flight, reservation through completion (detail: attempt)
  kDecodeQueue,       // KV resident, waiting to join a decode lane's next step
  kDecodeStep,        // decoding (detail: steps done at entry; coalescible across steps)
  // Fault paths (controller work: detection delay + re-routing).
  kRestart,     // prefill instance died mid-prefill; restarting from scratch
  kRePrefill,   // computed KV lost; re-running the prefill
  kRedispatch,  // decode-side re-route that kept the prefill KV copy (also: parked waits)
  kLinkRetry,   // pull reissued after a watchdog timeout (detail: tries so far)
  // Multi-tenant path (controller work, folded into fault time by attribution like the
  // fault-path kinds above — keep it after kLinkRetry so the lifecycle indices 0..5 hold).
  kPreempt,  // evicted from a decode queue by a higher-priority tenant; awaiting re-prefill
  // Instance-track only (never appears in a request timeline).
  kEngineStep,  // one colocated engine iteration (mixed prefill+decode batch)
};

const char* SpanKindName(SpanKind kind);

// Process-id scheme for the Chrome export: one pid per instance, disjoint ranges per
// component class so a Perfetto view groups tracks by instance at a glance.
inline constexpr int32_t kControllerPid = 1;
constexpr int32_t PrefillPid(int id) { return 1000 + id; }
constexpr int32_t DecodePid(int id) { return 2000 + id; }
constexpr int32_t ColocatedPid(int id) { return 3000 + id; }
constexpr int32_t LinkPid(int id) { return 4000 + id; }

struct Span {
  workload::RequestId request = -1;  // -1: instance-track span (no owning request)
  int32_t run = 0;                   // Recorder::NewRun epoch (ids repeat across runs)
  SpanKind kind = SpanKind::kPrefillQueue;
  int32_t pid = 0;     // component the time was spent on (pid scheme above)
  int32_t tid = 0;     // lane / pipeline stage within the component
  double start = 0.0;  // simulated seconds
  double end = 0.0;
  int64_t detail = 0;  // kind-specific: batch index, step index, attempt, bytes
  int64_t merged = 1;  // transitions coalesced into this span (Recorder::Options)

  double duration() const { return end - start; }
};

}  // namespace distserve::trace

// DS_TRACE(recorder, Method(...)) invokes a trace::Recorder method iff a recorder is
// attached: one null-pointer check per site when none is.
#define DS_TRACE(rec, call) \
  do {                      \
    if ((rec) != nullptr) { \
      (rec)->call;          \
    }                       \
  } while (0)

#endif  // DISTSERVE_TRACE_SPAN_H_
