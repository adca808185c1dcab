// Per-request span recorder in simulated time.
//
// The engine and serving layers drive a Recorder through three verbs:
//
//   * Transition(id, now, kind, pid, tid) — close the request's open span at `now` (if any)
//     and open a new one of `kind`. Timelines are gap-free by construction: every span's end
//     is the next span's start, bitwise.
//   * Finish(id, now) / Drop(id, now) — close the open span and record the terminal outcome
//     (completed / lost). Outcome order matches the metrics::Collector record order, which is
//     what lets attribution.h reproduce the collector's aggregates bitwise.
//   * InstanceSpan(pid, tid, ...) — a closed span on a component-owned track (prefill batch,
//     decode lane step, link busy window); off by default (Options::instance_spans) because
//     lane-step tracks dominate trace size.
//
// The recorder allocates only on its own vectors and is touched solely behind the DS_TRACE
// macro's null-pointer check, so an un-attached system runs the exact event sequence of an
// un-instrumented one — byte-identical stdout with tracing on or off.
//
// Export: ChromeJson() emits Chrome trace-event JSON loadable in Perfetto ("X" complete
// events; one pid per instance; one thread track per request per run within a pid, lanes on
// instance tracks). Timestamps are microseconds rendered with FormatDoubleExact, and every
// event carries the exact start/end seconds in args (t0/t1) so validators can check
// contiguity and conservation bitwise, not within an epsilon.
#ifndef DISTSERVE_TRACE_RECORDER_H_
#define DISTSERVE_TRACE_RECORDER_H_

#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "trace/span.h"
#include "workload/request.h"

namespace distserve::trace {

class Recorder {
 public:
  struct Options {
    // Merge a Transition into the request's open span when kind, pid, and tid all match,
    // instead of closing and reopening. Turns the per-step decode_step tiling into one span
    // per contiguous residency (detail keeps the latest value, merged counts the folds).
    // Attribution extents are identical either way; tests disable this to check the tiling.
    bool coalesce_repeats = true;
    // Record component-track spans (prefill batches, decode lane steps, colocated engine
    // iterations, link busy windows). Off by default: request timelines are the product;
    // lane-step tracks multiply trace size by the average batch size.
    bool instance_spans = false;
  };

  Recorder() = default;
  explicit Recorder(Options options) : options_(options) {}

  Recorder(const Recorder&) = delete;
  Recorder& operator=(const Recorder&) = delete;

  // Starts the next run epoch (request ids repeat across a bench's many Run calls).
  // ServingSystem::Run / VllmSystem::Run call this; requires no span left open.
  void NewRun();
  int32_t run() const { return run_; }

  // Registers a display name for a pid (idempotent; first name wins).
  void SetProcessName(int32_t pid, const std::string& name);

  // Terminal outcome classes. kLost is the fault path (retry exhaustion); kCancelled and
  // kTimedOut are the client-abandonment outcomes of the multi-tenant scenarios. All three
  // early terminations behave identically for tiling purposes (the timeline may end on any
  // span); attribution folds them into the same lost bucket.
  enum class OutcomeKind : uint8_t { kDone = 0, kLost, kCancelled, kTimedOut };

  void Transition(workload::RequestId id, double now, SpanKind kind, int32_t pid, int32_t tid,
                  int64_t detail = 0);
  void Finish(workload::RequestId id, double now);
  void Drop(workload::RequestId id, double now, OutcomeKind kind = OutcomeKind::kLost);

  void InstanceSpan(int32_t pid, int32_t tid, SpanKind kind, double start, double end,
                    int64_t detail = 0);

  struct Outcome {
    workload::RequestId request = 0;
    int32_t run = 0;
    double at = 0.0;
    OutcomeKind kind = OutcomeKind::kDone;

    bool done() const { return kind == OutcomeKind::kDone; }
  };

  static const char* OutcomeName(OutcomeKind kind);

  // Closed spans in close order (chronological per request; single-threaded simulation).
  const std::vector<Span>& spans() const { return spans_; }
  // Finish/Drop events in call order == collector record order.
  const std::vector<Outcome>& outcomes() const { return outcomes_; }
  size_t open_count() const { return open_.size(); }
  const Options& options() const { return options_; }

  std::string ChromeJson() const;
  bool WriteChromeJson(const std::string& path) const;

  void Clear();

 private:
  struct OpenSpan {
    SpanKind kind;
    int32_t pid;
    int32_t tid;
    double start;
    int64_t detail;
    int64_t merged;
  };

  void CloseOpen(workload::RequestId id, const OpenSpan& open, double now);

  Options options_;
  int32_t run_ = 0;
  std::unordered_map<workload::RequestId, OpenSpan> open_;
  std::vector<Span> spans_;
  std::vector<Outcome> outcomes_;
  std::vector<std::pair<int32_t, std::string>> process_names_;  // registration order
};

}  // namespace distserve::trace

#endif  // DISTSERVE_TRACE_RECORDER_H_
