// Differential test of per-run engine stepping: the decode lanes and the colocated engine
// (one DES event per membership-stable run, no walk over resident requests) against the
// per-step engines they replaced (tests/per_step_engines.h: one event per step, every member
// advanced each step). Both are driven with the same inputs on tests/scenario_trace.h's trace
// — KV pressure, binding batch caps, tenant priorities with preemption, aborts, cancels,
// deadlines, prefix hits and a mid-run fault — and must agree bit for bit: records
// (metrics::BitIdentical), counters sampled mid-run by probe events, every request's final
// decode progress, and the recorder's request spans.
#include <gtest/gtest.h>

#include <memory>
#include <tuple>
#include <vector>

#include "cluster/gpu_spec.h"
#include "engine/colocated_instance.h"
#include "engine/decode_instance.h"
#include "metrics/collector.h"
#include "per_step_engines.h"
#include "scenario_trace.h"
#include "trace/recorder.h"

namespace distserve::engine {
namespace {

model::LatencyModel Lm(int pp) {
  return model::LatencyModel(model::ModelSpec::Opt13B(), {1, pp},
                             cluster::GpuSpec::A100_80GB());
}

// Instance counters as read at one probe event.
struct Counters {
  int64_t steps = 0;
  int64_t tokens = 0;
  double busy = 0.0;
  int64_t kv_used = 0;
  int64_t load = 0;
  int64_t preemptions = 0;

  bool operator==(const Counters&) const = default;
};

template <typename Instance>
Counters Read(const Instance& instance) {
  return {instance.steps_executed(), instance.tokens_generated(), instance.busy_seconds(),
          instance.kv().used_blocks(), instance.load(), instance.preemptions()};
}

// Everything one engine run produced.
struct Outcome {
  metrics::Collector records;
  std::vector<Counters> probes;  // one per probe event, then the final read
  std::vector<int> progress;     // each request's decode_steps_done at the end
  std::vector<trace::Span> spans;
  int64_t events = 0;
};

void ExpectSameOutcome(const Outcome& run, const Outcome& reference) {
  EXPECT_TRUE(metrics::BitIdentical(run.records, reference.records));
  EXPECT_EQ(run.records.count(), reference.records.count());
  ASSERT_EQ(run.probes.size(), reference.probes.size());
  for (size_t i = 0; i < run.probes.size(); ++i) {
    EXPECT_EQ(run.probes[i], reference.probes[i]) << "probe " << i;
  }
  EXPECT_EQ(run.progress, reference.progress);
  ASSERT_EQ(run.spans.size(), reference.spans.size());
  for (size_t i = 0; i < run.spans.size(); ++i) {
    const trace::Span& a = run.spans[i];
    const trace::Span& b = reference.spans[i];
    EXPECT_EQ(std::tie(a.request, a.kind, a.pid, a.tid, a.start, a.end, a.detail, a.merged),
              std::tie(b.request, b.kind, b.pid, b.tid, b.start, b.end, b.detail, b.merged))
        << "span " << i;
  }
  EXPECT_LT(run.events, reference.events);  // the point of stepping per run
}

// The recorder's request spans (instance spans are per run in one engine, per step in the
// other).
std::vector<trace::Span> RequestSpans(const trace::Recorder& recorder) {
  std::vector<trace::Span> spans;
  for (const trace::Span& span : recorder.spans()) {
    if (span.request >= 0) {
      spans.push_back(span);
    }
  }
  return spans;
}

// --- Decode lanes ------------------------------------------------------------------------

struct DecodeCase {
  int pp = 1;
  int64_t kv_capacity = 1 << 20;
  int max_batch_size = 512;
  bool priorities = false;
  bool aborts = false;
  bool fault = false;
  double transfer_seconds_per_token = 2e-5;
};

// Drives one decode instance the way the serving layer does: submissions at arrival (prefill
// taken as instant), pulls that take time proportional to the prompt, preempted victims
// re-submitted after a re-prefill delay, aborts at the trace's cancel times, and optionally a
// fault that kills the instance mid-run and re-submits the stranded requests on recovery.
template <typename Instance>
Outcome RunDecode(const DecodeCase& c, const workload::Trace& trace) {
  simcore::Simulator sim;
  trace::Recorder recorder;
  recorder.NewRun();
  typename Instance::Options options;
  options.max_batch_size = c.max_batch_size;
  Instance instance(&sim, Lm(c.pp), c.kv_capacity, options, 0);
  instance.set_recorder(&recorder);
  Outcome out;
  std::vector<std::unique_ptr<RequestState>> states;
  std::vector<bool> finished;  // completed or aborted: the harness stops touching it
  std::vector<size_t> stranded;  // waiting for the failed instance to recover
  instance.set_transfer_fn([&sim, &c](RequestState* r, std::function<void()> done) {
    sim.ScheduleAfter(c.transfer_seconds_per_token * r->request.input_len, std::move(done));
  });
  instance.set_on_complete([&](RequestState* r) { out.records.Record(r->record); });
  auto submit = [&](size_t i) {
    if (finished[i]) {
      return;
    }
    if (!instance.alive()) {
      stranded.push_back(i);
      return;
    }
    instance.Submit(states[i].get());
  };
  instance.set_on_preempt([&](RequestState* r) {
    // The serving layer re-prefills the victim: its decode progress is gone.
    r->decode_steps_done = 0;
    r->phase = RequestPhase::kPending;
    r->decode_instance = -1;
    const size_t i = static_cast<size_t>(r->request.id);
    sim.ScheduleAfter(0.05, [&submit, i] { submit(i); });
  });
  for (const workload::Request& src : trace) {
    workload::Request req = src;
    req.id = static_cast<workload::RequestId>(states.size());
    req.output_len = std::max(req.output_len, 2);
    if (!c.priorities) {
      req.priority = 0;
    }
    states.push_back(std::make_unique<RequestState>(req));
    states.back()->record.prefill_start = req.arrival_time;
    states.back()->record.first_token = req.arrival_time;
    finished.push_back(false);
  }
  for (size_t i = 0; i < states.size(); ++i) {
    const workload::Request& req = states[i]->request;
    sim.ScheduleAt(req.arrival_time, [&submit, i] { submit(i); });
    if (c.aborts && req.cancel_at > 0.0) {
      sim.ScheduleAt(req.cancel_at, [&, i] {
        RequestState* r = states[i].get();
        if (finished[i] || r->phase == RequestPhase::kDone) {
          return;
        }
        finished[i] = true;
        instance.Abort(r);
        recorder.Drop(r->request.id, sim.now(), trace::Recorder::OutcomeKind::kCancelled);
        out.records.RecordCancelled(r->record);
      });
    }
  }
  if (c.fault) {
    sim.ScheduleAt(trace[trace.size() / 3].arrival_time + 0.123, [&] {
      instance.Fail();
      for (size_t i = 0; i < states.size(); ++i) {
        RequestState* r = states[i].get();
        if (!finished[i] && r->decode_instance == 0 &&
            (r->phase == RequestPhase::kDecodePending ||
             r->phase == RequestPhase::kTransferring || r->phase == RequestPhase::kDecoding)) {
          r->decode_steps_done = 0;
          r->phase = RequestPhase::kPending;
          recorder.Transition(r->request.id, sim.now(), trace::SpanKind::kRePrefill,
                              trace::kControllerPid, 0);
          stranded.push_back(i);
        }
      }
    });
    sim.ScheduleAt(trace[trace.size() / 2].arrival_time + 0.456, [&] {
      instance.Recover();
      std::vector<size_t> resubmit;
      resubmit.swap(stranded);
      for (const size_t i : resubmit) {
        submit(i);
      }
    });
  }
  for (int k = 1; k <= 40; ++k) {
    sim.ScheduleAt(0.0731 * k * k, [&] { out.probes.push_back(Read(instance)); });
  }
  sim.Run();
  out.probes.push_back(Read(instance));
  for (const auto& state : states) {
    out.progress.push_back(state->decode_steps_done);
  }
  out.spans = RequestSpans(recorder);
  out.events = sim.events_processed();
  return out;
}

void ExpectDecodeMatches(const DecodeCase& c) {
  const workload::Trace trace = test_util::ScenarioTraceWithTies(600, 6.0, 21);
  const Outcome run = RunDecode<DecodeInstance>(c, trace);
  const Outcome reference = RunDecode<per_step::DecodeInstance>(c, trace);
  EXPECT_GT(run.records.count(), 0u);
  ExpectSameOutcome(run, reference);
}

TEST(EngineRunSteppingTest, DecodeLanesMatchPerStepUnderKvPressureAtPp124) {
  for (const int pp : {1, 2, 4}) {
    SCOPED_TRACE(pp);
    ExpectDecodeMatches({.pp = pp, .kv_capacity = 24000});
  }
}

TEST(EngineRunSteppingTest, DecodeLanesMatchPerStepWithBindingBatchCap) {
  for (const int pp : {1, 2, 4}) {
    SCOPED_TRACE(pp);
    ExpectDecodeMatches({.pp = pp, .max_batch_size = 8});
  }
}

TEST(EngineRunSteppingTest, DecodeLanesMatchPerStepWithPreemptionAndAborts) {
  for (const int pp : {1, 2, 4}) {
    SCOPED_TRACE(pp);
    const DecodeCase c{.pp = pp, .kv_capacity = 20000, .priorities = true, .aborts = true};
    const workload::Trace trace = test_util::ScenarioTraceWithTies(600, 6.0 * pp, 21);
    const Outcome run = RunDecode<DecodeInstance>(c, trace);
    EXPECT_GT(run.probes.back().preemptions, 0);
    EXPECT_GT(run.records.cancelled_count(), 0u);
    ExpectSameOutcome(run, RunDecode<per_step::DecodeInstance>(c, trace));
  }
}

TEST(EngineRunSteppingTest, DecodeLanesMatchPerStepWhenAJoinerBecomesTheVictim) {
  // M (high priority) decodes; J (low) is admitted and pulls its KV slowly; H (high) arrives
  // blocked, with no victim until J's pull lands. The per-step engine preempts J at the next
  // step end of any lane, whether or not J's own lane can merge it (cap of 1, or pp = 2 with
  // J alone on the other lane).
  workload::Trace trace(3);
  trace[0] = {.id = 0, .arrival_time = 0.0, .input_len = 100, .output_len = 400, .priority = 1};
  trace[1] = {.id = 1, .arrival_time = 0.01, .input_len = 100, .output_len = 50};
  trace[2] = {.id = 2, .arrival_time = 0.1, .input_len = 100, .output_len = 50, .priority = 1};
  for (const auto& [pp, cap] : {std::pair{1, 1}, std::pair{2, 512}}) {
    SCOPED_TRACE(pp);
    const DecodeCase c{.pp = pp,
                       .kv_capacity = 42 * 16,  // M and J, or M and H: never all three
                       .max_batch_size = cap,
                       .priorities = true,
                       .transfer_seconds_per_token = 5e-3};
    const Outcome run = RunDecode<DecodeInstance>(c, trace);
    EXPECT_EQ(run.probes.back().preemptions, 1);
    ExpectSameOutcome(run, RunDecode<per_step::DecodeInstance>(c, trace));
  }
}

TEST(EngineRunSteppingTest, DecodeLanesMatchPerStepAcrossFailAndRecover) {
  for (const int pp : {1, 2}) {
    SCOPED_TRACE(pp);
    ExpectDecodeMatches(
        {.pp = pp, .kv_capacity = 30000, .priorities = true, .aborts = true, .fault = true});
  }
}

// --- Colocated engine --------------------------------------------------------------------

// Drives one colocated replica the way baselines::VllmSystem does: enqueue at arrival, and a
// client cancel or deadline tears the request down through Cancel().
template <typename Instance>
Outcome RunColocated(const ColocatedInstance::Options& options, int64_t kv_capacity,
                     const workload::Trace& trace) {
  simcore::Simulator sim;
  trace::Recorder recorder;
  recorder.NewRun();
  typename Instance::Options engine_options;  // the reference has its own copy of the type
  engine_options.mode = static_cast<decltype(engine_options.mode)>(options.mode);
  engine_options.max_batch_size = options.max_batch_size;
  engine_options.max_prefill_tokens_per_step = options.max_prefill_tokens_per_step;
  engine_options.chunk_budget = options.chunk_budget;
  engine_options.kv_block_size = options.kv_block_size;
  engine_options.cpu_overhead_per_step = options.cpu_overhead_per_step;
  Instance instance(&sim, Lm(1), kv_capacity, engine_options, 0);
  instance.set_recorder(&recorder);
  Outcome out;
  std::vector<std::unique_ptr<RequestState>> states;
  instance.set_on_complete([&](RequestState* r) { out.records.Record(r->record); });
  instance.set_on_cancelled([&](RequestState* r) {
    if (r->phase == RequestPhase::kTimedOut) {
      out.records.RecordTimedOut(r->record);
    } else {
      out.records.RecordCancelled(r->record);
    }
  });
  auto cancel = [&](RequestState* r, bool timed_out) {
    switch (r->phase) {
      case RequestPhase::kDone:
      case RequestPhase::kCancelled:
      case RequestPhase::kTimedOut:
        return;
      default:
        break;
    }
    r->phase = timed_out ? RequestPhase::kTimedOut : RequestPhase::kCancelled;
    instance.Cancel(r);
  };
  for (const workload::Request& req : trace) {
    states.push_back(std::make_unique<RequestState>(req));
    RequestState* r = states.back().get();
    sim.ScheduleAt(req.arrival_time, [&instance, r] { instance.Enqueue(r); });
    if (req.cancel_at > 0.0) {
      sim.ScheduleAt(req.cancel_at, [&cancel, r] { cancel(r, false); });
    }
    if (req.deadline > 0.0) {
      sim.ScheduleAt(req.deadline, [&cancel, r] { cancel(r, true); });
    }
  }
  for (int k = 1; k <= 40; ++k) {
    sim.ScheduleAt(0.0731 * k * k, [&] { out.probes.push_back(Read(instance)); });
  }
  sim.Run();
  out.probes.push_back(Read(instance));
  EXPECT_EQ(instance.cancellations(), static_cast<int64_t>(out.records.cancelled_count() +
                                                           out.records.timed_out_count()));
  for (const auto& state : states) {
    out.progress.push_back(state->decode_steps_done);
  }
  out.spans = RequestSpans(recorder);
  out.events = sim.events_processed();
  return out;
}

void ExpectColocatedMatches(const ColocatedInstance::Options& options, int64_t kv_capacity) {
  const workload::Trace trace = test_util::ScenarioTraceWithTies(500, 3.0, 33);
  const Outcome run = RunColocated<ColocatedInstance>(options, kv_capacity, trace);
  const Outcome reference = RunColocated<per_step::ColocatedInstance>(options, kv_capacity, trace);
  EXPECT_GT(run.records.count(), 0u);
  EXPECT_GT(run.records.cancelled_count() + run.records.timed_out_count(), 0u);
  ExpectSameOutcome(run, reference);
}

TEST(EngineRunSteppingTest, PrefillPriorityColocatedMatchesPerStep) {
  ColocatedInstance::Options options;
  options.cpu_overhead_per_step = 0.004;
  ExpectColocatedMatches(options, 1 << 20);
}

TEST(EngineRunSteppingTest, PrefillPriorityColocatedMatchesPerStepUnderKvPressure) {
  ColocatedInstance::Options options;
  const workload::Trace trace = test_util::ScenarioTraceWithTies(500, 6.0, 33);
  const Outcome run = RunColocated<ColocatedInstance>(options, 12000, trace);
  EXPECT_GT(run.probes.back().preemptions, 0);
  ExpectSameOutcome(run, RunColocated<per_step::ColocatedInstance>(options, 12000, trace));
}

TEST(EngineRunSteppingTest, ColocatedMatchesPerStepWhenABlockedHeadIsCancelled) {
  // M decodes for hundreds of steps; H cannot fit beside it and blocks the FCFS queue; S,
  // queued behind H, fits. Cancelling H mid-run lets the very next step boundary admit S.
  workload::Trace trace(3);
  trace[0] = {.id = 0, .arrival_time = 0.0, .input_len = 100, .output_len = 400};
  trace[1] = {.id = 1, .arrival_time = 0.5, .input_len = 1000, .output_len = 10};
  trace[1].cancel_at = 1.0;
  trace[2] = {.id = 2, .arrival_time = 0.6, .input_len = 50, .output_len = 10};
  for (const auto mode : {ColocatedInstance::Options::SchedulingMode::kPrefillPriority,
                          ColocatedInstance::Options::SchedulingMode::kChunked}) {
    ColocatedInstance::Options options;
    options.mode = mode;
    options.chunk_budget = 512;
    const int64_t kv_capacity = 70 * 16;  // M and S, or H alone
    const Outcome run = RunColocated<ColocatedInstance>(options, kv_capacity, trace);
    EXPECT_EQ(run.records.count(), 2u);
    EXPECT_EQ(run.records.cancelled_count(), 1u);
    ExpectSameOutcome(run, RunColocated<per_step::ColocatedInstance>(options, kv_capacity, trace));
  }
}

TEST(EngineRunSteppingTest, ChunkedColocatedMatchesPerStep) {
  ColocatedInstance::Options options;
  options.mode = ColocatedInstance::Options::SchedulingMode::kChunked;
  options.chunk_budget = 512;
  ExpectColocatedMatches(options, 1 << 20);
  ExpectColocatedMatches(options, 16000);
}

}  // namespace
}  // namespace distserve::engine
