// Differential test of per-run engine stepping: the decode lanes and the colocated engine
// (one DES event per membership-stable run, no walk over resident requests) against the
// per-step engines they replaced (tests/per_step_engines.h: one event per step, every member
// advanced each step). Both are driven with the same inputs on tests/scenario_trace.h's trace
// — KV pressure, binding batch caps, tenant priorities with preemption, aborts, cancels,
// deadlines, prefix hits and a mid-run fault — and must agree bit for bit: records
// (metrics::BitIdentical), counters sampled mid-run by probe events, every request's final
// decode progress, and the recorder's request spans.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <tuple>
#include <utility>
#include <vector>

#include "cluster/gpu_spec.h"
#include "engine/colocated_instance.h"
#include "engine/decode_instance.h"
#include "metrics/collector.h"
#include "per_step_engines.h"
#include "scenario_trace.h"
#include "trace/recorder.h"
#include "workload/dataset.h"

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

// --- Colocated replicas behind least-loaded routing ---------------------------------------

// Inputs beyond the trace for a set of colocated replicas. Arrivals route to the replica with
// the least load() (the first on ties), as baselines::VllmSystem routes them, so a load view
// that misreads a replica mid-run changes the routing.
struct ReplicaCase {
  ColocatedInstance::Options options;
  int64_t kv_capacity = 1 << 20;
  int replicas = 3;
  // Arrival times that are scheduled by an event at the paired post time instead of up front:
  // at an exact tie with a step end they fire after it, as an arrival scheduled after the
  // step started does.
  std::vector<std::pair<double, double>> late_arrivals;  // {post time, arrival time}
  double probe_every = 0.0137;
  int probes = 5000;  // 68.5 s: the whole of the routed traces below
  bool instance_spans = false;
};

struct ReplicaOutcome {
  Outcome outcome;  // probes read every replica in turn; spans are sorted by request
  int64_t engine_events = 0;  // events fired by the replicas, not by the harness
  int64_t preemptions = 0;
  std::vector<trace::Span> instance_spans;
};

template <typename Instance>
ReplicaOutcome RunReplicas(const ReplicaCase& c, const workload::Trace& trace) {
  simcore::Simulator sim;
  trace::Recorder::Options recorder_options;
  recorder_options.instance_spans = c.instance_spans;
  trace::Recorder recorder(recorder_options);
  recorder.NewRun();
  typename Instance::Options options;
  options.mode = static_cast<decltype(options.mode)>(c.options.mode);
  options.max_batch_size = c.options.max_batch_size;
  options.max_prefill_tokens_per_step = c.options.max_prefill_tokens_per_step;
  options.chunk_budget = c.options.chunk_budget;
  options.kv_block_size = c.options.kv_block_size;
  options.cpu_overhead_per_step = c.options.cpu_overhead_per_step;
  ReplicaOutcome result;
  Outcome& out = result.outcome;
  std::vector<std::unique_ptr<Instance>> replicas;
  for (int i = 0; i < c.replicas; ++i) {
    replicas.push_back(std::make_unique<Instance>(&sim, Lm(1), c.kv_capacity, options, i));
    Instance& instance = *replicas.back();
    instance.set_recorder(&recorder);
    instance.set_on_complete([&](RequestState* r) { out.records.Record(r->record); });
    instance.set_on_cancelled([&](RequestState* r) {
      if (r->phase == RequestPhase::kTimedOut) {
        out.records.RecordTimedOut(r->record);
      } else {
        out.records.RecordCancelled(r->record);
      }
    });
  }
  int64_t harness_events = 0;
  auto route = [&](RequestState* r) {
    Instance* best = nullptr;
    for (const auto& instance : replicas) {
      if (best == nullptr || instance->load() < best->load()) {
        best = instance.get();
      }
    }
    best->Enqueue(r);
  };
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
    replicas[static_cast<size_t>(r->prefill_instance)]->Cancel(r);
  };
  std::vector<std::unique_ptr<RequestState>> states;
  for (const workload::Request& req : trace) {
    states.push_back(std::make_unique<RequestState>(req));
    RequestState* r = states.back().get();
    double post = 0.0;
    for (const auto& [post_at, arrival] : c.late_arrivals) {
      if (arrival == req.arrival_time) {
        post = post_at;
      }
    }
    if (post > 0.0) {
      sim.ScheduleAt(post, [&sim, &route, r] {
        sim.ScheduleAt(r->request.arrival_time, [&route, r] { route(r); });
      });
      harness_events += 2;
    } else {
      sim.ScheduleAt(req.arrival_time, [&route, r] { route(r); });
      ++harness_events;
    }
    if (req.cancel_at > 0.0) {
      sim.ScheduleAt(req.cancel_at, [&cancel, r] { cancel(r, false); });
      ++harness_events;
    }
    if (req.deadline > 0.0) {
      sim.ScheduleAt(req.deadline, [&cancel, r] { cancel(r, true); });
      ++harness_events;
    }
  }
  auto probe = [&] {
    for (const auto& instance : replicas) {
      out.probes.push_back(Read(*instance));
    }
  };
  for (int k = 1; k <= c.probes; ++k) {
    sim.ScheduleAt(c.probe_every * k, probe);
    ++harness_events;
  }
  sim.Run();
  probe();
  int64_t cancellations = 0;
  for (const auto& instance : replicas) {
    cancellations += instance->cancellations();
    result.preemptions += instance->preemptions();
  }
  EXPECT_EQ(cancellations, static_cast<int64_t>(out.records.cancelled_count() +
                                                out.records.timed_out_count()));
  for (const auto& state : states) {
    out.progress.push_back(state->decode_steps_done);
  }
  // Replicas commit lazily, so spans of different requests close in another order across
  // replicas; each request's own spans keep theirs.
  out.spans = RequestSpans(recorder);
  std::stable_sort(out.spans.begin(), out.spans.end(),
                   [](const trace::Span& a, const trace::Span& b) { return a.request < b.request; });
  for (const trace::Span& span : recorder.spans()) {
    if (span.request < 0) {
      result.instance_spans.push_back(span);
    }
  }
  out.events = sim.events_processed() - harness_events;
  result.engine_events = out.events;
  return result;
}

// Runs the replicas and the per-step reference on `trace`; returns the replicas' outcome.
ReplicaOutcome ExpectReplicasMatch(const ReplicaCase& c, const workload::Trace& trace) {
  ReplicaOutcome run = RunReplicas<ColocatedInstance>(c, trace);
  const ReplicaOutcome reference = RunReplicas<per_step::ColocatedInstance>(c, trace);
  EXPECT_GT(run.outcome.records.count(), 0u);
  ExpectSameOutcome(run.outcome, reference.outcome);
  return run;
}

// The completed request `id`'s record.
metrics::RequestRecord RecordOf(const ReplicaOutcome& run, workload::RequestId id) {
  for (const metrics::RequestRecord& r : run.outcome.records.records()) {
    if (r.id == id) {
      return r;
    }
  }
  ADD_FAILURE() << "request " << id << " did not complete";
  return {};
}

TEST(EngineRunSteppingTest, RoutedColocatedReplicasMatchPerStep) {
  for (const auto mode : {ColocatedInstance::Options::SchedulingMode::kPrefillPriority,
                          ColocatedInstance::Options::SchedulingMode::kChunked}) {
    SCOPED_TRACE(static_cast<int>(mode));
    ReplicaCase c;
    c.options.mode = mode;
    c.options.chunk_budget = 512;
    c.options.cpu_overhead_per_step = 0.0015;
    // ShareGPT traffic with prefix hits, tenants, cancels, deadlines and exact arrival ties.
    const workload::Trace trace = test_util::ScenarioTraceWithTies(600, 9.0, 41);
    ExpectReplicasMatch(c, trace);
    c.kv_capacity = 14000;  // blocked heads, preemptions and a binding token budget
    c.options.max_prefill_tokens_per_step = 1024;
    ExpectReplicasMatch(c, trace);
    c.kv_capacity = 1 << 20;
    c.options.max_batch_size = 6;  // a binding batch cap
    ExpectReplicasMatch(c, trace);
  }
}

TEST(EngineRunSteppingTest, RoutedColocatedReplicasMatchPerStepOnPlainTraffic) {
  const auto dataset = workload::MakeDatasetByName("sharegpt");
  workload::TraceSpec spec;
  spec.rate = 8.0;
  spec.num_requests = 540;
  spec.seed = 5;
  const workload::Trace trace = workload::GenerateTrace(spec, *dataset);
  ReplicaCase c;
  c.options.cpu_overhead_per_step = 0.0015;
  ExpectReplicasMatch(c, trace);
}

// Hand-built traces on one replica, one per path an arrival or a cancel takes through a run.
// A is a long decode (100-token prompt, 300 tokens) whose runs are in flight when the others
// arrive at t = 1. The engine event counts pin the path: an arrival at a busy replica cuts
// its run at the end of the step in flight, and every prefill-only step ends its run.
ReplicaCase OneReplica() {
  ReplicaCase c;
  c.replicas = 1;
  c.probe_every = 0.00371;  // dense: probes land inside runs and between steps
  c.probes = 1500;
  return c;
}

workload::Trace WithLongDecode(std::vector<workload::Request> others) {
  workload::Trace trace{test_util::MakeRequest(0, 0.0, 100, 300)};
  for (workload::Request& req : others) {
    req.id = static_cast<workload::RequestId>(trace.size());
    trace.push_back(req);
  }
  return trace;
}

TEST(EngineRunSteppingTest, ColocatedArrivalCutsTheDecodeRunInFlight) {
  const workload::Trace trace = WithLongDecode({test_util::MakeRequest(0, 1.0, 200, 40)});
  const ReplicaOutcome run = ExpectReplicasMatch(OneReplica(), trace);
  EXPECT_EQ(run.engine_events, 13);
}

TEST(EngineRunSteppingTest, ColocatedArrivalsInOneDecodeStepPrefillTogether) {
  // C ties with B, and D follows 0.1 ms later, inside the same decode step: the first arrival
  // cuts the run there, the others find it cut, and all three prefill in one step.
  const workload::Trace trace = WithLongDecode({test_util::MakeRequest(0, 1.0, 200, 40),
                                                test_util::MakeRequest(0, 1.0, 150, 30),
                                                test_util::MakeRequest(0, 1.0001, 120, 50)});
  const ReplicaOutcome run = ExpectReplicasMatch(OneReplica(), trace);
  EXPECT_EQ(RecordOf(run, 2).prefill_start, RecordOf(run, 1).prefill_start);
  EXPECT_EQ(RecordOf(run, 3).prefill_start, RecordOf(run, 1).prefill_start);
  EXPECT_EQ(run.engine_events, 14);
}

TEST(EngineRunSteppingTest, ColocatedArrivalDuringAPrefillStepWaitsForItsEnd) {
  // B's 2,000-token prefill step runs from the end of the decode step in flight at t = 1
  // until after C arrives: C is admitted at that step's end.
  const workload::Trace trace = WithLongDecode({test_util::MakeRequest(0, 1.0, 2000, 40),
                                                test_util::MakeRequest(0, 1.1, 100, 20)});
  const ReplicaOutcome run = ExpectReplicasMatch(OneReplica(), trace);
  EXPECT_GT(RecordOf(run, 1).first_token, 1.1);
  EXPECT_EQ(RecordOf(run, 2).prefill_start, RecordOf(run, 1).first_token);
  EXPECT_EQ(run.engine_events, 14);
}

TEST(EngineRunSteppingTest, ColocatedCancelOfAPromptWaitingAtACut) {
  // B is cancelled the instant it arrives (its cancel event follows its arrival), before the
  // boundary its arrival cut the run at.
  workload::Request b = test_util::MakeRequest(0, 1.0, 200, 40);
  b.cancel_at = 1.0;
  const ReplicaOutcome run = ExpectReplicasMatch(OneReplica(), WithLongDecode({b}));
  EXPECT_EQ(run.outcome.records.cancelled_count(), 1u);
  EXPECT_EQ(run.engine_events, 11);
}

TEST(EngineRunSteppingTest, ColocatedCancelOfADecodeStalledByAPrefillStep) {
  // A stalls behind B's long prefill step and is cancelled inside it: the prefill step's end
  // reaps A.
  workload::Trace trace = WithLongDecode({test_util::MakeRequest(0, 1.0, 2000, 40)});
  trace[0].cancel_at = 1.1;
  const ReplicaOutcome run = ExpectReplicasMatch(OneReplica(), trace);
  EXPECT_EQ(run.outcome.records.cancelled_count(), 1u);
  EXPECT_GT(RecordOf(run, 1).first_token, 1.1);
  EXPECT_EQ(run.engine_events, 6);
}

TEST(EngineRunSteppingTest, ColocatedCancelOfAPromptInItsPrefillStep) {
  // B is cancelled inside its own prefill step, so the step's end must reap it.
  workload::Request b = test_util::MakeRequest(0, 1.0, 2000, 40);
  b.cancel_at = 1.1;
  const ReplicaOutcome run = ExpectReplicasMatch(OneReplica(), WithLongDecode({b}));
  EXPECT_EQ(run.outcome.records.cancelled_count(), 1u);
  EXPECT_EQ(run.engine_events, 12);
}

TEST(EngineRunSteppingTest, ColocatedBlockedHeadHoldsTheQueue) {
  // B never fits beside A, and C queues behind B (FCFS) although it would fit: both admit
  // when A completes.
  ReplicaCase c = OneReplica();
  c.kv_capacity = 70 * 16;
  const workload::Trace trace = WithLongDecode({test_util::MakeRequest(0, 1.0, 1000, 40),
                                                test_util::MakeRequest(0, 1.2, 50, 10)});
  const ReplicaOutcome run = ExpectReplicasMatch(c, trace);
  EXPECT_EQ(RecordOf(run, 1).prefill_start, RecordOf(run, 0).completion);
  EXPECT_EQ(RecordOf(run, 2).prefill_start, RecordOf(run, 0).completion);
  EXPECT_EQ(run.engine_events, 15);
}

TEST(EngineRunSteppingTest, ColocatedPriorityArrivalBehindABlockedHeadPreempts) {
  // As above, B is blocked behind A; then C arrives with a higher priority, finds the run
  // cut at the end of its decode step, and does not fit either: C evicts A there, and A
  // re-queues for a full re-prefill.
  ReplicaCase c = OneReplica();
  c.kv_capacity = 70 * 16;
  workload::Request priority = test_util::MakeRequest(0, 1.2, 900, 20);
  priority.priority = 1;
  const workload::Trace trace =
      WithLongDecode({test_util::MakeRequest(0, 1.0, 1000, 40), priority});
  const ReplicaOutcome run = ExpectReplicasMatch(c, trace);
  EXPECT_EQ(run.preemptions, 1);
  EXPECT_GT(RecordOf(run, 2).prefill_start, 1.2);
  EXPECT_LT(RecordOf(run, 2).completion, RecordOf(run, 0).completion);
}

TEST(EngineRunSteppingTest, ColocatedSingleTokenPromptsCompleteAtTheirPrefillEnd) {
  // D's prefill step (fresh) and B's (after a cut) each complete their prompt and free its KV
  // at the step's end; A's prefill step lies between them.
  workload::Trace trace{test_util::MakeRequest(0, 0.0, 50, 1)};
  for (const workload::Request& req : WithLongDecode({test_util::MakeRequest(0, 1.0, 200, 1)})) {
    trace.push_back(req);
    trace.back().id = static_cast<workload::RequestId>(trace.size() - 1);
  }
  const ReplicaOutcome run = ExpectReplicasMatch(OneReplica(), trace);
  EXPECT_EQ(RecordOf(run, 0).completion, RecordOf(run, 0).first_token);
  EXPECT_EQ(RecordOf(run, 2).completion, RecordOf(run, 2).first_token);
  EXPECT_EQ(run.engine_events, 14);
}

TEST(EngineRunSteppingTest, ColocatedArrivalTiedWithAStepEndSeesItPassed) {
  // B's arrival at t = 1 cuts A's run at the end of the decode step in flight. X arrives at
  // exactly that step end, posted at t = 1 (after the step started): the step has ended and
  // B's prefill step has started when X arrives, so X waits for the prefill step's end.
  const workload::Trace base = WithLongDecode({test_util::MakeRequest(0, 1.0, 200, 40)});
  ReplicaCase c = OneReplica();
  c.instance_spans = true;
  double boundary = 0.0;
  for (const trace::Span& span : RunReplicas<per_step::ColocatedInstance>(c, base).instance_spans) {
    if (span.start <= 1.0 && 1.0 < span.end) {
      boundary = span.end;
    }
  }
  ASSERT_GT(boundary, 1.0);
  workload::Trace trace = base;
  trace.push_back(test_util::MakeRequest(2, boundary, 80, 30));
  c.late_arrivals = {{1.0, boundary}};
  const ReplicaOutcome run = ExpectReplicasMatch(c, trace);
  EXPECT_EQ(RecordOf(run, 1).prefill_start, boundary);
  EXPECT_EQ(RecordOf(run, 2).prefill_start, RecordOf(run, 1).first_token);
  EXPECT_EQ(run.engine_events, 14);
}

}  // namespace
}  // namespace distserve::engine
