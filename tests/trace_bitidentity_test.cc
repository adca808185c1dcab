// Bit-identity guarantees of the tracing layer (DESIGN.md §14): attaching a Recorder must not
// perturb the simulation by a single bit, two traced runs must export identical JSON, and the
// span-derived attribution must reproduce the collector's aggregates exactly on fault-free
// runs. The CI determinism job checks the same properties on full bench stdout; this test
// pins them at the ServingSystem/VllmSystem level where a regression is easiest to localize.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "baselines/vllm_system.h"
#include "engine/colocated_instance.h"
#include "serving/serving_system.h"
#include "trace/attribution.h"
#include "trace/recorder.h"
#include "workload/generator.h"
#include "workload/scenario.h"

namespace distserve {
namespace {

serving::ServingConfig BasicConfig(int num_prefill = 1, int num_decode = 1) {
  serving::ServingConfig config;
  config.model = model::ModelSpec::Opt13B();
  config.cluster = cluster::ClusterSpec::PaperTestbed();
  config.plan.prefill_par = {1, 1};
  config.plan.decode_par = {1, 1};
  config.plan.num_prefill = num_prefill;
  config.plan.num_decode = num_decode;
  config.plan.intra_node_transfers = true;
  return config;
}

workload::Trace MakeTrace(double rate, int n, uint64_t seed = 1, int input_len = 256,
                          int output_len = 32) {
  workload::FixedDataset dataset(input_len, output_len);
  workload::TraceSpec spec;
  spec.rate = rate;
  spec.num_requests = n;
  spec.seed = seed;
  return workload::GenerateTrace(spec, dataset);
}

serving::FaultEvent Fail(serving::FaultDomain domain, int index, double time) {
  return {time, domain, serving::FaultAction::kFail, index};
}

serving::FaultEvent Recover(serving::FaultDomain domain, int index, double time) {
  return {time, domain, serving::FaultAction::kRecover, index};
}

TEST(TraceBitIdentityTest, ServingSystemUnperturbedByTracing) {
  const workload::Trace trace = MakeTrace(4.0, 300, 7);
  serving::ServingSystem plain(BasicConfig(2, 2));
  trace::Recorder recorder;
  serving::ServingConfig traced_config = BasicConfig(2, 2);
  traced_config.recorder = &recorder;
  serving::ServingSystem traced(std::move(traced_config));
  const metrics::Collector ra = plain.Run(trace);
  const metrics::Collector rb = traced.Run(trace);
  EXPECT_TRUE(metrics::BitIdentical(ra, rb));
  EXPECT_FALSE(recorder.spans().empty());
  EXPECT_EQ(recorder.outcomes().size(), trace.size());
  EXPECT_TRUE(trace::ValidateSpans(recorder).empty()) << trace::ValidateSpans(recorder);
}

TEST(TraceBitIdentityTest, ServingSystemUnperturbedByTracingUnderFaults) {
  const workload::Trace trace = MakeTrace(4.0, 300, 7);
  auto make = [] {
    serving::ServingConfig config = BasicConfig(2, 2);
    config.faults.events = {Fail(serving::FaultDomain::kPrefill, 0, 5.0),
                            Recover(serving::FaultDomain::kPrefill, 0, 25.0),
                            Fail(serving::FaultDomain::kDecode, 1, 12.0),
                            Recover(serving::FaultDomain::kDecode, 1, 40.0),
                            Fail(serving::FaultDomain::kLink, 0, 18.0),
                            Recover(serving::FaultDomain::kLink, 0, 22.0)};
    return config;
  };
  serving::ServingSystem plain(make());
  trace::Recorder recorder;
  serving::ServingConfig traced_config = make();
  traced_config.recorder = &recorder;
  serving::ServingSystem traced(std::move(traced_config));
  const metrics::Collector ra = plain.Run(trace);
  const metrics::Collector rb = traced.Run(trace);
  EXPECT_TRUE(metrics::BitIdentical(ra, rb));
  EXPECT_TRUE(rb.fault_stats().any());
  // Fault spans splice in, yet every timeline still tiles and conserves.
  EXPECT_TRUE(trace::ValidateSpans(recorder).empty()) << trace::ValidateSpans(recorder);
}

TEST(TraceBitIdentityTest, VllmSystemUnperturbedByTracing) {
  const workload::Trace trace = MakeTrace(3.0, 200, 5);
  auto make = [] {
    baselines::VllmConfig config;
    config.model = model::ModelSpec::Opt13B();
    config.cluster = cluster::ClusterSpec::PaperTestbed();
    config.num_instances = 2;
    return config;
  };
  baselines::VllmSystem plain(make());
  trace::Recorder recorder;
  baselines::VllmConfig traced_config = make();
  traced_config.recorder = &recorder;
  baselines::VllmSystem traced(std::move(traced_config));
  const metrics::Collector ra = plain.Run(trace);
  const metrics::Collector rb = traced.Run(trace);
  EXPECT_TRUE(metrics::BitIdentical(ra, rb));
  EXPECT_EQ(recorder.outcomes().size(), trace.size());
  EXPECT_TRUE(trace::ValidateSpans(recorder).empty()) << trace::ValidateSpans(recorder);
}

TEST(TraceBitIdentityTest, TwoTracedRunsExportIdenticalJson) {
  const workload::Trace trace = MakeTrace(4.0, 200, 7);
  auto run_traced = [&](trace::Recorder* recorder) {
    serving::ServingConfig config = BasicConfig(2, 2);
    config.faults.events = {Fail(serving::FaultDomain::kPrefill, 0, 5.0),
                            Recover(serving::FaultDomain::kPrefill, 0, 25.0)};
    config.recorder = recorder;
    serving::ServingSystem system(std::move(config));
    system.Run(trace);
  };
  trace::Recorder a;
  trace::Recorder b;
  run_traced(&a);
  run_traced(&b);
  const std::string ja = a.ChromeJson();
  const std::string jb = b.ChromeJson();
  EXPECT_EQ(ja, jb);
  EXPECT_NE(ja.find("\"traceEvents\""), std::string::npos);
}

TEST(TraceBitIdentityTest, AttributionMatchesCollectorBitwise) {
  const workload::Trace trace = MakeTrace(4.0, 300, 7);
  trace::Recorder recorder;
  serving::ServingConfig config = BasicConfig(2, 2);
  config.recorder = &recorder;
  serving::ServingSystem system(std::move(config));
  const metrics::Collector results = system.Run(trace);

  const metrics::LatencyBreakdown from_collector = results.ComputeBreakdown();
  const metrics::LatencyBreakdown from_spans = trace::ComputeLatencyBreakdown(recorder);
  EXPECT_EQ(from_spans.prefill_queue, from_collector.prefill_queue);
  EXPECT_EQ(from_spans.prefill_exec, from_collector.prefill_exec);
  EXPECT_EQ(from_spans.transfer, from_collector.transfer);
  EXPECT_EQ(from_spans.decode_queue, from_collector.decode_queue);
  EXPECT_EQ(from_spans.decode_exec, from_collector.decode_exec);

  const std::vector<double> from_span_times = trace::TransferTimes(recorder);
  const std::vector<double> from_collector_times = results.SortedTransferTimes();
  ASSERT_EQ(from_span_times.size(), from_collector_times.size());
  for (size_t i = 0; i < from_span_times.size(); ++i) {
    EXPECT_EQ(from_span_times[i], from_collector_times[i]) << "transfer time " << i;
  }
}

TEST(TraceBitIdentityTest, ScenarioOutcomesUnperturbedByTracing) {
  // Multi-tenant scenario axes (priorities, cancels, deadlines, prefix hits) through the
  // disaggregated system: tracing must stay invisible, every abandoned request must close
  // its timeline with the matching outcome kind, and the span set must still validate.
  workload::Trace trace = MakeTrace(12.0, 300, 9);
  workload::PrefixCacheSpec prefix;
  prefix.hit_rate = 0.4;
  prefix.seed = 9;
  workload::ApplyPrefixCache(&trace, prefix);
  workload::TenantSpec tenants;
  tenants.high_priority_fraction = 0.3;
  tenants.seed = 9;
  workload::ApplyTenantClasses(&trace, tenants);
  workload::CancellationSpec cancels;
  cancels.cancel_rate = 0.2;
  cancels.cancel_after_mean = 0.3;
  cancels.timeout = 0.55;
  cancels.seed = 9;
  workload::ApplyCancellations(&trace, cancels);

  serving::ServingSystem plain(BasicConfig(1, 1));
  trace::Recorder recorder;
  serving::ServingConfig traced_config = BasicConfig(1, 1);
  traced_config.recorder = &recorder;
  serving::ServingSystem traced(std::move(traced_config));
  const metrics::Collector ra = plain.Run(trace);
  const metrics::Collector rb = traced.Run(trace);
  EXPECT_TRUE(metrics::BitIdentical(ra, rb));
  ASSERT_GT(rb.cancelled_count(), 0u);
  ASSERT_GT(rb.timed_out_count(), 0u);
  EXPECT_TRUE(trace::ValidateSpans(recorder).empty()) << trace::ValidateSpans(recorder);
  EXPECT_EQ(recorder.outcomes().size(), trace.size());
  size_t done = 0;
  size_t cancelled = 0;
  size_t timed_out = 0;
  for (const trace::Recorder::Outcome& outcome : recorder.outcomes()) {
    switch (outcome.kind) {
      case trace::Recorder::OutcomeKind::kDone: ++done; break;
      case trace::Recorder::OutcomeKind::kCancelled: ++cancelled; break;
      case trace::Recorder::OutcomeKind::kTimedOut: ++timed_out; break;
      case trace::Recorder::OutcomeKind::kLost: break;
    }
  }
  EXPECT_EQ(done, rb.count());
  EXPECT_EQ(cancelled, rb.cancelled_count());
  EXPECT_EQ(timed_out, rb.timed_out_count());
}

TEST(TraceBitIdentityTest, EnginePreemptionAndCancelTracedBitIdentical) {
  // Engine-level coverage of the kPreempt span kind: a starved chunked instance with tenant
  // priorities evicts resident decodes while cancels land on every lifecycle position. The
  // traced run must match the untraced one bitwise, and preempted timelines must still tile.
  const auto dataset = workload::MakeShareGptLike();
  workload::TraceSpec spec;
  spec.rate = 20.0;
  spec.num_requests = 80;
  spec.seed = 13;
  workload::Trace trace = workload::GenerateTrace(spec, *dataset);
  workload::TenantSpec tenants;
  tenants.high_priority_fraction = 0.4;
  tenants.seed = 13;
  workload::ApplyTenantClasses(&trace, tenants);
  workload::CancellationSpec cancels;
  cancels.cancel_rate = 0.2;
  cancels.cancel_after_mean = 0.5;
  cancels.seed = 13;
  workload::ApplyCancellations(&trace, cancels);

  auto run = [&](trace::Recorder* recorder, std::vector<double>* completions) {
    simcore::Simulator sim;
    const model::LatencyModel lm(model::ModelSpec::Opt13B(), {1, 1},
                                 cluster::GpuSpec::A100_80GB());
    engine::ColocatedInstance::Options options;
    options.mode = engine::ColocatedInstance::Options::SchedulingMode::kChunked;
    options.chunk_budget = 256;
    engine::ColocatedInstance instance(&sim, lm, /*kv_capacity_tokens=*/2048, options, 0);
    if (recorder != nullptr) {
      instance.set_recorder(recorder);
    }
    instance.set_on_complete([](engine::RequestState*) {});
    std::vector<std::unique_ptr<engine::RequestState>> states;
    states.reserve(trace.size());
    for (const workload::Request& req : trace) {
      states.push_back(std::make_unique<engine::RequestState>(req));
      engine::RequestState* rs = states.back().get();
      sim.ScheduleAt(req.arrival_time, [&instance, rs] { instance.Enqueue(rs); });
      if (req.cancel_at > 0.0) {
        sim.ScheduleAt(req.cancel_at, [&instance, rs] {
          if (rs->phase == engine::RequestPhase::kDone ||
              rs->phase == engine::RequestPhase::kCancelled || rs->cancel_pending) {
            return;
          }
          rs->phase = engine::RequestPhase::kCancelled;
          instance.Cancel(rs);
        });
      }
    }
    sim.Run();
    for (const auto& state : states) {
      completions->push_back(state->record.completion);
      completions->push_back(state->record.first_token);
    }
    EXPECT_GT(instance.preemptions(), 0);
    EXPECT_EQ(instance.kv().used_blocks(), 0);
    return instance.tokens_generated();
  };
  std::vector<double> plain_times;
  std::vector<double> traced_times;
  trace::Recorder recorder;
  const int64_t plain_tokens = run(nullptr, &plain_times);
  const int64_t traced_tokens = run(&recorder, &traced_times);
  EXPECT_EQ(plain_tokens, traced_tokens);
  ASSERT_EQ(plain_times.size(), traced_times.size());
  for (size_t i = 0; i < plain_times.size(); ++i) {
    EXPECT_EQ(plain_times[i], traced_times[i]) << "timestamp " << i;  // bitwise
  }
  EXPECT_TRUE(trace::ValidateSpans(recorder).empty()) << trace::ValidateSpans(recorder);
  bool saw_preempt = false;
  for (const trace::Span& span : recorder.spans()) {
    saw_preempt = saw_preempt || span.kind == trace::SpanKind::kPreempt;
  }
  EXPECT_TRUE(saw_preempt);
}

TEST(TraceBitIdentityTest, SingleTokenOutputsFinishWithoutDecodeSpans) {
  trace::Recorder recorder;
  serving::ServingConfig config = BasicConfig();
  config.recorder = &recorder;
  serving::ServingSystem system(std::move(config));
  const workload::Trace trace = MakeTrace(1.0, 50, 3, 256, /*output_len=*/1);
  const metrics::Collector results = system.Run(trace);
  ASSERT_EQ(results.count(), 50u);
  EXPECT_TRUE(trace::ValidateSpans(recorder).empty()) << trace::ValidateSpans(recorder);
  for (const trace::Span& span : recorder.spans()) {
    EXPECT_TRUE(span.kind == trace::SpanKind::kPrefillQueue ||
                span.kind == trace::SpanKind::kPrefillExec)
        << trace::SpanKindName(span.kind);
  }
}

}  // namespace
}  // namespace distserve
