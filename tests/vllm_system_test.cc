#include "baselines/vllm_system.h"

#include <gtest/gtest.h>

#include <map>
#include <utility>

#include "scenario_trace.h"
#include "simcore/simulator.h"
#include "workload/generator.h"

namespace distserve::baselines {
namespace {

VllmConfig BasicConfig(int tp = 1, int instances = 1) {
  VllmConfig config;
  config.model = model::ModelSpec::Opt13B();
  config.cluster = cluster::ClusterSpec::PaperTestbed();
  config.par = {tp, 1};
  config.num_instances = instances;
  return config;
}

workload::Trace MakeTrace(double rate, int n, uint64_t seed = 1) {
  workload::FixedDataset dataset(256, 32);
  workload::TraceSpec spec;
  spec.rate = rate;
  spec.num_requests = n;
  spec.seed = seed;
  return workload::GenerateTrace(spec, dataset);
}

TEST(VllmSystemTest, CompletesAllRequests) {
  VllmSystem system(BasicConfig());
  const metrics::Collector results = system.Run(MakeTrace(2.0, 200));
  ASSERT_EQ(results.count(), 200u);
  for (const metrics::RequestRecord& r : results.records()) {
    EXPECT_GE(r.first_token, r.arrival);
    EXPECT_GE(r.completion, r.first_token);
    // Colocated: no transfer stage.
    EXPECT_DOUBLE_EQ(r.TransferTime(), 0.0);
  }
}

TEST(VllmSystemTest, DeterministicReplay) {
  const workload::Trace trace = MakeTrace(4.0, 300, 9);
  VllmSystem a(BasicConfig());
  VllmSystem b(BasicConfig());
  const metrics::Collector ra = a.Run(trace);
  const metrics::Collector rb = b.Run(trace);
  for (size_t i = 0; i < ra.count(); ++i) {
    EXPECT_DOUBLE_EQ(ra.records()[i].completion, rb.records()[i].completion);
  }
}

TEST(VllmSystemTest, ReplicasImproveAttainment) {
  const workload::Trace trace = MakeTrace(12.0, 400, 5);
  VllmSystem one(BasicConfig(1, 1));
  VllmSystem four(BasicConfig(1, 4));
  const metrics::SloSpec slo{0.2, 0.1};
  const double a1 = one.Run(trace).ComputeAttainment(slo).both;
  const double a4 = four.Run(trace).ComputeAttainment(slo).both;
  EXPECT_GT(a4, a1);
  EXPECT_EQ(four.total_gpus(), 4);
}

TEST(VllmSystemTest, InterferenceShowsInTpotUnderLoad) {
  // At moderate load the colocated system's TPOT degrades much more than its TTFT — the
  // signature of prefill-decoding interference (paper Figure 1/8 behaviour).
  VllmSystem system(BasicConfig());
  const metrics::Collector idle = VllmSystem(BasicConfig()).Run(MakeTrace(0.2, 100, 3));
  const metrics::Collector loaded = system.Run(MakeTrace(6.0, 400, 3));
  EXPECT_GT(loaded.TpotPercentile(90), 2.0 * idle.TpotPercentile(90));
}

// Every arrival that lands mid-run cuts the run, and a cut re-times the run's event in place,
// so a fault-free run fires every event it schedules (ServingSystemTest's check, on the
// colocated engine). Cutting by Cancel + ScheduleAt cancelled 186 events on this trace (164
// chunked).
void ExpectFaultFreeRunCancelsNothing(const VllmConfig& config) {
  VllmSystem system(config);
  const metrics::Collector results = system.Run(MakeTrace(6.0, 400, 3));
  ASSERT_EQ(results.count(), 400u);
  EXPECT_GT(system.simulator().events_processed(), 0);
  EXPECT_EQ(system.simulator().events_cancelled(), 0);
}

TEST(VllmSystemTest, FaultFreeRunCancelsNothing) {
  ExpectFaultFreeRunCancelsNothing(BasicConfig());
}

TEST(VllmSystemTest, ChunkedFaultFreeRunCancelsNothing) {
  VllmConfig config = BasicConfig();
  config.engine_options.mode = engine::ColocatedInstance::Options::SchedulingMode::kChunked;
  config.engine_options.chunk_budget = 512;
  ExpectFaultFreeRunCancelsNothing(config);
}

// --- Run() streams its arrivals; the results match the up-front schedule bit for bit ---

// The streaming interface driven with one ScheduleAt per request up front: the arrival
// schedule Run() used before it streamed its trace.
metrics::Collector RunUpFront(VllmConfig config, const workload::Trace& trace) {
  simcore::Simulator sim;
  config.sim = &sim;
  VllmSystem system(std::move(config));
  system.BeginStream(trace.size());
  for (const workload::Request& req : trace) {
    sim.ScheduleAt(req.arrival_time, [&system, req] { system.Submit(req); });
  }
  sim.Run();
  return system.FinishStream(sim.now());
}

void ExpectRunMatchesUpFront(const VllmConfig& config, const workload::Trace& trace) {
  const metrics::Collector streamed = VllmSystem(config).Run(trace);
  const metrics::Collector up_front = RunUpFront(config, trace);
  EXPECT_TRUE(metrics::BitIdentical(streamed, up_front));
  EXPECT_EQ(streamed.scenario_stats().decode_preemptions,
            up_front.scenario_stats().decode_preemptions);
  EXPECT_GT(streamed.cancelled_count(), 0u);  // the scenario fired
  EXPECT_EQ(streamed.count() + streamed.NeverCompletedCount(), trace.size());
}

TEST(VllmSystemStreamTest, RunIsBitIdenticalToUpFrontArrivals) {
  ExpectRunMatchesUpFront(BasicConfig(1, 2), test_util::ScenarioTraceWithTies(400, 8.0, 5));
}

TEST(VllmSystemStreamTest, ChunkedRunIsBitIdenticalToUpFrontArrivals) {
  VllmConfig config = BasicConfig(1, 2);
  config.engine_options.mode = engine::ColocatedInstance::Options::SchedulingMode::kChunked;
  config.engine_options.chunk_budget = 512;
  ExpectRunMatchesUpFront(config, test_util::ScenarioTraceWithTies(400, 8.0, 11));
}

// A's cancel and deadline both fire long after A completed, while B — in A's slot — is
// still decoding. Neither may touch B.
void ExpectStaleAbandonmentSparesTheSlotsNextRequest(const VllmConfig& config) {
  workload::Trace trace = {test_util::MakeRequest(0, 0.0, 64, 4),
                           test_util::MakeRequest(1, 0.5, 64, 400)};
  trace[0].cancel_at = 1.5;
  trace[0].deadline = 2.0;
  VllmSystem system(config);
  std::map<workload::RequestId, const engine::RequestState*> slot;
  system.set_on_request_done(
      [&slot](const engine::RequestState& r) { slot[r.request.id] = &r; });
  const metrics::Collector results = system.Run(trace);
  EXPECT_EQ(slot.at(1), slot.at(0)) << "B must reuse A's slot";
  EXPECT_EQ(results.count(), 2u);
  EXPECT_EQ(results.cancelled_count(), 0u);
  EXPECT_EQ(results.timed_out_count(), 0u);
  ASSERT_EQ(results.records().size(), 2u);
  EXPECT_GT(results.records()[1].completion, trace[0].deadline);  // B outlived both
  test_util::ExpectOneOutcomePerRequest(results, trace.size());
  EXPECT_EQ(system.instances()[0]->kv().used_blocks(), 0);
}

TEST(VllmSystemSlotReuseTest, StaleAbandonmentSparesTheSlotsNextRequest) {
  ExpectStaleAbandonmentSparesTheSlotsNextRequest(BasicConfig());
}

TEST(VllmSystemSlotReuseTest, ChunkedStaleAbandonmentSparesTheSlotsNextRequest) {
  VllmConfig config = BasicConfig();
  config.engine_options.mode = engine::ColocatedInstance::Options::SchedulingMode::kChunked;
  config.engine_options.chunk_budget = 512;
  ExpectStaleAbandonmentSparesTheSlotsNextRequest(config);
}

TEST(VllmSystemDeathTest, DecreasingArrivalTimeAborts) {
  workload::Trace trace = MakeTrace(2.0, 50);
  trace[23].arrival_time = trace[22].arrival_time - 0.25;
  auto run = [&trace] { VllmSystem(BasicConfig()).Run(trace); };
  EXPECT_DEATH(run(), "arrival times must not decrease: arrival 23 ");
}

TEST(ColocatedGoodputTest, SearchPrefersSomeConfig) {
  const auto dataset = workload::MakeShareGptLike();
  placement::PlannerInputs inputs;
  inputs.model = model::ModelSpec::Opt13B();
  inputs.cluster = cluster::ClusterSpec::PaperTestbed();
  inputs.dataset = dataset.get();
  inputs.slo = {0.2, 0.1};
  inputs.search.num_requests = 150;
  inputs.search.min_trace_duration = 20.0;
  inputs.search.max_requests = 1000;
  inputs.search.bisection_iters = 5;
  const ColocatedSearchResult best = FindBestColocatedConfig(inputs);
  EXPECT_GT(best.goodput, 0.0);
  EXPECT_GT(best.per_gpu, 0.0);
  EXPECT_EQ(best.par.pp, 1);
  // And the goodput of the chosen tp is at least that of tp=1 per GPU.
  const double tp1 = SimulateColocatedGoodput(inputs, {1, 1});
  EXPECT_GE(best.per_gpu, tp1 * 0.999);
}

TEST(ColocatedGoodputTest, UnfittableConfigScoresZero) {
  const auto dataset = workload::MakeShareGptLike();
  placement::PlannerInputs inputs;
  inputs.model = model::ModelSpec::Opt175B();
  inputs.cluster = cluster::ClusterSpec::PaperTestbed();
  inputs.dataset = dataset.get();
  inputs.slo = {4.0, 0.2};
  EXPECT_DOUBLE_EQ(SimulateColocatedGoodput(inputs, {1, 1}), 0.0);
}

// A system runs once: the clock would carry over into a second run.
TEST(VllmSystemDeathTest, SecondRunAborts) {
  const workload::Trace trace = MakeTrace(2.0, 20);
  auto run_twice = [&trace] {
    VllmSystem system(BasicConfig());
    system.Run(trace);
    system.Run(trace);
  };
  EXPECT_DEATH(run_twice(), "a VllmSystem runs once");
}

// Streaming shares Run's guard: a system streams once.
TEST(VllmSystemDeathTest, SecondBeginStreamAborts) {
  auto stream_twice = [] {
    simcore::Simulator sim;
    VllmConfig config = BasicConfig();
    config.sim = &sim;
    VllmSystem system(std::move(config));
    system.BeginStream(1);
    system.FinishStream(sim.now());
    system.BeginStream(1);
  };
  EXPECT_DEATH(stream_twice(), "a VllmSystem runs once");
}

TEST(VllmSystemDeathTest, PipelineParallelRejected) {
  VllmConfig config = BasicConfig();
  config.par = {1, 2};
  EXPECT_DEATH(VllmSystem{std::move(config)}, "intra-op");
}

}  // namespace
}  // namespace distserve::baselines
