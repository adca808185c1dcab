// KV-memory conservation under cancellation, timeout, and preemption — the PR-2 FailFast
// leak class replayed against the scenario teardown paths. Property-style: annotated traces
// (prefix hits + tenant priorities + cancels/deadlines) run through all three engines, and
// every KV pool must drain to zero with completions + abandonments summing to the trace.
#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <vector>

#include "baselines/vllm_system.h"
#include "engine/colocated_instance.h"
#include "serving/fault_plan.h"
#include "serving/serving_system.h"
#include "workload/dataset.h"
#include "workload/generator.h"
#include "workload/scenario.h"

namespace distserve {
namespace {

// A trace where every scenario axis fires: half the prompts carry cached prefixes, a third
// of the tenants outrank the rest, a quarter of the clients hang up early, and the deadline
// is tight enough that queue buildup converts into timeouts.
workload::Trace AnnotatedTrace(int n, double rate, uint64_t seed) {
  const auto dataset = workload::MakeDatasetByName("sharegpt");
  workload::TraceSpec spec;
  spec.rate = rate;
  spec.num_requests = n;
  spec.seed = seed;
  workload::Trace trace = workload::GenerateTrace(spec, *dataset);
  workload::PrefixCacheSpec prefix;
  prefix.hit_rate = 0.5;
  prefix.seed = seed;
  workload::ApplyPrefixCache(&trace, prefix);
  workload::TenantSpec tenants;
  tenants.high_priority_fraction = 0.3;
  tenants.seed = seed;
  workload::ApplyTenantClasses(&trace, tenants);
  workload::CancellationSpec cancels;
  cancels.cancel_rate = 0.25;
  cancels.cancel_after_mean = 0.5;
  cancels.timeout = 8.0;
  cancels.seed = seed;
  workload::ApplyCancellations(&trace, cancels);
  return trace;
}

void ExpectOutcomesConserve(const metrics::Collector& results, size_t trace_size) {
  EXPECT_EQ(results.count() + results.NeverCompletedCount(), trace_size);
  // The scenario must actually have fired, or the test is vacuous.
  EXPECT_GT(results.cancelled_count() + results.timed_out_count(), 0u);
}

TEST(CancelKvConservationTest, DisaggregatedServingDrainsAllPools) {
  for (const uint64_t seed : {3u, 17u, 101u}) {
    const workload::Trace trace = AnnotatedTrace(400, 12.0, seed);
    serving::ServingConfig config;
    config.model = model::ModelSpec::Opt13B();
    config.cluster = cluster::ClusterSpec::PaperTestbed();
    config.plan.prefill_par = {1, 1};
    config.plan.decode_par = {1, 1};
    config.plan.num_prefill = 2;
    config.plan.num_decode = 1;
    config.plan.intra_node_transfers = true;
    serving::ServingSystem system(config);
    const metrics::Collector results = system.Run(trace);
    ExpectOutcomesConserve(results, trace.size());
    for (const auto& p : system.prefill_instances()) {
      EXPECT_EQ(p->kv().used_blocks(), 0) << "seed " << seed;
      EXPECT_EQ(p->queue_length(), 0u);
    }
    for (const auto& d : system.decode_instances()) {
      EXPECT_EQ(d->kv().used_blocks(), 0) << "seed " << seed;
      EXPECT_EQ(d->resident_requests(), 0);
    }
  }
}

TEST(CancelKvConservationTest, VllmBaselineDrainsAllPools) {
  for (const uint64_t seed : {5u, 23u}) {
    const workload::Trace trace = AnnotatedTrace(400, 12.0, seed);
    baselines::VllmConfig config;
    config.model = model::ModelSpec::Opt13B();
    config.cluster = cluster::ClusterSpec::PaperTestbed();
    config.num_instances = 2;
    baselines::VllmSystem system(std::move(config));
    const metrics::Collector results = system.Run(trace);
    ExpectOutcomesConserve(results, trace.size());
    for (const auto& instance : system.instances()) {
      EXPECT_EQ(instance->kv().used_blocks(), 0) << "seed " << seed;
    }
  }
}

TEST(CancelKvConservationTest, ChunkedBaselineDrainsAllPools) {
  for (const uint64_t seed : {7u, 31u}) {
    const workload::Trace trace = AnnotatedTrace(400, 12.0, seed);
    baselines::VllmConfig config;
    config.model = model::ModelSpec::Opt13B();
    config.cluster = cluster::ClusterSpec::PaperTestbed();
    config.num_instances = 2;
    config.engine_options.mode = engine::ColocatedInstance::Options::SchedulingMode::kChunked;
    config.engine_options.chunk_budget = 256;
    baselines::VllmSystem system(std::move(config));
    const metrics::Collector results = system.Run(trace);
    ExpectOutcomesConserve(results, trace.size());
    for (const auto& instance : system.instances()) {
      EXPECT_EQ(instance->kv().used_blocks(), 0) << "seed " << seed;
    }
  }
}

// Preemption interleaved with cancellation at engine level: a starved KV pool forces
// priority evictions while client cancels land on waiting, prefilling, and decoding
// requests alike (including mid-step, exercising the cancel_pending deferral). Whatever
// the interleaving, the pool must end empty.
TEST(CancelKvConservationTest, PreemptionPlusCancelConservesKvUnderPressure) {
  for (const uint64_t seed : {2u, 13u, 47u}) {
    workload::Trace trace = AnnotatedTrace(80, 20.0, seed);
    simcore::Simulator sim;
    const model::LatencyModel lm(model::ModelSpec::Opt13B(), {1, 1},
                                 cluster::GpuSpec::A100_80GB());
    engine::ColocatedInstance::Options options;
    options.mode = engine::ColocatedInstance::Options::SchedulingMode::kChunked;
    options.chunk_budget = 256;
    // Room for only a couple of resident contexts: admission blocks constantly and every
    // high-priority arrival preempts.
    engine::ColocatedInstance instance(&sim, lm, /*kv_capacity_tokens=*/2048, options, 0);
    int completed = 0;
    int abandoned = 0;
    instance.set_on_complete([&](engine::RequestState*) { ++completed; });
    instance.set_on_cancelled([&](engine::RequestState*) { ++abandoned; });
    std::vector<std::unique_ptr<engine::RequestState>> states;
    states.reserve(trace.size());
    for (const workload::Request& req : trace) {
      states.push_back(std::make_unique<engine::RequestState>(req));
      engine::RequestState* rs = states.back().get();
      sim.ScheduleAt(req.arrival_time, [&instance, rs] { instance.Enqueue(rs); });
      // Standalone engine: play the serving layer's role and deliver the client cancel.
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
    EXPECT_EQ(completed + abandoned, static_cast<int>(trace.size())) << "seed " << seed;
    EXPECT_GT(abandoned, 0) << "seed " << seed;
    EXPECT_GT(instance.preemptions(), 0) << "seed " << seed;
    EXPECT_EQ(instance.kv().used_blocks(), 0) << "seed " << seed;
  }
}

// Deadlines and cancels that fire while a request is parked for a dead decode pool. Every
// decode instance is down from t=0, so each request finishes prefill and parks in
// kDecodePending; one times out and one is cancelled inside the outage, and the pool
// recovers afterwards. The recovery flush must route only the survivor: a terminal request
// left in the parked list would reach RouteAfterFault and abort the run.
TEST(CancelKvConservationTest, DeadlineInsideDecodeOutageLeavesParkedList) {
  workload::Trace trace(3);
  for (size_t i = 0; i < trace.size(); ++i) {
    trace[i].id = static_cast<workload::RequestId>(i);
    trace[i].arrival_time = 0.01 * static_cast<double>(i);
    trace[i].input_len = 128;
    trace[i].output_len = 16;
  }
  trace[0].deadline = 1.0;
  trace[1].cancel_at = 1.5;

  serving::ServingConfig config;
  config.model = model::ModelSpec::Opt13B();
  config.cluster = cluster::ClusterSpec::PaperTestbed();
  config.plan.prefill_par = {1, 1};
  config.plan.decode_par = {1, 1};
  config.plan.num_prefill = 1;
  config.plan.num_decode = 2;
  config.plan.intra_node_transfers = true;
  for (int d = 0; d < config.plan.num_decode; ++d) {
    config.faults.events.push_back(
        {0.0, serving::FaultDomain::kDecode, serving::FaultAction::kFail, d});
    config.faults.events.push_back(
        {3.0, serving::FaultDomain::kDecode, serving::FaultAction::kRecover, d});
  }
  config.faults.Normalize();
  serving::ServingSystem system(config);
  const metrics::Collector results = system.Run(trace);

  EXPECT_EQ(results.count(), 1u);
  EXPECT_EQ(results.timed_out_count(), 1u);
  EXPECT_EQ(results.cancelled_count(), 1u);
  EXPECT_EQ(results.lost_count(), 0u);
  EXPECT_EQ(results.count() + results.lost_count() + results.cancelled_count() +
                results.timed_out_count(),
            trace.size());
  // Exactly one outcome per request: no id appears in two outcome lists.
  std::set<workload::RequestId> ids;
  for (const auto* records : {&results.records(), &results.lost_records(),
                              &results.cancelled_records(), &results.timed_out_records()}) {
    for (const metrics::RequestRecord& r : *records) {
      EXPECT_TRUE(ids.insert(r.id).second) << "request " << r.id << " has two outcomes";
    }
  }
  EXPECT_EQ(ids.size(), trace.size());
  for (const auto& p : system.prefill_instances()) {
    EXPECT_EQ(p->kv().used_blocks(), 0);
  }
  for (const auto& d : system.decode_instances()) {
    EXPECT_EQ(d->kv().used_blocks(), 0);
    EXPECT_EQ(d->resident_requests(), 0);
  }
}

}  // namespace
}  // namespace distserve
