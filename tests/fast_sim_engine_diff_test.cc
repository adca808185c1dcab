// Differential checks between the two drivers of one schedule: the engine-level DES
// (engine::PrefillInstance, the decode side of serving::ServingSystem, baselines::VllmSystem)
// and the event-free fast simulator (placement/fast_sim.h) that the planner runs.
//
// Where the fast sim leaves out nothing that a single instance would exercise, the two agree
// exactly: prefill first-token times and vLLM TTFT/TPOT are bit-equal. Decode completions
// agree to 1e-9 relative, the rounding of reconstructing a completion as ready + TPOT * steps.
// The deliberate gaps (routing, transfers, token-granular KV, pp > 1 decode) are listed in
// fast_sim.h; these tests stay on configurations that none of them touch.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <vector>

#include "baselines/vllm_system.h"
#include "cluster/gpu_spec.h"
#include "engine/prefill_instance.h"
#include "placement/fast_sim.h"
#include "serving/serving_system.h"
#include "simcore/simulator.h"
#include "workload/generator.h"

namespace distserve {
namespace {

constexpr int kRequests = 3000;
constexpr uint64_t kSeed = 11;

workload::Trace ShareGptTrace(double rate, int n = kRequests) {
  const auto dataset = workload::MakeShareGptLike();
  workload::TraceSpec spec;
  spec.rate = rate;
  spec.num_requests = n;
  spec.seed = kSeed;
  return workload::GenerateTrace(spec, *dataset);
}

class FastSimEngineDiffTest : public ::testing::TestWithParam<double> {};

// One PrefillInstance (KV released at completion, so it never stalls) against
// SimulatePrefillFinishTimes: every first-token time is equal, with and without pipeline
// stages.
TEST_P(FastSimEngineDiffTest, PrefillFirstTokenTimesAreEqual) {
  const workload::Trace trace = ShareGptTrace(GetParam());
  for (int pp : {1, 2}) {
    SCOPED_TRACE(pp);
    const model::LatencyModel lm(model::ModelSpec::Opt13B(), {1, pp},
                                 cluster::GpuSpec::A100_80GB());
    engine::PrefillInstance::Options options;
    options.batch_policy.target_tokens = 512;
    simcore::Simulator sim;
    engine::PrefillInstance instance(&sim, lm, int64_t{1} << 20, options, 0);
    instance.set_on_complete([&](engine::RequestState* r) { instance.ReleaseKv(r); });
    std::vector<std::unique_ptr<engine::RequestState>> states;
    for (const workload::Request& r : trace) {
      states.push_back(std::make_unique<engine::RequestState>(r));
      engine::RequestState* state = states.back().get();
      sim.ScheduleAt(r.arrival_time, [&instance, state] { instance.Enqueue(state, true); });
    }
    sim.Run();

    const std::vector<double> fast = placement::SimulatePrefillFinishTimes(
        lm, trace, options.batch_policy.target_tokens, options.batch_policy.max_batch_size);
    ASSERT_EQ(fast.size(), trace.size());
    int differing = 0;
    for (size_t i = 0; i < trace.size(); ++i) {
      EXPECT_EQ(states[i]->record.first_token, fast[i]) << "request " << i;
      differing += states[i]->record.first_token != fast[i] ? 1 : 0;
    }
    EXPECT_EQ(differing, 0);
  }
}

// The decode instance of a 1P1D ServingSystem against SimulateDecodeTpots fed each request's
// KV arrival (transfer_end) as its ready time: completions agree to 1e-9 relative.
TEST_P(FastSimEngineDiffTest, DecodeCompletionsAgree) {
  const workload::Trace trace = ShareGptTrace(GetParam());
  serving::ServingConfig config;
  config.model = model::ModelSpec::Opt13B();
  config.cluster = cluster::ClusterSpec::PaperTestbed();
  config.plan.prefill_par = {1, 1};
  config.plan.decode_par = {1, 1};
  config.plan.num_prefill = 1;
  config.plan.num_decode = 1;
  config.plan.intra_node_transfers = true;
  serving::ServingSystem system(config);
  const metrics::Collector results = system.Run(trace);
  ASSERT_EQ(results.count(), trace.size());

  std::vector<const metrics::RequestRecord*> by_id(trace.size(), nullptr);
  for (const metrics::RequestRecord& r : results.records()) {
    ASSERT_LT(r.id, by_id.size());
    by_id[r.id] = &r;
  }
  std::vector<double> ready(trace.size());
  for (size_t i = 0; i < trace.size(); ++i) {
    ASSERT_EQ(trace[i].id, i);
    ready[i] = by_id[i]->transfer_end;
  }
  const model::LatencyModel lm(config.model, config.plan.decode_par, config.cluster.gpu);
  const std::vector<double> tpots = placement::SimulateDecodeTpots(
      lm, lm.view().KvCapacityTokens(config.cluster.gpu), trace, ready,
      config.decode_options.max_batch_size);

  for (size_t i = 0; i < trace.size(); ++i) {
    if (trace[i].output_len < 2) {
      continue;
    }
    const double fast_completion =
        ready[i] + tpots[i] * static_cast<double>(trace[i].output_len - 1);
    const double des_completion = by_id[i]->completion;
    EXPECT_LE(std::fabs(fast_completion - des_completion), 1e-9 * des_completion)
        << "request " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Rates, FastSimEngineDiffTest, ::testing::Values(2.0, 8.0, 20.0));

// One vLLM replica against SimulateColocated with the same knobs; TTFT and TPOT are equal.
void ExpectColocatedEqual(const workload::Trace& trace, int64_t chunk_budget,
                          bool round_capacity_to_blocks) {
  baselines::VllmConfig config;
  config.model = model::ModelSpec::Opt13B();
  config.cluster = cluster::ClusterSpec::PaperTestbed();
  if (chunk_budget > 0) {
    config.engine_options.mode =
        engine::ColocatedInstance::Options::SchedulingMode::kChunked;
    config.engine_options.chunk_budget = chunk_budget;
  }
  const engine::ColocatedInstance::Options engine_options = config.engine_options;
  baselines::VllmSystem system(config);
  const metrics::Collector results = system.Run(trace);
  ASSERT_EQ(results.count(), trace.size());

  const model::LatencyModel lm(config.model, config.par, config.cluster.gpu);
  placement::ColocatedFastConfig fast;
  fast.kv_capacity_tokens = lm.view().KvCapacityTokens(config.cluster.gpu);
  if (round_capacity_to_blocks) {
    fast.kv_capacity_tokens -= fast.kv_capacity_tokens % engine_options.kv_block_size;
  }
  fast.max_batch_size = engine_options.max_batch_size;
  fast.max_prefill_tokens_per_step = engine_options.max_prefill_tokens_per_step;
  fast.chunk_budget = chunk_budget;
  fast.cpu_overhead_per_step = baselines::kVllmStepCpuOverhead;
  const std::vector<placement::FastRecord> sim = placement::SimulateColocated(lm, trace, fast);

  for (const metrics::RequestRecord& r : results.records()) {
    ASSERT_LT(r.id, sim.size());
    EXPECT_EQ(r.Ttft(), sim[r.id].ttft) << "request " << r.id;
    EXPECT_EQ(r.Tpot(), sim[r.id].tpot) << "request " << r.id;
  }
}

TEST(FastSimEngineDiffColocatedTest, ShareGptBelowKvBindingIsEqual) {
  for (double rate : {1.0, 3.0}) {
    SCOPED_TRACE(rate);
    const workload::Trace trace = ShareGptTrace(rate);
    ExpectColocatedEqual(trace, /*chunk_budget=*/0, /*round_capacity_to_blocks=*/false);
    ExpectColocatedEqual(trace, /*chunk_budget=*/512, /*round_capacity_to_blocks=*/false);
  }
}

// Every request 1024 + 1008 tokens (a whole number of 16-token blocks): token-granular and
// block-granular KV admit alike once the fast sim's capacity is rounded down to whole blocks,
// so the drivers stay equal with KV binding.
TEST(FastSimEngineDiffColocatedTest, BlockAlignedTraceIsEqualUnderKvBinding) {
  workload::Trace trace = ShareGptTrace(8.0, 1000);
  for (workload::Request& r : trace) {
    r.input_len = 1024;
    r.output_len = 1008;
  }
  ExpectColocatedEqual(trace, /*chunk_budget=*/0, /*round_capacity_to_blocks=*/true);
  ExpectColocatedEqual(trace, /*chunk_budget=*/512, /*round_capacity_to_blocks=*/true);
}

}  // namespace
}  // namespace distserve
