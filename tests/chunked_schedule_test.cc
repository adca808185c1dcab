// The Sarathi-style chunked-prefill scheduler in ColocatedInstance (Options::chunk_budget):
// per-step token budget split between resident decodes and prompt chunks, window-offset
// chunk pricing, prefix-cache compute skip, priority admission, and memory preemption.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "cluster/gpu_spec.h"
#include "engine/colocated_instance.h"
#include "placement/fast_sim.h"
#include "workload/dataset.h"
#include "workload/generator.h"
#include "workload/scenario.h"

namespace distserve::engine {
namespace {

class ChunkedScheduleTest : public ::testing::Test {
 protected:
  model::LatencyModel MakeLm() {
    return model::LatencyModel(model::ModelSpec::Opt13B(), {1, 1},
                               cluster::GpuSpec::A100_80GB());
  }

  std::unique_ptr<ColocatedInstance> MakeChunked(int64_t chunk_budget,
                                                 int64_t kv_capacity = 1 << 20) {
    ColocatedInstance::Options options;
    options.mode = ColocatedInstance::Options::SchedulingMode::kChunked;
    options.chunk_budget = chunk_budget;
    auto instance =
        std::make_unique<ColocatedInstance>(&sim_, MakeLm(), kv_capacity, options, 0);
    instance->set_on_complete([this](RequestState* r) { completed_.push_back(r); });
    return instance;
  }

  RequestState* NewRequest(int input_len, int output_len, double arrival = 0.0,
                           int priority = 0, int cached_prefix = 0) {
    workload::Request req;
    req.id = static_cast<workload::RequestId>(states_.size());
    req.arrival_time = arrival;
    req.input_len = input_len;
    req.output_len = output_len;
    req.priority = priority;
    req.cached_prefix_len = cached_prefix;
    states_.push_back(std::make_unique<RequestState>(req));
    return states_.back().get();
  }

  simcore::Simulator sim_;
  std::vector<std::unique_ptr<RequestState>> states_;
  std::vector<RequestState*> completed_;
};

TEST_F(ChunkedScheduleTest, BudgetSplitsPromptWithWindowOffsetPricing) {
  auto instance = MakeChunked(/*chunk_budget=*/128);
  RequestState* r = NewRequest(512, 2);
  instance->Enqueue(r);
  sim_.Run();
  ASSERT_EQ(completed_.size(), 1u);
  // 512/128 = 4 chunk steps, then one decode step for the second token.
  EXPECT_EQ(instance->steps_executed(), 5);
  // TTFT is the sum of the four chunk steps, each pricing chunk tokens against the attention
  // window processed so far: sq contribution c * (window_start + c).
  const model::LatencyModel lm = MakeLm();
  double expected_ttft = 0.0;
  for (int64_t window_start = 0; window_start < 512; window_start += 128) {
    model::BatchWorkload w;
    w.prefill_tokens = 128;
    w.prefill_sq_tokens = 128.0 * static_cast<double>(window_start + 128);
    expected_ttft += lm.FullTime(w);
  }
  EXPECT_NEAR(r->record.first_token, expected_ttft, 1e-9);
}

TEST_F(ChunkedScheduleTest, ResidentDecodesClaimBudgetBeforeChunks) {
  // A resident decode claims one token of the budget each step, so the co-scheduled prompt
  // only gets budget-1 tokens per chunk and needs one more step than it would alone.
  const int64_t kBudget = 64;
  auto run = [&](bool with_decoder) {
    simcore::Simulator sim;
    ColocatedInstance::Options options;
    options.mode = ColocatedInstance::Options::SchedulingMode::kChunked;
    options.chunk_budget = kBudget;
    ColocatedInstance instance(&sim, MakeLm(), 1 << 20, options, 0);
    std::vector<std::unique_ptr<RequestState>> states;
    int prompt_chunks = 0;
    instance.set_on_complete([](RequestState*) {});
    if (with_decoder) {
      workload::Request d;
      d.id = 0;
      d.input_len = 16;
      d.output_len = 400;  // still decoding for the whole prefill window
      states.push_back(std::make_unique<RequestState>(d));
      instance.Enqueue(states.back().get());
    }
    workload::Request p;
    p.id = 1;
    p.arrival_time = 0.01;  // the decoder is resident (or the engine idle) by now
    p.input_len = 256;
    p.output_len = 2;
    states.push_back(std::make_unique<RequestState>(p));
    RequestState* prompt = states.back().get();
    sim.ScheduleAt(p.arrival_time, [&instance, prompt] { instance.Enqueue(prompt); });
    // Count chunk steps via prefill progress sampled each event; instead derive from the
    // final prefill_tokens_done trajectory: chunks = ceil(256 / (budget - residents)).
    sim.Run();
    prompt_chunks = prompt->prefill_tokens_done;  // == input_len once prefilled
    EXPECT_EQ(prompt_chunks, 256);
    return prompt->record.first_token - prompt->record.prefill_start;
  };
  const double alone = run(false);
  const double shared = run(true);
  // Alone: ceil(256/64) = 4 chunks. Sharing with one decode: ceil(256/63) = 5 chunks, each
  // also carrying the decode batch — strictly more wall time from prefill start to TTFT.
  EXPECT_GT(shared, alone);
}

TEST_F(ChunkedScheduleTest, PrefixSkipReducesChunkStepsButReservesFullKv) {
  auto run = [&](int cached_prefix) {
    simcore::Simulator sim;
    ColocatedInstance::Options options;
    options.mode = ColocatedInstance::Options::SchedulingMode::kChunked;
    options.chunk_budget = 256;
    ColocatedInstance instance(&sim, MakeLm(), 1 << 20, options, 0);
    workload::Request req;
    req.id = 0;
    req.input_len = 1024;
    req.output_len = 8;
    req.cached_prefix_len = cached_prefix;
    RequestState state(req);
    instance.set_on_complete([](RequestState*) {});
    instance.Enqueue(&state);
    // Snapshot KV usage right after the first step forms: reservation covers the full
    // context regardless of the cached prefix (reuse saves compute, not memory).
    int64_t used_blocks = -1;
    sim.ScheduleAt(1e-6, [&] { used_blocks = instance.kv().used_blocks(); });
    sim.Run();
    EXPECT_EQ(state.decode_steps_done, 7);
    EXPECT_EQ(state.prefill_tokens_done, 1024);
    EXPECT_EQ(instance.kv().used_blocks(), 0);
    return std::pair<double, int64_t>(state.record.first_token, used_blocks);
  };
  const auto [cold_ttft, cold_blocks] = run(0);
  const auto [warm_ttft, warm_blocks] = run(512);
  // Cold: 4 chunks of 256. Warm: compute starts at token 512 → 2 chunks, and each prices a
  // deeper attention window, but fewer steps win.
  EXPECT_LT(warm_ttft, cold_ttft);
  EXPECT_EQ(warm_blocks, cold_blocks);  // identical reservation
  // Exact warm TTFT: chunks (512..768) and (768..1024) with window-offset pricing.
  const model::LatencyModel lm = MakeLm();
  double expected = 0.0;
  for (int64_t window_start = 512; window_start < 1024; window_start += 256) {
    model::BatchWorkload w;
    w.prefill_tokens = 256;
    w.prefill_sq_tokens = 256.0 * static_cast<double>(window_start + 256);
    expected += lm.FullTime(w);
  }
  EXPECT_NEAR(warm_ttft, expected, 1e-9);
}

TEST_F(ChunkedScheduleTest, HighPriorityAdmittedBeforeEarlierLowPriority) {
  auto instance = MakeChunked(/*chunk_budget=*/256);
  // The decoy's first chunk step is in flight when both prompts arrive, so the admission scan
  // sees them together at the next step boundary and must order by priority, not FCFS.
  instance->Enqueue(NewRequest(512, 2));
  RequestState* low = NewRequest(512, 2, /*arrival=*/0.0, /*priority=*/0);
  RequestState* high = NewRequest(512, 2, /*arrival=*/0.0, /*priority=*/1);
  sim_.ScheduleAt(1e-6, [&] {
    instance->Enqueue(low);   // enqueued first...
    instance->Enqueue(high);  // ...but outranked
  });
  sim_.Run();
  ASSERT_EQ(completed_.size(), 3u);
  EXPECT_LT(high->record.first_token, low->record.first_token);
}

TEST_F(ChunkedScheduleTest, BlockedHighPriorityPreemptsLowestResidentDecode) {
  // KV fits exactly one request's full context, so the high-priority arrival finds the pool
  // exhausted by the low-priority resident and must evict it mid-decode.
  auto instance = MakeChunked(/*chunk_budget=*/512, /*kv_capacity=*/320);
  std::vector<RequestState*> preempted;
  instance->set_on_preempt([&](RequestState* r) { preempted.push_back(r); });
  RequestState* low = NewRequest(200, 50, /*arrival=*/0.0, /*priority=*/0);
  RequestState* high = NewRequest(200, 50, /*arrival=*/0.5, /*priority=*/1);
  instance->Enqueue(low);
  sim_.ScheduleAt(high->request.arrival_time, [&] { instance->Enqueue(high); });
  sim_.Run();
  ASSERT_EQ(completed_.size(), 2u);
  EXPECT_EQ(instance->preemptions(), 1);
  ASSERT_EQ(preempted.size(), 1u);
  EXPECT_EQ(preempted[0], low);
  // The victim restarts prefill from scratch and finishes after the preemptor; nothing leaks.
  EXPECT_LT(high->record.completion, low->record.completion);
  EXPECT_EQ(low->decode_steps_done, 49);
  EXPECT_EQ(instance->kv().used_blocks(), 0);
}

TEST_F(ChunkedScheduleTest, LowPriorityNeverPreemptsEqualOrHigher) {
  // Same memory squeeze, but the late arrival is *equal* priority: it must wait for the
  // resident to finish rather than evict it.
  auto instance = MakeChunked(/*chunk_budget=*/512, /*kv_capacity=*/320);
  RequestState* first = NewRequest(200, 50, /*arrival=*/0.0, /*priority=*/1);
  RequestState* second = NewRequest(200, 50, /*arrival=*/0.5, /*priority=*/1);
  instance->Enqueue(first);
  sim_.ScheduleAt(second->request.arrival_time, [&] { instance->Enqueue(second); });
  sim_.Run();
  ASSERT_EQ(completed_.size(), 2u);
  EXPECT_EQ(instance->preemptions(), 0);
  EXPECT_GE(second->record.first_token, first->record.completion - 1e-9);
}

TEST_F(ChunkedScheduleTest, FastSimChunkedMirrorsEngineTtft) {
  // The placement searcher's SimulateColocated with chunk_budget must reproduce the engine's
  // chunked schedule exactly — fig_scenarios' search section depends on this fidelity.
  const model::LatencyModel lm = MakeLm();
  const auto dataset = workload::MakeDatasetByName("sharegpt");
  workload::TraceSpec spec;
  spec.rate = 6.0;
  spec.num_requests = 120;
  spec.seed = 23;
  workload::Trace trace = workload::GenerateTrace(spec, *dataset);
  workload::PrefixCacheSpec prefix;
  prefix.hit_rate = 0.5;
  prefix.seed = 23;
  workload::ApplyPrefixCache(&trace, prefix);

  placement::ColocatedFastConfig config;
  config.num_instances = 1;
  config.chunk_budget = 512;
  config.kv_capacity_tokens = 1 << 20;
  const std::vector<placement::FastRecord> fast = placement::SimulateColocated(lm, trace, config);
  ASSERT_EQ(fast.size(), trace.size());

  ColocatedInstance::Options options;
  options.mode = ColocatedInstance::Options::SchedulingMode::kChunked;
  options.chunk_budget = 512;
  ColocatedInstance instance(&sim_, lm, 1 << 20, options, 0);
  instance.set_on_complete([this](RequestState* r) { completed_.push_back(r); });
  for (const workload::Request& req : trace) {
    states_.push_back(std::make_unique<RequestState>(req));
    RequestState* rs = states_.back().get();
    sim_.ScheduleAt(req.arrival_time, [&instance, rs] { instance.Enqueue(rs); });
  }
  sim_.Run();
  ASSERT_EQ(completed_.size(), trace.size());
  for (RequestState* r : completed_) {
    const size_t i = static_cast<size_t>(r->request.id);
    EXPECT_NEAR(r->record.Ttft(), fast[i].ttft, 1e-9) << "request " << i;
  }
}

}  // namespace
}  // namespace distserve::engine
