#include "engine/colocated_instance.h"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "cluster/gpu_spec.h"

namespace distserve::engine {
namespace {

class ColocatedInstanceTest : public ::testing::Test {
 protected:
  model::LatencyModel MakeLm(int tp = 1) {
    return model::LatencyModel(model::ModelSpec::Opt13B(), {tp, 1},
                               cluster::GpuSpec::A100_80GB());
  }

  std::unique_ptr<ColocatedInstance> MakeInstance(
      ColocatedInstance::Options options = {}, int64_t kv_capacity = 1 << 20) {
    auto instance =
        std::make_unique<ColocatedInstance>(&sim_, MakeLm(), kv_capacity, options, 0);
    instance->set_on_complete([this](RequestState* r) { completed_.push_back(r); });
    return instance;
  }

  RequestState* NewRequest(int input_len, int output_len, double arrival = 0.0) {
    workload::Request req;
    req.id = static_cast<workload::RequestId>(states_.size());
    req.arrival_time = arrival;
    req.input_len = input_len;
    req.output_len = output_len;
    states_.push_back(std::make_unique<RequestState>(req));
    return states_.back().get();
  }

  simcore::Simulator sim_;
  std::vector<std::unique_ptr<RequestState>> states_;
  std::vector<RequestState*> completed_;
};

TEST_F(ColocatedInstanceTest, SingleRequestLifecycle) {
  auto instance = MakeInstance();
  RequestState* r = NewRequest(256, 5);
  instance->Enqueue(r);
  sim_.Run();
  ASSERT_EQ(completed_.size(), 1u);
  // First token after one prefill step; 4 more decode steps follow.
  const double prefill_time =
      MakeLm().FullTime(model::BatchWorkload::PrefillSingle(256));
  EXPECT_NEAR(r->record.first_token, prefill_time, 1e-9);
  EXPECT_EQ(r->decode_steps_done, 4);
  // Colocation: no transfer, no decode queue.
  EXPECT_DOUBLE_EQ(r->record.TransferTime(), 0.0);
  EXPECT_DOUBLE_EQ(r->record.DecodeQueueTime(), 0.0);
}

TEST_F(ColocatedInstanceTest, SingleTokenOutputCompletesAtPrefill) {
  auto instance = MakeInstance();
  RequestState* r = NewRequest(128, 1);
  instance->Enqueue(r);
  sim_.Run();
  ASSERT_EQ(completed_.size(), 1u);
  EXPECT_DOUBLE_EQ(r->record.completion, r->record.first_token);
  EXPECT_EQ(instance->kv().used_blocks(), 0);
}

TEST_F(ColocatedInstanceTest, PrefillSlowsOngoingDecodes) {
  // The Figure-2 interference effect at engine level: a decode step that shares the batch
  // with a long prefill takes far longer than a pure decode step.
  auto instance = MakeInstance();
  RequestState* decoder = NewRequest(128, 200);
  instance->Enqueue(decoder);
  // Let it decode alone for a while, then inject a long prompt.
  RequestState* prompt = NewRequest(1024, 2);
  sim_.ScheduleAt(0.2, [&] { instance->Enqueue(prompt); });
  sim_.Run();
  ASSERT_EQ(completed_.size(), 2u);
  // The decoder's total decode time is inflated versus the no-interference baseline of
  // steps * pure-step-time; check the prompt's prefill step stalled it by > one pure step.
  const double pure_step = MakeLm().DecodeStepFullTime(1, 328);
  const double mixed_step = MakeLm().FullTime([&] {
    model::BatchWorkload w = model::BatchWorkload::PrefillSingle(1024);
    w += model::BatchWorkload::Decode(1, 200);
    return w;
  }());
  EXPECT_GT(mixed_step, 3.0 * pure_step);
}

TEST_F(ColocatedInstanceTest, PrefillTokenBudgetSplitsAdmission) {
  ColocatedInstance::Options options;
  options.max_prefill_tokens_per_step = 512;
  auto instance = MakeInstance(options);
  // A decoy keeps the engine busy so a and b are both waiting when the next step forms.
  instance->Enqueue(NewRequest(64, 2));
  RequestState* a = NewRequest(400, 2);
  RequestState* b = NewRequest(400, 2);
  instance->Enqueue(a);
  instance->Enqueue(b);
  sim_.Run();
  // 800 > 512: prompts run in separate steps, so first tokens differ.
  EXPECT_LT(a->record.first_token, b->record.first_token);
}

TEST_F(ColocatedInstanceTest, PromptsWithinBudgetShareAStep) {
  ColocatedInstance::Options options;
  options.max_prefill_tokens_per_step = 1024;
  auto instance = MakeInstance(options);
  instance->Enqueue(NewRequest(64, 2));  // decoy: see PrefillTokenBudgetSplitsAdmission
  RequestState* a = NewRequest(400, 2);
  RequestState* b = NewRequest(400, 2);
  instance->Enqueue(a);
  instance->Enqueue(b);
  sim_.Run();
  EXPECT_DOUBLE_EQ(a->record.first_token, b->record.first_token);
}

TEST_F(ColocatedInstanceTest, OverBudgetHeadStillRuns) {
  ColocatedInstance::Options options;
  options.max_prefill_tokens_per_step = 256;
  auto instance = MakeInstance(options);
  RequestState* big = NewRequest(2000, 2);
  instance->Enqueue(big);
  sim_.Run();
  EXPECT_EQ(completed_.size(), 1u);
}

TEST_F(ColocatedInstanceTest, ChunkedPrefillSplitsPrompt) {
  ColocatedInstance::Options options;
  options.mode = ColocatedInstance::Options::SchedulingMode::kChunked;
  options.chunk_budget = 256;
  auto instance = MakeInstance(options);
  RequestState* r = NewRequest(1000, 2);
  instance->Enqueue(r);
  sim_.Run();
  ASSERT_EQ(completed_.size(), 1u);
  // ceil(1000/256) = 4 prefill steps + 1 decode step.
  EXPECT_EQ(instance->steps_executed(), 5);
}

TEST_F(ColocatedInstanceTest, ChunkedPrefillImprovesTpotUnderLoad) {
  // SARATHI's promise: decodes suffer less when prompts are chunked. Run the same workload
  // monolithic vs chunked and compare the decoder's TPOT.
  auto run_variant = [&](bool chunked) {
    simcore::Simulator sim;
    ColocatedInstance::Options options;
    options.mode = chunked ? ColocatedInstance::Options::SchedulingMode::kChunked
                           : ColocatedInstance::Options::SchedulingMode::kPrefillPriority;
    options.chunk_budget = 128;
    model::LatencyModel lm(model::ModelSpec::Opt13B(), {1, 1}, cluster::GpuSpec::A100_80GB());
    ColocatedInstance instance(&sim, lm, 1 << 20, options, 0);
    std::vector<std::unique_ptr<RequestState>> states;
    double decoder_tpot = 0.0;
    instance.set_on_complete([&](RequestState* r) {
      if (r->request.id == 0) {
        decoder_tpot = r->record.Tpot();
      }
    });
    workload::Request decoder;
    decoder.id = 0;
    decoder.input_len = 64;
    decoder.output_len = 100;
    states.push_back(std::make_unique<RequestState>(decoder));
    instance.Enqueue(states.back().get());
    // A stream of long prompts arrives while the decoder runs.
    for (int i = 1; i <= 5; ++i) {
      workload::Request prompt;
      prompt.id = i;
      prompt.arrival_time = 0.05 * i;
      prompt.input_len = 1500;
      prompt.output_len = 2;
      states.push_back(std::make_unique<RequestState>(prompt));
      RequestState* p = states.back().get();
      sim.ScheduleAt(prompt.arrival_time, [&instance, p] { instance.Enqueue(p); });
    }
    sim.Run();
    return decoder_tpot;
  };
  const double monolithic_tpot = run_variant(false);
  const double chunked_tpot = run_variant(true);
  EXPECT_LT(chunked_tpot, monolithic_tpot);
}

TEST_F(ColocatedInstanceTest, MemoryAdmissionDefersPrompts) {
  // KV pool fits one request's full context only.
  auto instance = MakeInstance({}, /*kv_capacity=*/320);
  RequestState* a = NewRequest(200, 50);  // 250 tokens
  RequestState* b = NewRequest(200, 50);
  instance->Enqueue(a);
  instance->Enqueue(b);
  sim_.Run();
  ASSERT_EQ(completed_.size(), 2u);
  EXPECT_GE(b->record.first_token, a->record.completion - 1e-9);
  EXPECT_EQ(instance->kv().used_blocks(), 0);
}

TEST_F(ColocatedInstanceTest, BatchSizeCapRespected) {
  ColocatedInstance::Options options;
  options.max_batch_size = 2;
  auto instance = MakeInstance(options);
  for (int i = 0; i < 4; ++i) {
    instance->Enqueue(NewRequest(64, 10));
  }
  sim_.Run();
  EXPECT_EQ(completed_.size(), 4u);
}

TEST_F(ColocatedInstanceTest, IdleThenResume) {
  auto instance = MakeInstance();
  instance->Enqueue(NewRequest(128, 3));
  sim_.Run();
  EXPECT_EQ(completed_.size(), 1u);
  RequestState* late = NewRequest(128, 3);
  sim_.ScheduleAt(100.0, [&] { instance->Enqueue(late); });
  sim_.Run();
  EXPECT_EQ(completed_.size(), 2u);
  EXPECT_GT(late->record.first_token, 100.0);
}

TEST(ColocatedInstanceDeathTest, PipelineParallelismRejected) {
  simcore::Simulator sim;
  model::LatencyModel lm(model::ModelSpec::Opt13B(), {1, 2}, cluster::GpuSpec::A100_80GB());
  EXPECT_DEATH(ColocatedInstance(&sim, lm, 1 << 20, {}, 0), "intra-op");
}

}  // namespace
}  // namespace distserve::engine
