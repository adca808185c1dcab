#include "engine/decode_instance.h"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "cluster/gpu_spec.h"

namespace distserve::engine {
namespace {

class DecodeInstanceTest : public ::testing::Test {
 protected:
  model::LatencyModel MakeLm(int tp = 1, int pp = 1) {
    return model::LatencyModel(model::ModelSpec::Opt13B(), {tp, pp},
                               cluster::GpuSpec::A100_80GB());
  }

  std::unique_ptr<DecodeInstance> MakeInstance(int pp = 1, int64_t kv_capacity = 1 << 20,
                                               DecodeInstance::Options options = {}) {
    auto instance =
        std::make_unique<DecodeInstance>(&sim_, MakeLm(1, pp), kv_capacity, options, 0);
    instance->set_on_complete([this](RequestState* r) { completed_.push_back(r); });
    return instance;
  }

  RequestState* NewRequest(int input_len, int output_len, double now = 0.0) {
    workload::Request req;
    req.id = static_cast<workload::RequestId>(states_.size());
    req.arrival_time = now;
    req.input_len = input_len;
    req.output_len = output_len;
    states_.push_back(std::make_unique<RequestState>(req));
    RequestState* state = states_.back().get();
    state->record.first_token = now;  // pretend prefill finished now
    return state;
  }

  simcore::Simulator sim_;
  std::vector<std::unique_ptr<RequestState>> states_;
  std::vector<RequestState*> completed_;
};

TEST_F(DecodeInstanceTest, GeneratesExactlyOutputMinusOneTokens) {
  auto instance = MakeInstance();
  RequestState* r = NewRequest(128, 9);
  instance->Submit(r);
  sim_.Run();
  ASSERT_EQ(completed_.size(), 1u);
  EXPECT_EQ(r->decode_steps_done, 8);
  EXPECT_EQ(instance->tokens_generated(), 8);
  EXPECT_EQ(instance->steps_executed(), 8);
  EXPECT_GT(r->record.completion, r->record.decode_start);
}

TEST_F(DecodeInstanceTest, StepTimeMatchesLatencyModel) {
  auto instance = MakeInstance();
  RequestState* r = NewRequest(128, 2);  // exactly one decode step
  instance->Submit(r);
  sim_.Run();
  const double expected = MakeLm().DecodeStepFullTime(1, 129);  // ctx = input + first token
  EXPECT_NEAR(r->record.completion - r->record.decode_start, expected, 1e-12);
}

TEST_F(DecodeInstanceTest, ContinuousBatchingJoinsAtStepBoundary) {
  auto instance = MakeInstance();
  RequestState* a = NewRequest(128, 50);
  instance->Submit(a);
  RequestState* b = NewRequest(128, 4);
  // Submit b mid-flight of a's first step.
  sim_.ScheduleAfter(1e-6, [&] { instance->Submit(b); });
  sim_.Run();
  EXPECT_EQ(completed_.size(), 2u);
  // b joined after a's in-flight step finished, not mid-step.
  EXPECT_GT(b->record.decode_start, 1e-6);
  // Both decode concurrently afterwards: b completes long before a.
  EXPECT_LT(b->record.completion, a->record.completion);
}

TEST_F(DecodeInstanceTest, MemoryAdmissionBlocksThenAdmits) {
  // Capacity for one request's full context only.
  auto instance = MakeInstance(1, /*kv_capacity=*/160);
  RequestState* a = NewRequest(100, 30);  // total 130 tokens
  RequestState* b = NewRequest(100, 30);
  instance->Submit(a);
  instance->Submit(b);
  EXPECT_EQ(instance->load(), 2);
  sim_.Run();
  EXPECT_EQ(completed_.size(), 2u);
  // b was admitted only after a finished and released memory.
  EXPECT_GE(b->record.transfer_end, a->record.completion - 1e-9);
  EXPECT_EQ(instance->kv().used_blocks(), 0);
}

TEST_F(DecodeInstanceTest, TransferFnGatesJoining) {
  auto instance = MakeInstance();
  double transfer_done_at = 0.5;
  instance->set_transfer_fn([&](RequestState*, DecodeInstance::TransferDone done) {
    sim_.ScheduleAt(transfer_done_at, std::move(done));
  });
  RequestState* r = NewRequest(128, 3);
  instance->Submit(r);
  sim_.Run();
  EXPECT_DOUBLE_EQ(r->record.transfer_start, 0.0);
  EXPECT_DOUBLE_EQ(r->record.transfer_end, 0.5);
  EXPECT_GE(r->record.decode_start, 0.5);
}

TEST_F(DecodeInstanceTest, PipelineLanesRunConcurrently) {
  // Two lanes (pp=2): two requests land on different lanes and step independently; aggregate
  // throughput doubles versus one lane with both requests.
  auto instance = MakeInstance(/*pp=*/2);
  RequestState* a = NewRequest(256, 33);
  RequestState* b = NewRequest(256, 33);
  instance->Submit(a);
  instance->Submit(b);
  sim_.Run();
  ASSERT_EQ(completed_.size(), 2u);
  // Lanes are independent: completion times near-identical, not serialized.
  EXPECT_NEAR(a->record.completion, b->record.completion,
              0.2 * (a->record.completion - a->record.decode_start));
}

TEST_F(DecodeInstanceTest, LaneAssignmentBalances) {
  auto instance = MakeInstance(/*pp=*/4);
  for (int i = 0; i < 8; ++i) {
    instance->Submit(NewRequest(64, 17));
  }
  sim_.Run();
  EXPECT_EQ(completed_.size(), 8u);
  // With 4 lanes and balanced assignment, total steps ~= 4 lanes * 16 steps each over 2
  // requests per lane; at minimum far fewer than serial (8 * 16).
  EXPECT_LE(instance->steps_executed(), 4 * 16 + 8);
}

TEST_F(DecodeInstanceTest, BatchCapRespected) {
  DecodeInstance::Options options;
  options.max_batch_size = 2;
  auto instance = MakeInstance(1, 1 << 20, options);
  std::vector<RequestState*> requests;
  for (int i = 0; i < 4; ++i) {
    requests.push_back(NewRequest(64, 5));
    instance->Submit(requests.back());
  }
  sim_.Run();
  EXPECT_EQ(completed_.size(), 4u);
  // The later requests queued behind the cap: their decode started after the first pair's.
  EXPECT_GT(requests[2]->record.decode_start, requests[0]->record.decode_start);
}

TEST_F(DecodeInstanceTest, WatermarkLimitsAdmission) {
  DecodeInstance::Options options;
  options.admission_watermark = 0.5;
  // 320 tokens capacity -> 20 blocks; watermark 0.5 -> only 10 usable.
  auto instance = MakeInstance(1, 320, options);
  RequestState* a = NewRequest(100, 30);  // 130 tokens -> 9 blocks, fits under watermark
  RequestState* b = NewRequest(100, 30);
  instance->Submit(a);
  instance->Submit(b);
  sim_.Run();
  EXPECT_EQ(completed_.size(), 2u);
  EXPECT_GE(b->record.decode_start, a->record.completion - 1e-9);
}

TEST_F(DecodeInstanceTest, LoadCountsPendingAndResident) {
  auto instance = MakeInstance(1, /*kv_capacity=*/160);
  instance->Submit(NewRequest(100, 30));
  instance->Submit(NewRequest(100, 30));
  instance->Submit(NewRequest(100, 30));
  EXPECT_EQ(instance->load(), 3);
  sim_.Run();
  EXPECT_EQ(instance->load(), 0);
}

TEST_F(DecodeInstanceTest, ContextGrowsAcrossSteps) {
  // Later steps are slower because the KV read grows with generated tokens.
  auto instance = MakeInstance();
  RequestState* r = NewRequest(64, 2000);
  instance->Submit(r);
  // Run only a few steps, then compare early vs late step durations via busy time deltas.
  sim_.Run(0.5);
  const double early_steps = static_cast<double>(instance->steps_executed());
  const double early_busy = instance->busy_seconds();
  sim_.Run();
  const double late_steps = static_cast<double>(instance->steps_executed()) - early_steps;
  const double late_busy = instance->busy_seconds() - early_busy;
  ASSERT_GT(early_steps, 0.0);
  ASSERT_GT(late_steps, 0.0);
  EXPECT_GT(late_busy / late_steps, early_busy / early_steps);
}

// A request that lands mid-run folds into the running run at the end of the step in flight:
// the run re-prices its remaining steps with the merged batch and moves its one event, so the
// join costs no event of its own.
TEST_F(DecodeInstanceTest, JoinFoldsIntoTheRunningRun) {
  auto instance = MakeInstance();
  RequestState* a = NewRequest(128, 50);  // 49 steps: runs of 32 and 17 alone
  instance->Submit(a);
  RequestState* b = NewRequest(128, 4);   // 3 steps
  sim_.ScheduleAt(1e-6, [&] { instance->Submit(b); });
  sim_.Run();
  ASSERT_EQ(completed_.size(), 2u);
  EXPECT_NEAR(b->record.decode_start, MakeLm().DecodeStepFullTime(1, 129), 1e-12);
  EXPECT_EQ(instance->steps_executed(), 49);
  EXPECT_EQ(instance->tokens_generated(), 49 + 3);
  // b's submit, the folded run's end (b completes), then a's last 45 steps as 32 + 13.
  EXPECT_EQ(sim_.events_processed(), 4);
  EXPECT_EQ(sim_.events_cancelled(), 0);
}

// A joiner aborted before its fold's boundary unfolds the run: the run ends at that boundary
// again, as a cut run does, and the lane carries on without it.
TEST_F(DecodeInstanceTest, AbortedJoinerUnfoldsTheRun) {
  auto instance = MakeInstance();
  RequestState* a = NewRequest(128, 50);
  instance->Submit(a);
  RequestState* b = NewRequest(128, 4);
  sim_.ScheduleAt(1e-6, [&] { instance->Submit(b); });
  sim_.ScheduleAt(2e-6, [&] { instance->Abort(b); });
  sim_.Run();
  ASSERT_EQ(completed_.size(), 1u);
  EXPECT_EQ(completed_[0], a);
  EXPECT_EQ(b->decode_steps_done, 0);
  EXPECT_EQ(instance->steps_executed(), 49);
  EXPECT_EQ(instance->tokens_generated(), 49);
  EXPECT_EQ(instance->kv().used_blocks(), 0);
  // b's submit and abort, the boundary the unfold restored, then a's last 48 steps.
  EXPECT_EQ(sim_.events_processed(), 5);
  EXPECT_EQ(sim_.events_cancelled(), 0);
}

TEST(DecodeInstanceDeathTest, SingleTokenRequestRejected) {
  simcore::Simulator sim;
  model::LatencyModel lm(model::ModelSpec::Opt13B(), {1, 1}, cluster::GpuSpec::A100_80GB());
  DecodeInstance instance(&sim, lm, 1 << 20, {}, 0);
  workload::Request req;
  req.id = 1;
  req.input_len = 10;
  req.output_len = 1;
  RequestState state(req);
  EXPECT_DEATH(instance.Submit(&state), "single-token");
}

}  // namespace
}  // namespace distserve::engine
