#include "engine/prefill_instance.h"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "cluster/gpu_spec.h"

namespace distserve::engine {
namespace {

class PrefillInstanceTest : public ::testing::Test {
 protected:
  model::LatencyModel MakeLm(int tp = 1, int pp = 1) {
    return model::LatencyModel(model::ModelSpec::Opt13B(), {tp, pp},
                               cluster::GpuSpec::A100_80GB());
  }

  std::unique_ptr<PrefillInstance> MakeInstance(int pp = 1,
                                                int64_t kv_capacity = 1 << 20,
                                                int64_t target_tokens = 512) {
    PrefillInstance::Options options;
    options.batch_policy.target_tokens = target_tokens;
    auto instance =
        std::make_unique<PrefillInstance>(&sim_, MakeLm(1, pp), kv_capacity, options, 0);
    instance->set_on_complete([this](RequestState* r) { completed_.push_back(r); });
    return instance;
  }

  RequestState* NewRequest(int input_len, double arrival = 0.0) {
    workload::Request req;
    req.id = static_cast<workload::RequestId>(states_.size());
    req.arrival_time = arrival;
    req.input_len = input_len;
    req.output_len = 8;
    states_.push_back(std::make_unique<RequestState>(req));
    return states_.back().get();
  }

  simcore::Simulator sim_;
  std::vector<std::unique_ptr<RequestState>> states_;
  std::vector<RequestState*> completed_;
};

TEST_F(PrefillInstanceTest, SingleRequestLatencyMatchesModel) {
  auto instance = MakeInstance();
  RequestState* r = NewRequest(512);
  instance->Enqueue(r);
  sim_.Run();
  ASSERT_EQ(completed_.size(), 1u);
  const double expected = MakeLm().PrefillFullTime(std::vector<int>{512});
  EXPECT_DOUBLE_EQ(r->record.prefill_start, 0.0);
  EXPECT_NEAR(r->record.first_token, expected, 1e-12);
}

TEST_F(PrefillInstanceTest, FcfsCompletionOrder) {
  auto instance = MakeInstance();
  for (int i = 0; i < 5; ++i) {
    instance->Enqueue(NewRequest(600));  // each runs alone (over target)
  }
  sim_.Run();
  ASSERT_EQ(completed_.size(), 5u);
  for (size_t i = 1; i < completed_.size(); ++i) {
    EXPECT_LT(completed_[i - 1]->record.first_token, completed_[i]->record.first_token);
    EXPECT_LT(completed_[i - 1]->request.id, completed_[i]->request.id);
  }
}

TEST_F(PrefillInstanceTest, ShortPromptsShareABatch) {
  auto instance = MakeInstance();
  RequestState* a = NewRequest(200);
  RequestState* b = NewRequest(200);
  instance->Enqueue(a);
  instance->Enqueue(b);
  sim_.Run();
  ASSERT_EQ(completed_.size(), 2u);
  EXPECT_DOUBLE_EQ(a->record.first_token, b->record.first_token);
  EXPECT_EQ(instance->batches_launched(), 1);
}

TEST_F(PrefillInstanceTest, QueueingDelayUnderBackToBackArrivals) {
  auto instance = MakeInstance();
  RequestState* a = NewRequest(1024, 0.0);
  RequestState* b = NewRequest(1024, 0.0);
  instance->Enqueue(a);
  instance->Enqueue(b);
  sim_.Run();
  // Second request waits for the first (both over target => serialized).
  EXPECT_GT(b->record.prefill_start, a->record.prefill_start);
  EXPECT_GE(b->record.prefill_start, a->record.first_token - 1e-9);
}

TEST_F(PrefillInstanceTest, PipelinedBatchesOverlap) {
  // With pp=2 the second batch enters stage 0 after one stage time, not after the full
  // forward: completion gap ~= stage time (half the full time).
  auto piped = MakeInstance(/*pp=*/2);
  RequestState* a = NewRequest(512);
  RequestState* b = NewRequest(512);
  piped->Enqueue(a);
  piped->Enqueue(b);
  sim_.Run();
  const model::LatencyModel lm = MakeLm(1, 2);
  const auto batch = model::BatchWorkload::PrefillSingle(512);
  const double gap = b->record.first_token - a->record.first_token;
  EXPECT_NEAR(gap, lm.StageTime(batch), 0.15 * lm.StageTime(batch));
  EXPECT_LT(gap, 0.75 * lm.FullTime(batch));
}

TEST_F(PrefillInstanceTest, BubbleWhenShortBatchFollowsLong) {
  auto piped = MakeInstance(/*pp=*/4);
  RequestState* big = NewRequest(2048);
  RequestState* tiny = NewRequest(32);
  piped->Enqueue(big);
  piped->Enqueue(tiny);
  sim_.Run();
  EXPECT_GT(piped->bubble_seconds(), 0.0);
  // The bubble delays the short batch beyond plain stage-cadence entry.
  const model::LatencyModel lm = MakeLm(1, 4);
  const double big_stage = lm.StageTime(model::BatchWorkload::PrefillSingle(2048));
  EXPECT_GT(tiny->record.prefill_start, big_stage * 1.5);
}

TEST_F(PrefillInstanceTest, NoBubbleWithUniformLengths) {
  auto piped = MakeInstance(/*pp=*/4);
  for (int i = 0; i < 6; ++i) {
    piped->Enqueue(NewRequest(512));
  }
  sim_.Run();
  EXPECT_DOUBLE_EQ(piped->bubble_seconds(), 0.0);
  EXPECT_EQ(completed_.size(), 6u);
}

TEST_F(PrefillInstanceTest, KvBackpressureStallsUntilRelease) {
  // Pool holds exactly one 512-token prompt (and no two).
  auto instance = MakeInstance(/*pp=*/1, /*kv_capacity=*/600);
  RequestState* a = NewRequest(512);
  RequestState* b = NewRequest(512);
  instance->Enqueue(a);
  instance->Enqueue(b);
  sim_.Run();
  // b cannot start: its KV does not fit while a's is held.
  EXPECT_EQ(completed_.size(), 1u);
  EXPECT_GT(instance->queue_length(), 0u);
  // Releasing a's KV (decode pulled it) unblocks b.
  instance->ReleaseKv(a);
  sim_.Run();
  EXPECT_EQ(completed_.size(), 2u);
  instance->ReleaseKv(b);
  EXPECT_EQ(instance->kv().used_blocks(), 0);
}

TEST_F(PrefillInstanceTest, QueuedTokensTracksQueue) {
  auto instance = MakeInstance(/*pp=*/1, /*kv_capacity=*/600);
  instance->Enqueue(NewRequest(512));
  instance->Enqueue(NewRequest(100));
  instance->Enqueue(NewRequest(200));
  // First was launched immediately; the two others are queued behind the memory stall.
  sim_.Run();
  EXPECT_EQ(instance->queued_tokens(), 300);
  EXPECT_EQ(instance->queue_length(), 2u);
}

TEST_F(PrefillInstanceTest, LateArrivalSchedulesFreshLaunch) {
  auto instance = MakeInstance();
  RequestState* a = NewRequest(256, 0.0);
  instance->Enqueue(a);
  sim_.Run();
  ASSERT_EQ(completed_.size(), 1u);
  // A second request arriving much later starts immediately at its arrival.
  RequestState* b = NewRequest(256, 0.0);
  sim_.ScheduleAt(10.0, [&] { instance->Enqueue(b); });
  sim_.Run();
  ASSERT_EQ(completed_.size(), 2u);
  EXPECT_DOUBLE_EQ(b->record.prefill_start, 10.0);
}

TEST_F(PrefillInstanceTest, BusySecondsAccumulate) {
  auto instance = MakeInstance();
  instance->Enqueue(NewRequest(512));
  instance->Enqueue(NewRequest(512));
  sim_.Run();
  EXPECT_GT(instance->busy_seconds(), 0.0);
  EXPECT_EQ(instance->batches_launched(), 2);
}

// --- Launch paths: inline, zero-delay event, and at a completion under a reserved seq ---

// An enqueue that ends its event launches an idle instance's batch at once when nothing else
// is pending at now: no launch event fires.
TEST_F(PrefillInstanceTest, LastEnqueueOfAnEventLaunchesInline) {
  auto instance = MakeInstance();
  RequestState* a = NewRequest(256, 1.0);
  sim_.ScheduleAt(1.0, [&] { instance->Enqueue(a, /*last_in_event=*/true); });
  sim_.Run();
  ASSERT_EQ(completed_.size(), 1u);
  EXPECT_DOUBLE_EQ(a->record.prefill_start, 1.0);
  EXPECT_EQ(sim_.events_processed(), 2);  // the arrival and the batch's completion
}

// Arrivals that share a timestamp, one event each: the first sees the second pending at now
// and keeps the zero-delay launch event, so both still form one batch.
TEST_F(PrefillInstanceTest, ArrivalsSharingATimestampFormOneBatch) {
  auto instance = MakeInstance();
  RequestState* a = NewRequest(200, 1.0);
  RequestState* b = NewRequest(200, 1.0);
  sim_.ScheduleAt(1.0, [&] { instance->Enqueue(a, /*last_in_event=*/true); });
  sim_.ScheduleAt(1.0, [&] { instance->Enqueue(b, /*last_in_event=*/true); });
  sim_.Run();
  ASSERT_EQ(completed_.size(), 2u);
  EXPECT_EQ(instance->batches_launched(), 1);
  EXPECT_DOUBLE_EQ(a->record.prefill_start, 1.0);
  EXPECT_DOUBLE_EQ(b->record.first_token, a->record.first_token);
}

// Outside Simulator::Run nothing launches inline: requests enqueued before Run share a batch.
TEST_F(PrefillInstanceTest, EnqueueOutsideRunStillBatches) {
  auto instance = MakeInstance();
  RequestState* a = NewRequest(200);
  RequestState* b = NewRequest(200);
  instance->Enqueue(a, /*last_in_event=*/true);
  instance->Enqueue(b, /*last_in_event=*/true);
  EXPECT_EQ(instance->batches_launched(), 0);
  sim_.Run();
  ASSERT_EQ(completed_.size(), 2u);
  EXPECT_EQ(instance->batches_launched(), 1);
  EXPECT_DOUBLE_EQ(a->record.first_token, b->record.first_token);
}

// With pp = 1 each batch's completion launches the next one in place: three serialized
// batches fire one launch event (the first, armed before Run) and three completions.
TEST_F(PrefillInstanceTest, CompletionLaunchesTheNextBatchInPlace) {
  auto instance = MakeInstance();
  for (int i = 0; i < 3; ++i) {
    instance->Enqueue(NewRequest(600));  // each runs alone (over target)
  }
  sim_.Run();
  ASSERT_EQ(completed_.size(), 3u);
  EXPECT_EQ(instance->batches_launched(), 3);
  EXPECT_EQ(sim_.events_processed(), 4);
  EXPECT_EQ(sim_.events_cancelled(), 0);
  for (size_t i = 1; i < completed_.size(); ++i) {
    EXPECT_EQ(completed_[i]->record.prefill_start, completed_[i - 1]->record.first_token);
  }
}

// A launch that waits for the batch in flight keeps the sequence number it reserved when it
// was armed: an event at exactly the completion time that was scheduled before the enqueue
// fires before the launch, and one scheduled after the enqueue fires after it.
TEST_F(PrefillInstanceTest, ExactTieAtCompletionFiresInReservedSeqOrder) {
  double finish = 0.0;
  {
    // The completion time of a lone 600-token batch entering at 0.
    simcore::Simulator probe;
    PrefillInstance::Options options;
    options.batch_policy.target_tokens = 512;
    PrefillInstance lone(&probe, MakeLm(), 1 << 20, options, 0);
    RequestState* r = NewRequest(600);
    lone.Enqueue(r);
    probe.Run();
    finish = r->record.first_token;
  }
  auto instance = MakeInstance();
  RequestState* a = NewRequest(600);
  RequestState* b = NewRequest(600);
  RequestPhase before_launch = RequestPhase::kPending;
  RequestPhase after_launch = RequestPhase::kPending;
  sim_.ScheduleAt(0.0, [&] { instance->Enqueue(a, /*last_in_event=*/true); });
  sim_.ScheduleAt(finish / 2, [&] {
    sim_.ScheduleAt(finish, [&] { before_launch = b->phase; });
    instance->Enqueue(b);  // a is in flight: b's launch waits for a's completion
    sim_.ScheduleAt(finish, [&] { after_launch = b->phase; });
  });
  sim_.Run();
  ASSERT_EQ(completed_.size(), 2u);
  EXPECT_EQ(a->record.first_token, finish);
  EXPECT_EQ(b->record.prefill_start, finish);
  EXPECT_EQ(before_launch, RequestPhase::kPrefillQueued);
  EXPECT_EQ(after_launch, RequestPhase::kPrefilling);
}

// A failure drops the launch a completion would have run; the recovered instance launches
// afresh.
TEST_F(PrefillInstanceTest, FailDropsTheLaunchReservedForACompletion) {
  auto instance = MakeInstance();
  RequestState* a = NewRequest(600);
  RequestState* b = NewRequest(600);
  RequestState* c = NewRequest(600);
  instance->Enqueue(a);
  instance->Enqueue(b);  // waits for a's completion
  sim_.ScheduleAt(1e-3, [&] { instance->Fail(); });
  sim_.ScheduleAt(2e-3, [&] {
    instance->Recover();
    instance->Enqueue(c, /*last_in_event=*/true);
  });
  sim_.Run();
  ASSERT_EQ(completed_.size(), 1u);
  EXPECT_EQ(completed_[0], c);
  EXPECT_DOUBLE_EQ(c->record.prefill_start, 2e-3);
  EXPECT_EQ(instance->batches_launched(), 2);
}

TEST_F(PrefillInstanceTest, DeathOnImpossiblePrompt) {
  auto instance = MakeInstance(/*pp=*/1, /*kv_capacity=*/100);
  EXPECT_DEATH(instance->Enqueue(NewRequest(512)), "cannot ever fit");
}

}  // namespace
}  // namespace distserve::engine
