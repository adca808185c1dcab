#include "engine/batch_former.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

namespace distserve::engine {
namespace {

// FormPrefillBatch into a vector that starts with stale contents, as a recycled batch vector
// does in the prefill instance: the call must replace them.
template <typename MemoryFits>
std::vector<RequestState*> Form(RequestQueue& queue,
                                const PrefillBatchPolicy& policy, MemoryFits&& memory_fits) {
  std::vector<RequestState*> batch{nullptr, nullptr};
  FormPrefillBatch(queue, policy, memory_fits, &batch);
  return batch;
}

class BatchFormerTest : public ::testing::Test {
 protected:
  RequestState* Add(int input_len) {
    workload::Request req;
    req.id = static_cast<workload::RequestId>(states_.size());
    req.input_len = input_len;
    req.output_len = 8;
    states_.push_back(std::make_unique<RequestState>(req));
    queue_.push_back(states_.back().get());
    return states_.back().get();
  }

  static bool AlwaysFits(int64_t) { return true; }

  std::vector<std::unique_ptr<RequestState>> states_;
  RequestQueue queue_;
};

TEST_F(BatchFormerTest, EmptyQueueGivesEmptyBatch) {
  const auto batch = Form(queue_, {512, 64}, AlwaysFits);
  EXPECT_TRUE(batch.empty());
}

TEST_F(BatchFormerTest, BatchesShortPromptsUpToTarget) {
  Add(200);
  Add(200);
  Add(200);  // 600 > 512, stays queued
  const auto batch = Form(queue_, {512, 64}, AlwaysFits);
  EXPECT_EQ(batch.size(), 2u);
  EXPECT_EQ(queue_.size(), 1u);
}

TEST_F(BatchFormerTest, OverLengthHeadRunsAlone) {
  Add(2000);
  Add(50);
  const auto batch = Form(queue_, {512, 64}, AlwaysFits);
  ASSERT_EQ(batch.size(), 1u);
  EXPECT_EQ(batch[0]->request.input_len, 2000);
  EXPECT_EQ(queue_.size(), 1u);
}

TEST_F(BatchFormerTest, ExactTargetHeadRunsAlone) {
  Add(512);
  Add(50);
  const auto batch = Form(queue_, {512, 64}, AlwaysFits);
  EXPECT_EQ(batch.size(), 1u);
}

TEST_F(BatchFormerTest, FcfsOrderPreserved) {
  Add(100);
  Add(100);
  Add(100);
  const auto batch = Form(queue_, {512, 64}, AlwaysFits);
  ASSERT_EQ(batch.size(), 3u);
  EXPECT_EQ(batch[0]->request.id, 0);
  EXPECT_EQ(batch[1]->request.id, 1);
  EXPECT_EQ(batch[2]->request.id, 2);
}

TEST_F(BatchFormerTest, MaxBatchSizeCaps) {
  for (int i = 0; i < 10; ++i) {
    Add(10);
  }
  const auto batch = Form(queue_, {512, 4}, AlwaysFits);
  EXPECT_EQ(batch.size(), 4u);
  EXPECT_EQ(queue_.size(), 6u);
}

TEST_F(BatchFormerTest, MemoryGateStopsAdmission) {
  Add(100);
  Add(100);
  Add(100);
  auto fits_200 = [](int64_t tokens) { return tokens <= 200; };
  const auto batch = Form(queue_, {512, 64}, fits_200);
  EXPECT_EQ(batch.size(), 2u);
  EXPECT_EQ(queue_.size(), 1u);
}

TEST_F(BatchFormerTest, MemoryGateBlocksHeadEntirely) {
  Add(300);
  auto fits_nothing = [](int64_t) { return false; };
  const auto batch = Form(queue_, {512, 64}, fits_nothing);
  EXPECT_TRUE(batch.empty());
  EXPECT_EQ(queue_.size(), 1u);  // queue untouched on stall
}

TEST_F(BatchFormerTest, HeadOverTargetStillSubjectToMemory) {
  Add(1000);
  auto fits_500 = [](int64_t tokens) { return tokens <= 500; };
  const auto batch = Form(queue_, {512, 64}, fits_500);
  EXPECT_TRUE(batch.empty());
}

// Parameterized sweep: for any mix of lengths, a formed batch never exceeds the token target
// unless it is a single over-length prompt, and never exceeds the size cap.
class BatchFormerPropertyTest : public ::testing::TestWithParam<int64_t> {};

TEST_P(BatchFormerPropertyTest, InvariantsHoldAcrossTargets) {
  const int64_t target = GetParam();
  std::vector<std::unique_ptr<RequestState>> states;
  RequestQueue queue;
  uint64_t lcg = 12345;
  for (int i = 0; i < 200; ++i) {
    lcg = lcg * 6364136223846793005ULL + 1442695040888963407ULL;
    workload::Request req;
    req.id = i;
    req.input_len = 1 + static_cast<int>(lcg % 1500);
    req.output_len = 4;
    states.push_back(std::make_unique<RequestState>(req));
    queue.push_back(states.back().get());
  }
  while (!queue.empty()) {
    const auto batch = Form(queue, {target, 16}, [](int64_t) { return true; });
    ASSERT_FALSE(batch.empty());
    ASSERT_LE(batch.size(), 16u);
    int64_t tokens = 0;
    for (const RequestState* r : batch) {
      tokens += r->request.input_len;
    }
    if (batch.size() > 1) {
      ASSERT_LE(tokens, target);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Targets, BatchFormerPropertyTest,
                         ::testing::Values(64, 128, 256, 512, 1024, 4096));

// PopFinished refills the heap as std::pop_heap does, so members sit where they always did:
// the engines walk the batch in heap order (tracing, cancels, preemption scans). Joins and
// completions interleave over odd and even heap sizes, with many equal finish steps.
TEST(DecodeBatchTest, PopFinishedKeepsStdPopHeapLayout) {
  struct Shadow {
    int64_t finish;
    int64_t seq;
  };
  const auto finishes_later = [](const Shadow& a, const Shadow& b) { return a.finish > b.finish; };
  std::vector<std::unique_ptr<RequestState>> states;
  std::vector<Shadow> shadow;
  DecodeBatch batch;
  int64_t step = 0;
  int64_t popped = 0;
  uint64_t lcg = 777;
  for (int round = 0; round < 400; ++round) {
    lcg = lcg * 6364136223846793005ULL + 1442695040888963407ULL;
    const int joins = static_cast<int>((lcg >> 33) % 4);
    for (int j = 0; j < joins; ++j) {
      lcg = lcg * 6364136223846793005ULL + 1442695040888963407ULL;
      workload::Request req;
      req.id = static_cast<workload::RequestId>(states.size());
      req.input_len = 16;
      req.output_len = 2 + static_cast<int>((lcg >> 33) % 40);
      states.push_back(std::make_unique<RequestState>(req));
      shadow.push_back({step + req.output_len - 1, batch.next_seq()});
      std::push_heap(shadow.begin(), shadow.end(), finishes_later);
      batch.Join(states.back().get());
    }
    if (batch.empty()) {
      continue;
    }
    batch.EndStep();
    ++step;
    batch.PopFinished([&](const DecodeBatch::Member& m) {
      EXPECT_EQ(m.finish, step);
      EXPECT_EQ(m.request->decode_steps_done, m.request->request.output_len - 1);
      ++popped;
    });
    while (!shadow.empty() && shadow.front().finish <= step) {
      std::pop_heap(shadow.begin(), shadow.end(), finishes_later);
      shadow.pop_back();
    }
    ASSERT_EQ(batch.size(), shadow.size()) << "round " << round;
    for (size_t i = 0; i < shadow.size(); ++i) {
      ASSERT_EQ(batch[i].seq, shadow[i].seq) << "round " << round << " position " << i;
    }
  }
  EXPECT_GT(popped, 300);
}

}  // namespace
}  // namespace distserve::engine
