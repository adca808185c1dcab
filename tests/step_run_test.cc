#include "engine/step_run.h"

#include <gtest/gtest.h>

#include "cluster/gpu_spec.h"

namespace distserve::engine {
namespace {

// A decode lane whose run is folded again and again before it ends (DecodeInstance's join
// fold) drops the steps before each fold's boundary every time. Every fold must keep the
// committed steps bit for bit and price the new ones from the end of the step in flight.
TEST(StepRunTest, ChainedFoldsKeepEveryBoundaryAcrossCompactions) {
  const model::LatencyModel lm(model::ModelSpec::Opt13B(), {1, 1},
                               cluster::GpuSpec::A100_80GB());
  StepRun run;
  run.StartDecode(lm, 1.0, /*batch=*/8, /*ctx_tokens=*/4000, kDecodeStepChunk, /*overhead=*/0.0);
  run.CommitStart();
  for (int fold = 0; fold < 200; ++fold) {
    run.CommitStart();  // step 1 starts: step 0 has ended
    const double start = run.start_of(0);
    const double time0 = run.time_of(0);
    const double time1 = run.time_of(1);
    const double end1 = run.end_of(1);
    const int64_t batch = 8 + fold % 5;
    const int64_t ctx_tokens = 4000 + 10 * fold;
    run.FoldDecode(lm, batch, ctx_tokens, kDecodeStepChunk, /*overhead=*/0.0);
    ASSERT_EQ(run.len(), 2 + kDecodeStepChunk);
    EXPECT_EQ(run.start_of(0), start);
    EXPECT_EQ(run.time_of(0), time0);
    EXPECT_EQ(run.time_of(1), time1);
    EXPECT_EQ(run.end_of(1), end1);
    const model::DecodeStepPricer pricer = lm.DecodePricer(batch);
    double now = end1;
    for (int i = 2; i < run.len(); ++i) {
      const double step = pricer.FullTime(ctx_tokens + (i - 2) * batch);
      now += step;
      ASSERT_EQ(run.time_of(i), step) << "fold " << fold << " step " << i;
      ASSERT_EQ(run.end_of(i), now) << "fold " << fold << " step " << i;
      ASSERT_EQ(run.start_of(i), run.end_of(i - 1));
    }
    ASSERT_TRUE(run.AtFold());
    run.DropBeforeFold();  // the boundary becomes step 0
    EXPECT_EQ(run.start_of(0), end1);
    EXPECT_EQ(run.len(), kDecodeStepChunk);
    run.CommitStart();
  }
}

}  // namespace
}  // namespace distserve::engine
