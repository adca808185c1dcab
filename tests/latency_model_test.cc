#include "model/latency_model.h"

#include <gtest/gtest.h>

#include <ostream>
#include <vector>

#include "cluster/gpu_spec.h"
#include "common/rng.h"
#include "model/calibration.h"

namespace distserve::model {

// Prints a model by name. Without it gtest prints the raw bytes of the std::string
// member, a heap pointer that differs from run to run, so the names of the
// parameterized tests below would change on every build.
void PrintTo(const ModelSpec& spec, std::ostream* os) { *os << spec.name; }

namespace {

using cluster::GpuSpec;

class LatencyModelTest : public ::testing::Test {
 protected:
  GpuSpec gpu_ = GpuSpec::A100_80GB();
  ModelSpec spec_ = ModelSpec::Opt13B();
};

TEST_F(LatencyModelTest, BatchWorkloadBuilders) {
  const std::vector<int> lens = {100, 200, 300};
  const BatchWorkload prefill = BatchWorkload::Prefill(lens);
  EXPECT_EQ(prefill.prefill_tokens, 600);
  EXPECT_DOUBLE_EQ(prefill.prefill_sq_tokens, 100.0 * 100 + 200.0 * 200 + 300.0 * 300);
  EXPECT_EQ(prefill.decode_requests, 0);
  EXPECT_FALSE(prefill.empty());

  const BatchWorkload decode = BatchWorkload::Decode(32, 8192);
  EXPECT_EQ(decode.decode_requests, 32);
  EXPECT_EQ(decode.decode_context_tokens, 8192);
  EXPECT_EQ(decode.total_new_tokens(), 32);

  BatchWorkload mixed = prefill;
  mixed += decode;
  EXPECT_EQ(mixed.total_new_tokens(), 632);

  EXPECT_TRUE(BatchWorkload().empty());
}

TEST_F(LatencyModelTest, EmptyBatchTakesZeroTime) {
  const LatencyModel lm(spec_, {1, 1}, gpu_);
  EXPECT_DOUBLE_EQ(lm.FullTime(BatchWorkload()), 0.0);
  EXPECT_DOUBLE_EQ(lm.StageTime(BatchWorkload()), 0.0);
}

TEST_F(LatencyModelTest, PrefillTimeInPlausibleRange) {
  // 13B, 512-token prompt, one A100: tens of milliseconds (the paper's Figure 2 regime).
  const LatencyModel lm(spec_, {1, 1}, gpu_);
  const double t = lm.PrefillFullTime(std::vector<int>{512});
  EXPECT_GT(t, 0.02);
  EXPECT_LT(t, 0.3);
}

TEST_F(LatencyModelTest, PrefillMonotonicInLength) {
  const LatencyModel lm(spec_, {1, 1}, gpu_);
  double prev = 0.0;
  for (int len : {64, 128, 256, 512, 1024, 2048}) {
    const double t = lm.PrefillFullTime(std::vector<int>{len});
    EXPECT_GT(t, prev) << "len=" << len;
    prev = t;
  }
}

TEST_F(LatencyModelTest, PrefillSuperlinearBeyondSaturation) {
  // Past the compute-bound threshold, doubling the prompt more than doubles latency
  // (quadratic attention term), which is why batching long prompts does not help (§3.1).
  const LatencyModel lm(spec_, {1, 1}, gpu_);
  const double t1k = lm.PrefillFullTime(std::vector<int>{1024});
  const double t2k = lm.PrefillFullTime(std::vector<int>{2048});
  EXPECT_GT(t2k, 2.0 * t1k);
}

TEST_F(LatencyModelTest, DecodeMemoryBoundAtSmallBatch) {
  // In the weight-read regime, batch size barely changes the step time: batching is nearly
  // free, the §3.2 motivation for large decode batches.
  const LatencyModel lm(spec_, {1, 1}, gpu_);
  const double b1 = lm.DecodeStepFullTime(1, 512);
  const double b8 = lm.DecodeStepFullTime(8, 8 * 512);
  EXPECT_LT(b8, 1.35 * b1);
  // And the absolute time tracks the weight-read roofline over the transformer layers
  // (~26 GB minus embeddings, read at effective bandwidth).
  const double layer_weight_bytes =
      static_cast<double>(spec_.num_layers) *
      (4.0 * spec_.hidden_size * spec_.hidden_size + 2.0 * spec_.hidden_size * spec_.ffn_size) *
      spec_.dtype_bytes;
  const double weight_read = layer_weight_bytes / gpu_.effective_bandwidth();
  EXPECT_GT(b1, weight_read);
  EXPECT_LT(b1, 1.5 * weight_read);
}

TEST_F(LatencyModelTest, RooflineCrossoverNearSaturationTokens) {
  const LatencyModel lm(spec_, {1, 1}, gpu_);
  const int64_t t_star = lm.ComputeSaturationTokens();
  EXPECT_GT(t_star, 16);
  EXPECT_LT(t_star, 2048);
  // Below t*: decode batches stay weight-bound, so time is flat in B. Above: compute-bound,
  // so time grows ~linearly with B.
  const double below_a = lm.DecodeStepFullTime(t_star / 4, 1);
  const double below_b = lm.DecodeStepFullTime(t_star / 2, 1);
  EXPECT_NEAR(below_a, below_b, 0.15 * below_a);
  const double above_a = lm.DecodeStepFullTime(4 * t_star, 4);
  const double above_b = lm.DecodeStepFullTime(8 * t_star, 8);
  EXPECT_NEAR(above_b / above_a, 2.0, 0.3);
}

TEST_F(LatencyModelTest, InterferenceAddingPrefillToDecodeBatch) {
  // Figure 2: adding a single 512-token prefill to a decode batch massively slows the step.
  const LatencyModel lm(spec_, {1, 1}, gpu_);
  const BatchWorkload pure_decode = BatchWorkload::Decode(32, 32 * 256);
  BatchWorkload with_prefill = pure_decode;
  with_prefill += BatchWorkload::PrefillSingle(512);
  const double slow = lm.FullTime(with_prefill);
  const double fast = lm.FullTime(pure_decode);
  EXPECT_GT(slow, 2.0 * fast);
  // Longer prefill -> worse interference (Figure 2b).
  BatchWorkload with_long_prefill = pure_decode;
  with_long_prefill += BatchWorkload::PrefillSingle(1024);
  EXPECT_GT(lm.FullTime(with_long_prefill), slow);
}

TEST_F(LatencyModelTest, IntraOpSpeedupBetweenOneAndTp) {
  for (int tp : {2, 4, 8}) {
    const LatencyModel lm(spec_, {tp, 1}, gpu_);
    const double k = lm.IntraOpSpeedup(512);
    EXPECT_GT(k, 1.0) << "tp=" << tp;
    EXPECT_LT(k, static_cast<double>(tp)) << "tp=" << tp;
  }
}

TEST_F(LatencyModelTest, FreeCommunicationGivesNearIdealSpeedup) {
  LatencyModel lm(spec_, {2, 1}, gpu_);
  lm.ScaleCollectiveCost(0.0);
  // Without collective cost only the fixed per-step overhead separates K from tp.
  EXPECT_GT(lm.IntraOpSpeedup(512), 1.9);
}

TEST_F(LatencyModelTest, MoreCommunicationLowersSpeedup) {
  LatencyModel cheap(spec_, {2, 1}, gpu_);
  LatencyModel expensive(spec_, {2, 1}, gpu_);
  expensive.ScaleCollectiveCost(10.0);
  EXPECT_LT(expensive.IntraOpSpeedup(512), cheap.IntraOpSpeedup(512));
}

TEST_F(LatencyModelTest, PipelineStageCadence) {
  // With pp stages, the stage time (batch cadence) is ~1/pp of the full time, which is how
  // inter-op parallelism scales throughput linearly (§2.2).
  const LatencyModel whole(spec_, {1, 1}, gpu_);
  const LatencyModel piped(spec_, {1, 2}, gpu_);
  const BatchWorkload batch = BatchWorkload::PrefillSingle(512);
  EXPECT_NEAR(piped.StageTime(batch), whole.FullTime(batch) / 2.0,
              0.1 * whole.FullTime(batch));
  // Full latency through the pipeline stays close to the single-GPU forward time.
  EXPECT_NEAR(piped.FullTime(batch), whole.FullTime(batch), 0.15 * whole.FullTime(batch));
}

TEST_F(LatencyModelTest, UnevenStagesUseCeilLayers) {
  // 40 layers / pp=3 -> 14-layer bottleneck stage; full time = 3 * stage > single-GPU time.
  const LatencyModel whole(spec_, {1, 1}, gpu_);
  const LatencyModel piped(spec_, {1, 3}, gpu_);
  const BatchWorkload batch = BatchWorkload::PrefillSingle(512);
  EXPECT_GT(piped.FullTime(batch), whole.FullTime(batch));
}

TEST_F(LatencyModelTest, CoefficientsFromGpuScaleWithHardware) {
  GpuSpec slow_gpu = gpu_;
  slow_gpu.hbm_bandwidth /= 2.0;
  const LatencyModel fast_lm(spec_, {1, 1}, gpu_);
  const LatencyModel slow_lm(spec_, {1, 1}, slow_gpu);
  // Decode is bandwidth-bound: halving HBM bandwidth roughly doubles the step time.
  const double ratio = slow_lm.DecodeStepFullTime(8, 2048) / fast_lm.DecodeStepFullTime(8, 2048);
  EXPECT_GT(ratio, 1.7);
  EXPECT_LT(ratio, 2.2);
  // Prefill at 512 tokens is compute-bound: bandwidth change barely matters.
  const double pratio = slow_lm.PrefillFullTime(std::vector<int>{512}) /
                        fast_lm.PrefillFullTime(std::vector<int>{512});
  EXPECT_LT(pratio, 1.35);
}

// The engine and the fast sim price decode runs with DecodePricer; its steps must equal the
// scalar FullTime bit for bit, on every coefficient set a model can carry.
TEST_F(LatencyModelTest, DecodePricerBitIdenticalToFullTime) {
  for (const GpuSpec& gpu : {GpuSpec::A100_80GB(), GpuSpec::L4_24GB(), GpuSpec::H100_80GB()}) {
    for (const ModelSpec& spec :
         {ModelSpec::Opt13B(), ModelSpec::Opt66B(), ModelSpec::Opt175B()}) {
      // A calibrated set: coefficients fitted to a noisy profile, not derived from the GPU.
      const LatencyModel truth(spec, {1, 1}, gpu);
      Rng rng(11);
      const auto calibrated = FitCoefficients(spec, {1, 1}, GenerateProfile(truth, rng, 0.05),
                                              truth.coeffs());
      ASSERT_TRUE(calibrated.has_value()) << gpu.name << " " << spec.name;
      for (int tp : {1, 2, 4, 8}) {
        for (int pp : {1, 2, 4}) {
          std::vector<LatencyModel> models;
          models.emplace_back(spec, ParallelismConfig{tp, pp}, gpu);
          models.emplace_back(spec, ParallelismConfig{tp, pp}, gpu);
          models.back().ScaleCollectiveCost(0.0);
          models.emplace_back(spec, ParallelismConfig{tp, pp}, gpu);
          models.back().ScaleCollectiveCost(3.0);
          models.emplace_back(spec, ParallelismConfig{tp, pp}, *calibrated);
          for (size_t variant = 0; variant < models.size(); ++variant) {
            const LatencyModel& lm = models[variant];
            for (int64_t batch : {1, 7, 64, 512}) {
              const DecodeStepPricer pricer = lm.DecodePricer(batch);
              for (int64_t ctx : {int64_t{1}, batch, int64_t{1000000}, int64_t{1} << 40}) {
                EXPECT_EQ(pricer.FullTime(ctx), lm.FullTime(BatchWorkload::Decode(batch, ctx)))
                    << gpu.name << " " << spec.name << " tp=" << tp << " pp=" << pp
                    << " variant=" << variant << " batch=" << batch << " ctx=" << ctx;
              }
            }
          }
        }
      }
    }
  }
}

struct ModelCase {
  ModelSpec spec;
};

class AllModelsLatencyTest : public ::testing::TestWithParam<ModelSpec> {};

TEST_P(AllModelsLatencyTest, TimesPositiveAndOrdered) {
  const GpuSpec gpu = GpuSpec::A100_80GB();
  const ModelSpec spec = GetParam();
  // Use enough sharding that even OPT-175B fits.
  const LatencyModel lm(spec, {8, 2}, gpu);
  const double prefill = lm.PrefillFullTime(std::vector<int>{256});
  const double decode = lm.DecodeStepFullTime(16, 16 * 256);
  EXPECT_GT(prefill, 0.0) << spec.name;
  EXPECT_GT(decode, 0.0) << spec.name;
  // A 256-token prefill outweighs a 16-token decode step on every model (§2.1).
  EXPECT_GT(prefill, decode) << spec.name;
}

TEST_P(AllModelsLatencyTest, LargerModelIsSlower) {
  const GpuSpec gpu = GpuSpec::A100_80GB();
  const ModelSpec spec = GetParam();
  const ModelSpec small = ModelSpec::Opt1_3B();
  if (spec.param_count() <= small.param_count()) {
    GTEST_SKIP();
  }
  const LatencyModel lm(spec, {8, 2}, gpu);
  const LatencyModel small_lm(small, {8, 2}, gpu);
  EXPECT_GT(lm.PrefillFullTime(std::vector<int>{512}),
            small_lm.PrefillFullTime(std::vector<int>{512}));
}

INSTANTIATE_TEST_SUITE_P(OptFamily, AllModelsLatencyTest,
                         ::testing::Values(ModelSpec::Opt1_3B(), ModelSpec::Opt2_7B(),
                                           ModelSpec::Opt6_7B(), ModelSpec::Opt13B(),
                                           ModelSpec::Opt30B(), ModelSpec::Opt66B(),
                                           ModelSpec::Opt175B()),
                         [](const ::testing::TestParamInfo<ModelSpec>& info) {
                           std::string name = info.param.name;
                           for (char& c : name) {
                             if (c == '-' || c == '.') {
                               c = '_';
                             }
                           }
                           return name;
                         });

// Prompt lengths are caller input: a non-positive one aborts in every build.
TEST(BatchWorkloadDeathTest, NonPositivePromptLengthAborts) {
  const std::vector<int> lens{128, 0};
  EXPECT_DEATH(BatchWorkload::Prefill(lens), "len > 0");
}

}  // namespace
}  // namespace distserve::model
