// Parameterized property tests: engine invariants across the model family, parallelism
// configurations, scheduling modes, and traffic shapes.
//
// Invariants checked on every combination:
//   * conservation: every submitted request completes exactly once;
//   * monotone per-request timeline (arrival <= prefill_start < first_token <= ... <= done);
//   * memory hygiene: all KV blocks released at drain;
//   * work accounting: decode generates exactly sum(output_len - 1) tokens.
#include <gtest/gtest.h>

#include <memory>
#include <tuple>

#include "baselines/vllm_system.h"
#include "serving/serving_system.h"
#include "workload/generator.h"

namespace distserve {
namespace {

using DisaggParam = std::tuple<model::ModelSpec, model::ParallelismConfig,
                               model::ParallelismConfig, double /*burst cv*/>;

class DisaggregatedPropertyTest : public ::testing::TestWithParam<DisaggParam> {};

TEST_P(DisaggregatedPropertyTest, InvariantsHold) {
  const auto& [spec, prefill_par, decode_par, cv] = GetParam();
  const cluster::ClusterSpec cluster = cluster::ClusterSpec::PaperTestbed();

  serving::ServingConfig config;
  config.model = spec;
  config.cluster = cluster;
  config.plan.prefill_par = prefill_par;
  config.plan.decode_par = decode_par;
  config.plan.num_prefill = 1;
  config.plan.num_decode = 1;
  config.plan.intra_node_transfers = true;
  serving::ServingSystem system(config);

  const auto dataset = workload::MakeShareGptLike();
  workload::TraceSpec trace_spec;
  trace_spec.rate = 4.0;
  trace_spec.num_requests = 300;
  trace_spec.seed = 17;
  trace_spec.burstiness_cv = cv;
  const workload::Trace trace = workload::GenerateTrace(trace_spec, *dataset);

  const metrics::Collector results = system.Run(trace);
  ASSERT_EQ(results.count(), trace.size());

  int64_t expected_decode_tokens = 0;
  for (const workload::Request& r : trace) {
    expected_decode_tokens += r.output_len - 1;
  }
  int64_t generated = 0;
  for (const auto& d : system.decode_instances()) {
    generated += d->tokens_generated();
    EXPECT_EQ(d->kv().used_blocks(), 0);
    EXPECT_EQ(d->resident_requests(), 0);
  }
  EXPECT_EQ(generated, expected_decode_tokens);
  for (const auto& p : system.prefill_instances()) {
    EXPECT_EQ(p->kv().used_blocks(), 0);
    EXPECT_EQ(p->queue_length(), 0u);
  }
  for (const metrics::RequestRecord& r : results.records()) {
    EXPECT_GE(r.prefill_start, r.arrival);
    EXPECT_GT(r.first_token, r.prefill_start);
    EXPECT_GE(r.transfer_start, r.first_token);
    EXPECT_GE(r.transfer_end, r.transfer_start);
    EXPECT_GE(r.decode_start, r.transfer_end);
    EXPECT_GE(r.completion, r.decode_start);
  }
}

std::string DisaggName(const ::testing::TestParamInfo<DisaggParam>& info) {
  const model::ModelSpec& spec = std::get<0>(info.param);
  const model::ParallelismConfig& p = std::get<1>(info.param);
  const model::ParallelismConfig& d = std::get<2>(info.param);
  const double cv = std::get<3>(info.param);
  std::string name = spec.name + "_P" + std::to_string(p.tp) + "x" + std::to_string(p.pp) +
                     "_D" + std::to_string(d.tp) + "x" + std::to_string(d.pp) + "_cv" +
                     std::to_string(static_cast<int>(cv));
  for (char& c : name) {
    if (c == '-' || c == '.') {
      c = '_';
    }
  }
  return name;
}

INSTANTIATE_TEST_SUITE_P(
    ConfigGrid, DisaggregatedPropertyTest,
    ::testing::Values(
        DisaggParam{model::ModelSpec::Opt13B(), {1, 1}, {1, 1}, 1.0},
        DisaggParam{model::ModelSpec::Opt13B(), {2, 1}, {1, 2}, 1.0},
        DisaggParam{model::ModelSpec::Opt13B(), {1, 4}, {4, 1}, 1.0},
        DisaggParam{model::ModelSpec::Opt13B(), {1, 1}, {1, 1}, 4.0},
        DisaggParam{model::ModelSpec::Opt13B(), {2, 2}, {2, 2}, 4.0},
        DisaggParam{model::ModelSpec::Opt2_7B(), {1, 1}, {1, 1}, 1.0},
        DisaggParam{model::ModelSpec::Opt6_7B(), {2, 1}, {1, 1}, 2.0},
        DisaggParam{model::ModelSpec::Opt66B(), {4, 1}, {2, 2}, 1.0},
        DisaggParam{model::ModelSpec::Opt66B(), {4, 2}, {4, 2}, 4.0},
        DisaggParam{model::ModelSpec::Opt175B(), {8, 1}, {4, 2}, 1.0}),
    DisaggName);

using ColocParam =
    std::tuple<engine::ColocatedInstance::Options::SchedulingMode, int /*tp*/, double /*cv*/>;

class ColocatedPropertyTest : public ::testing::TestWithParam<ColocParam> {};

TEST_P(ColocatedPropertyTest, InvariantsHold) {
  const auto& [mode, tp, cv] = GetParam();
  baselines::VllmConfig config;
  config.model = model::ModelSpec::Opt13B();
  config.cluster = cluster::ClusterSpec::PaperTestbed();
  config.par = {tp, 1};
  config.num_instances = 2;
  config.engine_options.mode = mode;
  config.engine_options.chunk_budget = 128;
  baselines::VllmSystem system(std::move(config));

  const auto dataset = workload::MakeShareGptLike();
  workload::TraceSpec trace_spec;
  trace_spec.rate = 5.0;
  trace_spec.num_requests = 300;
  trace_spec.seed = 23;
  trace_spec.burstiness_cv = cv;
  const workload::Trace trace = workload::GenerateTrace(trace_spec, *dataset);
  const metrics::Collector results = system.Run(trace);
  ASSERT_EQ(results.count(), trace.size());
  for (const auto& inst : system.instances()) {
    EXPECT_EQ(inst->kv().used_blocks(), 0);
    EXPECT_EQ(inst->waiting_count(), 0u);
  }
  for (const metrics::RequestRecord& r : results.records()) {
    EXPECT_GE(r.prefill_start, r.arrival);
    EXPECT_GE(r.first_token, r.prefill_start);
    EXPECT_GE(r.completion, r.first_token);
  }
}

std::string ColocName(const ::testing::TestParamInfo<ColocParam>& info) {
  const auto mode = std::get<0>(info.param);
  const int tp = std::get<1>(info.param);
  const double cv = std::get<2>(info.param);
  const char* mode_name =
      mode == engine::ColocatedInstance::Options::SchedulingMode::kPrefillPriority
          ? "PrefillPrio"
          : "Chunked";
  return std::string(mode_name) + "_tp" + std::to_string(tp) + "_cv" +
         std::to_string(static_cast<int>(cv));
}

INSTANTIATE_TEST_SUITE_P(
    ModeGrid, ColocatedPropertyTest,
    ::testing::Combine(
        ::testing::Values(
            engine::ColocatedInstance::Options::SchedulingMode::kPrefillPriority,
            engine::ColocatedInstance::Options::SchedulingMode::kChunked),
        ::testing::Values(1, 2), ::testing::Values(1.0, 4.0)),
    ColocName);

// Determinism across the whole grid: identical (seed, config) -> identical timelines.
TEST(EnginePropertyTest, CrossConfigDeterminism) {
  const auto dataset = workload::MakeShareGptLike();
  workload::TraceSpec spec;
  spec.rate = 6.0;
  spec.num_requests = 400;
  spec.seed = 101;
  const workload::Trace trace = workload::GenerateTrace(spec, *dataset);
  auto run_once = [&] {
    serving::ServingConfig config;
    config.model = model::ModelSpec::Opt13B();
    config.cluster = cluster::ClusterSpec::PaperTestbed();
    config.plan.prefill_par = {2, 1};
    config.plan.decode_par = {1, 2};
    config.plan.num_prefill = 2;
    config.plan.num_decode = 2;
    config.plan.intra_node_transfers = true;
    serving::ServingSystem system(config);
    const metrics::Collector collector = system.Run(trace);
    double digest = 0.0;
    for (const metrics::RequestRecord& r : collector.records()) {
      digest += r.completion + 3.0 * r.first_token;
    }
    return digest;
  };
  EXPECT_DOUBLE_EQ(run_once(), run_once());
}

}  // namespace
}  // namespace distserve
