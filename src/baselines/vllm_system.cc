#include "baselines/vllm_system.h"

#include <algorithm>
#include <limits>
#include <string>

#include "common/logging.h"
#include "placement/fast_sim.h"
#include "trace/recorder.h"

namespace distserve::baselines {

VllmSystem::VllmSystem(VllmConfig config) : config_(std::move(config)) {
  DS_CHECK_GE(config_.num_instances, 1);
  if (config_.sim != nullptr) {
    sim_ = config_.sim;
  } else {
    owned_sim_ = std::make_unique<simcore::Simulator>();
    sim_ = owned_sim_.get();
  }
  if (config_.engine_options.cpu_overhead_per_step == 0.0) {
    config_.engine_options.cpu_overhead_per_step = kVllmStepCpuOverhead;
  }
  const model::LatencyCoefficients coeffs =
      config_.coefficients.value_or(model::LatencyCoefficients::FromGpu(config_.cluster.gpu));
  model::LatencyModel lm(config_.model, config_.par, coeffs);
  DS_CHECK(lm.view().FitsInMemory(config_.cluster.gpu))
      << config_.model.name << " with " << config_.par.ToString() << " does not fit GPU memory";
  const int64_t kv_tokens = lm.view().KvCapacityTokens(config_.cluster.gpu);
  for (int i = 0; i < config_.num_instances; ++i) {
    instances_.push_back(std::make_unique<engine::ColocatedInstance>(
        sim_, lm, kv_tokens, config_.engine_options, i));
    // Each outcome releases the request's slot for a later Submit.
    instances_.back()->set_on_complete([this](engine::RequestState* r) {
      collector_.Record(r->record);
      ++completed_;
      if (on_request_done_) {
        on_request_done_(*r);
      }
      states_.Release(r);
    });
    instances_.back()->set_on_cancelled([this](engine::RequestState* r) {
      if (r->phase == engine::RequestPhase::kTimedOut) {
        collector_.RecordTimedOut(r->record);
      } else {
        collector_.RecordCancelled(r->record);
      }
      if (on_request_done_) {
        on_request_done_(*r);
      }
      states_.Release(r);
    });
    instances_.back()->set_on_preempt([this](engine::RequestState*) {
      ++collector_.scenario_stats().decode_preemptions;
    });
  }
  if (config_.recorder != nullptr) {
    for (const auto& inst : instances_) {
      inst->set_recorder(config_.recorder);
      config_.recorder->SetProcessName(trace::ColocatedPid(inst->id()),
                                       "vllm-" + std::to_string(inst->id()));
    }
  }
}

VllmSystem::~VllmSystem() = default;

void VllmSystem::BeginStream(size_t expected_requests) {
  DS_CHECK(!started_) << "a VllmSystem runs once (one Run or one stream): build a new system "
                         "for each";
  started_ = true;
  DS_TRACE(config_.recorder, NewRun());
  collector_.Reserve(expected_requests);
}

void VllmSystem::Submit(const workload::Request& request) {
  engine::RequestState* state = states_.Acquire(request);
  ++submitted_;
  // Least-loaded dispatch across replicas.
  engine::ColocatedInstance* best = instances_.front().get();
  int64_t best_load = std::numeric_limits<int64_t>::max();
  for (const auto& inst : instances_) {
    const int64_t load = inst->load();
    if (load < best_load) {
      best_load = load;
      best = inst.get();
    }
  }
  ScheduleAbandonment(state);
  best->Enqueue(state);
}

void VllmSystem::ScheduleAbandonment(engine::RequestState* request) {
  // Either event may fire after the request's outcome, when its slot may hold a later
  // request; the serial tells them apart.
  const workload::Request& req = request->request;
  const uint64_t serial = states_.serial(request);
  if (req.cancel_at > 0.0) {
    sim_->ScheduleAt(std::max(req.cancel_at, sim_->now()), [this, request, serial] {
      if (states_.serial(request) == serial) {
        CancelRequest(request, /*timed_out=*/false);
      }
    });
  }
  if (req.deadline > 0.0) {
    sim_->ScheduleAt(std::max(req.deadline, sim_->now()), [this, request, serial] {
      if (states_.serial(request) == serial) {
        CancelRequest(request, /*timed_out=*/true);
      }
    });
  }
}

void VllmSystem::CancelRequest(engine::RequestState* request, bool timed_out) {
  if (request->cancel_pending) {
    return;  // an earlier cancel/timeout is already tearing it down
  }
  request->phase =
      timed_out ? engine::RequestPhase::kTimedOut : engine::RequestPhase::kCancelled;
  instances_[static_cast<size_t>(request->prefill_instance)]->Cancel(request);
}

metrics::Collector VllmSystem::FinishStream(double /*end_time*/) {
  DS_CHECK_EQ(completed_ + static_cast<int64_t>(collector_.NeverCompletedCount()),
              submitted_)
      << "requests lost in flight: the vLLM simulation deadlocked";
  return std::move(collector_);
}

metrics::Collector VllmSystem::Run(const workload::Trace& trace) {
  BeginStream(trace.size());
  sim_->StreamArrivals(
      trace.size(), [&trace](size_t i) { return trace[i].arrival_time; },
      [this, &trace](size_t i) { Submit(trace[i]); });
  sim_->Run();
  return FinishStream(sim_->now());
}

namespace {

// Goodput of one colocated instance via the fast simulator: vLLM's prefill-priority schedule
// when `chunk_budget` is 0, the chunk-budget scheduler otherwise.
double SimulateOneInstanceGoodput(const placement::PlannerInputs& inputs,
                                  const model::ParallelismConfig& par, int64_t chunk_budget) {
  DS_CHECK(inputs.dataset != nullptr);
  DS_CHECK_EQ(par.pp, 1);
  const model::LatencyModel lm(inputs.model, par, inputs.cluster.gpu);
  const model::ShardedModelView view(inputs.model, par);
  if (!view.FitsInMemory(inputs.cluster.gpu)) {
    return 0.0;
  }
  placement::ColocatedFastConfig fast;
  fast.num_instances = 1;
  fast.chunk_budget = chunk_budget;
  fast.cpu_overhead_per_step = kVllmStepCpuOverhead;
  fast.kv_capacity_tokens = view.KvCapacityTokens(inputs.cluster.gpu);
  if (fast.kv_capacity_tokens <= 0) {
    return 0.0;
  }
  placement::GoodputSearchOptions search = inputs.search;
  search.attainment_target = inputs.attainment_target;
  // Joint TTFT+TPOT attainment over the whole trace: no early exit.
  auto passes = [&](const workload::Trace& trace) {
    const std::vector<placement::FastRecord> records =
        placement::SimulateColocated(lm, trace, fast);
    return placement::FastAttainment(records, inputs.slo).both >= search.attainment_target;
  };
  return placement::FindMaxRate(passes, *inputs.dataset, search);
}

}  // namespace

double SimulateColocatedGoodput(const placement::PlannerInputs& inputs,
                                const model::ParallelismConfig& par) {
  return SimulateOneInstanceGoodput(inputs, par, /*chunk_budget=*/0);
}

ColocatedSearchResult FindBestColocatedConfig(const placement::PlannerInputs& inputs) {
  ColocatedSearchResult best;
  for (int tp = 1; tp <= inputs.cluster.gpus_per_node; tp *= 2) {
    const model::ParallelismConfig par{tp, 1};
    const double goodput = SimulateColocatedGoodput(inputs, par);
    const double per_gpu = goodput / static_cast<double>(par.num_gpus());
    if (per_gpu > best.per_gpu) {
      best = ColocatedSearchResult{par, goodput, per_gpu};
    }
  }
  return best;
}

double SimulateChunkedGoodput(const placement::PlannerInputs& inputs,
                              const model::ParallelismConfig& par, int64_t chunk_budget) {
  DS_CHECK_GT(chunk_budget, 0);
  return SimulateOneInstanceGoodput(inputs, par, chunk_budget);
}

ChunkedSearchResult FindBestChunkedConfig(const placement::PlannerInputs& inputs) {
  static constexpr int64_t kBudgets[] = {256, 512, 1024, 2048};
  ChunkedSearchResult best;
  for (int tp = 1; tp <= inputs.cluster.gpus_per_node; tp *= 2) {
    const model::ParallelismConfig par{tp, 1};
    for (const int64_t budget : kBudgets) {
      const double goodput = SimulateChunkedGoodput(inputs, par, budget);
      const double per_gpu = goodput / static_cast<double>(par.num_gpus());
      if (per_gpu > best.per_gpu) {
        best = ChunkedSearchResult{par, budget, goodput, per_gpu};
      }
    }
  }
  return best;
}

}  // namespace distserve::baselines
