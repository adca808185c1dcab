// The vLLM baseline (§6.1) and its variants.
//
// vLLM colocates prefill and decoding on each instance with continuous batching and
// PagedAttention-style block memory; the paper configures intra-op parallelism 1/4/8 for
// OPT-13B/66B/175B and replicates instances. "vLLM++" (§6.4) additionally searches the
// parallelism degree for the best per-GPU goodput. The SARATHI-style chunked-prefill variant
// (§2.2's "advanced variant of continuous batching") splits prompts into chunks piggybacked on
// decode steps, trading TTFT for TPOT.
#ifndef DISTSERVE_BASELINES_VLLM_SYSTEM_H_
#define DISTSERVE_BASELINES_VLLM_SYSTEM_H_

#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "cluster/topology.h"
#include "common/chunked_store.h"
#include "engine/colocated_instance.h"
#include "engine/request_state.h"
#include "metrics/collector.h"
#include "placement/algorithms.h"
#include "simcore/simulator.h"
#include "workload/request.h"

namespace distserve::trace {
class Recorder;
}

namespace distserve::baselines {

// Measured per-iteration CPU overhead of the Python-scheduled vLLM the paper evaluates
// (scheduler + sampler host work); applied to both the engine-level baseline and its fast
// simulator so Table 2 compares like with like.
inline constexpr double kVllmStepCpuOverhead = 1.5e-3;

struct VllmConfig {
  model::ModelSpec model;
  cluster::ClusterSpec cluster;
  // vLLM supports intra-op parallelism only (pp must stay 1).
  model::ParallelismConfig par{1, 1};
  int num_instances = 1;
  engine::ColocatedInstance::Options engine_options;
  std::optional<model::LatencyCoefficients> coefficients;

  // Optional per-request span recorder (trace/recorder.h, DESIGN.md §14); null records
  // nothing. Must outlive the system.
  trace::Recorder* recorder = nullptr;

  // Optional external simulator (DESIGN.md §17): null gives the system its own private clock;
  // a fleet run passes one shard of a simcore::ShardedSimulator instead. Must outlive the
  // system; with an external simulator the caller drives it (Run() is standalone-only).
  simcore::Simulator* sim = nullptr;
};

// Engine-level DES run of one or more colocated instances with least-loaded dispatch.
class VllmSystem {
 public:
  explicit VllmSystem(VllmConfig config);

  VllmSystem(const VllmSystem&) = delete;
  VllmSystem& operator=(const VllmSystem&) = delete;
  ~VllmSystem();

  // Replays the trace to completion. Arrival times must not decrease (a trace that does
  // aborts, naming the offending index). A system runs once: a second Run, or a Run after
  // streaming, aborts, since the clock would carry over from the first run. Build a new
  // system for each trace.
  metrics::Collector Run(const workload::Trace& trace);

  // --- Streaming interface (fleet runs over an external simulator; serving/fleet.h) ---
  // Mirrors serving::ServingSystem's: Run() is BeginStream + the trace's arrivals streamed
  // through Simulator::StreamArrivals (each calling Submit) + drive the simulator +
  // FinishStream, bit-identical to one ScheduleAt per request up front.

  // Starts the stream; call before scheduling any arrivals. A system streams once, like it
  // runs once: a second BeginStream aborts.
  void BeginStream(size_t expected_requests);

  // Admits one request at the simulator's current time with least-loaded dispatch across
  // replicas. Its state occupies one of this system's slots until the request completes or
  // is cancelled; the slot then goes to a later request (serving::ServingSystem's rule).
  void Submit(const workload::Request& request);

  // Completes the stream, verifies nothing was dropped, and yields the records. The baseline
  // has no fault plan, so `end_time` is unused beyond the interface symmetry.
  metrics::Collector FinishStream(double end_time);

  // Fired when a request completes, is cancelled or times out, from within the simulation.
  // Fleet routers use this to post completion notifications across shards. The state is
  // released right after the call: do not keep a reference.
  void set_on_request_done(std::function<void(const engine::RequestState&)> fn) {
    on_request_done_ = std::move(fn);
  }

  // Interface symmetry with ServingSystem: the fault-free baseline is always serviceable.
  bool Serviceable() const { return true; }

  const std::vector<std::unique_ptr<engine::ColocatedInstance>>& instances() const {
    return instances_;
  }
  int total_gpus() const { return config_.par.num_gpus() * config_.num_instances; }
  const simcore::Simulator& simulator() const { return *sim_; }

 private:
  // Scenario machinery: schedules the request's cancel_at / deadline events (no-ops when
  // both are 0) and routes the teardown to the owning replica.
  void ScheduleAbandonment(engine::RequestState* request);
  void CancelRequest(engine::RequestState* request, bool timed_out);

  VllmConfig config_;
  std::unique_ptr<simcore::Simulator> owned_sim_;  // standalone mode only
  simcore::Simulator* sim_ = nullptr;              // owned_sim_ or config_.sim
  std::vector<std::unique_ptr<engine::ColocatedInstance>> instances_;
  ChunkedStore<engine::RequestState> states_;  // one slot per request in flight
  metrics::Collector collector_;
  std::function<void(const engine::RequestState&)> on_request_done_;
  int64_t completed_ = 0;
  int64_t submitted_ = 0;
  bool started_ = false;   // BeginStream was called (a system runs or streams once)
};

// Per-instance goodput of a colocated configuration under joint TTFT+TPOT SLOs, using the
// fast colocated simulator (resample + binary search, like the placement algorithms).
double SimulateColocatedGoodput(const placement::PlannerInputs& inputs,
                                const model::ParallelismConfig& par);

// "vLLM++": enumerate intra-op degrees {1, 2, 4, 8, ...} up to a node and return the per-GPU
// goodput-optimal configuration with its goodput.
struct ColocatedSearchResult {
  model::ParallelismConfig par{1, 1};
  double goodput = 0.0;   // per instance
  double per_gpu = 0.0;
};
ColocatedSearchResult FindBestColocatedConfig(const placement::PlannerInputs& inputs);

// Chunked-prefill colocation (SARATHI-style, §2.2's "advanced variant"): per-instance goodput
// of one colocated instance running the chunk-budget scheduler, via the fast simulator. The
// same step CPU overhead as the vLLM baseline applies (both are Python-scheduled systems).
double SimulateChunkedGoodput(const placement::PlannerInputs& inputs,
                              const model::ParallelismConfig& par, int64_t chunk_budget);

// Enumerates intra-op degree × chunk budget for the best per-GPU goodput — the chunked
// analogue of vLLM++'s search, with the token budget as an extra searchable knob.
struct ChunkedSearchResult {
  model::ParallelismConfig par{1, 1};
  int64_t chunk_budget = 0;
  double goodput = 0.0;  // per instance
  double per_gpu = 0.0;
};
ChunkedSearchResult FindBestChunkedConfig(const placement::PlannerInputs& inputs);

}  // namespace distserve::baselines

#endif  // DISTSERVE_BASELINES_VLLM_SYSTEM_H_
