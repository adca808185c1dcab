#include "placement/fast_sim.h"

#include <algorithm>
#include <deque>
#include <limits>
#include <span>

#include "common/logging.h"
#include "engine/batch_former.h"

namespace distserve::placement {

using model::BatchWorkload;

namespace {

// A read-only view of a trace through an index vector: a round-robin instance reads the
// shared trace in place instead of a per-probe copy of its sub-trace.
class TraceView {
 public:
  explicit TraceView(const workload::Trace& trace) : trace_(&trace) {}
  TraceView(const workload::Trace& trace, std::span<const size_t> idx)
      : trace_(&trace), idx_(idx), identity_(false) {}

  size_t size() const { return identity_ ? trace_->size() : idx_.size(); }
  const workload::Request& operator[](size_t k) const {
    return (*trace_)[identity_ ? k : idx_[k]];
  }
  // Position of view element `k` in the underlying trace.
  size_t global(size_t k) const { return identity_ ? k : idx_[k]; }

 private:
  const workload::Trace* trace_;
  std::span<const size_t> idx_;
  bool identity_ = true;
};

// The fast sim's prefill queue at a launch: the view's requests from `next` on that arrived
// by `launch`, in trace order (FormPrefillBatch's queue).
class ArrivedBy {
 public:
  ArrivedBy(const TraceView& trace, size_t next, double launch)
      : trace_(trace), next_(next), launch_(launch) {}
  bool empty() const { return next_ == trace_.size() || trace_[next_].arrival_time > launch_; }
  const workload::Request* front() const { return &trace_[next_]; }
  void pop_front() { ++next_; }
  size_t next() const { return next_; }

 private:
  const TraceView& trace_;
  size_t next_;
  double launch_;
};

// FormPrefillBatch's batch in the fast sim: its members are the run ArrivedBy popped, so only
// their count is kept.
struct BatchCount {
  int n = 0;
  void clear() { n = 0; }
  size_t size() const { return static_cast<size_t>(n); }
  bool empty() const { return n == 0; }
  void push_back(const workload::Request*) { ++n; }
};

// The prefill instance's loop. `sink(k, finish)` receives view element k's absolute
// first-token time, in view order; the loop stops early when the sink returns false.
template <typename Sink>
void PrefillFinishTimesView(const model::LatencyModel& lm, const TraceView& trace,
                            int64_t target_tokens, int max_batch_size, Sink&& sink) {
  const engine::PrefillBatchPolicy policy{target_tokens, max_batch_size};
  const auto no_memory_bound = [](int64_t) { return true; };
  engine::PipelineCadence cadence(lm.par().pp);
  BatchCount batch;
  size_t i = 0;
  while (i < trace.size()) {
    const double launch = std::max(trace[i].arrival_time, cadence.stage0_free_at());
    ArrivedBy arrived(trace, i, launch);
    BatchWorkload workload;
    engine::FormPrefillBatch(arrived, policy, no_memory_bound, &batch, &workload);
    const double entry = cadence.Enter(launch, lm.StageTime(workload));
    const double batch_finish = entry + lm.FullTime(workload);
    for (; i < arrived.next(); ++i) {
      if (!sink(i, batch_finish)) {
        return;
      }
    }
  }
}

// DecodeBatch members in the fast sim: positions in a trace view, which keep no progress.
struct ViewRefs {
  using Ref = size_t;
  const TraceView* trace;
  int64_t StepsLeft(size_t k) const { return (*trace)[k].output_len - 1; }
  int64_t FinalContext(size_t k) const { return (*trace)[k].total_len(); }
  void Leave(size_t, int64_t) const {}
};
using ViewDecodeBatch = engine::BasicDecodeBatch<ViewRefs>;

// The decode instance's loop. `sink(k, tpot)` receives view element k's TPOT once it is known
// (0 for single-token outputs, infinite for requests that never fit); the loop stops early
// when the sink returns false.
template <typename Sink>
void DecodeTpotsView(const model::LatencyModel& lm, int64_t kv_capacity_tokens,
                     const TraceView& trace, std::span<const double> ready_times,
                     int max_batch_size, Sink&& sink) {
  DS_CHECK_EQ(trace.size(), ready_times.size());
  DS_CHECK_GT(max_batch_size, 0);

  // Admission order: by readiness (FCFS at the decode instance). Requests whose full context
  // can never fit this pool score an infinite TPOT — the configuration simply cannot serve
  // them, which the goodput search turns into a low attainment rather than an error.
  std::vector<size_t> order;
  order.reserve(trace.size());
  for (size_t i = 0; i < trace.size(); ++i) {
    if (trace[i].output_len < 2) {
      if (!sink(i, 0.0)) {
        return;
      }
      continue;
    }
    if (trace[i].total_len() > kv_capacity_tokens) {
      if (!sink(i, std::numeric_limits<double>::infinity())) {
        return;
      }
      continue;
    }
    order.push_back(i);
  }
  // Arrival-time callers (SimulateDecodeRate) pass sorted readiness, which needs no sort.
  const auto by_readiness = [&](size_t a, size_t b) { return ready_times[a] < ready_times[b]; };
  if (!std::is_sorted(order.begin(), order.end(), by_readiness)) {
    std::stable_sort(order.begin(), order.end(), by_readiness);
  }

  ViewDecodeBatch batch(ViewRefs{&trace});
  batch.reserve(static_cast<size_t>(max_batch_size));
  const int pp = lm.par().pp;
  size_t next = 0;
  double now = 0.0;
  int64_t used_tokens = 0;

  while (next < order.size() || !batch.empty()) {
    if (batch.empty()) {
      now = std::max(now, ready_times[order[next]]);
    }
    // Admit ready requests while memory and the batch cap allow.
    while (next < order.size() && ready_times[order[next]] <= now &&
           static_cast<int>(batch.size()) < max_batch_size) {
      const size_t idx = order[next];
      const int64_t need = trace[idx].total_len();
      if (used_tokens + need > kv_capacity_tokens) {
        break;
      }
      used_tokens += need;
      batch.Join(idx);
      ++next;
    }
    if (batch.empty()) {
      continue;  // jump to the next ready time at loop head
    }
    const int64_t members = static_cast<int64_t>(batch.size());
    const int64_t lane_batch = (members + pp - 1) / pp;

    // Run-batched stepping: between membership changes the batch is fixed, so one
    // DecodeStepPricer prices the whole run. It is bit-identical to a per-step scalar loop
    // (tiered_search_test keeps one as the reference): the pricer mirrors FullTime, `now`
    // sums the steps in the same order, and the run stops where the scalar loop's admission
    // check would fire, at a completion or once `now` reaches the next admissible ready time
    // (nothing else in the admission condition moves during a run).
    const int64_t run = batch.StepsToNextFinish();
    const bool admit_pending =
        next < order.size() && static_cast<int>(batch.size()) < max_batch_size &&
        used_tokens + trace[order[next]].total_len() <= kv_capacity_tokens;
    const double next_ready = admit_pending ? ready_times[order[next]] : 0.0;
    const model::DecodeStepPricer pricer = lm.DecodePricer(lane_batch);
    for (int64_t stepped = 0; stepped < run; ++stepped) {
      now += pricer.FullTime(std::max<int64_t>(batch.ctx_tokens() / pp, 1));
      batch.EndStep();
      if (admit_pending && next_ready <= now) {
        break;  // the scalar loop would admit before the next step; back to the head
      }
    }
    // Completions can only happen when the run ran to its completion bound (an admission cut
    // leaves everyone with tokens to go). TPOT is measured from first-token readiness, so
    // admission queueing counts toward it (matching RequestRecord::Tpot in the engine
    // runtime).
    bool open = true;
    batch.PopFinished([&](const ViewDecodeBatch::Member& m) {
      if (open) {
        open = sink(m.request, (now - ready_times[m.request]) /
                                   static_cast<double>(trace[m.request].output_len - 1));
      }
      used_tokens -= trace[m.request].total_len();
    });
    if (!open) {
      return;
    }
  }
}

// Single colocated instance over a trace view; writes results through the view's global
// positions.
void SimulateColocatedOne(const model::LatencyModel& lm, const TraceView& trace,
                          const ColocatedFastConfig& config,
                          std::vector<FastRecord>& records) {
  // Chunked mode: an admitted prompt whose compute window has advanced to `done` tokens
  // (starting at the cached prefix).
  struct Prefilling {
    size_t local_idx;
    int64_t done;
  };
  std::deque<size_t> waiting;
  std::deque<Prefilling> prefilling;  // chunked mode only
  // Resident decodes. The batch steps only on steps where decodes advance. A member's
  // record holds its first-token time in `tpot` until its last token.
  ViewDecodeBatch decoding(ViewRefs{&trace});
  decoding.reserve(static_cast<size_t>(config.max_batch_size));
  std::vector<size_t> prefilled_now;  // prompts completing this step (cleared per step)
  size_t next_arrival = 0;
  double now = 0.0;
  int64_t used_tokens = 0;
  const bool chunked = config.chunk_budget > 0;

  // Arrivals join the waiting queue, except that one whose full context can never fit this
  // configuration is unserveable and fails both SLOs.
  auto pull_arrivals = [&] {
    for (; next_arrival < trace.size() && trace[next_arrival].arrival_time <= now;
         ++next_arrival) {
      if (trace[next_arrival].total_len() > config.kv_capacity_tokens) {
        const double never = std::numeric_limits<double>::infinity();
        records[trace.global(next_arrival)] = FastRecord{never, never};
      } else {
        waiting.push_back(next_arrival);
      }
    }
  };

  while (true) {
    pull_arrivals();
    if (waiting.empty() && prefilling.empty() && decoding.empty()) {
      if (next_arrival >= trace.size()) {
        break;
      }
      now = trace[next_arrival].arrival_time;
      continue;
    }

    // Step formation: decodes plus admitted whole prompts under the token budget.
    BatchWorkload workload;
    prefilled_now.clear();
    int64_t prefill_tokens = 0;
    bool decodes_advance = false;
    if (chunked) {
      // Sarathi-style token budget (mirroring ColocatedInstance's kChunked + chunk_budget):
      // resident decodes claim one token each; prompt chunks from as many prompts as fit
      // fill the remainder, FCFS in admission order. Decodes always advance.
      while (!waiting.empty() &&
             static_cast<int>(decoding.size() + prefilling.size()) < config.max_batch_size) {
        const size_t idx = waiting.front();
        const int64_t need = trace[idx].total_len();
        if (used_tokens + need > config.kv_capacity_tokens) {
          break;
        }
        used_tokens += need;
        waiting.pop_front();
        prefilling.push_back(
            Prefilling{idx, static_cast<int64_t>(trace[idx].cached_prefix_len)});
      }
      int64_t budget = config.chunk_budget - static_cast<int64_t>(decoding.size());
      auto it = prefilling.begin();
      while (budget > 0 && it != prefilling.end()) {
        const int64_t remaining = trace[it->local_idx].input_len - it->done;
        const int64_t chunk = std::min(remaining, budget);
        // Chunk attention reads the whole window so far: ~ chunk * (done + chunk) pairs.
        workload.prefill_tokens += chunk;
        workload.prefill_sq_tokens +=
            static_cast<double>(chunk) *
            (static_cast<double>(it->done) + static_cast<double>(chunk));
        it->done += chunk;
        prefill_tokens += chunk;
        budget -= chunk;
        if (it->done == trace[it->local_idx].input_len) {
          prefilled_now.push_back(it->local_idx);
          it = prefilling.erase(it);
        } else {
          ++it;
        }
      }
      decodes_advance = !decoding.empty();
    } else {
      while (!waiting.empty() &&
             static_cast<int>(decoding.size() + prefilled_now.size()) <
                 config.max_batch_size) {
        const size_t idx = waiting.front();
        const int64_t need = trace[idx].total_len();
        if (used_tokens + need > config.kv_capacity_tokens) {
          break;
        }
        // Budgeted tokens are the computed ones (a cached prefix costs no step time),
        // mirroring the colocated engine's admission arithmetic.
        const int64_t computed = trace[idx].input_len - trace[idx].cached_prefix_len;
        if (!prefilled_now.empty() &&
            prefill_tokens + computed > config.max_prefill_tokens_per_step) {
          break;
        }
        used_tokens += need;
        waiting.pop_front();
        workload.prefill_tokens += computed;
        workload.prefill_sq_tokens +=
            static_cast<double>(computed) * static_cast<double>(trace[idx].input_len);
        prefill_tokens += computed;
        prefilled_now.push_back(idx);
      }
      // Prefill-priority scheduling (matching the vLLM engine baseline): a step carrying
      // prefill work is prefill-only and stalls resident decodes.
      decodes_advance = decoding.empty() ? false : prefilled_now.empty();
    }
    if (decodes_advance) {
      workload.decode_requests = static_cast<int64_t>(decoding.size());
      workload.decode_context_tokens = decoding.ctx_tokens();
    }

    if (workload.empty()) {
      // Memory-stalled with nothing running cannot happen (used_tokens would be 0);
      // we are waiting for the next arrival.
      DS_CHECK(next_arrival < trace.size());
      now = trace[next_arrival].arrival_time;
      continue;
    }

    now += lm.FullTime(workload) + config.cpu_overhead_per_step;

    // Decode advancement (skipped on prefill-only steps): every resident context grows by
    // one, and the members whose finish step this is depart with their full context.
    if (decodes_advance) {
      decoding.EndStep();
      decoding.PopFinished([&](const ViewDecodeBatch::Member& m) {
        FastRecord& record = records[trace.global(m.request)];
        record.tpot = (now - record.tpot) / static_cast<double>(trace[m.request].output_len - 1);
        used_tokens -= trace[m.request].total_len();
      });
    }

    // Prompts finished this step.
    for (size_t idx : prefilled_now) {
      records[trace.global(idx)].ttft = now - trace[idx].arrival_time;
      if (trace[idx].output_len <= 1) {
        used_tokens -= trace[idx].total_len();
      } else {
        records[trace.global(idx)].tpot = now;  // its first-token time, until it finishes
        decoding.Join(idx);
      }
    }
  }
}

// Round-robin split: indices of the requests instance `inst` of `count` serves.
std::vector<size_t> RoundRobinIndices(size_t trace_size, int inst, int count) {
  std::vector<size_t> idx;
  idx.reserve(trace_size / static_cast<size_t>(count) + 1);
  for (size_t i = static_cast<size_t>(inst); i < trace_size;
       i += static_cast<size_t>(count)) {
    idx.push_back(i);
  }
  return idx;
}

}  // namespace

metrics::Attainment FastAttainment(const std::vector<FastRecord>& records,
                                   const metrics::SloSpec& slo) {
  metrics::Attainment result;
  if (records.empty()) {
    return result;
  }
  int64_t both = 0;
  int64_t ttft_ok = 0;
  int64_t tpot_ok = 0;
  for (const FastRecord& r : records) {
    const bool t_ok = r.ttft <= slo.ttft;
    const bool p_ok = r.tpot <= slo.tpot;
    both += (t_ok && p_ok) ? 1 : 0;
    ttft_ok += t_ok ? 1 : 0;
    tpot_ok += p_ok ? 1 : 0;
  }
  const double n = static_cast<double>(records.size());
  result.both = both / n;
  result.ttft_only = ttft_ok / n;
  result.tpot_only = tpot_ok / n;
  return result;
}

SloVerdict::SloVerdict(int64_t n, double target) : n_(n) {
  DS_CHECK_GE(n, 0);
  if (n == 0) {
    need_ok_ = 0.0 >= target ? 0 : 1;  // an empty probe attains 0
    return;
  }
  // double(k) / double(n) is non-decreasing in k (division rounds monotonically), so the
  // smallest passing k is a binary search; n + 1 means no k <= n passes.
  const double dn = static_cast<double>(n);
  int64_t lo = 0;
  int64_t hi = n + 1;
  while (lo < hi) {
    const int64_t mid = lo + (hi - lo) / 2;
    if (static_cast<double>(mid) / dn >= target) {
      hi = mid;
    } else {
      lo = mid + 1;
    }
  }
  need_ok_ = lo;
}

std::vector<double> SimulatePrefillFinishTimes(const model::LatencyModel& lm,
                                               const workload::Trace& trace,
                                               int64_t target_tokens, int max_batch_size) {
  DS_CHECK_GT(target_tokens, 0);
  DS_CHECK_GT(max_batch_size, 0);
  std::vector<double> finish(trace.size(), 0.0);
  PrefillFinishTimesView(lm, TraceView(trace), target_tokens, max_batch_size,
                         [&](size_t i, double f) {
                           finish[i] = f;
                           return true;
                         });
  return finish;
}

std::vector<double> SimulateDecodeTpots(const model::LatencyModel& lm,
                                        int64_t kv_capacity_tokens,
                                        const workload::Trace& trace,
                                        const std::vector<double>& ready_times,
                                        int max_batch_size) {
  std::vector<double> tpot(trace.size(), 0.0);
  DecodeTpotsView(lm, kv_capacity_tokens, TraceView(trace), ready_times, max_batch_size,
                  [&](size_t i, double t) {
                    tpot[i] = t;
                    return true;
                  });
  return tpot;
}

bool PrefillProbePasses(const model::LatencyModel& lm, const workload::Trace& trace,
                        int64_t target_tokens, int max_batch_size, double ttft_slo,
                        double target) {
  DS_CHECK_GT(target_tokens, 0);
  DS_CHECK_GT(max_batch_size, 0);
  SloVerdict verdict(static_cast<int64_t>(trace.size()), target);
  if (!verdict.settled()) {
    PrefillFinishTimesView(lm, TraceView(trace), target_tokens, max_batch_size,
                           [&](size_t i, double finish) {
                             return verdict.Count(finish - trace[i].arrival_time <= ttft_slo);
                           });
  }
  return verdict.passed();
}

bool DecodeProbePasses(const model::LatencyModel& lm, int64_t kv_capacity_tokens,
                       const workload::Trace& trace, const std::vector<double>& ready_times,
                       int max_batch_size, double tpot_slo, double target) {
  SloVerdict verdict(static_cast<int64_t>(trace.size()), target);
  if (!verdict.settled()) {
    DecodeTpotsView(lm, kv_capacity_tokens, TraceView(trace), ready_times, max_batch_size,
                    [&](size_t, double tpot) { return verdict.Count(tpot <= tpot_slo); });
  }
  return verdict.passed();
}

std::vector<FastRecord> SimulateDisaggregated(const model::LatencyModel& prefill_lm,
                                              const model::LatencyModel& decode_lm,
                                              const workload::Trace& trace,
                                              const DisaggregatedFastConfig& config) {
  DS_CHECK_GE(config.num_prefill, 1);
  DS_CHECK_GE(config.num_decode, 1);
  std::vector<FastRecord> records(trace.size());

  // Phase 1: round-robin prefill across instances (views into the shared trace, no copies).
  std::vector<double> first_token(trace.size(), 0.0);
  for (int inst = 0; inst < config.num_prefill; ++inst) {
    const std::vector<size_t> idx =
        RoundRobinIndices(trace.size(), inst, config.num_prefill);
    PrefillFinishTimesView(prefill_lm, TraceView(trace, idx), config.prefill_target_tokens,
                           config.prefill_max_batch, [&](size_t k, double finish) {
                             first_token[idx[k]] = finish;
                             records[idx[k]].ttft = finish - trace[idx[k]].arrival_time;
                             return true;
                           });
  }

  // Phase 2: round-robin decode with arrivals at prefill completion.
  for (int inst = 0; inst < config.num_decode; ++inst) {
    const std::vector<size_t> idx = RoundRobinIndices(trace.size(), inst, config.num_decode);
    std::vector<double> ready;
    ready.reserve(idx.size());
    for (size_t i : idx) {
      ready.push_back(first_token[i]);
    }
    DecodeTpotsView(decode_lm, config.decode_kv_capacity_tokens, TraceView(trace, idx), ready,
                    config.decode_max_batch, [&](size_t k, double tpot) {
                      records[idx[k]].tpot = tpot;
                      return true;
                    });
  }
  return records;
}

std::vector<FastRecord> SimulateColocated(const model::LatencyModel& lm,
                                          const workload::Trace& trace,
                                          const ColocatedFastConfig& config) {
  DS_CHECK_GE(config.num_instances, 1);
  DS_CHECK_GT(config.kv_capacity_tokens, 0);
  std::vector<FastRecord> records(trace.size());
  for (int inst = 0; inst < config.num_instances; ++inst) {
    const std::vector<size_t> idx =
        RoundRobinIndices(trace.size(), inst, config.num_instances);
    SimulateColocatedOne(lm, TraceView(trace, idx), config, records);
  }
  return records;
}

}  // namespace distserve::placement
