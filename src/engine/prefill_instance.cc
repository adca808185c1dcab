#include "engine/prefill_instance.h"

#include <algorithm>

#include "common/logging.h"
#include "trace/recorder.h"

namespace distserve::engine {

PrefillInstance::PrefillInstance(simcore::Simulator* sim, model::LatencyModel latency_model,
                                 int64_t kv_capacity_tokens, Options options, int id)
    : sim_(sim),
      latency_model_(std::move(latency_model)),
      kv_(kv_capacity_tokens, options.kv_block_size),
      options_(options),
      id_(id) {
  DS_CHECK(sim != nullptr);
  DS_CHECK_GT(options_.batch_policy.target_tokens, 0);
  DS_CHECK_GT(options_.batch_policy.max_batch_size, 0);
}

void PrefillInstance::Enqueue(RequestState* request) {
  DS_CHECK(request != nullptr);
  DS_CHECK(alive_) << "enqueue on failed prefill instance " << id_;
  DS_CHECK(kv_.BlocksForTokens(request->request.input_len) <= kv_.total_blocks())
      << "prompt of " << request->request.input_len << " tokens cannot ever fit instance "
      << id_ << " KV pool";
  request->prefill_instance = id_;
  request->phase = RequestPhase::kPrefillQueued;
  DS_TRACE(recorder_, Transition(request->request.id, sim_->now(),
                                 trace::SpanKind::kPrefillQueue, trace::PrefillPid(id_), 0));
  queue_.push_back(request);
  queued_tokens_ += request->request.input_len;
  MaybeScheduleLaunch();
}

void PrefillInstance::ReleaseKv(RequestState* request) {
  if (!alive_) {
    return;  // the pool died with the instance; nothing to release
  }
  kv_.Release(request->request.id);
  if (stalled_on_memory_) {
    stalled_on_memory_ = false;
    MaybeScheduleLaunch();
  }
}

bool PrefillInstance::Withdraw(RequestState* request) {
  DS_CHECK(request != nullptr);
  if (!alive_) {
    return false;  // Fail() already emptied the queue
  }
  for (auto it = queue_.begin(); it != queue_.end(); ++it) {
    if (*it == request) {
      queue_.erase(it);
      queued_tokens_ -= request->request.input_len;
      return true;
    }
  }
  return false;
}

void PrefillInstance::Fail() {
  if (!alive_) {
    return;
  }
  alive_ = false;
  ++epoch_;  // invalidates every scheduled launch / bubble-wait / completion event
  queue_.clear();
  queued_tokens_ = 0;
  inflight_tokens_ = 0;
  launch_scheduled_ = false;
  stalled_on_memory_ = false;
  stage0_free_at_ = 0.0;
  prev_entry_ = 0.0;
  prev_stage_time_ = 0.0;
  kv_.Clear();
}

void PrefillInstance::Recover() {
  if (alive_) {
    return;
  }
  DS_CHECK(queue_.empty());
  alive_ = true;
}

void PrefillInstance::MaybeScheduleLaunch() {
  if (launch_scheduled_ || stalled_on_memory_ || queue_.empty()) {
    return;
  }
  launch_scheduled_ = true;
  const double when = std::max(sim_->now(), stage0_free_at_);
  sim_->ScheduleAt(when, [this, epoch = epoch_] {
    if (epoch != epoch_) {
      return;  // scheduled before a failure
    }
    OnLaunchEvent();
  });
}

void PrefillInstance::OnLaunchEvent() {
  launch_scheduled_ = false;
  if (queue_.empty()) {
    return;
  }
  // Block-accurate admission: each request's reservation rounds up to whole blocks, so the
  // predicate accumulates per-request block needs (ceil-of-sum would under-count and make the
  // later per-request Reserve fail). FormPrefillBatch admits every request the predicate
  // accepts, so the stateful accumulation is safe.
  int64_t blocks_needed = 0;
  int64_t admitted_tokens = 0;
  auto memory_fits = [&](int64_t total_with_candidate) {
    const int64_t candidate_tokens = total_with_candidate - admitted_tokens;
    const int64_t needed = blocks_needed + kv_.BlocksForTokens(candidate_tokens);
    if (needed > kv_.free_blocks()) {
      return false;
    }
    blocks_needed = needed;
    admitted_tokens = total_with_candidate;
    return true;
  };
  model::BatchWorkload workload;
  std::vector<RequestState*> batch =
      FormPrefillBatch(queue_, options_.batch_policy, memory_fits, &workload);
  if (batch.empty()) {
    // Head does not fit: stall until a ReleaseKv frees space.
    stalled_on_memory_ = true;
    return;
  }
  for (RequestState* r : batch) {
    const bool reserved = kv_.Reserve(r->request.id, r->request.input_len);
    DS_CHECK(reserved) << "KV reservation failed after CanReserve admission";
    queued_tokens_ -= r->request.input_len;
  }
  const double stage_time = latency_model_.StageTime(workload);
  const double full_time = latency_model_.FullTime(workload);

  // Pipeline-bubble recurrence: entry >= prev_entry + T_prev + (pp-1)*max(0, T_prev - T_this).
  const int pp = latency_model_.par().pp;
  double entry = sim_->now();
  if (batches_launched_ > 0 && pp > 1 && prev_stage_time_ > stage_time) {
    const double bubble =
        static_cast<double>(pp - 1) * (prev_stage_time_ - stage_time);
    const double earliest = prev_entry_ + prev_stage_time_ + bubble;
    if (earliest > entry) {
      bubble_seconds_ += earliest - entry;
      entry = earliest;
    }
  }
  if (entry > sim_->now()) {
    // Hold the launch lock through the bubble wait so a concurrent Enqueue cannot slip a
    // second batch into stage 0 before this one enters.
    launch_scheduled_ = true;
    sim_->ScheduleAt(entry, [this, epoch = epoch_, batch = std::move(batch), stage_time,
                             full_time]() mutable {
      if (epoch != epoch_) {
        return;
      }
      launch_scheduled_ = false;
      ExecuteBatch(std::move(batch), stage_time, full_time);
    });
  } else {
    ExecuteBatch(std::move(batch), stage_time, full_time);
  }
}

void PrefillInstance::ExecuteBatch(std::vector<RequestState*> batch, double stage_time,
                                   double full_time) {
  const double entry = sim_->now();
  int64_t batch_tokens = 0;
  for (RequestState* r : batch) {
    r->record.prefill_start = entry;
    r->phase = RequestPhase::kPrefilling;
    batch_tokens += r->request.input_len;
    DS_TRACE(recorder_, Transition(r->request.id, entry, trace::SpanKind::kPrefillExec,
                                   trace::PrefillPid(id_), 0, batches_launched_));
  }
  // Instance occupancy = stage-0 window; full_time windows overlap under pp > 1.
  DS_TRACE(recorder_, InstanceSpan(trace::PrefillPid(id_), 0, trace::SpanKind::kPrefillExec,
                                   entry, entry + stage_time, batches_launched_));
  inflight_tokens_ += batch_tokens;
  prev_entry_ = entry;
  prev_stage_time_ = stage_time;
  stage0_free_at_ = entry + stage_time;
  busy_seconds_ += stage_time;
  ++batches_launched_;

  const double finish = entry + full_time;
  sim_->ScheduleAt(finish, [this, epoch = epoch_, batch = std::move(batch), batch_tokens] {
    if (epoch != epoch_) {
      return;  // the instance died while this batch was in flight
    }
    inflight_tokens_ -= batch_tokens;
    for (RequestState* r : batch) {
      r->record.first_token = sim_->now();
      if (on_complete_) {
        on_complete_(r);
      }
    }
  });

  // The next batch may enter once stage 0 frees.
  MaybeScheduleLaunch();
}

}  // namespace distserve::engine
