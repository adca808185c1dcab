#include "engine/colocated_instance.h"

#include <algorithm>
#include <iterator>

#include "common/logging.h"
#include "trace/recorder.h"

namespace distserve::engine {

ColocatedInstance::ColocatedInstance(simcore::Simulator* sim,
                                     model::LatencyModel latency_model,
                                     int64_t kv_capacity_tokens, Options options, int id)
    : sim_(sim),
      latency_model_(std::move(latency_model)),
      kv_(kv_capacity_tokens, options.kv_block_size),
      options_(options),
      id_(id) {
  DS_CHECK(sim != nullptr);
  DS_CHECK_EQ(latency_model_.par().pp, 1)
      << "the colocated (vLLM) baseline supports intra-op parallelism only";
  DS_CHECK_GT(options_.max_batch_size, 0);
  DS_CHECK_GT(options_.max_prefill_tokens_per_step, 0);
  if (options_.mode == Options::SchedulingMode::kChunked) {
    DS_CHECK_GT(options_.chunk_budget, 0) << "kChunked needs a per-step token budget";
  }
}

void ColocatedInstance::Enqueue(RequestState* request) {
  DS_CHECK(request != nullptr);
  DS_CHECK_LE(kv_.BlocksForTokens(request->request.total_len()), kv_.total_blocks())
      << "request " << request->request.id << " can never fit colocated instance " << id_;
  DS_CHECK_GE(request->request.cached_prefix_len, 0);
  DS_CHECK_LT(request->request.cached_prefix_len, request->request.input_len)
      << "request " << request->request.id << ": at least one prompt token must prefill";
  priorities_active_ = priorities_active_ || request->request.priority != 0;
  request->prefill_instance = id_;  // owning replica, for the serving layer's Cancel routing
  request->phase = RequestPhase::kPrefillQueued;
  DS_TRACE(recorder_, Transition(request->request.id, sim_->now(),
                                 trace::SpanKind::kPrefillQueue, trace::ColocatedPid(id_), 0));
  waiting_.push_back(request);
  MaybeStep();
}

std::deque<RequestState*>::iterator ColocatedInstance::PickWaiting() {
  if (!priorities_active_) {
    return waiting_.begin();  // single-tenant fast path: plain FCFS
  }
  auto best = waiting_.begin();
  for (auto it = std::next(waiting_.begin()); it != waiting_.end(); ++it) {
    if ((*it)->request.priority > (*best)->request.priority) {
      best = it;  // strictly greater: FCFS stays stable within a class
    }
  }
  return best;
}

bool ColocatedInstance::PreemptLowestBelow(int floor) {
  DS_CHECK(!step_in_flight_);
  int best = -1;
  for (int i = 0; i < static_cast<int>(decoding_.size()); ++i) {
    if (decoding_[i]->request.priority >= floor) {
      continue;
    }
    // Lowest priority; among equals the latest joiner (least decode progress invested).
    if (best < 0 || decoding_[i]->request.priority <= decoding_[best]->request.priority) {
      best = i;
    }
  }
  if (best < 0) {
    return false;
  }
  RequestState* victim = decoding_[best];
  decoding_.erase(decoding_.begin() + best);
  decode_ctx_tokens_ -= victim->context_len();
  kv_.Release(victim->request.id);
  // Full re-prefill: generated tokens are discarded; only the prefix cache survives.
  victim->decode_steps_done = 0;
  victim->prefill_tokens_done = 0;
  ++victim->preemptions;
  ++preemptions_;
  DS_TRACE(recorder_, Transition(victim->request.id, sim_->now(), trace::SpanKind::kPreempt,
                                 trace::ColocatedPid(id_), 0, victim->preemptions));
  if (on_preempt_) {
    on_preempt_(victim);
  }
  waiting_.push_back(victim);
  return true;
}

void ColocatedInstance::FinishCancel(RequestState* request, double now) {
  if (kv_.Holds(request->request.id)) {
    kv_.Release(request->request.id);
  }
  request->cancel_pending = false;
  ++cancellations_;
  const auto kind = request->phase == RequestPhase::kTimedOut
                        ? trace::Recorder::OutcomeKind::kTimedOut
                        : trace::Recorder::OutcomeKind::kCancelled;
  DS_TRACE(recorder_, Drop(request->request.id, now, kind));
  if (on_cancelled_) {
    on_cancelled_(request);
  }
}

void ColocatedInstance::Cancel(RequestState* request) {
  DS_CHECK(request != nullptr);
  DS_CHECK(request->phase == RequestPhase::kCancelled ||
           request->phase == RequestPhase::kTimedOut)
      << "Cancel without a terminal phase set for request " << request->request.id;
  const double now = sim_->now();
  for (auto it = waiting_.begin(); it != waiting_.end(); ++it) {
    if (*it == request) {
      waiting_.erase(it);
      FinishCancel(request, now);
      return;
    }
  }
  // A partially-prefilled prompt can leave mid-run even while a step executes: the in-flight
  // step only references prefilled_now and decoding_, never the prefilling_ queue.
  for (auto it = prefilling_.begin(); it != prefilling_.end(); ++it) {
    if (*it == request) {
      prefilling_.erase(it);
      FinishCancel(request, now);
      MaybeStep();
      return;
    }
  }
  if (!step_in_flight_) {
    for (auto it = decoding_.begin(); it != decoding_.end(); ++it) {
      if (*it == request) {
        decode_ctx_tokens_ -= request->context_len();
        decoding_.erase(it);
        FinishCancel(request, now);
        MaybeStep();
        return;
      }
    }
  }
  // Inside the executing step (a resident decode, or a prompt finishing this step): the step
  // boundary reaps it — tearing it out now would corrupt the step's incremental accounting.
  request->cancel_pending = true;
}

void ColocatedInstance::AddPrefillWork(RequestState* request, int64_t chunk,
                                       model::BatchWorkload* workload) {
  DS_CHECK_GT(chunk, 0);
  const double window_start = request->prefill_tokens_done;
  if (request->prefill_tokens_done == request->request.cached_prefix_len) {
    request->record.prefill_start = sim_->now();
  }
  DS_TRACE(recorder_, Transition(request->request.id, sim_->now(),
                                 trace::SpanKind::kPrefillExec, trace::ColocatedPid(id_), 0,
                                 steps_executed_));
  request->prefill_tokens_done += static_cast<int>(chunk);
  workload->prefill_tokens += chunk;
  // Chunk attention reads the whole window so far: ~ c * (p + c) token-pairs. The window
  // includes the cached prefix — its KV is read, only its compute was skipped.
  workload->prefill_sq_tokens =
      workload->prefill_sq_tokens +
      static_cast<double>(chunk) * (window_start + static_cast<double>(chunk));
}

void ColocatedInstance::MaybeStep() {
  if (step_in_flight_) {
    return;
  }
  // Admission: move waiting requests into the prefilling set while KV memory and the batch
  // cap allow — highest tenant priority first. A blocked higher-priority prompt may evict
  // the lowest-priority resident decode (strictly below it) to make room. Reservation covers
  // the full final context (prompt + outputs); the cached prefix reserves too — KV reuse
  // saves compute, not memory.
  while (!waiting_.empty() &&
         static_cast<int>(prefilling_.size() + decoding_.size()) < options_.max_batch_size) {
    auto it = PickWaiting();
    RequestState* request = *it;
    if (!kv_.CanReserve(request->request.total_len())) {
      if (!priorities_active_ || !PreemptLowestBelow(request->request.priority)) {
        break;
      }
      continue;  // re-evaluate: the eviction may or may not have freed enough
    }
    const bool reserved = kv_.Reserve(request->request.id, request->request.total_len());
    DS_CHECK(reserved);
    waiting_.erase(it);
    // Compute starts after the cached prefix (a preempted victim resumes here too).
    request->prefill_tokens_done = request->request.cached_prefix_len;
    prefilling_.push_back(request);
  }

  // Select this step's prefill work.
  model::BatchWorkload workload;
  std::vector<RequestState*> prefilled_now;
  int64_t prefill_tokens_in_step = 0;
  if (!prefilling_.empty()) {
    if (options_.mode == Options::SchedulingMode::kChunked) {
      // Sarathi-style token budget: resident decodes claim one token each; prompt chunks
      // from as many prompts as fit fill the remainder, FCFS in admission order.
      int64_t budget = options_.chunk_budget - static_cast<int64_t>(decoding_.size());
      auto it = prefilling_.begin();
      while (budget > 0 && it != prefilling_.end()) {
        RequestState* head = *it;
        const int64_t remaining = head->request.input_len - head->prefill_tokens_done;
        const int64_t chunk = std::min(remaining, budget);
        AddPrefillWork(head, chunk, &workload);
        prefill_tokens_in_step += chunk;
        budget -= chunk;
        if (head->prefill_tokens_done == head->request.input_len) {
          prefilled_now.push_back(head);
          it = prefilling_.erase(it);
        } else {
          ++it;  // budget exhausted mid-prompt; the next step continues this window
        }
      }
    } else {
      // vLLM: whole prompts, FCFS, bounded by the per-step token budget (the head prompt
      // always runs even if it alone exceeds the budget). Budgeted tokens are the computed
      // ones — a cached prefix costs no step time.
      while (!prefilling_.empty()) {
        RequestState* head = prefilling_.front();
        const int64_t computed = head->request.input_len - head->prefill_tokens_done;
        if (!prefilled_now.empty() &&
            prefill_tokens_in_step + computed > options_.max_prefill_tokens_per_step) {
          break;
        }
        AddPrefillWork(head, computed, &workload);
        prefill_tokens_in_step += computed;
        prefilled_now.push_back(head);
        prefilling_.pop_front();
      }
    }
  }

  // Decode side. Under prefill-priority scheduling a step carrying prefill work is
  // prefill-only: resident decodes stall until it finishes (the vLLM baseline behaviour the
  // paper measures). Chunked mode batches decodes into the same step.
  const bool prefill_only_step =
      options_.mode == Options::SchedulingMode::kPrefillPriority && !prefilled_now.empty();
  const bool decodes_advance = !decoding_.empty() && !prefill_only_step;
  if (decodes_advance) {
    workload.decode_requests = static_cast<int64_t>(decoding_.size());
    workload.decode_context_tokens = decode_ctx_tokens_;
    if (recorder_ != nullptr) {
      const double now = sim_->now();
      for (RequestState* r : decoding_) {
        // Coalesced by the recorder into one contiguous decode_step run per stretch.
        recorder_->Transition(r->request.id, now, trace::SpanKind::kDecodeStep,
                              trace::ColocatedPid(id_), 0, r->decode_steps_done);
      }
    }
  }

  if (workload.empty()) {
    return;  // Idle; the next Enqueue re-arms the loop.
  }

  const double step_time = latency_model_.FullTime(workload) + options_.cpu_overhead_per_step;
  DS_TRACE(recorder_, InstanceSpan(trace::ColocatedPid(id_), 0, trace::SpanKind::kEngineStep,
                                   sim_->now(), sim_->now() + step_time, steps_executed_));
  step_in_flight_ = true;
  busy_seconds_ += step_time;
  ++steps_executed_;
  sim_->ScheduleAfter(step_time,
                      [this, prefilled_now = std::move(prefilled_now),
                       decodes_advance]() mutable {
                        StepEnd(std::move(prefilled_now), decodes_advance);
                      });
}

void ColocatedInstance::StepEnd(std::vector<RequestState*> prefilled_now,
                                bool decodes_advanced) {
  step_in_flight_ = false;
  const double now = sim_->now();

  // Decode advancement and completions (advancement skipped when the step was prefill-only;
  // cancel reaping happens either way). Survivors compact in place; the running context sum
  // tracks the +1 token per stepped request and the departure of completers and cancels.
  {
    size_t write = 0;
    for (RequestState* r : decoding_) {
      if (r->cancel_pending) {
        decode_ctx_tokens_ -= r->context_len();
        FinishCancel(r, now);
        continue;
      }
      if (!decodes_advanced) {
        decoding_[write++] = r;
        continue;
      }
      ++r->decode_steps_done;
      ++decode_ctx_tokens_;
      ++tokens_generated_;
      if (r->remaining_decode_steps() <= 0) {
        decode_ctx_tokens_ -= r->context_len();
        r->record.completion = now;
        r->phase = RequestPhase::kDone;
        DS_TRACE(recorder_, Finish(r->request.id, now));
        kv_.Release(r->request.id);
        if (on_complete_) {
          on_complete_(r);
        }
      } else {
        decoding_[write++] = r;
      }
    }
    decoding_.resize(write);
  }

  // Prompts that finished this step produce their first token now; colocation means no
  // transfer and no decode queue (they are already resident).
  for (RequestState* r : prefilled_now) {
    if (r->cancel_pending) {
      FinishCancel(r, now);
      continue;
    }
    r->record.first_token = now;
    r->record.transfer_start = now;
    r->record.transfer_end = now;
    r->record.decode_start = now;
    ++tokens_generated_;
    if (r->request.output_len <= 1) {
      r->record.completion = now;
      r->phase = RequestPhase::kDone;
      DS_TRACE(recorder_, Finish(r->request.id, now));
      kv_.Release(r->request.id);
      if (on_complete_) {
        on_complete_(r);
      }
    } else {
      // Colocation: transfer and decode queue are zero-width; go straight to decode_step at
      // the same instant the record stamps decode_start (keeps extents bitwise-equal to the
      // collector's subtractions).
      DS_TRACE(recorder_, Transition(r->request.id, now, trace::SpanKind::kDecodeStep,
                                     trace::ColocatedPid(id_), 0, 0));
      decoding_.push_back(r);
      decode_ctx_tokens_ += r->context_len();
    }
  }

  MaybeStep();
}

}  // namespace distserve::engine
