#include "engine/decode_instance.h"

#include <algorithm>
#include <limits>

#include "common/logging.h"
#include "trace/recorder.h"

namespace distserve::engine {

DecodeInstance::DecodeInstance(simcore::Simulator* sim, model::LatencyModel latency_model,
                               int64_t kv_capacity_tokens, Options options, int id)
    : sim_(sim),
      latency_model_(std::move(latency_model)),
      kv_(kv_capacity_tokens, options.kv_block_size),
      options_(options),
      id_(id),
      lanes_(static_cast<size_t>(latency_model_.par().pp)) {
  DS_CHECK(sim != nullptr);
  DS_CHECK_GT(options_.max_batch_size, 0);
  DS_CHECK_GT(options_.admission_watermark, 0.0);
  DS_CHECK_LE(options_.admission_watermark, 1.0);
}

int DecodeInstance::per_lane_cap() const {
  const int lanes = static_cast<int>(lanes_.size());
  return std::max(1, options_.max_batch_size / lanes);
}

template <typename Cursor>
int DecodeInstance::EarliestDueLane(double now, Cursor cursor) const {
  int best = -1;
  double best_start = 0.0;
  for (size_t l = 0; l < lanes_.size(); ++l) {
    const StepRun& run = lanes_[l].run;
    const int i = cursor(l);
    if (!run.in_flight() || i >= run.len()) {
      continue;
    }
    const double start = run.start_of(i);
    if (start <= now && (best < 0 || start < best_start)) {
      best = static_cast<int>(l);
      best_start = start;
    }
  }
  return best;
}

void DecodeInstance::CommitThrough(double now) {
  for (int l; (l = EarliestDueLane(now, [this](size_t i) {
                 return lanes_[i].run.committed();
               })) >= 0;) {
    CommitStart(static_cast<size_t>(l));
  }
}

void DecodeInstance::CommitStart(size_t lane_idx) {
  Lane& lane = lanes_[lane_idx];
  if (lane.run.AtFold()) {
    CommitFold(lane_idx);
    return;
  }
  const int i = lane.run.CommitStart();
  if (i > 0) {  // step i starts where step i - 1 ends
    tokens_generated_ += lane.batch.EndStep();
  }
  busy_seconds_ += lane.run.time_of(i);
  ++steps_executed_;
  if (recorder_ != nullptr && i > 0) {
    TraceMembers(lane_idx, lane.run.start_of(i), std::numeric_limits<int64_t>::max());
  }
}

void DecodeInstance::TraceMembers(size_t lane_idx, double at, int64_t seq_limit) {
  const DecodeBatch& batch = lanes_[lane_idx].batch;
  for (const DecodeBatch::Member& m : batch) {
    if (m.seq < seq_limit) {
      // Coalesced by the recorder into one contiguous decode_step run per stretch.
      recorder_->Transition(m.request->request.id, at, trace::SpanKind::kDecodeStep,
                            trace::DecodePid(id_), static_cast<int32_t>(lane_idx),
                            batch.Progress(m));
    }
  }
}

void DecodeInstance::TraceRun(size_t lane_idx, int steps) {
  const StepRun& run = lanes_[lane_idx].run;
  DS_TRACE(recorder_, InstanceSpan(trace::DecodePid(id_), static_cast<int32_t>(lane_idx),
                                   trace::SpanKind::kDecodeStep, run.start_of(0),
                                   run.end_of(steps - 1), steps));
}

int64_t DecodeInstance::steps_executed() const {
  const double now = sim_->now();
  int64_t steps = steps_executed_;
  for (const Lane& lane : lanes_) {
    if (lane.run.in_flight()) {
      steps += lane.run.StartedBy(now) - lane.run.committed();
    }
  }
  return steps;
}

int64_t DecodeInstance::tokens_generated() const {
  const double now = sim_->now();
  int64_t tokens = tokens_generated_;
  for (const Lane& lane : lanes_) {
    if (!lane.run.in_flight()) {
      continue;
    }
    // Each started, uncommitted step i ended step i - 1, which the batch ran; steps after a
    // pending fold's boundary ran with its joiners too.
    const int started = lane.run.StartedBy(now);
    tokens += static_cast<int64_t>(started - lane.run.committed()) *
              static_cast<int64_t>(lane.batch.size());
    if (lane.run.fold_pending()) {
      const int after_fold = started - lane.run.fold_step() - 1;
      if (after_fold > 0) {
        tokens += static_cast<int64_t>(after_fold) * static_cast<int64_t>(JoinersAdmitted(lane));
      }
    }
  }
  return tokens;
}

double DecodeInstance::busy_seconds() const {
  // The uncommitted starts, added in the order CommitThrough would add them.
  std::vector<int> next(lanes_.size());
  for (size_t l = 0; l < lanes_.size(); ++l) {
    next[l] = lanes_[l].run.committed();
  }
  double busy = busy_seconds_;
  const double now = sim_->now();
  for (int l; (l = EarliestDueLane(now, [&next](size_t i) { return next[i]; })) >= 0;) {
    busy += lanes_[static_cast<size_t>(l)].run.time_of(next[static_cast<size_t>(l)]++);
  }
  return busy;
}

void DecodeInstance::Submit(RequestState* request) {
  DS_CHECK(request != nullptr);
  DS_CHECK(alive_) << "submit on failed decode instance " << id_;
  DS_CHECK_GE(request->request.output_len, 2)
      << "single-token requests must not be submitted to decode";
  CommitThrough(sim_->now());
  request->decode_instance = id_;
  request->phase = RequestPhase::kDecodePending;
  priorities_active_ = priorities_active_ || request->request.priority != 0;
  DS_TRACE(recorder_, Transition(request->request.id, sim_->now(),
                                 trace::SpanKind::kDecodeAdmit, trace::DecodePid(id_), 0));
  pending_.push_back(request);
  TryAdmit();
}

RequestQueue::iterator DecodeInstance::PickPending() {
  if (!priorities_active_) {
    return pending_.begin();  // single-tenant fast path: plain FCFS
  }
  auto best = pending_.begin();
  for (auto it = std::next(pending_.begin()); it != pending_.end(); ++it) {
    if ((*it)->request.priority > (*best)->request.priority) {
      best = it;  // strictly greater: FCFS stays stable within a class
    }
  }
  return best;
}

bool DecodeInstance::PreemptLowestBelow(int floor) {
  // Lowest priority wins; among equals the latest in scan order (lanes in order, each lane's
  // joiners before its members, members in join order): the least decode progress invested.
  RequestState* victim = nullptr;
  size_t victim_lane = 0;
  bool victim_is_member = false;
  size_t victim_pos = 0;
  for (size_t l = 0; l < lanes_.size(); ++l) {
    const Lane& lane = lanes_[l];
    for (size_t k = 0; k < lane.joining.size(); ++k) {
      RequestState* r = lane.joining[k];
      if (r->request.priority < floor &&
          (victim == nullptr || r->request.priority <= victim->request.priority)) {
        victim = r;
        victim_lane = l;
        victim_is_member = false;
        victim_pos = k;
      }
    }
    int best = -1;
    for (size_t k = 0; k < lane.batch.size(); ++k) {
      const DecodeBatch::Member& m = lane.batch[k];
      const int priority = m.request->request.priority;
      if (priority >= floor) {
        continue;
      }
      const DecodeBatch::Member* b = best < 0 ? nullptr : &lane.batch[static_cast<size_t>(best)];
      if (b == nullptr || priority < b->request->request.priority ||
          (priority == b->request->request.priority && m.seq > b->seq)) {
        best = static_cast<int>(k);
      }
    }
    if (best >= 0) {
      RequestState* r = lane.batch[static_cast<size_t>(best)].request;
      if (victim == nullptr || r->request.priority <= victim->request.priority) {
        victim = r;
        victim_lane = l;
        victim_is_member = true;
        victim_pos = static_cast<size_t>(best);
      }
    }
  }
  if (victim == nullptr) {
    return false;
  }
  kv_.Release(victim->request.id);
  --resident_count_;
  Lane& lane = lanes_[victim_lane];
  if (victim_is_member) {
    lane.batch.Remove(victim_pos);
    CutRun(victim_lane);
  } else {
    lane.joining.erase(lane.joining.begin() + static_cast<std::ptrdiff_t>(victim_pos));
    UnfoldRun(victim_lane);
  }
  ++victim->preemptions;
  ++preemptions_;
  DS_TRACE(recorder_, Transition(victim->request.id, sim_->now(), trace::SpanKind::kPreempt,
                                 trace::DecodePid(id_), 0, victim->preemptions));
  if (on_preempt_) {
    on_preempt_(victim);  // serving layer re-prefills: the decode-side KV is gone
  }
  return true;
}

void DecodeInstance::Fail() {
  if (!alive_) {
    return;
  }
  CommitThrough(sim_->now());
  alive_ = false;
  ++epoch_;  // invalidates in-flight transfer completions
  pending_.clear();
  for (size_t l = 0; l < lanes_.size(); ++l) {
    Lane& lane = lanes_[l];
    if (lane.run.in_flight()) {
      TraceRun(l, lane.run.committed());  // the steps started before the fault
      lane.run.event.Cancel();
      lane.run.Clear();
    }
    lane.batch.Clear();
    lane.joining.clear();
  }
  resident_count_ = 0;
  kv_.Clear();
}

void DecodeInstance::Recover() {
  if (alive_) {
    return;
  }
  DS_CHECK(pending_.empty());
  alive_ = true;
}

void DecodeInstance::Abort(RequestState* request) {
  DS_CHECK(request != nullptr);
  if (!alive_) {
    return;  // Fail() already dropped everything
  }
  CommitThrough(sim_->now());
  for (auto it = pending_.begin(); it != pending_.end(); ++it) {
    if (*it == request) {
      // Not yet admitted: no reservation, no lane membership. If it was the blocked head,
      // the next step end's admission scan sees a new head.
      const bool was_head = it == PickPending();
      pending_.erase(it);
      if (was_head && !pending_.empty()) {
        CutEarliestRun();
      }
      return;
    }
  }
  if (!kv_.Holds(request->request.id)) {
    return;  // not ours (already completed or never admitted)
  }
  kv_.Release(request->request.id);
  --resident_count_;
  for (size_t l = 0; l < lanes_.size(); ++l) {
    Lane& lane = lanes_[l];
    if (std::erase(lane.joining, request) != 0) {
      UnfoldRun(l);
    }
    for (size_t k = 0; k < lane.batch.size(); ++k) {
      if (lane.batch[k].request == request) {
        lane.batch.Remove(k);
        CutRun(l);
        break;
      }
    }
  }
  // Freed memory may admit a pending request right away.
  TryAdmit();
}

void DecodeInstance::TryAdmit() {
  if (pending_.empty()) {
    return;  // every run end lands here; skip the watermark math when there is no queue
  }
  const int64_t usable_blocks = static_cast<int64_t>(
      static_cast<double>(kv_.total_blocks()) * options_.admission_watermark);
  while (!pending_.empty()) {
    auto it = PickPending();
    RequestState* request = *it;
    const int64_t needed_tokens = request->request.total_len();
    const int64_t needed_blocks = kv_.BlocksForTokens(needed_tokens);
    DS_CHECK_LE(needed_blocks, usable_blocks)
        << "request " << request->request.id << " can never fit decode instance " << id_;
    if (kv_.used_blocks() + needed_blocks > usable_blocks) {
      // A blocked higher-priority tenant may evict the lowest-priority resident (strictly
      // below it); otherwise wait for completions — the prefill side buffers the KV.
      if (!priorities_active_ || !PreemptLowestBelow(request->request.priority)) {
        break;
      }
      continue;  // re-evaluate with the freed blocks
    }
    const bool reserved = kv_.Reserve(request->request.id, needed_tokens);
    DS_CHECK(reserved);
    pending_.erase(it);
    ++resident_count_;
    request->record.transfer_start = sim_->now();
    request->phase = RequestPhase::kTransferring;
    DS_TRACE(recorder_, Transition(request->request.id, sim_->now(),
                                   trace::SpanKind::kKvTransfer, trace::DecodePid(id_), 0,
                                   request->attempt));
    if (transfer_fn_) {
      transfer_fn_(request, TransferDone{this, request, epoch_});
    } else {
      OnTransferDone(request);
    }
  }
}

void DecodeInstance::TransferDone::operator()() const {
  if (epoch != instance->epoch_) {
    return;  // the instance died while the pull was in flight
  }
  instance->OnTransferDone(request);
}

void DecodeInstance::OnTransferDone(RequestState* request) {
  CommitThrough(sim_->now());
  request->record.transfer_end = sim_->now();
  request->phase = RequestPhase::kDecoding;
  DS_TRACE(recorder_, Transition(request->request.id, sim_->now(),
                                 trace::SpanKind::kDecodeQueue, trace::DecodePid(id_), 0));
  // Least-loaded lane assignment.
  size_t best = 0;
  size_t best_load = SIZE_MAX;
  for (size_t i = 0; i < lanes_.size(); ++i) {
    const size_t lane_load = lanes_[i].batch.size() + lanes_[i].joining.size();
    if (lane_load < best_load) {
      best_load = lane_load;
      best = i;
    }
  }
  Lane& lane = lanes_[best];
  lane.joining.push_back(request);
  const bool tenant_blocked = priorities_active_ && !pending_.empty();
  if (!lane.run.in_flight()) {
    LaneMaybeStep(best);
  } else if (static_cast<int>(lane.batch.size()) < per_lane_cap()) {
    // The joiner merges at the end of the step in flight: inside the run, unless a blocked
    // tenant may preempt it there, which takes the admission pass a run end makes.
    if (tenant_blocked) {
      CutRun(best);
    } else {
      FoldJoiners(best);
    }
  }
  if (tenant_blocked) {
    CutEarliestRun();  // a blocked tenant may preempt the joiner at the next step end
  }
}

size_t DecodeInstance::JoinersAdmitted(const Lane& lane) const {
  const size_t cap = static_cast<size_t>(per_lane_cap());
  return lane.batch.size() < cap ? std::min(lane.joining.size(), cap - lane.batch.size()) : 0;
}

void DecodeInstance::FoldJoiners(size_t lane_idx) {
  Lane& lane = lanes_[lane_idx];
  StepRun& run = lane.run;
  if (run.committed() == run.len()) {
    return;  // the run ends with the step in flight; its event admits the joiners
  }
  // The batch as LaneMaybeStep would form it at the boundary: the step in flight adds one
  // token per member, then the joiners up to the cap join.
  const size_t admit = JoinersAdmitted(lane);
  int64_t ctx_tokens = lane.batch.ctx_tokens() + static_cast<int64_t>(lane.batch.size());
  int64_t steps = std::min<int64_t>(lane.batch.StepsToNextFinish() - 1, kDecodeStepChunk);
  for (size_t k = 0; k < admit; ++k) {
    ctx_tokens += lane.joining[k]->context_len();
    steps = std::min<int64_t>(steps, lane.joining[k]->remaining_decode_steps());
  }
  const bool refold = run.fold_pending();
  run.FoldDecode(latency_model_, static_cast<int64_t>(lane.batch.size() + admit), ctx_tokens,
                 static_cast<int>(steps), /*overhead=*/0.0);
  MoveRunEvent(lane_idx, /*keep_seq=*/refold);
}

void DecodeInstance::UnfoldRun(size_t lane_idx) {
  if (lanes_[lane_idx].run.fold_pending()) {
    CutRun(lane_idx);
  }
}

void DecodeInstance::CommitFold(size_t lane_idx) {
  // What a cut run's end event and LaneMaybeStep did at this boundary: end the step before
  // it, close that run's span, then start the next run with the joiners. No member finishes
  // here (the fold's run did not end at this boundary), and the admission pass such an event
  // made is a no-op: a fold needs no blocked tenant, and no memory was freed since the last
  // pass.
  Lane& lane = lanes_[lane_idx];
  tokens_generated_ += lane.batch.EndStep();
  DS_DCHECK(lane.batch.StepsToNextFinish() > 0);
  TraceRun(lane_idx, lane.run.fold_step());
  lane.run.DropBeforeFold();
  const int64_t first_joiner = lane.batch.next_seq();
  const size_t admit = MergeJoiners(lane_idx, lane.run.start_of(0));
  StartMergedRun(lane_idx, admit, first_joiner);
}

size_t DecodeInstance::MergeJoiners(size_t lane_idx, double at) {
  Lane& lane = lanes_[lane_idx];
  const size_t admit = JoinersAdmitted(lane);
  for (size_t k = 0; k < admit; ++k) {
    lane.joining[k]->record.decode_start = at;
    lane.batch.Join(lane.joining[k]);
  }
  return admit;
}

void DecodeInstance::StartMergedRun(size_t lane_idx, size_t admit, int64_t first_joiner) {
  Lane& lane = lanes_[lane_idx];
  CommitStart(lane_idx);
  if (recorder_ != nullptr) {
    // Residents first, then the joiners in join order: the order their queue spans close.
    const double at = lane.run.start_of(0);
    TraceMembers(lane_idx, at, first_joiner);
    for (size_t k = 0; k < admit; ++k) {
      RequestState* r = lane.joining[k];
      recorder_->Transition(r->request.id, at, trace::SpanKind::kDecodeStep,
                            trace::DecodePid(id_), static_cast<int32_t>(lane_idx),
                            r->decode_steps_done);
    }
  }
  lane.joining.erase(lane.joining.begin(),
                     lane.joining.begin() + static_cast<std::ptrdiff_t>(admit));
}

void DecodeInstance::CutEarliestRun() {
  int earliest = -1;
  double end = 0.0;
  for (size_t l = 0; l < lanes_.size(); ++l) {
    const StepRun& run = lanes_[l].run;
    if (run.in_flight() && (earliest < 0 || run.end_of(run.committed() - 1) < end)) {
      earliest = static_cast<int>(l);
      end = run.end_of(run.committed() - 1);
    }
  }
  if (earliest >= 0) {
    CutRun(static_cast<size_t>(earliest));
  }
}

void DecodeInstance::CutRun(size_t lane_idx) {
  StepRun& run = lanes_[lane_idx].run;
  if (!run.in_flight()) {
    return;
  }
  const bool unfold = run.fold_pending();
  if (run.CutAfterCommitted()) {
    MoveRunEvent(lane_idx, /*keep_seq=*/unfold);
  }
}

void DecodeInstance::MoveRunEvent(size_t lane_idx, bool keep_seq) {
  StepRun& run = lanes_[lane_idx].run;
  const bool moved =
      keep_seq ? sim_->Retime(run.event, run.end()) : sim_->Reschedule(run.event, run.end());
  DS_CHECK(moved) << "decode " << id_ << " lane " << lane_idx << ": run without an event";
}

void DecodeInstance::LaneMaybeStep(size_t lane_idx) {
  Lane& lane = lanes_[lane_idx];
  if (lane.run.in_flight()) {
    return;
  }
  // Merge joiners up to the lane cap; they start decoding with this run.
  const double now = sim_->now();
  const int64_t first_joiner = lane.batch.next_seq();
  const size_t admit = MergeJoiners(lane_idx, now);
  if (lane.batch.empty()) {
    return;
  }
  const int steps =
      static_cast<int>(std::min<int64_t>(lane.batch.StepsToNextFinish(), kDecodeStepChunk));
  lane.run.StartDecode(latency_model_, now, static_cast<int64_t>(lane.batch.size()),
                       lane.batch.ctx_tokens(), steps, /*overhead=*/0.0);
  StartMergedRun(lane_idx, admit, first_joiner);
  lane.run.event = sim_->ScheduleAt(lane.run.end(), [this, lane_idx] { LaneRunEnd(lane_idx); });
}

void DecodeInstance::LaneRunEnd(size_t lane_idx) {
  const double now = sim_->now();
  CommitThrough(now);
  Lane& lane = lanes_[lane_idx];
  TraceRun(lane_idx, lane.run.len());
  lane.run.Clear();
  // End the run's last step, then complete the members that emitted their last token on it,
  // in join order.
  tokens_generated_ += lane.batch.EndStep();
  finished_.clear();
  lane.batch.PopFinished([this](const DecodeBatch::Member& m) { finished_.push_back(m); });
  DecodeBatch::SortByJoin(&finished_);
  for (const DecodeBatch::Member& m : finished_) {
    RequestState* r = m.request;
    r->record.completion = now;
    r->phase = RequestPhase::kDone;
    DS_TRACE(recorder_, Finish(r->request.id, now));
    kv_.Release(r->request.id);
    --resident_count_;
    if (on_complete_) {
      on_complete_(r);
    }
  }
  // Freed memory may admit pending requests before the next run forms.
  TryAdmit();
  LaneMaybeStep(lane_idx);
}

}  // namespace distserve::engine
