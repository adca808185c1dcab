// The schedule kernels that both drivers run, the DES engines and the event-free fast
// simulator (placement/fast_sim.cc): prefill batch formation, the prefill pipeline cadence,
// and the resident decode batch.
//
// Prefill batching (§4.3 "reducing pipeline bubbles"): the paper schedules prefill batches
// whose total new-token count is close to L_m, the GPU saturation threshold: multiple short
// prompts are batched together, prompts longer than L_m run alone. Keeping batch sizes near
// L_m equalises stage execution times across batches, which minimises pipeline bubbles under
// inter-op parallelism.
//
// The decode batch is one step counter and a finish-step heap: a member that joins at step j
// with r decode steps left finishes at j + r, so the one counter advances every member at
// once and no step walks the batch; a run of steps costs O(log batch + completions). The
// batch also keeps the running sum of its members' contexts.
#ifndef DISTSERVE_ENGINE_BATCH_FORMER_H_
#define DISTSERVE_ENGINE_BATCH_FORMER_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "engine/request_state.h"
#include "model/latency_model.h"

namespace distserve::engine {

struct PrefillBatchPolicy {
  // Token budget per batch; the saturation threshold L_m from LatencyModel.
  int64_t target_tokens = 512;
  // Hard cap on requests per batch.
  int max_batch_size = 64;
};

// The prompt a queued handle refers to: the engines queue request states, the fast sim trace
// requests.
inline const workload::Request& QueuedPrompt(const RequestState* r) { return r->request; }
inline const workload::Request& QueuedPrompt(const workload::Request* r) { return *r; }

// Pops a FCFS prefix of `queue` into `*batch`, replacing its contents (the caller owns the
// batch and reuses its capacity across batches):
//   - the head request is always eligible (even when longer than target_tokens — the paper
//     schedules over-length prompts individually);
//   - subsequent requests join while the running token total stays within target_tokens and
//     the batch is below max_batch_size;
//   - `memory_fits(total_tokens)` gates every admission including the head; if even the head
//     cannot fit, the batch comes back empty and the queue is left untouched (KV stall).
//     The predicate is a template parameter, called directly: a std::function would
//     heap-allocate the prefill instance's capturing lambda once per batch.
//
// `queue` is a FIFO of handles (empty, front, pop_front): the prefill instance's RequestQueue,
// or in the fast sim the trace requests that arrived by the launch time. `batch` takes the
// popped handles (clear, size, empty, push_back).
//
// When `workload` is non-null it accumulates the admitted prompts' BatchWorkload in admission
// order (the same order BatchWorkload::Prefill would sum them, so the FP total is identical),
// sparing the caller a second pass over the batch. Cached prefixes
// (workload::Request::cached_prefix_len) are skipped in the accumulated *compute* — only the
// uncached suffix contributes tokens, attending over the full prompt — while the batching
// token budget keeps counting full prompts (KV residency is what admission must bound).
template <typename Queue, typename MemoryFits, typename Batch>
void FormPrefillBatch(Queue& queue, const PrefillBatchPolicy& policy, MemoryFits&& memory_fits,
                      Batch* batch, model::BatchWorkload* workload = nullptr) {
  batch->clear();
  int64_t total_tokens = 0;
  while (!queue.empty() && static_cast<int>(batch->size()) < policy.max_batch_size) {
    const auto head = queue.front();
    const workload::Request& prompt = QueuedPrompt(head);
    const int64_t head_tokens = prompt.input_len;
    const bool is_first = batch->empty();
    // Only the head of an empty batch may exceed the token target.
    if (!is_first && total_tokens + head_tokens > policy.target_tokens) {
      break;
    }
    if (!memory_fits(total_tokens + head_tokens)) {
      break;
    }
    batch->push_back(head);
    queue.pop_front();
    total_tokens += head_tokens;
    if (workload != nullptr) {
      // Prefix-cache hits skip compute for the cached window: only L-C tokens run, each
      // attending over the full prompt, so sq = (L-C)*(C+(L-C)) = (L-C)*L. With C == 0 this
      // is exactly the legacy L*L arithmetic (bit-identical). The *batching* budget
      // (total_tokens) still counts full prompts — KV admission and the memory_fits
      // predicate are sized by resident KV, which cached prefixes fully occupy.
      const int64_t computed = head_tokens - prompt.cached_prefix_len;
      workload->prefill_tokens += computed;
      workload->prefill_sq_tokens +=
          static_cast<double>(computed) * static_cast<double>(head_tokens);
    }
    // An over-length head runs alone.
    if (is_first && head_tokens >= policy.target_tokens) {
      break;
    }
  }
}

// The pipeline cadence of a prefill instance with `pp` stages. A batch enters stage 0 once the
// previous batch has left it (stage0_free_at), and a batch whose stages are shorter than the
// previous one's also waits out the bubble it would otherwise open downstream (§3.3):
//   entry >= prev_entry + T_prev + (pp - 1) * max(0, T_prev - T).
class PipelineCadence {
 public:
  explicit PipelineCadence(int pp) : pp_(pp) {}

  // The earliest launch of the next batch.
  double stage0_free_at() const { return prev_entry_ + prev_stage_; }

  // Enters a batch of stage time `stage_time` launched at `launch`; returns its entry time,
  // `launch` or later by the bubble wait.
  double Enter(double launch, double stage_time) {
    double entry = launch;
    if (pp_ > 1 && prev_stage_ > stage_time) {
      entry = std::max(entry, prev_entry_ + prev_stage_ +
                                  static_cast<double>(pp_ - 1) * (prev_stage_ - stage_time));
    }
    prev_entry_ = entry;
    prev_stage_ = stage_time;
    return entry;
  }

 private:
  int pp_;
  double prev_entry_ = 0.0;
  double prev_stage_ = 0.0;  // 0 before the first batch: no bubble to wait out
};

// A decode batch over members of any kind. `Refs` says what a member refers to and how the
// batch reads and writes it:
//   Ref                              the handle a member holds;
//   int64_t StepsLeft(Ref)           decode steps it has left when it joins (>= 1);
//   int64_t FinalContext(Ref)        its context once it has emitted its last token;
//   void Leave(Ref, int64_t left)    it leaves the batch with `left` steps to go (0: done);
//   int Progress(Ref, int64_t left)  decode steps it has run (needed only by Progress()).
// A member's context at step s is FinalContext - (finish - s).
template <typename Refs>
class BasicDecodeBatch {
 public:
  using Ref = typename Refs::Ref;
  struct Member {
    int64_t finish;  // step at which it emits its last token
    int64_t seq;     // join order: completions and tie-breaks follow it
    Ref request;
  };

  explicit BasicDecodeBatch(Refs refs = Refs()) : refs_(refs) {}

  size_t size() const { return heap_.size(); }
  bool empty() const { return heap_.empty(); }
  void reserve(size_t members) { heap_.reserve(members); }
  const Member& operator[](size_t pos) const { return heap_[pos]; }
  auto begin() const { return heap_.begin(); }
  auto end() const { return heap_.end(); }
  // Invariant: the sum of member contexts at the current step. Integer adds, exact in any
  // order.
  int64_t ctx_tokens() const { return ctx_tokens_; }
  // The next join's sequence number: members joined from here on compare >= it.
  int64_t next_seq() const { return next_seq_; }
  // Steps until the earliest member finishes (>= 1).
  int64_t StepsToNextFinish() const { return heap_.front().finish - step_; }
  // Decode steps the member has run.
  int Progress(const Member& member) const {
    return refs_.Progress(member.request, member.finish - step_);
  }

  void Join(Ref request) {
    const int64_t left = refs_.StepsLeft(request);
    heap_.push_back(Member{step_ + left, next_seq_++, request});
    std::push_heap(heap_.begin(), heap_.end(), kFinishesLater);
    ctx_tokens_ += refs_.FinalContext(request) - left;
  }

  // Ends one step: every member gains a token. Returns the tokens generated.
  int64_t EndStep() {
    const int64_t batch = static_cast<int64_t>(heap_.size());
    ctx_tokens_ += batch;
    ++step_;
    return batch;
  }

  // Removes the member at `pos` (mid-run: abort, cancel, preemption).
  Member Remove(size_t pos) {
    const Member member = heap_[pos];
    Leave(member, member.finish - step_);
    heap_[pos] = heap_.back();
    heap_.pop_back();
    std::make_heap(heap_.begin(), heap_.end(), kFinishesLater);
    return member;
  }

  // Removes the members that emitted their last token by the current step, calling
  // `done(member)` for each (any order).
  template <typename Done>
  void PopFinished(Done&& done) {
    while (!heap_.empty() && heap_.front().finish <= step_) {
      const Member top = heap_.front();
      const Member last = heap_.back();
      heap_.pop_back();
      if (!heap_.empty()) {
        RefillTop(last);
      }
      Leave(top, 0);
      done(top);
    }
  }

  // Drops every member (the instance failed).
  void Clear() {
    for (const Member& member : heap_) {
      refs_.Leave(member.request, member.finish - step_);
    }
    heap_.clear();
    ctx_tokens_ = 0;
  }

  // Puts `members` in join order: the order the per-step engines walked their batch.
  static void SortByJoin(std::vector<Member>* members) {
    std::sort(members->begin(), members->end(),
              [](const Member& a, const Member& b) { return a.seq < b.seq; });
  }

 private:
  // Heap order (std::push_heap/pop_heap) that keeps the earliest finish on top.
  static constexpr auto kFinishesLater = [](const Member& a, const Member& b) {
    return a.finish > b.finish;
  };

  // Refills the top hole with `value` as std::pop_heap does (Floyd: the hole descends to a
  // leaf along the earlier-finishing children, then `value` climbs back), so the layout is the
  // same; the child pick is arithmetic, since which child finishes first is a coin toss to the
  // branch predictor.
  void RefillTop(const Member& value) {
    Member* const h = heap_.data();
    const size_t len = heap_.size();
    size_t hole = 0;
    size_t child = 0;
    while (child < (len - 1) / 2) {
      child = 2 * (child + 1);
      child -= static_cast<size_t>(h[child].finish > h[child - 1].finish);
      h[hole] = h[child];
      hole = child;
    }
    if ((len & 1) == 0 && child == (len - 2) / 2) {
      child = 2 * (child + 1);
      h[hole] = h[child - 1];
      hole = child - 1;
    }
    while (hole > 0) {
      const size_t parent = (hole - 1) / 2;
      if (!(h[parent].finish > value.finish)) {
        break;
      }
      h[hole] = h[parent];
      hole = parent;
    }
    h[hole] = value;
  }

  void Leave(const Member& member, int64_t left) {
    refs_.Leave(member.request, left);
    ctx_tokens_ -= refs_.FinalContext(member.request) - left;
  }

  Refs refs_;
  std::vector<Member> heap_;
  int64_t step_ = 0;
  int64_t ctx_tokens_ = 0;
  int64_t next_seq_ = 0;
};

// The engines' members: request states. A resident member's progress lives in the batch's
// step counter; RequestState::decode_steps_done is written only when it leaves (Remove,
// PopFinished, Clear).
struct RequestStateRefs {
  using Ref = RequestState*;
  static int64_t StepsLeft(const RequestState* r) { return r->remaining_decode_steps(); }
  static int64_t FinalContext(const RequestState* r) { return r->request.total_len(); }
  static int Progress(const RequestState* r, int64_t left) {
    return r->request.output_len - 1 - static_cast<int>(left);
  }
  static void Leave(RequestState* r, int64_t left) { r->decode_steps_done = Progress(r, left); }
};

using DecodeBatch = BasicDecodeBatch<RequestStateRefs>;

}  // namespace distserve::engine

#endif  // DISTSERVE_ENGINE_BATCH_FORMER_H_
