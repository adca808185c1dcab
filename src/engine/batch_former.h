// Prefill batch formation (§4.3 "reducing pipeline bubbles").
//
// The paper schedules prefill batches whose total new-token count is close to L_m, the GPU
// saturation threshold: multiple short prompts are batched together, prompts longer than L_m
// run alone. Keeping batch sizes near L_m equalises stage execution times across batches,
// which minimises pipeline bubbles under inter-op parallelism. Extracted from the instance so
// the policy is unit-testable in isolation.
#ifndef DISTSERVE_ENGINE_BATCH_FORMER_H_
#define DISTSERVE_ENGINE_BATCH_FORMER_H_

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

// Pops a FCFS prefix of `queue` into `*batch`, replacing its contents (the caller owns the
// vector and reuses its capacity across batches):
//   - the head request is always eligible (even when longer than target_tokens — the paper
//     schedules over-length prompts individually);
//   - subsequent requests join while the running token total stays within target_tokens and
//     the batch is below max_batch_size;
//   - `memory_fits(total_tokens)` gates every admission including the head; if even the head
//     cannot fit, the batch comes back empty and the queue is left untouched (KV stall).
//     The predicate is a template parameter, called directly: a std::function would
//     heap-allocate the prefill instance's capturing lambda once per batch.
//
// When `workload` is non-null it accumulates the admitted prompts' BatchWorkload in admission
// order (the same order BatchWorkload::Prefill would sum them, so the FP total is identical),
// sparing the caller a second pass over the batch. Cached prefixes
// (workload::Request::cached_prefix_len) are skipped in the accumulated *compute* — only the
// uncached suffix contributes tokens, attending over the full prompt — while the batching
// token budget keeps counting full prompts (KV residency is what admission must bound).
template <typename MemoryFits>
void FormPrefillBatch(RequestQueue& queue, const PrefillBatchPolicy& policy,
                      MemoryFits&& memory_fits, std::vector<RequestState*>* batch,
                      model::BatchWorkload* workload = nullptr) {
  batch->clear();
  int64_t total_tokens = 0;
  while (!queue.empty() && static_cast<int>(batch->size()) < policy.max_batch_size) {
    RequestState* head = queue.front();
    const int64_t head_tokens = head->request.input_len;
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
      const int64_t computed = head_tokens - head->request.cached_prefix_len;
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

}  // namespace distserve::engine

#endif  // DISTSERVE_ENGINE_BATCH_FORMER_H_
