// Dataset length distributions.
//
// Only the joint (input length, output length) distribution of a dataset enters the serving
// system, so each paper dataset is represented by a sampler fit to the histograms in Figure 7:
//
//   ShareGPT   (chatbot):        moderate prompts with a heavy tail, long-ish outputs;
//   HumanEval  (code completion): short prompts, short outputs;
//   LongBench  (summarization):  very long prompts, short outputs.
//
// All three use truncated lognormal marginals (lengths are positive and heavy-tailed, like the
// real data). EmpiricalDataset implements the paper's replanning path: fit-from-history by
// resampling observed pairs. FixedDataset provides the uniform-length workloads of the
// analysis sections (Figures 1-5).
#ifndef DISTSERVE_WORKLOAD_DATASET_H_
#define DISTSERVE_WORKLOAD_DATASET_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/rng.h"
#include "workload/request.h"

namespace distserve::workload {

struct LengthSample {
  int input_len = 0;
  int output_len = 0;
};

class Dataset {
 public:
  virtual ~Dataset() = default;
  virtual LengthSample Sample(Rng& rng) const = 0;
  virtual std::string name() const = 0;

  // A string that changes whenever the sampled distribution changes — the cache key used by
  // workload::TraceCache and the planner's goodput cache. Defaults to name(); subclasses
  // whose name underdetermines the distribution must append their parameters.
  virtual std::string identity() const { return name(); }

  // Monte-Carlo mean lengths over `trials` samples drawn from a fresh Rng(seed), for capacity
  // estimates and logging. A Dataset is immutable once built, so the answer is a pure function
  // of (seed, trials): it is computed once and memoized on the dataset, and every later call
  // is a table lookup. Every plan and replan calls it twice on a long-lived dataset, and
  // unmemoized those two 4,096-sample runs would cost twice what the rest of a replan answered
  // wholly from the goodput cache costs (DESIGN.md §13). Safe to call concurrently.
  LengthSample MeanLengths(uint64_t seed, int trials = 4096) const;

 private:
  // MeanLengths' memo: one entry per distinct (seed, trials), of which callers use a handful.
  // A copy starts empty, and assigning over a dataset empties its memo, because the entries
  // belong to the distribution they were sampled from.
  class MeanLengthMemo {
   public:
    MeanLengthMemo() = default;
    MeanLengthMemo(const MeanLengthMemo& /*other*/) {}
    MeanLengthMemo& operator=(const MeanLengthMemo& /*other*/);

    bool Find(uint64_t seed, int trials, LengthSample* mean) const;
    void Insert(uint64_t seed, int trials, LengthSample mean);

   private:
    struct Entry {
      uint64_t seed;
      int trials;
      LengthSample mean;
    };
    mutable std::mutex mu_;
    std::vector<Entry> entries_;
  };
  mutable MeanLengthMemo mean_memo_;
};

// Truncated lognormal marginals for input and output lengths, independently sampled.
class LognormalDataset : public Dataset {
 public:
  struct Params {
    std::string name;
    double input_mu = 0.0;
    double input_sigma = 1.0;
    int input_min = 1;
    int input_max = 1 << 20;
    double output_mu = 0.0;
    double output_sigma = 1.0;
    int output_min = 1;
    int output_max = 1 << 20;
  };

  explicit LognormalDataset(Params params);
  LengthSample Sample(Rng& rng) const override;
  std::string name() const override { return params_.name; }
  std::string identity() const override;
  const Params& params() const { return params_; }

 private:
  Params params_;
};

// Every request has exactly (input_len, output_len); used by Figures 1-5.
class FixedDataset : public Dataset {
 public:
  FixedDataset(int input_len, int output_len);
  LengthSample Sample(Rng& rng) const override;
  std::string name() const override;

 private:
  int input_len_;
  int output_len_;
};

// Resamples uniformly from an observed set of (input, output) pairs — the paper's
// "fit a distribution from the history request traces and resample" step (§4.1).
class EmpiricalDataset : public Dataset {
 public:
  EmpiricalDataset(std::string name, std::vector<LengthSample> observations);

  // Builds the empirical distribution from a recorded trace.
  static EmpiricalDataset FromTrace(std::string name, const Trace& trace);

  LengthSample Sample(Rng& rng) const override;
  std::string name() const override { return name_; }
  std::string identity() const override;
  size_t observation_count() const { return observations_.size(); }

 private:
  std::string name_;
  std::vector<LengthSample> observations_;
  uint64_t observation_digest_ = 0;  // FNV-1a over the pairs, computed once
};

// The three paper datasets (parameters fit to Figure 7).
std::unique_ptr<Dataset> MakeShareGptLike();
std::unique_ptr<Dataset> MakeHumanEvalLike();
std::unique_ptr<Dataset> MakeLongBenchLike();

// Lookup by name ("sharegpt" | "humaneval" | "longbench"); CHECK-fails on unknown names.
std::unique_ptr<Dataset> MakeDatasetByName(const std::string& name);

}  // namespace distserve::workload

#endif  // DISTSERVE_WORKLOAD_DATASET_H_
