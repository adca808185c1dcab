#include "workload/dataset.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "common/logging.h"

namespace distserve::workload {

namespace {

// FNV-1a; cheap, stable across platforms, good enough to distinguish observation sets.
uint64_t Fnv1a(uint64_t hash, uint64_t value) {
  constexpr uint64_t kPrime = 1099511628211ull;
  for (int byte = 0; byte < 8; ++byte) {
    hash ^= (value >> (8 * byte)) & 0xff;
    hash *= kPrime;
  }
  return hash;
}

}  // namespace

Dataset::MeanLengthMemo& Dataset::MeanLengthMemo::operator=(const MeanLengthMemo& /*other*/) {
  const std::lock_guard<std::mutex> lock(mu_);
  entries_.clear();
  return *this;
}

bool Dataset::MeanLengthMemo::Find(uint64_t seed, int trials, LengthSample* mean) const {
  const std::lock_guard<std::mutex> lock(mu_);
  for (const Entry& e : entries_) {
    if (e.seed == seed && e.trials == trials) {
      *mean = e.mean;
      return true;
    }
  }
  return false;
}

void Dataset::MeanLengthMemo::Insert(uint64_t seed, int trials, LengthSample mean) {
  const std::lock_guard<std::mutex> lock(mu_);
  for (const Entry& e : entries_) {
    if (e.seed == seed && e.trials == trials) {
      return;  // a concurrent caller got here first, with the same value
    }
  }
  entries_.push_back(Entry{seed, trials, mean});
}

LengthSample Dataset::MeanLengths(uint64_t seed, int trials) const {
  DS_CHECK_GT(trials, 0);
  LengthSample mean;
  if (mean_memo_.Find(seed, trials, &mean)) {
    return mean;
  }
  // Sampled outside the memo's lock, so concurrent callers with other keys never wait on it.
  Rng rng(seed);
  double in_sum = 0.0;
  double out_sum = 0.0;
  for (int i = 0; i < trials; ++i) {
    const LengthSample s = Sample(rng);
    in_sum += s.input_len;
    out_sum += s.output_len;
  }
  mean = LengthSample{static_cast<int>(in_sum / trials), static_cast<int>(out_sum / trials)};
  mean_memo_.Insert(seed, trials, mean);
  return mean;
}

LognormalDataset::LognormalDataset(Params params) : params_(std::move(params)) {
  DS_CHECK_GE(params_.input_min, 1);
  DS_CHECK_GE(params_.output_min, 1);
  DS_CHECK_LE(params_.input_min, params_.input_max);
  DS_CHECK_LE(params_.output_min, params_.output_max);
}

LengthSample LognormalDataset::Sample(Rng& rng) const {
  auto draw = [&rng](double mu, double sigma, int lo, int hi) {
    // Rejection-truncate; the clamping fallback guards against pathological parameters.
    for (int attempt = 0; attempt < 64; ++attempt) {
      const int value = static_cast<int>(std::lround(rng.LogNormal(mu, sigma)));
      if (value >= lo && value <= hi) {
        return value;
      }
    }
    return std::clamp(static_cast<int>(std::lround(std::exp(mu))), lo, hi);
  };
  LengthSample sample;
  sample.input_len =
      draw(params_.input_mu, params_.input_sigma, params_.input_min, params_.input_max);
  sample.output_len =
      draw(params_.output_mu, params_.output_sigma, params_.output_min, params_.output_max);
  return sample;
}

std::string LognormalDataset::identity() const {
  char buf[160];
  std::snprintf(buf, sizeof(buf), "|ln:%a,%a,%d,%d,%a,%a,%d,%d", params_.input_mu,
                params_.input_sigma, params_.input_min, params_.input_max, params_.output_mu,
                params_.output_sigma, params_.output_min, params_.output_max);
  return params_.name + buf;
}

FixedDataset::FixedDataset(int input_len, int output_len)
    : input_len_(input_len), output_len_(output_len) {
  DS_CHECK_GE(input_len, 1);
  DS_CHECK_GE(output_len, 1);
}

LengthSample FixedDataset::Sample(Rng& /*rng*/) const {
  return LengthSample{input_len_, output_len_};
}

std::string FixedDataset::name() const {
  return "fixed-" + std::to_string(input_len_) + "x" + std::to_string(output_len_);
}

EmpiricalDataset::EmpiricalDataset(std::string name, std::vector<LengthSample> observations)
    : name_(std::move(name)), observations_(std::move(observations)) {
  DS_CHECK(!observations_.empty()) << "empirical dataset needs at least one observation";
  uint64_t digest = 14695981039346656037ull;
  for (const LengthSample& s : observations_) {
    digest = Fnv1a(digest, (static_cast<uint64_t>(static_cast<uint32_t>(s.input_len)) << 32) |
                               static_cast<uint32_t>(s.output_len));
  }
  observation_digest_ = digest;
}

std::string EmpiricalDataset::identity() const {
  return name_ + "|emp:" + std::to_string(observations_.size()) + "," +
         std::to_string(observation_digest_);
}

EmpiricalDataset EmpiricalDataset::FromTrace(std::string name, const Trace& trace) {
  std::vector<LengthSample> obs;
  obs.reserve(trace.size());
  for (const Request& r : trace) {
    obs.push_back(LengthSample{r.input_len, r.output_len});
  }
  return EmpiricalDataset(std::move(name), std::move(obs));
}

LengthSample EmpiricalDataset::Sample(Rng& rng) const {
  const auto idx =
      static_cast<size_t>(rng.UniformInt(0, static_cast<int64_t>(observations_.size()) - 1));
  return observations_[idx];
}

std::unique_ptr<Dataset> MakeShareGptLike() {
  LognormalDataset::Params p;
  p.name = "sharegpt-like";
  // Figure 7a: prompts peak in the 100-300 token range with a thin tail past 1k; outputs are
  // slightly shorter. Sigma is calibrated so only a few percent of prompts exceed ~700 tokens
  // (the paper's chatbot placements serve the TTFT SLO with tp<=2 prefill, which bounds the
  // feasible tail mass).
  p.input_mu = 5.15;
  p.input_sigma = 0.8;
  p.input_min = 4;
  p.input_max = 2048;
  p.output_mu = 5.0;
  p.output_sigma = 0.8;
  p.output_min = 2;
  p.output_max = 1024;
  return std::make_unique<LognormalDataset>(p);
}

std::unique_ptr<Dataset> MakeHumanEvalLike() {
  LognormalDataset::Params p;
  p.name = "humaneval-like";
  // Figure 7b: short function signature/docstring prompts, short completions.
  p.input_mu = 4.9;
  p.input_sigma = 0.45;
  p.input_min = 32;
  p.input_max = 512;
  p.output_mu = 4.2;
  p.output_sigma = 0.6;
  p.output_min = 8;
  p.output_max = 512;
  return std::make_unique<LognormalDataset>(p);
}

std::unique_ptr<Dataset> MakeLongBenchLike() {
  LognormalDataset::Params p;
  p.name = "longbench-like";
  // Figure 7c: much longer inputs (articles/papers), concise summaries.
  p.input_mu = 8.0;
  p.input_sigma = 0.7;
  p.input_min = 256;
  p.input_max = 16384;
  p.output_mu = 5.2;
  p.output_sigma = 0.5;
  p.output_min = 16;
  p.output_max = 512;
  return std::make_unique<LognormalDataset>(p);
}

std::unique_ptr<Dataset> MakeDatasetByName(const std::string& name) {
  if (name == "sharegpt") {
    return MakeShareGptLike();
  }
  if (name == "humaneval") {
    return MakeHumanEvalLike();
  }
  if (name == "longbench") {
    return MakeLongBenchLike();
  }
  DS_CHECK(false) << "unknown dataset: " << name;
  return nullptr;
}

}  // namespace distserve::workload
