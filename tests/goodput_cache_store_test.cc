// Persistent goodput cache (DESIGN.md §13): exact round-tripping, calibration-hash and
// version invalidation, corrupt-file tolerance (load whole or not at all), newest-wins merge,
// the GoodputCache stats/Clear split, and the stale-hint clamp regression.
#include "placement/goodput_cache_store.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common/float_format.h"
#include "core/distserve.h"
#include "placement/algorithms.h"
#include "workload/dataset.h"

namespace distserve::placement {
namespace {

std::string TempPath(const std::string& name) { return ::testing::TempDir() + name; }

std::string ReadFile(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

void WriteFile(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::trunc);
  out << content;
}

model::LatencyCoefficients TestCoefficients() {
  return model::LatencyCoefficients::FromGpu(cluster::ClusterSpec::PaperTestbed().gpu);
}

bool BitEqual(double a, double b) {
  uint64_t ba = 0;
  uint64_t bb = 0;
  std::memcpy(&ba, &a, sizeof(ba));
  std::memcpy(&bb, &b, sizeof(bb));
  return ba == bb;
}

// The float-format satellite: every binary64 the planner can produce must survive the
// serialization path bit-for-bit — denormals, negative zero, and very large rates included.
TEST(FloatFormatTest, ExactAndHexRoundTripAwkwardDoubles) {
  const std::vector<double> values = {
      0.0,
      -0.0,
      1.0,
      1.0 / 3.0,
      6.02214076e23,
      1e300,                                          // large
      4.9406564584124654e-324,                        // smallest denormal
      2.2250738585072009e-308,                        // largest denormal
      std::numeric_limits<double>::min(),
      std::numeric_limits<double>::max(),
      std::nextafter(1.0, 2.0),                       // 1 + ulp
      123456.78901234567,                             // a plausible rate
  };
  for (double v : values) {
    const auto dec = ParseDouble(FormatDoubleExact(v));
    ASSERT_TRUE(dec.has_value()) << FormatDoubleExact(v);
    EXPECT_TRUE(BitEqual(*dec, v)) << FormatDoubleExact(v);
    const auto hex = ParseDouble(FormatDoubleHex(v));
    ASSERT_TRUE(hex.has_value()) << FormatDoubleHex(v);
    EXPECT_TRUE(BitEqual(*hex, v)) << FormatDoubleHex(v);
  }
  // "%.6g" — the bench-table default — demonstrably does NOT round-trip; that is why the
  // exact mode exists and the cache format uses it.
  char lossy[64];
  std::snprintf(lossy, sizeof(lossy), "%.6g", 123456.78901234567);
  EXPECT_FALSE(BitEqual(*ParseDouble(lossy), 123456.78901234567));
}

TEST(FloatFormatTest, ParseRejectsGarbage) {
  EXPECT_FALSE(ParseDouble("").has_value());
  EXPECT_FALSE(ParseDouble(" 1.0").has_value());
  EXPECT_FALSE(ParseDouble("1.0 ").has_value());
  EXPECT_FALSE(ParseDouble("1.0x").has_value());
  EXPECT_FALSE(ParseDouble("rate").has_value());
  EXPECT_TRUE(ParseDouble("0x1.8p+1").has_value());
  EXPECT_DOUBLE_EQ(*ParseDouble("0x1.8p+1"), 3.0);
}

TEST(GoodputCacheStoreTest, SaveLoadRoundTripIsBitExact) {
  const std::string path = TempPath("gpcache_roundtrip.txt");
  const uint64_t hash = GoodputCacheStore::CalibrationHash(TestCoefficients());
  GoodputCache cache;
  const std::vector<std::pair<std::string, double>> values = {
      {"model|1;2;p", 123456.78901234567},
      {"model|1;2;d", 4.9406564584124654e-324},  // denormal goodput
      {"model with spaces|4;1;p", 0.0},
      {"negative\nzero\\key", -0.0},  // newline + backslash in the key, -0.0 value
      {"huge|8;4;d", 1e300},
  };
  for (const auto& [key, value] : values) {
    cache.Insert(key, value);
  }
  cache.UpdateRateHint("hint|1;2;p", 7.25);
  cache.UpdateRateHint("hint|1;2;d", 2.2250738585072009e-308);
  ASSERT_TRUE(GoodputCacheStore::Save(path, hash, cache));

  GoodputCache loaded;
  const auto result = GoodputCacheStore::Load(path, hash, &loaded);
  EXPECT_TRUE(result.ok());
  EXPECT_EQ(result.values_loaded, static_cast<int64_t>(values.size()));
  EXPECT_EQ(result.hints_loaded, 2);
  for (const auto& [key, value] : values) {
    const auto hit = loaded.Lookup(key);
    ASSERT_TRUE(hit.has_value()) << key;
    EXPECT_TRUE(BitEqual(*hit, value)) << key;
  }
  EXPECT_TRUE(BitEqual(*loaded.RateHint("hint|1;2;p"), 7.25));
  EXPECT_TRUE(BitEqual(*loaded.RateHint("hint|1;2;d"), 2.2250738585072009e-308));

  // Same contents -> same bytes: a second save of the loaded cache is file-identical.
  const std::string path2 = TempPath("gpcache_roundtrip2.txt");
  ASSERT_TRUE(GoodputCacheStore::Save(path2, hash, loaded));
  EXPECT_EQ(ReadFile(path), ReadFile(path2));
}

TEST(GoodputCacheStoreTest, VersionMismatchLoadsNothing) {
  const std::string path = TempPath("gpcache_version.txt");
  const uint64_t hash = GoodputCacheStore::CalibrationHash(TestCoefficients());
  GoodputCache cache;
  cache.Insert("k", 1.0);
  ASSERT_TRUE(GoodputCacheStore::Save(path, hash, cache));
  std::string content = ReadFile(path);
  const size_t pos = content.find("cache 1");
  ASSERT_NE(pos, std::string::npos);
  content.replace(pos, 7, "cache 999");
  WriteFile(path, content);

  GoodputCache loaded;
  const auto result = GoodputCacheStore::Load(path, hash, &loaded);
  EXPECT_EQ(result.status, GoodputCacheStore::LoadStatus::kVersionMismatch);
  EXPECT_EQ(loaded.stats().entries, 0);
}

TEST(GoodputCacheStoreTest, CalibrationHashMismatchLoadsNothing) {
  const std::string path = TempPath("gpcache_calib.txt");
  const uint64_t hash = GoodputCacheStore::CalibrationHash(TestCoefficients());
  GoodputCache cache;
  cache.Insert("k", 1.0);
  cache.UpdateRateHint("h", 2.0);
  ASSERT_TRUE(GoodputCacheStore::Save(path, hash, cache));

  // Flipping any single Appendix-A coefficient changes the hash, and a load under the new
  // calibration rejects every persisted entry instead of warm-starting from stale goodputs.
  const model::LatencyCoefficients base = TestCoefficients();
  std::vector<model::LatencyCoefficients> flipped(7, base);
  flipped[0].c1 *= 1.01;
  flipped[1].c2 *= 1.01;
  flipped[2].c3 *= 1.01;
  flipped[3].c4 *= 1.01;
  flipped[4].c5 *= 1.01;
  flipped[5].collective_byte_time *= 1.01;
  flipped[6].collective_latency *= 1.01;
  for (const model::LatencyCoefficients& coeffs : flipped) {
    const uint64_t other = GoodputCacheStore::CalibrationHash(coeffs);
    EXPECT_NE(other, hash);
    GoodputCache loaded;
    const auto result = GoodputCacheStore::Load(path, other, &loaded);
    EXPECT_EQ(result.status, GoodputCacheStore::LoadStatus::kCalibrationMismatch);
    EXPECT_EQ(loaded.stats().entries, 0);
    EXPECT_FALSE(loaded.RateHint("h").has_value());
  }
}

TEST(GoodputCacheStoreTest, CorruptOrTruncatedFilesLoadNothing) {
  const std::string path = TempPath("gpcache_corrupt.txt");
  const uint64_t hash = GoodputCacheStore::CalibrationHash(TestCoefficients());
  GoodputCache cache;
  for (int i = 0; i < 8; ++i) {
    cache.Insert("key" + std::to_string(i), 1.0 + i);
  }
  ASSERT_TRUE(GoodputCacheStore::Save(path, hash, cache));
  const std::string good = ReadFile(path);

  const auto expect_corrupt = [&](const std::string& content, const char* what) {
    WriteFile(path, content);
    GoodputCache loaded;
    loaded.Insert("pre-existing", 42.0);
    const auto result = GoodputCacheStore::Load(path, hash, &loaded);
    EXPECT_EQ(result.status, GoodputCacheStore::LoadStatus::kCorrupt) << what;
    // Never half-loads: the cache holds exactly what it held before the attempt.
    EXPECT_EQ(loaded.stats().entries, 1) << what;
    EXPECT_TRUE(loaded.Lookup("pre-existing").has_value()) << what;
  };

  expect_corrupt(good.substr(0, good.size() / 2), "truncated mid-line");
  // Truncated at a line boundary: the counts header catches what line parsing cannot.
  const size_t last_line = good.rfind("v ");
  ASSERT_NE(last_line, std::string::npos);
  expect_corrupt(good.substr(0, last_line), "truncated at line boundary");
  expect_corrupt("", "empty file");
  expect_corrupt("random garbage\n", "no header");

  std::string bad_value = good;
  const size_t vpos = bad_value.find("v 0x");
  ASSERT_NE(vpos, std::string::npos);
  bad_value.replace(vpos, 4, "v zz");
  expect_corrupt(bad_value, "malformed value");

  // Missing file is a quiet cold start, not corruption.
  GoodputCache loaded;
  const auto result = GoodputCacheStore::Load(TempPath("gpcache_does_not_exist.txt"), hash,
                                              &loaded);
  EXPECT_EQ(result.status, GoodputCacheStore::LoadStatus::kNoFile);
}

TEST(GoodputCacheStoreTest, SaveMergesNewestWinsAndReplacesIncompatible) {
  const std::string path = TempPath("gpcache_merge.txt");
  const uint64_t hash = GoodputCacheStore::CalibrationHash(TestCoefficients());

  GoodputCache first;
  first.Insert("shared", 1.0);
  first.Insert("only-first", 10.0);
  ASSERT_TRUE(GoodputCacheStore::Save(path, hash, first));

  // A second process saves a conflicting value: its (newer) result wins, but entries only the
  // file holds survive the merge.
  GoodputCache second;
  second.Insert("shared", 2.0);
  second.Insert("only-second", 20.0);
  ASSERT_TRUE(GoodputCacheStore::Save(path, hash, second));

  GoodputCache loaded;
  ASSERT_TRUE(GoodputCacheStore::Load(path, hash, &loaded).ok());
  EXPECT_TRUE(BitEqual(*loaded.Lookup("shared"), 2.0));
  EXPECT_TRUE(BitEqual(*loaded.Lookup("only-first"), 10.0));
  EXPECT_TRUE(BitEqual(*loaded.Lookup("only-second"), 20.0));

  // Load-side newest wins: entries already in memory are not overwritten by disk.
  GoodputCache in_memory;
  in_memory.Insert("shared", 3.0);
  ASSERT_TRUE(GoodputCacheStore::Load(path, hash, &in_memory).ok());
  EXPECT_TRUE(BitEqual(*in_memory.Lookup("shared"), 3.0));
  EXPECT_TRUE(BitEqual(*in_memory.Lookup("only-first"), 10.0));

  // Save under a different calibration replaces the incompatible file wholesale.
  model::LatencyCoefficients recalibrated = TestCoefficients();
  recalibrated.c3 *= 2.0;
  const uint64_t new_hash = GoodputCacheStore::CalibrationHash(recalibrated);
  GoodputCache fresh;
  fresh.Insert("fresh", 5.0);
  ASSERT_TRUE(GoodputCacheStore::Save(path, new_hash, fresh));
  GoodputCache reloaded;
  ASSERT_TRUE(GoodputCacheStore::Load(path, new_hash, &reloaded).ok());
  EXPECT_EQ(reloaded.stats().entries, 1);
  EXPECT_FALSE(reloaded.Lookup("shared").has_value());
}

// The Clear()/stats satellite: invalidation drops entries, not the lifetime hit/miss record,
// and hints are visible in Stats.
TEST(GoodputCacheTest, ClearKeepsLifetimeCountersAndStatsCountHints) {
  GoodputCache cache;
  cache.Insert("a", 1.0);
  cache.UpdateRateHint("ha", 1.0);
  cache.UpdateRateHint("hb", 2.0);
  EXPECT_FALSE(cache.Lookup("miss").has_value());
  cache.CountLookup(/*hit=*/false);
  EXPECT_TRUE(cache.Lookup("a").has_value());
  cache.CountLookup(/*hit=*/true);

  GoodputCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.hits, 1);
  EXPECT_EQ(stats.misses, 1);
  EXPECT_EQ(stats.entries, 1);
  EXPECT_EQ(stats.hint_entries, 2);

  cache.Clear();
  stats = cache.stats();
  EXPECT_EQ(stats.entries, 0);
  EXPECT_EQ(stats.hint_entries, 0);
  // A freshly invalidated cache must not report a spotless lifetime record.
  EXPECT_EQ(stats.hits, 1);
  EXPECT_EQ(stats.misses, 1);

  cache.ResetStats();
  stats = cache.stats();
  EXPECT_EQ(stats.hits, 0);
  EXPECT_EQ(stats.misses, 0);
}

PlannerInputs SmallInputs(const workload::Dataset* dataset) {
  PlannerInputs inputs;
  inputs.model = model::ModelSpec::Opt13B();
  inputs.cluster = cluster::ClusterSpec::PaperTestbed();
  inputs.dataset = dataset;
  inputs.slo = {0.2, 0.1};
  inputs.traffic_rate = 10.0;
  inputs.max_nodes_per_instance = 2;
  inputs.search.num_requests = 120;
  inputs.search.min_trace_duration = 15.0;
  inputs.search.max_requests = 1200;
  inputs.search.bisection_iters = 4;
  return inputs;
}

void ExpectPlansIdentical(const PlacementPlan& a, const PlacementPlan& b) {
  EXPECT_EQ(a.prefill_par, b.prefill_par);
  EXPECT_EQ(a.decode_par, b.decode_par);
  EXPECT_EQ(a.num_prefill, b.num_prefill);
  EXPECT_EQ(a.num_decode, b.num_decode);
  EXPECT_EQ(a.prefill_goodput, b.prefill_goodput);  // bitwise, not approximate
  EXPECT_EQ(a.decode_goodput, b.decode_goodput);
}

// End-to-end warm start across "processes" (two caches bridged by the file): the warm search
// answers every simulation from disk and returns bitwise the cold search's plan.
TEST(GoodputCacheStoreTest, PersistedCacheWarmStartsAnIdenticalPlan) {
  const std::string path = TempPath("gpcache_warmstart.txt");
  std::remove(path.c_str());
  const uint64_t hash = GoodputCacheStore::CalibrationHash(TestCoefficients());
  const auto dataset = workload::MakeShareGptLike();

  GoodputCache cold_cache;
  PlannerInputs inputs = SmallInputs(dataset.get());
  inputs.goodput_cache = &cold_cache;
  const PlannerResult cold = HighNodeAffinityPlacement(inputs);
  EXPECT_EQ(cold.cache_hits, 0);
  ASSERT_TRUE(GoodputCacheStore::Save(path, hash, cold_cache));

  GoodputCache warm_cache;
  ASSERT_TRUE(GoodputCacheStore::Load(path, hash, &warm_cache).ok());
  inputs.goodput_cache = &warm_cache;
  const PlannerResult warm = HighNodeAffinityPlacement(inputs);
  EXPECT_EQ(warm.cache_hits, warm.simulations_run);
  EXPECT_GT(warm.cache_hits, 0);
  ExpectPlansIdentical(cold.plan, warm.plan);
}

// The hint-clamp satellite: a persisted hint that is oversized (stale, from a beefier
// calibration) or outright corrupt (inf/NaN) may cost probes but can never change the plan.
TEST(GoodputCacheStoreTest, CorruptOrOversizedHintsCannotChangeThePlan) {
  const auto dataset = workload::MakeShareGptLike();
  PlannerInputs inputs = SmallInputs(dataset.get());
  const PlannerResult baseline = HighNodeAffinityPlacement(inputs);

  // Learn the real hint keys by running once with a cache, then poison every hint.
  GoodputCache filler;
  inputs.goodput_cache = &filler;
  HighNodeAffinityPlacement(inputs);
  const GoodputCache::Snapshot learned = filler.TakeSnapshot();
  ASSERT_FALSE(learned.hints.empty());

  const std::vector<double> poisons = {1e9, std::numeric_limits<double>::infinity(),
                                       std::numeric_limits<double>::quiet_NaN(), -5.0};
  for (double poison : poisons) {
    GoodputCache::Snapshot poisoned;
    for (const auto& [key, value] : learned.hints) {
      poisoned.hints[key] = poison == 1e9 ? value * 1e9 : poison;
    }
    GoodputCache poisoned_cache;
    poisoned_cache.Merge(poisoned);  // hints only: every value lookup misses, every hint hits
    PlannerInputs poisoned_inputs = SmallInputs(dataset.get());
    poisoned_inputs.goodput_cache = &poisoned_cache;
    const PlannerResult result = HighNodeAffinityPlacement(poisoned_inputs);
    EXPECT_EQ(result.cache_hits, 0);
    ExpectPlansIdentical(baseline.plan, result.plan);
  }
}

// Facade-level integration: DistServeOptions::goodput_cache_path gives a second process a
// fully warm replan with a bitwise-identical plan.
TEST(GoodputCacheStoreTest, DistServeFacadeWarmStartsFromDisk) {
  const std::string path = TempPath("gpcache_facade.txt");
  std::remove(path.c_str());
  const auto dataset = workload::MakeShareGptLike();
  DistServeOptions options;
  options.model = model::ModelSpec::Opt13B();
  options.cluster = cluster::ClusterSpec::PaperTestbed();
  options.slo = {0.2, 0.1};
  options.traffic_rate = 10.0;
  options.dataset = dataset.get();
  options.search.num_requests = 120;
  options.search.min_trace_duration = 15.0;
  options.search.max_requests = 1200;
  options.search.bisection_iters = 4;
  options.goodput_cache_path = path;

  DistServe cold(options);
  const PlacementPlan cold_plan = cold.Plan();
  EXPECT_EQ(cold.PlannerDetails().cache_hits, 0);

  DistServe warm(options);
  const PlacementPlan warm_plan = warm.Plan();
  EXPECT_GT(warm.PlannerDetails().cache_hits, 0);
  EXPECT_EQ(warm.PlannerDetails().cache_hits, warm.PlannerDetails().simulations_run);
  ExpectPlansIdentical(cold_plan, warm_plan);
}

// A plan answered wholly from the cache measured nothing new, so the facade must not
// rewrite the file; a plan that simulated something must, with every older entry kept.
TEST(GoodputCacheStoreTest, WarmReplanDoesNotRewriteUnchangedFile) {
  const std::string path = TempPath("gpcache_skip_save.txt");
  std::remove(path.c_str());
  const uint64_t hash = GoodputCacheStore::CalibrationHash(TestCoefficients());
  const auto sharegpt = workload::MakeShareGptLike();
  const auto humaneval = workload::MakeHumanEvalLike();
  DistServeOptions options;
  options.model = model::ModelSpec::Opt13B();
  options.cluster = cluster::ClusterSpec::PaperTestbed();
  options.slo = {0.2, 0.1};
  options.traffic_rate = 10.0;
  options.dataset = sharegpt.get();
  options.search.num_requests = 120;
  options.search.min_trace_duration = 15.0;
  options.search.max_requests = 1200;
  options.search.bisection_iters = 4;
  options.goodput_cache_path = path;

  DistServe cold(options);
  cold.Plan();
  GoodputCache persisted;
  ASSERT_TRUE(GoodputCacheStore::Load(path, hash, &persisted).ok());
  const GoodputCache::Snapshot before = persisted.TakeSnapshot();
  ASSERT_FALSE(before.values.empty());

  DistServe warm(options);
  ASSERT_EQ(std::remove(path.c_str()), 0);
  auto file_exists = [&] { return std::ifstream(path).good(); };

  warm.Plan();
  EXPECT_GT(warm.PlannerDetails().simulations_run, 0);
  EXPECT_EQ(warm.PlannerDetails().cache_hits, warm.PlannerDetails().simulations_run);
  EXPECT_FALSE(file_exists());

  warm.ReplanDegraded(options.cluster.Degraded(2), 10.0);
  EXPECT_GT(warm.PlannerDetails().simulations_run, 0);
  EXPECT_EQ(warm.PlannerDetails().cache_hits, warm.PlannerDetails().simulations_run);
  EXPECT_FALSE(file_exists());

  warm.Replan(humaneval.get(), 10.0);
  EXPECT_LT(warm.PlannerDetails().cache_hits, warm.PlannerDetails().simulations_run);
  ASSERT_TRUE(file_exists());
  GoodputCache reloaded;
  const GoodputCacheStore::LoadResult loaded = GoodputCacheStore::Load(path, hash, &reloaded);
  ASSERT_TRUE(loaded.ok());
  EXPECT_GT(loaded.values_loaded, static_cast<int64_t>(before.values.size()));
  const GoodputCache::Snapshot after = reloaded.TakeSnapshot();
  for (const auto& [key, value] : before.values) {
    const auto it = after.values.find(key);
    ASSERT_NE(it, after.values.end()) << key;
    EXPECT_TRUE(BitEqual(it->second, value)) << key;
  }
}

}  // namespace
}  // namespace distserve::placement
