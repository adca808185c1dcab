#include "bench/bench_common.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

namespace distserve::bench {
namespace {

constexpr unsigned kAll = kFlagSmoke | kFlagJson | kFlagGoodputCache | kFlagTrace |
                          kFlagCluster | kFlagThreads | kFlagShards;

// Runs the parser over `args` (argv[0] supplied) with a scratch CommonFlags.
bool Parse(std::vector<std::string> args, unsigned accepted, CommonFlags* flags) {
  std::vector<char*> argv;
  std::string argv0 = "bench_under_test";
  argv.push_back(argv0.data());
  for (std::string& a : args) {
    argv.push_back(a.data());
  }
  return ParseCommonFlags(static_cast<int>(argv.size()), argv.data(), accepted, flags);
}

class BenchFlagsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    unsetenv("DISTSERVE_THREADS");
    unsetenv("DISTSERVE_SHARDS");
  }
  void TearDown() override { SetUp(); }
};

TEST_F(BenchFlagsTest, ParsesEveryAcceptedFlag) {
  CommonFlags flags;
  EXPECT_TRUE(Parse({"--smoke", "--json=out.json", "--goodput-cache=cache.txt",
                     "--trace=trace.json", "--cluster=4x8xA100", "--threads=3", "--shards=4"},
                    kAll, &flags));
  EXPECT_TRUE(flags.smoke);
  EXPECT_EQ(flags.json_path, "out.json");
  EXPECT_EQ(flags.goodput_cache, "cache.txt");
  EXPECT_EQ(flags.trace_path, "trace.json");
  EXPECT_EQ(flags.cluster_spec, "4x8xA100");
  EXPECT_EQ(flags.threads, 3);
  EXPECT_EQ(flags.shards, 4);
}

TEST_F(BenchFlagsTest, AttributionFlagIsFig10s) {
  constexpr unsigned kFig10 = kFlagSmoke | kFlagTrace | kFlagAttribution;
  CommonFlags flags;
  EXPECT_TRUE(Parse({"--smoke", "--trace=t.json", "--attribution=attr.txt"}, kFig10, &flags));
  EXPECT_TRUE(flags.smoke);
  EXPECT_EQ(flags.trace_path, "t.json");
  EXPECT_EQ(flags.attribution_path, "attr.txt");
  CommonFlags missing;
  EXPECT_FALSE(Parse({"--attribution"}, kFig10, &missing));
  CommonFlags unaccepted;
  EXPECT_FALSE(Parse({"--attribution=attr.txt"}, kAll, &unaccepted));
}

TEST_F(BenchFlagsTest, RejectsBadShardValues) {
  for (const char* arg : {"--shards=0", "--shards=-2", "--shards=abc", "--shards=4x",
                          "--shards=", "--shards=99999999999999"}) {
    CommonFlags flags;
    EXPECT_FALSE(Parse({arg}, kAll, &flags)) << arg;
  }
}

TEST_F(BenchFlagsTest, RejectsBadThreadValues) {
  for (const char* arg : {"--threads=0", "--threads=-2", "--threads=abc", "--threads=4x",
                          "--threads=", "--threads=99999999999999"}) {
    CommonFlags flags;
    EXPECT_FALSE(Parse({arg}, kAll, &flags)) << arg;
  }
}

// --threads (planner and sweep threads) and --shards (fig_fleet's DES shards) are separate
// flags with separate environment variables; neither is an alias of the other.
TEST_F(BenchFlagsTest, ThreadsAndShardsAreDistinct) {
  CommonFlags flags;
  EXPECT_TRUE(Parse({"--threads=4"}, kAll, &flags));
  EXPECT_EQ(flags.threads, 4);
  EXPECT_EQ(flags.shards, 1);
  CommonFlags fleet;
  EXPECT_FALSE(Parse({"--threads=4"}, kFlagShards, &fleet));
  EXPECT_FALSE(Parse({"--shards=4"}, kFlagThreads, &fleet));
  setenv("DISTSERVE_SHARDS", "3", 1);
  CommonFlags from_env;
  EXPECT_TRUE(Parse({}, kFlagThreads, &from_env));
  EXPECT_EQ(from_env.threads, 1);
}

TEST_F(BenchFlagsTest, RejectsValueFlagWithMissingValue) {
  for (const char* arg : {"--goodput-cache", "--json", "--trace", "--cluster", "--json=",
                          "--goodput-cache="}) {
    CommonFlags flags;
    EXPECT_FALSE(Parse({arg}, kAll, &flags)) << arg;
  }
}

TEST_F(BenchFlagsTest, RejectsValueOnValuelessFlag) {
  CommonFlags flags;
  EXPECT_FALSE(Parse({"--smoke=1"}, kAll, &flags));
}

TEST_F(BenchFlagsTest, RejectsUnknownAndUnacceptedFlags) {
  CommonFlags flags;
  EXPECT_FALSE(Parse({"--bogus"}, kAll, &flags));
  EXPECT_FALSE(Parse({"--smokey"}, kAll, &flags));  // prefix of no accepted flag
  // A known flag outside the accepted subset is unknown to this bench.
  EXPECT_FALSE(Parse({"--trace=t.json"}, kFlagSmoke | kFlagJson, &flags));
  // The deleted tier-off escape hatch is unknown everywhere now, so fig8 and fig_hetero
  // exit 2 on it. (The literal is split so a search for the flag's name finds only code
  // that still uses it.)
  EXPECT_FALSE(Parse({"--no-analytic" "-tier"}, kAll, &flags));
}

TEST_F(BenchFlagsTest, ShardsEnvironmentFallbackAndOverride) {
  setenv("DISTSERVE_SHARDS", "3", 1);
  CommonFlags flags;
  EXPECT_TRUE(Parse({}, kAll, &flags));
  EXPECT_EQ(flags.shards, 3);
  // Explicit flag beats the environment.
  CommonFlags flags2;
  EXPECT_TRUE(Parse({"--shards=7"}, kAll, &flags2));
  EXPECT_EQ(flags2.shards, 7);
}

TEST_F(BenchFlagsTest, ThreadsEnvironmentFallbackAndOverride) {
  setenv("DISTSERVE_THREADS", "3", 1);
  CommonFlags flags;
  EXPECT_TRUE(Parse({}, kAll, &flags));
  EXPECT_EQ(flags.threads, 3);
  CommonFlags flags2;
  EXPECT_TRUE(Parse({"--threads=7"}, kAll, &flags2));
  EXPECT_EQ(flags2.threads, 7);
  for (const char* bad : {"0", "-1", "two", "4x", ""}) {
    setenv("DISTSERVE_THREADS", bad, 1);
    CommonFlags rejected;
    EXPECT_FALSE(Parse({}, kAll, &rejected)) << "DISTSERVE_THREADS=" << bad;
  }
}

TEST_F(BenchFlagsTest, BadShardsEnvironmentFailsLoudly) {
  for (const char* bad : {"0", "-1", "two", "4x", ""}) {
    setenv("DISTSERVE_SHARDS", bad, 1);
    CommonFlags flags;
    EXPECT_FALSE(Parse({}, kAll, &flags)) << "DISTSERVE_SHARDS=" << bad;
  }
}

TEST_F(BenchFlagsTest, EnvironmentIgnoredWhenShardsNotAccepted) {
  setenv("DISTSERVE_SHARDS", "junk", 1);
  CommonFlags flags;
  EXPECT_TRUE(Parse({"--smoke"}, kFlagSmoke, &flags));
  EXPECT_EQ(flags.shards, 1);
}

TEST_F(BenchFlagsTest, StrictShardParser) {
  int out = 0;
  EXPECT_TRUE(ParsePositiveCount("1", &out));
  EXPECT_EQ(out, 1);
  EXPECT_TRUE(ParsePositiveCount("1048576", &out));
  EXPECT_FALSE(ParsePositiveCount("1048577", &out));  // above the sanity cap
  EXPECT_FALSE(ParsePositiveCount("0", &out));
  EXPECT_FALSE(ParsePositiveCount("4 ", &out));
  EXPECT_FALSE(ParsePositiveCount("0x4", &out));
  EXPECT_FALSE(ParsePositiveCount(nullptr, &out));
}

}  // namespace
}  // namespace distserve::bench
