// Tests for the bench harness (src/eval/bench_harness.h): flag parsing,
// timing aggregation, section measurement semantics, and the BENCH JSON
// schema round-tripping through the in-repo JSON parser.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "src/eval/bench_harness.h"
#include "src/obs/json.h"
#include "src/obs/macros.h"
#include "src/obs/metrics.h"

namespace seqhide {
namespace bench {
namespace {

// Builds a mutable argv from string literals (ParseBenchArgs compacts
// argv in place).
class Argv {
 public:
  explicit Argv(std::vector<std::string> args) : storage_(std::move(args)) {
    for (std::string& arg : storage_) ptrs_.push_back(arg.data());
  }
  int argc() const { return static_cast<int>(ptrs_.size()); }
  char** data() { return ptrs_.data(); }

 private:
  std::vector<std::string> storage_;
  std::vector<char*> ptrs_;
};

TEST(ParseBenchArgsTest, Defaults) {
  Argv argv({"bench"});
  int argc = argv.argc();
  Result<BenchConfig> config = ParseBenchArgs("bench", &argc, argv.data());
  ASSERT_TRUE(config.ok());
  EXPECT_EQ(config->repeats, 3u);
  EXPECT_EQ(config->warmup, 1u);
  EXPECT_FALSE(config->quick);
  EXPECT_TRUE(config->json_path.empty());
  EXPECT_TRUE(config->trace_json_path.empty());
}

TEST(ParseBenchArgsTest, AllFlags) {
  Argv argv({"bench", "--json", "a.json", "--trace-json", "t.json",
             "--repeats", "5", "--warmup", "2"});
  int argc = argv.argc();
  Result<BenchConfig> config = ParseBenchArgs("bench", &argc, argv.data());
  ASSERT_TRUE(config.ok());
  EXPECT_EQ(config->json_path, "a.json");
  EXPECT_EQ(config->trace_json_path, "t.json");
  EXPECT_EQ(config->repeats, 5u);
  EXPECT_EQ(config->warmup, 2u);
  EXPECT_EQ(argc, 1);
}

TEST(ParseBenchArgsTest, QuickSetsRepeatsButExplicitWins) {
  {
    Argv argv({"bench", "--quick"});
    int argc = argv.argc();
    Result<BenchConfig> config = ParseBenchArgs("bench", &argc, argv.data());
    ASSERT_TRUE(config.ok());
    EXPECT_TRUE(config->quick);
    EXPECT_EQ(config->repeats, 1u);
    EXPECT_EQ(config->warmup, 0u);
  }
  {
    Argv argv({"bench", "--quick", "--repeats", "4"});
    int argc = argv.argc();
    Result<BenchConfig> config = ParseBenchArgs("bench", &argc, argv.data());
    ASSERT_TRUE(config.ok());
    EXPECT_EQ(config->repeats, 4u);
    EXPECT_EQ(config->warmup, 0u);
  }
}

TEST(ParseBenchArgsTest, RejectsUnknownFlagAndBadValues) {
  {
    Argv argv({"bench", "--bogus"});
    int argc = argv.argc();
    EXPECT_FALSE(ParseBenchArgs("bench", &argc, argv.data()).ok());
  }
  {
    Argv argv({"bench", "--repeats", "0"});
    int argc = argv.argc();
    EXPECT_FALSE(ParseBenchArgs("bench", &argc, argv.data()).ok());
  }
  {
    Argv argv({"bench", "--json"});  // missing value
    int argc = argv.argc();
    EXPECT_FALSE(ParseBenchArgs("bench", &argc, argv.data()).ok());
  }
}

TEST(ParseBenchArgsTest, AllowUnknownKeepsLeftoversInArgv) {
  Argv argv({"bench", "--benchmark_filter=BM_X", "--quick",
             "--benchmark_min_time=0.5"});
  int argc = argv.argc();
  Result<BenchConfig> config =
      ParseBenchArgs("bench", &argc, argv.data(), /*allow_unknown=*/true);
  ASSERT_TRUE(config.ok());
  EXPECT_TRUE(config->quick);
  ASSERT_EQ(argc, 3);
  EXPECT_STREQ(argv.data()[1], "--benchmark_filter=BM_X");
  EXPECT_STREQ(argv.data()[2], "--benchmark_min_time=0.5");
}

TEST(ParseBenchArgsTest, HelpFlag) {
  Argv argv({"bench", "--help"});
  int argc = argv.argc();
  Result<BenchConfig> config = ParseBenchArgs("bench", &argc, argv.data());
  ASSERT_TRUE(config.ok());
  EXPECT_TRUE(config->help);
}

TEST(ComputeTimingStatsTest, KnownSamples) {
  TimingStats stats = ComputeTimingStats({30, 10, 20, 40});
  EXPECT_EQ(stats.repeats, 4u);
  EXPECT_EQ(stats.min_ns, 10u);
  EXPECT_EQ(stats.max_ns, 40u);
  EXPECT_EQ(stats.median_ns, 25u);  // even count: mean of middle pair
  EXPECT_DOUBLE_EQ(stats.mean_ns, 25.0);
  // Population stddev of {10,20,30,40}: sqrt(125).
  EXPECT_NEAR(stats.stddev_ns, 11.1803398875, 1e-6);
}

TEST(ComputeTimingStatsTest, SingleSampleAndEmpty) {
  TimingStats one = ComputeTimingStats({7});
  EXPECT_EQ(one.median_ns, 7u);
  EXPECT_DOUBLE_EQ(one.stddev_ns, 0.0);
  TimingStats none = ComputeTimingStats({});
  EXPECT_EQ(none.repeats, 0u);
  EXPECT_EQ(none.median_ns, 0u);
}

TEST(BenchHarnessTest, MeasureSectionRunsWarmupPlusRepeats) {
  BenchConfig config;
  config.bench_name = "t";
  config.repeats = 3;
  config.warmup = 2;
  BenchHarness harness(config);
  int calls = 0;
  int warmups = 0;
  int lasts = 0;
  harness.MeasureSection("s", [&](const SectionRun& run) {
    ++calls;
    if (run.warmup) ++warmups;
    if (run.last) ++lasts;
    EXPECT_EQ(run.repeats, 3u);
  });
  EXPECT_EQ(calls, 5);
  EXPECT_EQ(warmups, 2);
  EXPECT_EQ(lasts, 1);
}

TEST(BenchHarnessTest, SectionCountersArePerRepeat) {
#if defined(SEQHIDE_OBS_DISABLED)
  GTEST_SKIP() << "observability compiled out";
#else
  BenchConfig config;
  config.bench_name = "t";
  config.repeats = 4;
  config.warmup = 1;
  BenchHarness harness(config);
  harness.MeasureSection("s", [&](const SectionRun& run) {
    // Identical deterministic work per repeat, warmup included.
    SEQHIDE_COUNTER_ADD("bench_harness_test.work", 10);
    (void)run;
  });
  // The per-repeat value (10) is stored — not the 40 accumulated over the
  // 4 measured repeats, and the warmup run's increment is excluded. This
  // invariant is what makes --quick counters comparable to full-mode
  // baselines.
  ASSERT_EQ(harness.sections().size(), 1u);
  const BenchSection& section = harness.sections()[0];
  auto it = section.counters.find("bench_harness_test.work");
  ASSERT_NE(it, section.counters.end());
  EXPECT_DOUBLE_EQ(it->second, 10.0);
  EXPECT_EQ(section.timing.repeats, 4u);
#endif
}

TEST(BenchJsonTest, SchemaRoundTripsThroughParser) {
  BenchReport report;
  report.name = "roundtrip";
  report.environment = BenchEnvironment::Capture();
  report.config.repeats = 2;
  report.config.warmup = 1;
  report.config.quick = false;
  BenchSection section;
  section.name = "alpha";
  section.timing = ComputeTimingStats({100, 200});
  section.counters["dp.rows"] = 12.5;
  report.sections.push_back(section);
  report.registry = obs::MetricsRegistry::Default().Snapshot();

  Result<obs::JsonValue> parsed = obs::JsonValue::Parse(BenchReportToJson(report));
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_DOUBLE_EQ(parsed->NumberOr("schema_version", 0), 1.0);
  EXPECT_EQ(parsed->StringOr("kind", ""), "bench");
  EXPECT_EQ(parsed->StringOr("name", ""), "roundtrip");
  const obs::JsonValue* env = parsed->Find("environment");
  ASSERT_NE(env, nullptr);
  EXPECT_FALSE(env->StringOr("compiler", "").empty());
  EXPECT_FALSE(env->StringOr("git_sha", "").empty());
  const obs::JsonValue* sections = parsed->Find("sections");
  ASSERT_NE(sections, nullptr);
  ASSERT_EQ(sections->AsArray().size(), 1u);
  const obs::JsonValue& alpha = sections->AsArray()[0];
  EXPECT_EQ(alpha.StringOr("name", ""), "alpha");
  EXPECT_DOUBLE_EQ(alpha.NumberOr("median_ns", 0), 150.0);
  const obs::JsonValue* counters = alpha.Find("counters");
  ASSERT_NE(counters, nullptr);
  EXPECT_DOUBLE_EQ(counters->NumberOr("dp.rows", 0), 12.5);
  // The registry dump members emitted by WriteSnapshotMembers are present.
  EXPECT_NE(parsed->Find("counters"), nullptr);
  EXPECT_NE(parsed->Find("histograms"), nullptr);
}

TEST(BenchHarnessTest, FinishWritesParseableJson) {
  std::string path = testing::TempDir() + "/bench_harness_test_report.json";
  BenchConfig config;
  config.bench_name = "finish_test";
  config.repeats = 1;
  config.warmup = 0;
  config.json_path = path;
  {
    BenchHarness harness(config);
    harness.MeasureSection("work", [] {});
    EXPECT_EQ(harness.Finish(), 0);
  }
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  Result<obs::JsonValue> parsed = obs::JsonValue::Parse(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(parsed->StringOr("name", ""), "finish_test");
  std::remove(path.c_str());
}

TEST(BenchHarnessTest, FinishWithoutRegistryDumpKeepsSectionCounters) {
  // The google-benchmark adapter's report: per-iteration section
  // counters only, no cumulative registry block.
  std::string path = testing::TempDir() + "/bench_harness_test_gbench.json";
  BenchConfig config;
  config.bench_name = "gbench_test";
  config.json_path = path;
  {
    BenchHarness harness(config);
    BenchSection section;
    section.name = "BM_Work/8";
    section.counters["rows"] = 8;
    harness.AddSection(std::move(section));
    EXPECT_EQ(harness.Finish(/*registry_dump=*/false), 0);
  }
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  Result<obs::JsonValue> parsed = obs::JsonValue::Parse(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  for (const char* key : {"counters", "gauges", "spans", "histograms"}) {
    EXPECT_EQ(parsed->Find(key), nullptr) << key;
  }
  EXPECT_NE(parsed->Find("memory"), nullptr);
  const obs::JsonValue* sections = parsed->Find("sections");
  ASSERT_NE(sections, nullptr);
  ASSERT_EQ(sections->AsArray().size(), 1u);
  const obs::JsonValue* counters = sections->AsArray()[0].Find("counters");
  ASSERT_NE(counters, nullptr);
  EXPECT_DOUBLE_EQ(counters->NumberOr("rows", 0), 8.0);
  std::remove(path.c_str());
}

TEST(BenchHarnessTest, FinishFailsOnUnwritablePath) {
  BenchConfig config;
  config.bench_name = "t";
  config.json_path = "/nonexistent-dir/report.json";
  BenchHarness harness(config);
  EXPECT_EQ(harness.Finish(), 2);
}

}  // namespace
}  // namespace bench
}  // namespace seqhide
