#include "src/hide/options.h"

#include <gtest/gtest.h>

#include "src/common/stopwatch.h"
#include "src/common/thread_pool.h"

namespace seqhide {
namespace {

TEST(OptionsTest, DefaultsAreThePaperAlgorithm) {
  SanitizeOptions opts;
  EXPECT_EQ(opts.local, LocalStrategy::kHeuristic);
  EXPECT_EQ(opts.global, GlobalStrategy::kHeuristic);
  EXPECT_EQ(opts.psi, 0u);
  EXPECT_TRUE(opts.per_pattern_psi.empty());
  EXPECT_TRUE(opts.verify);
  EXPECT_EQ(opts.num_threads, 1u);
}

TEST(OptionsTest, NamedConstructorsMatchPaperNames) {
  EXPECT_EQ(SanitizeOptions::HH().local, LocalStrategy::kHeuristic);
  EXPECT_EQ(SanitizeOptions::HH().global, GlobalStrategy::kHeuristic);
  EXPECT_EQ(SanitizeOptions::HR().local, LocalStrategy::kHeuristic);
  EXPECT_EQ(SanitizeOptions::HR().global, GlobalStrategy::kRandom);
  EXPECT_EQ(SanitizeOptions::RH().local, LocalStrategy::kRandom);
  EXPECT_EQ(SanitizeOptions::RH().global, GlobalStrategy::kHeuristic);
  EXPECT_EQ(SanitizeOptions::RR().local, LocalStrategy::kRandom);
  EXPECT_EQ(SanitizeOptions::RR().global, GlobalStrategy::kRandom);
  EXPECT_EQ(SanitizeOptions::RR(42).seed, 42u);
}

TEST(OptionsTest, StrategyNames) {
  EXPECT_EQ(ToString(LocalStrategy::kHeuristic), "H");
  EXPECT_EQ(ToString(LocalStrategy::kRandom), "R");
  EXPECT_EQ(ToString(LocalStrategy::kExhaustive), "Opt");
  EXPECT_EQ(ToString(GlobalStrategy::kHeuristic), "H");
  EXPECT_EQ(ToString(GlobalStrategy::kRandom), "R");
  EXPECT_EQ(ToString(GlobalStrategy::kAscendingLength), "Len");
  EXPECT_EQ(ToString(GlobalStrategy::kHighAutocorrelationFirst), "Auto");
}

TEST(OptionsTest, ValidateAcceptsSaneThreadCounts) {
  SanitizeOptions opts;
  EXPECT_TRUE(opts.Validate().ok());
  opts.num_threads = 0;  // auto: all hardware threads
  EXPECT_TRUE(opts.Validate().ok());
  opts.num_threads = kMaxThreads;
  EXPECT_TRUE(opts.Validate().ok());
}

TEST(OptionsTest, ValidateRejectsAbsurdThreadCounts) {
  SanitizeOptions opts;
  opts.num_threads = kMaxThreads + 1;
  Status status = opts.Validate();
  EXPECT_TRUE(status.IsInvalidArgument()) << status;
}

TEST(StopwatchTest, MeasuresForwardTime) {
  Stopwatch timer;
  double first = timer.ElapsedSeconds();
  EXPECT_GE(first, 0.0);
  // Busy-wait a tiny amount.
  volatile uint64_t sink = 0;
  for (int i = 0; i < 100000; ++i) {
    sink = sink + static_cast<uint64_t>(i);
  }
  double second = timer.ElapsedSeconds();
  EXPECT_GE(second, first);
  // Millis and seconds measure the same clock (allow scheduling slack).
  EXPECT_NEAR(timer.ElapsedMillis(), timer.ElapsedSeconds() * 1e3, 50.0);
  timer.Reset();
  EXPECT_LT(timer.ElapsedSeconds(), second + 1.0);
}

}  // namespace
}  // namespace seqhide
