#include "src/data/timed_workload.h"

#include <gtest/gtest.h>

#include <limits>

#include "src/data/workload.h"
#include "src/hide/pipeline.h"
#include "src/temporal/timed_match.h"

namespace seqhide {
namespace {

// All patterns share one time policy, as in a §7.2 release.
Result<SanitizeReport> Hide(std::vector<TimedSequence>* db,
                            const std::vector<Sequence>& patterns,
                            const TimeConstraintSpec& spec, size_t psi) {
  SanitizeOptions opts;
  opts.psi = psi;
  return SanitizeRows<TimedLanguage>(
      db, patterns, std::vector<TimeConstraintSpec>(patterns.size(), spec),
      opts);
}

TEST(DiscretizeTimedTest, EmitsEntryEventsWithEntryTimes) {
  GridSpec spec;
  spec.max_x = 10.0;
  spec.max_y = 10.0;
  auto grid = GridDiscretizer::Create(spec);
  ASSERT_TRUE(grid.ok());
  Trajectory t;
  t.points = {{0.5, 0.5, 0.0},   // enter X1Y1 at t=0
              {0.7, 0.6, 2.0},   // still X1Y1
              {1.5, 0.5, 5.0},   // enter X2Y1 at t=5
              {0.5, 0.5, 9.0}};  // re-enter X1Y1 at t=9
  Alphabet alphabet;
  TimedSequence seq = DiscretizeTimed(*grid, &alphabet, t);
  ASSERT_EQ(seq.size(), 3u);
  EXPECT_EQ(alphabet.Name(seq[0].symbol), "X1Y1");
  EXPECT_DOUBLE_EQ(seq[0].time, 0.0);
  EXPECT_EQ(alphabet.Name(seq[1].symbol), "X2Y1");
  EXPECT_DOUBLE_EQ(seq[1].time, 5.0);
  EXPECT_EQ(alphabet.Name(seq[2].symbol), "X1Y1");
  EXPECT_DOUBLE_EQ(seq[2].time, 9.0);
}

TEST(TimedTrucksWorkloadTest, MatchesUntimedShape) {
  TimedWorkload timed = MakeTimedTrucksWorkload();
  ExperimentWorkload untimed = MakeTrucksWorkload();
  EXPECT_EQ(timed.sequences.size(), untimed.db.size());
  ASSERT_EQ(timed.sensitive.size(), 2u);

  // Unconstrained timed support equals the untimed support: the timed
  // discretization produces the same symbol sequences.
  TimeConstraintSpec unconstrained;
  for (size_t i = 0; i < timed.sensitive.size(); ++i) {
    EXPECT_EQ(TimedSupport(timed.sensitive[i], unconstrained,
                           timed.sequences),
              untimed.sensitive_supports[i]);
  }
}

TEST(TimedTrucksWorkloadTest, TimeWindowReducesSupport) {
  TimedWorkload w = MakeTimedTrucksWorkload();
  TimeConstraintSpec unconstrained;
  TimeConstraintSpec tight;
  tight.max_window_time = 8.0;  // minutes
  for (const auto& p : w.sensitive) {
    EXPECT_LE(TimedSupport(p, tight, w.sequences),
              TimedSupport(p, unconstrained, w.sequences));
  }
  // At least one pattern must actually lose supporters under 8 minutes.
  size_t loose = TimedSupport(w.sensitive[0], unconstrained, w.sequences) +
                 TimedSupport(w.sensitive[1], unconstrained, w.sequences);
  size_t strict = TimedSupport(w.sensitive[0], tight, w.sequences) +
                  TimedSupport(w.sensitive[1], tight, w.sequences);
  EXPECT_LT(strict, loose);
}

TEST(HideTimedPatternsTest, HidesToThreshold) {
  TimedWorkload w = MakeTimedTrucksWorkload();
  TimeConstraintSpec spec;
  spec.max_window_time = 60.0;
  for (size_t psi : {0u, 10u}) {
    std::vector<TimedSequence> db = w.sequences;
    auto report = Hide(&db, w.sensitive, spec, psi);
    ASSERT_TRUE(report.ok()) << report.status();
    for (size_t p = 0; p < w.sensitive.size(); ++p) {
      EXPECT_LE(report->supports_after[p], psi);
      EXPECT_EQ(report->supports_after[p],
                TimedSupport(w.sensitive[p], spec, db));
    }
  }
}

TEST(HideTimedPatternsTest, Validation) {
  std::vector<TimedSequence> db;
  TimeConstraintSpec spec;
  EXPECT_TRUE(
      Hide(&db, {}, spec, 0).status().IsInvalidArgument());
  EXPECT_TRUE(Hide(&db, {Sequence{}}, spec, 0)
                  .status()
                  .IsInvalidArgument());
  TimeConstraintSpec bad;
  bad.min_gap_time = 5.0;
  bad.max_gap_time = 1.0;
  EXPECT_TRUE(Hide(&db, {Sequence{0}}, bad, 0)
                  .status()
                  .IsInvalidArgument());
}

TEST(HideTimedPatternsTest, TighterWindowCostsFewerMarks) {
  TimedWorkload w = MakeTimedTrucksWorkload();
  auto marks_for = [&](double window) {
    TimeConstraintSpec spec;
    spec.max_window_time = window;
    std::vector<TimedSequence> db = w.sequences;
    auto report = Hide(&db, w.sensitive, spec, 0);
    EXPECT_TRUE(report.ok());
    return report->marks_introduced;
  };
  size_t loose = marks_for(std::numeric_limits<double>::infinity());
  size_t medium = marks_for(20.0);
  size_t tight = marks_for(8.0);
  EXPECT_LE(medium, loose);
  EXPECT_LE(tight, medium);
  EXPECT_LT(tight, loose);
}

}  // namespace
}  // namespace seqhide
