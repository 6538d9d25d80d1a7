#include "src/temporal/timed_match.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "src/common/random.h"
#include "src/hide/pipeline.h"
#include "src/temporal/timed_sequence.h"
#include "src/testing/generators.h"
#include "src/testing/language_oracles.h"
#include "tests/test_util.h"

namespace seqhide {
namespace {

TimedSequence MakeTimed(std::vector<std::pair<SymbolId, double>> events) {
  std::vector<TimedEvent> list;
  for (auto [sym, t] : events) list.push_back(TimedEvent{sym, t});
  auto r = TimedSequence::Create(std::move(list));
  EXPECT_TRUE(r.ok());
  return *r;
}

// Sanitizes the single row *t at ψ = 0; returns the marks made.
size_t SanitizeRow(TimedSequence* t, const std::vector<Sequence>& patterns,
                   const TimeConstraintSpec& spec) {
  std::vector<TimedSequence> rows = {*t};
  auto report = SanitizeRows<TimedLanguage>(
      &rows, patterns,
      std::vector<TimeConstraintSpec>(patterns.size(), spec),
      SanitizeOptions::HH());
  EXPECT_TRUE(report.ok()) << report.status();
  *t = rows[0];
  return report->marks_introduced;
}

TEST(TimedSequenceTest, RejectsUnorderedTimestamps) {
  auto r = TimedSequence::Create(
      {TimedEvent{0, 2.0}, TimedEvent{1, 1.0}});
  EXPECT_TRUE(r.status().IsInvalidArgument());
}

TEST(TimedSequenceTest, MarkKeepsTimestamp) {
  TimedSequence t = MakeTimed({{0, 1.0}, {1, 2.0}});
  t.Mark(0);
  EXPECT_TRUE(t.IsMarked(0));
  EXPECT_DOUBLE_EQ(t[0].time, 1.0);
  EXPECT_EQ(t.MarkCount(), 1u);
}

TEST(TimeConstraintSpecTest, Validation) {
  TimeConstraintSpec ok;
  EXPECT_TRUE(ok.Validate().ok());
  EXPECT_TRUE(ok.IsUnconstrained());
  TimeConstraintSpec bad;
  bad.min_gap_time = 5.0;
  bad.max_gap_time = 2.0;
  EXPECT_FALSE(bad.Validate().ok());
  TimeConstraintSpec neg;
  neg.min_gap_time = -1.0;
  EXPECT_FALSE(neg.Validate().ok());
}

TEST(TimedCountTest, UnconstrainedMatchesIndexSemantics) {
  // a@0 a@1 b@2: <a,b> embeds twice regardless of times.
  TimedSequence t = MakeTimed({{0, 0.0}, {0, 1.0}, {1, 2.0}});
  Sequence pattern{0, 1};
  EXPECT_EQ(CountTimedMatchings(pattern, {}, t), 2u);
}

TEST(TimedCountTest, MinGapFiltersCloseEvents) {
  TimedSequence t = MakeTimed({{0, 0.0}, {1, 0.5}, {1, 3.0}});
  Sequence pattern{0, 1};
  TimeConstraintSpec spec;
  spec.min_gap_time = 1.0;
  EXPECT_EQ(CountTimedMatchings(pattern, spec, t), 1u);  // only b@3.0
}

TEST(TimedCountTest, MaxGapFiltersDistantEvents) {
  TimedSequence t = MakeTimed({{0, 0.0}, {1, 0.5}, {1, 3.0}});
  Sequence pattern{0, 1};
  TimeConstraintSpec spec;
  spec.max_gap_time = 1.0;
  EXPECT_EQ(CountTimedMatchings(pattern, spec, t), 1u);  // only b@0.5
}

TEST(TimedCountTest, WindowBoundsTotalDuration) {
  // a@0 b@1 c@5: window 4 kills <a,b,c> (duration 5) but allows <a,b>.
  TimedSequence t = MakeTimed({{0, 0.0}, {1, 1.0}, {2, 5.0}});
  TimeConstraintSpec spec;
  spec.max_window_time = 4.0;
  EXPECT_EQ(CountTimedMatchings(Sequence{0, 1, 2}, spec, t), 0u);
  EXPECT_EQ(CountTimedMatchings(Sequence{0, 1}, spec, t), 1u);
  spec.max_window_time = 5.0;
  EXPECT_EQ(CountTimedMatchings(Sequence{0, 1, 2}, spec, t), 1u);
}

TEST(TimedCountTest, MarkedEventsNeverMatch) {
  TimedSequence t = MakeTimed({{0, 0.0}, {1, 1.0}});
  Sequence pattern{0, 1};
  EXPECT_EQ(CountTimedMatchings(pattern, {}, t), 1u);
  t.Mark(1);
  EXPECT_EQ(CountTimedMatchings(pattern, {}, t), 0u);
}

// Property: the DP agrees with brute-force enumeration under random
// specs and event layouts.
TEST(TimedCountTest, PropertyAgreesWithEnumeration) {
  Rng rng(616);
  for (int trial = 0; trial < 300; ++trial) {
    // Every other trial uses tenths: times and bounds that are multiples
    // of 0.1, where rounding decides the boundary cases.
    const bool tenths = trial % 2 == 1;
    TimedSequence t = proptest::GenTimedSequence(
        &rng, 1 + rng.NextBounded(8), tenths ? 2 : 3, tenths);
    Sequence pattern = testutil::RandomSeq(&rng, 1 + rng.NextBounded(3),
                                           tenths ? 2 : 3);
    TimeConstraintSpec spec = proptest::GenTimeSpec(&rng, t, tenths);
    ASSERT_TRUE(spec.Validate().ok());

    EXPECT_EQ(CountTimedMatchings(pattern, spec, t),
              EnumerateTimedMatchings(pattern, spec, t).size())
        << "trial " << trial;
  }
}

// t_last − t_first ≤ W is evaluated as written: 0.30000000000000004 − 0.1
// is 0.20000000000000004 > 0.2, so the pair is outside a 0.2 window even
// though 0.1 + 0.2 rounds to exactly 0.30000000000000004.
TEST(TimedCountTest, WindowBoundaryFollowsTheSpecExpression) {
  TimedSequence t = MakeTimed({{0, 0.1}, {1, 0.1 + 0.2}});
  TimeConstraintSpec spec;
  spec.max_window_time = 0.2;
  EXPECT_EQ(EnumerateTimedMatchings(Sequence{0, 1}, spec, t).size(), 0u);
  EXPECT_EQ(CountTimedMatchings(Sequence{0, 1}, spec, t), 0u);
  spec.max_window_time = 0.1 + 0.2 - 0.1;
  EXPECT_EQ(CountTimedMatchings(Sequence{0, 1}, spec, t), 1u);
}

TEST(TimedDeltaTest, MatchesBruteForce) {
  Rng rng(717);
  for (int trial = 0; trial < 60; ++trial) {
    size_t n = 1 + rng.NextBounded(7);
    std::vector<TimedEvent> events;
    double clock = 0.0;
    for (size_t i = 0; i < n; ++i) {
      clock += rng.NextDouble();
      events.push_back(
          TimedEvent{static_cast<SymbolId>(rng.NextBounded(2)), clock});
    }
    auto t = TimedSequence::Create(std::move(events));
    ASSERT_TRUE(t.ok());
    std::vector<Sequence> patterns = {
        testutil::RandomSeq(&rng, 1 + rng.NextBounded(2), 2)};
    TimeConstraintSpec spec;
    spec.max_gap_time = 1.5;

    MatchScratch scratch;
    std::vector<uint64_t> deltas;
    LanguageDeltas(TimedLanguage(patterns[0], spec, *t), &scratch, &deltas);
    for (size_t pos = 0; pos < n; ++pos) {
      size_t brute = 0;
      for (const auto& m :
           EnumerateTimedMatchings(patterns[0], spec, *t)) {
        if (std::find(m.begin(), m.end(), pos) != m.end()) ++brute;
      }
      EXPECT_EQ(deltas[pos], brute) << "trial " << trial << " pos " << pos;
    }
  }
}

TEST(TimedSanitizeTest, RemovesAllValidOccurrences) {
  // Clinical-style events: symptom@0, drug@1, reaction@1.5 — hide
  // "drug shortly followed by reaction".
  TimedSequence t = MakeTimed({{0, 0.0}, {1, 1.0}, {2, 1.5}, {1, 5.0}});
  TimeConstraintSpec spec;
  spec.max_gap_time = 1.0;
  std::vector<Sequence> patterns = {Sequence{1, 2}};
  EXPECT_EQ(SanitizeRow(&t, patterns, spec), 1u);
  EXPECT_EQ(CountTimedMatchings(patterns[0], spec, t), 0u);
  // The drug@5.0 event is not part of any close pair and survives.
  EXPECT_FALSE(t.IsMarked(3));
}

TEST(TimedSanitizeTest, NoValidOccurrencesNoMarks) {
  TimedSequence t = MakeTimed({{0, 0.0}, {1, 10.0}});
  TimeConstraintSpec spec;
  spec.max_gap_time = 1.0;
  EXPECT_EQ(SanitizeRow(&t, {Sequence{0, 1}}, spec), 0u);
  EXPECT_EQ(t.MarkCount(), 0u);
}

// A repeated pattern (which would double-count its matchings) and ψ above
// |rows| are rejected as SanitizeView rejects them, rows untouched.
TEST(TimedSanitizeTest, RejectsDuplicatePatternsAndPsiAboveRows) {
  std::vector<TimedSequence> rows = {MakeTimed({{0, 0.0}, {1, 1.0}}),
                                     MakeTimed({{1, 0.0}, {0, 2.0}})};
  const TimeConstraintSpec spec;
  const Sequence ab{0, 1};
  const Sequence ba{1, 0};
  SanitizeOptions opts;
  auto dup = SanitizeRows<TimedLanguage>(&rows, {ab, ba, ab},
                                         {spec, spec, spec}, opts);
  EXPECT_TRUE(dup.status().IsInvalidArgument()) << dup.status();
  opts.psi = 3;
  auto over = SanitizeRows<TimedLanguage>(&rows, {ab}, {spec}, opts);
  EXPECT_TRUE(over.status().IsInvalidArgument()) << over.status();
  EXPECT_EQ(rows[0].MarkCount() + rows[1].MarkCount(), 0u);
  opts.psi = 2;
  EXPECT_TRUE(
      SanitizeRows<TimedLanguage>(&rows, {ab, ba}, {spec, spec}, opts).ok());
}

// A pattern longer than every row can never be supported: InvalidArgument,
// as for sequence patterns, rows untouched.
TEST(TimedSanitizeTest, RejectsPatternLongerThanEveryRow) {
  std::vector<TimedSequence> rows = {MakeTimed({{0, 0.0}, {1, 1.0}}),
                                     MakeTimed({{1, 0.0}, {0, 2.0}})};
  auto report = SanitizeRows<TimedLanguage>(&rows, {Sequence{0, 1, 0}},
                                            {TimeConstraintSpec()},
                                            SanitizeOptions::HH());
  EXPECT_TRUE(report.status().IsInvalidArgument()) << report.status();
  EXPECT_EQ(rows[0].MarkCount() + rows[1].MarkCount(), 0u);
}

// Gap-only specs take δ from forward × backward, which stays large when the
// counts saturate: a²⁰ over 200 a's has far more than 2⁶⁴ matchings, and
// both rows still get sanitized.
TEST(TimedSanitizeTest, SaturatedCountsStillSanitize) {
  std::vector<std::pair<SymbolId, double>> events;
  for (int i = 0; i < 200; ++i) events.emplace_back(0, i);
  std::vector<TimedSequence> rows = {MakeTimed(events), MakeTimed(events),
                                     MakeTimed({{1, 0.0}, {2, 1.0}})};
  TimeConstraintSpec spec;
  spec.max_gap_time = 150.0;
  const std::vector<Sequence> patterns = {Sequence(std::vector<SymbolId>(20, 0))};
  auto report = SanitizeRows<TimedLanguage>(&rows, patterns, {spec},
                                            SanitizeOptions::HH());
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_EQ(report->saturated_rows, 2u);
  EXPECT_EQ(report->supports_after[0], 0u);
  EXPECT_EQ(TimedSupport(patterns[0], spec, rows), 0u);
}

// A max-window spec takes δ from the fwd × bwd of each anchor's span,
// summed with SatAdd, so it too stays large when the counts saturate.
TEST(TimedSanitizeTest, SaturatedWindowedCountsStillSanitize) {
  std::vector<std::pair<SymbolId, double>> events;
  for (int i = 0; i < 200; ++i) events.emplace_back(0, i);
  std::vector<TimedSequence> rows = {MakeTimed(events), MakeTimed(events),
                                     MakeTimed({{1, 0.0}, {2, 1.0}})};
  TimeConstraintSpec spec;
  spec.max_window_time = 198.0;
  const std::vector<Sequence> patterns = {Sequence(std::vector<SymbolId>(20, 0))};
  auto report = SanitizeRows<TimedLanguage>(&rows, patterns, {spec},
                                            SanitizeOptions::HH());
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_EQ(report->saturated_rows, 2u);
  EXPECT_EQ(report->supports_after[0], 0u);
  EXPECT_EQ(TimedSupport(patterns[0], spec, rows), 0u);
}

}  // namespace
}  // namespace seqhide
