#include "src/eval/metrics.h"

#include <gtest/gtest.h>

#include "src/hide/sanitizer.h"
#include "src/mine/marked_supports.h"
#include "src/mine/prefix_span.h"
#include "src/testing/set_metrics.h"
#include "tests/test_util.h"

namespace seqhide {
namespace {

using proptest::OracleMeasureM2;
using proptest::OracleMeasureM3;
using testutil::Seq;

TEST(MeasureM1Test, CountsMarks) {
  SequenceDatabase db;
  db.AddFromNames({"a", "b", "c"});
  db.AddFromNames({"d", "e"});
  EXPECT_EQ(MeasureM1(db), 0u);
  db.mutable_sequence(0)->Mark(1);
  db.mutable_sequence(1)->Mark(0);
  EXPECT_EQ(MeasureM1(db), 2u);
}

TEST(MeasureM2Test, FractionOfLostPatterns) {
  Alphabet a;
  FrequentPatternSet before, after;
  before.Add(Seq(&a, "x"), 5);
  before.Add(Seq(&a, "y"), 4);
  before.Add(Seq(&a, "x y"), 3);
  before.Add(Seq(&a, "z"), 3);
  after.Add(Seq(&a, "x"), 5);
  after.Add(Seq(&a, "z"), 3);
  auto m2 = OracleMeasureM2(before, after);
  ASSERT_TRUE(m2.ok()) << m2.status();
  EXPECT_DOUBLE_EQ(*m2, 0.5);
}

TEST(MeasureM2Test, NoLossIsZero) {
  Alphabet a;
  FrequentPatternSet set;
  set.Add(Seq(&a, "x"), 5);
  auto m2 = OracleMeasureM2(set, set);
  ASSERT_TRUE(m2.ok());
  EXPECT_DOUBLE_EQ(*m2, 0.0);
}

TEST(MeasureM2Test, TotalLossIsOne) {
  Alphabet a;
  FrequentPatternSet before, after;
  before.Add(Seq(&a, "x"), 5);
  auto m2 = OracleMeasureM2(before, after);
  ASSERT_TRUE(m2.ok());
  EXPECT_DOUBLE_EQ(*m2, 1.0);
}

TEST(MeasureM2Test, ErrorsOnEmptyOriginal) {
  FrequentPatternSet empty;
  EXPECT_FALSE(OracleMeasureM2(empty, empty).ok());
}

TEST(MeasureM2Test, ErrorsOnSwappedArguments) {
  Alphabet a;
  FrequentPatternSet before, after;
  before.Add(Seq(&a, "x"), 5);
  after.Add(Seq(&a, "x"), 5);
  after.Add(Seq(&a, "y"), 4);  // pattern not in "before"
  EXPECT_TRUE(OracleMeasureM2(before, after).status().IsInvalidArgument());
}

TEST(MeasureM3Test, AverageRelativeSupportLoss) {
  SequenceDatabase original;
  original.AddFromNames({"a", "b"});
  original.AddFromNames({"a", "b"});
  original.AddFromNames({"a"});
  // After sanitization: supports dropped a: 3->3, b: 2->1.
  Alphabet& al = original.alphabet();
  FrequentPatternSet after;
  after.Add(Seq(&al, "a"), 3);
  after.Add(Seq(&al, "b"), 1);
  auto m3 = OracleMeasureM3(original, after);
  ASSERT_TRUE(m3.ok()) << m3.status();
  // ((3-3)/3 + (2-1)/2) / 2 = 0.25
  EXPECT_DOUBLE_EQ(*m3, 0.25);
}

TEST(MeasureM3Test, LookupOverloadMatchesDatabaseOverload) {
  SequenceDatabase original;
  original.AddFromNames({"a", "b"});
  original.AddFromNames({"a", "b"});
  original.AddFromNames({"a"});
  Alphabet& al = original.alphabet();
  FrequentPatternSet before;
  before.Add(Seq(&al, "a"), 3);
  before.Add(Seq(&al, "b"), 2);
  FrequentPatternSet after;
  after.Add(Seq(&al, "a"), 3);
  after.Add(Seq(&al, "b"), 1);
  auto via_db = OracleMeasureM3(original, after);
  auto via_lookup = OracleMeasureM3(before, after);
  ASSERT_TRUE(via_db.ok() && via_lookup.ok());
  EXPECT_DOUBLE_EQ(*via_db, *via_lookup);
}

TEST(MeasureM3Test, LookupOverloadRejectsMissingPattern) {
  Alphabet a;
  FrequentPatternSet before, after;
  before.Add(Seq(&a, "x"), 3);
  after.Add(Seq(&a, "y"), 1);  // not in the original set
  EXPECT_TRUE(OracleMeasureM3(before, after).status().IsInvalidArgument());
}

TEST(MeasureM3Test, ZeroWhenSupportsUnchanged) {
  SequenceDatabase original;
  original.AddFromNames({"a", "b"});
  FrequentPatternSet after;
  after.Add(Seq(&original.alphabet(), "a b"), 1);
  auto m3 = OracleMeasureM3(original, after);
  ASSERT_TRUE(m3.ok());
  EXPECT_DOUBLE_EQ(*m3, 0.0);
}

TEST(MeasureM3Test, ErrorsOnEmptySanitizedSet) {
  SequenceDatabase original;
  original.AddFromNames({"a"});
  FrequentPatternSet empty;
  EXPECT_FALSE(OracleMeasureM3(original, empty).ok());
}

TEST(MeasureM3Test, ErrorsOnInconsistentInputs) {
  SequenceDatabase original;
  original.AddFromNames({"a"});
  FrequentPatternSet after;
  after.Add(Seq(&original.alphabet(), "a"), 2);  // support grew: impossible
  EXPECT_TRUE(OracleMeasureM3(original, after).status().IsInvalidArgument());
}

// The production measures from parallel support arrays on a small
// hand-checked case: F(D) = {x:5, x y:3, y:4, z:3} in canonical order,
// σ = 3.
const std::vector<size_t> kBefore = {5, 3, 4, 3};

TEST(MeasureFromSupportsTest, M2CountsPatternsThatFellBelowSigma) {
  // "x y" and "y" drop below σ = 3.
  auto m2 = MeasureM2(kBefore, {5, 2, 1, 3}, 3);
  ASSERT_TRUE(m2.ok()) << m2.status();
  EXPECT_DOUBLE_EQ(*m2, 0.5);
}

TEST(MeasureFromSupportsTest, M3AveragesOverSurvivorsOnly) {
  // Survivors x (5 -> 4) and z (3 -> 3); "x y" (3 -> 2) is out.
  auto m3 = MeasureM3(kBefore, {4, 2, 1, 3}, 3);
  ASSERT_TRUE(m3.ok()) << m3.status();
  EXPECT_DOUBLE_EQ(*m3, (1.0 / 5.0 + 0.0) / 2.0);
}

TEST(MeasureFromSupportsTest, UndefinedMeasuresAreFailedPrecondition) {
  EXPECT_TRUE(MeasureM2({}, {}, 1).status().IsFailedPrecondition());
  EXPECT_TRUE(
      MeasureM3(kBefore, {2, 2, 2, 2}, 3).status().IsFailedPrecondition());
  auto m2 = MeasureM2(kBefore, {2, 2, 2, 2}, 3);
  ASSERT_TRUE(m2.ok());
  EXPECT_DOUBLE_EQ(*m2, 1.0);
}

TEST(MeasureFromSupportsTest, InconsistentInputsAreInvalidArgument) {
  // Support grew (x: 5 -> 6).
  EXPECT_TRUE(MeasureM2(kBefore, {6, 3, 4, 3}, 3).status().IsInvalidArgument());
  EXPECT_TRUE(MeasureM3(kBefore, {6, 3, 4, 3}, 3).status().IsInvalidArgument());
  // Not parallel.
  EXPECT_TRUE(MeasureM2(kBefore, {5, 3, 4}, 3).status().IsInvalidArgument());
  EXPECT_TRUE(MeasureM3(kBefore, {5, 3, 4}, 3).status().IsInvalidArgument());
  // A pattern of support 0 cannot be in F(D, σ).
  EXPECT_TRUE(MeasureM3({0}, {0}, 0).status().IsInvalidArgument());
}

// End-to-end: measures computed around a real sanitization run behave
// within their documented ranges, and the derived-support measures equal
// the set-based ones on a mined F(D') bit for bit.
TEST(MetricsIntegrationTest, SanitizationProducesBoundedMeasures) {
  SequenceDatabase original;
  for (int i = 0; i < 6; ++i) original.AddFromNames({"a", "b", "c"});
  for (int i = 0; i < 4; ++i) original.AddFromNames({"a", "c", "d"});
  std::vector<Sequence> sensitive = {Seq(&original.alphabet(), "a b")};

  SequenceDatabase sanitized = original;
  auto report = Sanitize(&sanitized, sensitive, SanitizeOptions::HH());
  ASSERT_TRUE(report.ok());

  MinerOptions miner;
  miner.min_support = 3;
  auto before = MineFrequentSequences(original, miner);
  auto after = MineFrequentSequences(sanitized, miner);
  ASSERT_TRUE(before.ok() && after.ok());

  EXPECT_EQ(MeasureM1(sanitized), report->marks_introduced);
  auto m2 = OracleMeasureM2(*before, *after);
  ASSERT_TRUE(m2.ok());
  EXPECT_GE(*m2, 0.0);
  EXPECT_LE(*m2, 1.0);
  auto m3 = OracleMeasureM3(original, *after);
  ASSERT_TRUE(m3.ok());
  EXPECT_GE(*m3, 0.0);
  EXPECT_LE(*m3, 1.0);

  MarkedSupports derive(*before, original);
  auto supports_after = derive.SupportsAfter(sanitized);
  ASSERT_TRUE(supports_after.ok()) << supports_after.status();
  auto derived_m2 = MeasureM2(derive.supports_before(), *supports_after,
                              miner.min_support);
  auto derived_m3 = MeasureM3(derive.supports_before(), *supports_after,
                              miner.min_support);
  auto lookup_m3 = OracleMeasureM3(*before, *after);
  ASSERT_TRUE(derived_m2.ok() && derived_m3.ok() && lookup_m3.ok());
  EXPECT_EQ(*derived_m2, *m2);
  EXPECT_EQ(*derived_m3, *lookup_m3);
}

}  // namespace
}  // namespace seqhide
