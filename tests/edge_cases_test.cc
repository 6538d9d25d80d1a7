// Edge-case and contract tests: out-of-range accesses abort with CHECK
// (programming errors, not recoverable Status), and display paths render
// degenerate values sanely.

#include <gtest/gtest.h>

#include <cmath>

#include "src/data/workload.h"
#include "src/eval/report.h"
#include "src/hide/second_stage.h"
#include "src/hide/sanitizer.h"
#include "src/itemset/itemset_sequence.h"
#include "src/mine/prefix_span.h"
#include "src/seq/database.h"
#include "src/seq/sequence.h"
#include "tests/test_util.h"

namespace seqhide {
namespace {

using testutil::Seq;

TEST(EdgeCaseDeathTest, SequenceAtOutOfRange) {
  Sequence s{0, 1};
  EXPECT_DEATH((void)s.at(2), "CHECK failed");
  EXPECT_DEATH(s.Mark(5), "CHECK failed");
  EXPECT_DEATH((void)s.IsMarked(2), "CHECK failed");
}

TEST(EdgeCaseDeathTest, DatabaseMutableSequenceOutOfRange) {
  SequenceDatabase db;
  db.AddFromNames({"a"});
  EXPECT_DEATH((void)db.mutable_sequence(1), "CHECK failed");
}

TEST(EdgeCaseDeathTest, AlphabetNameOutOfRange) {
  Alphabet a;
  a.Intern("only");
  EXPECT_DEATH((void)a.Name(5), "CHECK failed");
  EXPECT_DEATH((void)a.Name(-2), "CHECK failed");
}

TEST(EdgeCaseDeathTest, ItemsetMutableElementOutOfRange) {
  ItemsetSequence seq{Itemset{1}};
  EXPECT_DEATH((void)seq.mutable_element(1), "CHECK failed");
}

TEST(EdgeCaseDeathTest, EmptySymbolNameRejected) {
  Alphabet a;
  EXPECT_DEATH((void)a.Intern(""), "non-empty");
}

TEST(ReportRenderingTest, NaNCellsRenderAsDash) {
  SweepResult result;
  result.workload_name = "x";
  result.psi_values = {0};
  result.algorithm_labels = {"HH"};
  result.cells.resize(1, std::vector<SweepCell>(1));
  // m2 defaults to NaN.
  std::string table = FormatSweepTable(result, Measure::kM2, "t");
  EXPECT_NE(table.find('-'), std::string::npos);
  // M1 renders numerically.
  result.cells[0][0].m1 = 3.5;
  table = FormatSweepTable(result, Measure::kM1, "t");
  EXPECT_NE(table.find("3.5"), std::string::npos);
}

TEST(ReportRenderingTest, LongLabelsWidenColumns) {
  SweepResult result;
  result.workload_name = "x";
  result.psi_values = {0};
  result.algorithm_labels = {"a-very-long-algorithm-label"};
  result.cells.resize(1, std::vector<SweepCell>(1));
  std::string table = FormatSweepTable(result, Measure::kM1, "t");
  EXPECT_NE(table.find("a-very-long-algorithm-label"), std::string::npos);
}

TEST(SecondStageIntegrationTest, ReplacementFakeAuditOnTrucks) {
  ExperimentWorkload w = MakeTrucksWorkload();
  SequenceDatabase released = w.db;
  auto sanitize = Sanitize(&released, w.sensitive, SanitizeOptions::HH());
  ASSERT_TRUE(sanitize.ok());
  auto replace = ReleaseMarks(&released, w.sensitive, {},
                              sanitize->supports_after, ReleaseOptions());
  ASSERT_TRUE(replace.ok()) << replace.status();
  EXPECT_EQ(released.TotalMarkCount(), 0u);
  // The audit runs; replacement can create fakes but the least-harm
  // strategy should keep them a tiny fraction of the pattern collection.
  auto fakes = CountFakeFrequentPatterns(w.db, released, /*sigma=*/20,
                                         /*max_length=*/3);
  ASSERT_TRUE(fakes.ok()) << fakes.status();
  MinerOptions opts;
  opts.min_support = 20;
  opts.max_length = 3;
  auto frequent = MineFrequentSequences(w.db, opts);
  ASSERT_TRUE(frequent.ok());
  EXPECT_LT(*fakes, frequent->size() / 10 + 5);
}

TEST(SanitizerEdgeTest, EmptyDatabaseIsFine) {
  SequenceDatabase db;
  Sequence pattern{0, 1};
  auto report = Sanitize(&db, {pattern}, SanitizeOptions::HH());
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_EQ(report->marks_introduced, 0u);
  EXPECT_EQ(report->supports_before[0], 0u);
}

TEST(SanitizerEdgeTest, PatternLongerThanEverySequence) {
  // A pattern no sequence can contain has support 0 everywhere and
  // forever; asking to hide it is a malformed request (usually a pattern
  // pasted against the wrong database) and fails fast.
  SequenceDatabase db;
  db.AddFromNames({"a", "b"});
  Sequence pattern = Seq(&db.alphabet(), "a b a b a b");
  auto report = Sanitize(&db, {pattern}, SanitizeOptions::HH());
  EXPECT_TRUE(report.status().IsInvalidArgument());
  EXPECT_EQ(db.TotalMarkCount(), 0u);

  // A pattern that fits at least one sequence is fine, even if it is
  // longer than the others.
  db.AddFromNames({"a", "b", "a", "b", "a", "b"});
  auto report2 = Sanitize(&db, {pattern}, SanitizeOptions::HH());
  ASSERT_TRUE(report2.ok()) << report2.status();
  EXPECT_EQ(report2->supports_after[0], 0u);
}

TEST(SanitizerEdgeTest, WholeDatabaseIsOneGiantSupporter) {
  // Every sequence supports the pattern many times over.
  SequenceDatabase db;
  for (int i = 0; i < 5; ++i) {
    db.AddFromNames({"a", "b", "a", "b", "a", "b"});
  }
  Sequence pattern = Seq(&db.alphabet(), "a b");
  auto report = Sanitize(&db, {pattern}, SanitizeOptions::HH());
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->supports_after[0], 0u);
  for (const auto& seq : db.sequences()) {
    EXPECT_GT(seq.MarkCount(), 0u);
    EXPECT_LT(seq.MarkCount(), seq.size()) << "should not erase everything";
  }
}

}  // namespace
}  // namespace seqhide
