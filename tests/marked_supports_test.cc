#include "src/mine/marked_supports.h"

#include <gtest/gtest.h>

#include "src/match/subsequence.h"
#include "src/mine/prefix_span.h"
#include "src/obs/metrics.h"
#include "tests/test_util.h"

namespace seqhide {
namespace {

using testutil::Seq;

SequenceDatabase TinyDb() {
  SequenceDatabase db;
  db.AddFromNames({"a", "b", "c"});
  db.AddFromNames({"a", "c"});
  db.AddFromNames({"b", "a", "c"});
  return db;
}

FrequentPatternSet MineAll(const SequenceDatabase& db) {
  MinerOptions opts;
  opts.min_support = 1;
  auto mined = MineFrequentSequences(db, opts);
  EXPECT_TRUE(mined.ok()) << mined.status();
  return mined.ok() ? *mined : FrequentPatternSet();
}

#if !defined(SEQHIDE_OBS_DISABLED)
uint64_t CounterValue(const char* name) {
  return obs::MetricsRegistry::Default().GetCounter(name)->Value();
}
#endif

TEST(MarkedSupportsTest, UnchangedDatabaseKeepsEverySupport) {
  SequenceDatabase db = TinyDb();
  FrequentPatternSet frequent = MineAll(db);
  auto after = MarkedSupports(frequent, db).SupportsAfter(db);
  ASSERT_TRUE(after.ok()) << after.status();
  size_t k = 0;
  for (const auto& [pattern, support] : frequent.patterns()) {
    EXPECT_EQ((*after)[k++], support) << pattern.DebugString();
  }
}

TEST(MarkedSupportsTest, MarkedRowLosesExactlyItsBrokenPatterns) {
  SequenceDatabase db = TinyDb();
  FrequentPatternSet frequent = MineAll(db);
  SequenceDatabase marked = db;
  marked.mutable_sequence(0)->Mark(1);  // a Δ c
  MarkedSupports derive(frequent, db);
  auto after = derive.SupportsAfter(marked);
  ASSERT_TRUE(after.ok()) << after.status();
  // One index serves any number of markings of the same original.
  auto unchanged = derive.SupportsAfter(db);
  ASSERT_TRUE(unchanged.ok());
  EXPECT_EQ(*unchanged, derive.supports_before());
  auto again = derive.SupportsAfter(marked);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(*again, *after);
  size_t k = 0;
  for (const auto& [pattern, support] : frequent.patterns()) {
    (void)support;
    EXPECT_EQ((*after)[k++], Support(pattern, marked)) << pattern.DebugString();
  }
  Alphabet& al = db.alphabet();
  FrequentPatternSet kept = FrequentAfterMarking(frequent, *after, 2);
  EXPECT_EQ(kept.SupportOf(Seq(&al, "b")), 0u);  // only row 2 keeps b
  EXPECT_EQ(kept.SupportOf(Seq(&al, "a c")), 3u);
}

TEST(MarkedSupportsTest, CountersReportChangedRowsAndSteps) {
#if defined(SEQHIDE_OBS_DISABLED)
  GTEST_SKIP() << "observability compiled out";
#else
  SequenceDatabase db = TinyDb();
  FrequentPatternSet frequent = MineAll(db);
  SequenceDatabase marked = db;
  marked.mutable_sequence(0)->Mark(1);
  const uint64_t changed_before = CounterValue("eval.derive.changed_rows");
  const uint64_t steps_before = CounterValue("eval.derive.pattern_steps");
  ASSERT_TRUE(MarkedSupports(frequent, db).SupportsAfter(db).ok());
  EXPECT_EQ(CounterValue("eval.derive.changed_rows"), changed_before);
  EXPECT_EQ(CounterValue("eval.derive.pattern_steps"), steps_before);
  ASSERT_TRUE(MarkedSupports(frequent, db).SupportsAfter(marked).ok());
  EXPECT_EQ(CounterValue("eval.derive.changed_rows"), changed_before + 1);
  EXPECT_GT(CounterValue("eval.derive.pattern_steps"), steps_before);
#endif
}

// F(D) need not be prefix-closed: a min_length > 1 set has no length-1
// patterns, and the walk must still find every prefix's embedding.
TEST(MarkedSupportsTest, HandlesSetsThatAreNotPrefixClosed) {
  SequenceDatabase db = TinyDb();
  Alphabet& al = db.alphabet();
  FrequentPatternSet frequent;
  frequent.Add(Seq(&al, "a b c"), 1);
  frequent.Add(Seq(&al, "a c"), 3);
  frequent.Add(Seq(&al, "b a c"), 1);
  frequent.Add(Seq(&al, "b c"), 2);
  SequenceDatabase marked = db;
  marked.mutable_sequence(0)->Mark(0);  // Δ b c
  marked.mutable_sequence(2)->Mark(2);  // b a Δ
  auto after = MarkedSupports(frequent, db).SupportsAfter(marked);
  ASSERT_TRUE(after.ok()) << after.status();
  // Canonical order: a b c, a c, b a c, b c.
  EXPECT_EQ(*after, (std::vector<size_t>{0, 1, 0, 1}));
}

TEST(MarkedSupportsTest, RejectsWhatIsNotADeltaMarking) {
  SequenceDatabase db = TinyDb();
  FrequentPatternSet frequent = MineAll(db);

  SequenceDatabase fewer_rows;
  fewer_rows.Add(db[0]);
  EXPECT_TRUE(MarkedSupports(frequent, db).SupportsAfter(fewer_rows)
                  .status()
                  .IsInvalidArgument());

  SequenceDatabase shorter = db;
  *shorter.mutable_sequence(1) = Sequence{db[1][0]};
  EXPECT_TRUE(MarkedSupports(frequent, db)
                  .SupportsAfter(shorter)
                  .status()
                  .IsInvalidArgument());

  SequenceDatabase substituted = db;
  *substituted.mutable_sequence(2) = Sequence{db[2][1], db[2][1], db[2][2]};
  EXPECT_TRUE(MarkedSupports(frequent, db).SupportsAfter(substituted)
                  .status()
                  .IsInvalidArgument());

  // Un-marking (Δ in the original, a symbol after) is a substitution too.
  SequenceDatabase with_mark = db;
  with_mark.mutable_sequence(0)->Mark(0);
  EXPECT_TRUE(MarkedSupports(frequent, with_mark).SupportsAfter(db)
                  .status()
                  .IsInvalidArgument());
}

TEST(MarkedSupportsTest, RejectsSupportsNotCountedOnTheOriginal) {
  SequenceDatabase db = TinyDb();
  FrequentPatternSet frequent;
  frequent.Add(Seq(&db.alphabet(), "b"), 0);  // true support is 2
  SequenceDatabase marked = db;
  marked.mutable_sequence(0)->Mark(1);
  EXPECT_TRUE(MarkedSupports(frequent, db)
                  .SupportsAfter(marked)
                  .status()
                  .IsInvalidArgument());
}

TEST(MarkedSupportsTest, EmptySetAndEmptyDatabase) {
  SequenceDatabase db = TinyDb();
  SequenceDatabase marked = db;
  marked.mutable_sequence(1)->Mark(0);
  FrequentPatternSet none_frequent;
  auto after = MarkedSupports(none_frequent, db).SupportsAfter(marked);
  ASSERT_TRUE(after.ok());
  EXPECT_TRUE(after->empty());
  SequenceDatabase empty;
  auto none = MarkedSupports(none_frequent, empty).SupportsAfter(empty);
  ASSERT_TRUE(none.ok());
  EXPECT_TRUE(none->empty());
}

TEST(PatternSetTest, OutOfOrderAddsStillOverwriteAndSort) {
  Alphabet a;
  Seq(&a, "x y z");  // ids ascend x < y < z
  FrequentPatternSet set;
  set.Add(Seq(&a, "y"), 1);
  set.Add(Seq(&a, "x"), 2);    // before the last: no end hint
  set.Add(Seq(&a, "y"), 3);    // overwrite
  set.Add(Seq(&a, "y z"), 4);  // in order: end hint
  ASSERT_EQ(set.size(), 3u);
  EXPECT_EQ(set.SupportOf(Seq(&a, "y")), 3u);
  EXPECT_EQ(set.patterns().begin()->first, Seq(&a, "x"));
  EXPECT_EQ(set.patterns().rbegin()->first, Seq(&a, "y z"));
}

}  // namespace
}  // namespace seqhide
