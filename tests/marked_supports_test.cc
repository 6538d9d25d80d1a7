#include <gtest/gtest.h>

#include <map>
#include <utility>
#include <vector>

#include "src/match/subsequence.h"
#include "src/mine/pattern_set.h"
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

// sup_D′ of every pattern of `frequent` with D = `original`, D′ = `marked`.
Result<std::vector<size_t>> After(const FrequentPatternSet& frequent,
                                  const SequenceDatabase& original,
                                  const SequenceDatabase& marked) {
  return frequent.SupportsAfter(DatabaseView(original), DatabaseView(marked));
}

#if !defined(SEQHIDE_OBS_DISABLED)
uint64_t CounterValue(const char* name) {
  return obs::MetricsRegistry::Default().GetCounter(name)->Value();
}
#endif

TEST(MarkedSupportsTest, UnchangedDatabaseKeepsEverySupport) {
  SequenceDatabase db = TinyDb();
  FrequentPatternSet frequent = MineAll(db);
  auto after = After(frequent, db, db);
  ASSERT_TRUE(after.ok()) << after.status();
  EXPECT_EQ(*after, frequent.supports());
}

TEST(MarkedSupportsTest, MarkedRowLosesExactlyItsBrokenPatterns) {
  SequenceDatabase db = TinyDb();
  FrequentPatternSet frequent = MineAll(db);
  SequenceDatabase marked = db;
  marked.mutable_sequence(0)->Mark(1);  // a Δ c
  auto after = After(frequent, db, marked);
  ASSERT_TRUE(after.ok()) << after.status();
  // One set serves any number of markings of the same original.
  auto unchanged = After(frequent, db, db);
  ASSERT_TRUE(unchanged.ok());
  EXPECT_EQ(*unchanged, frequent.supports());
  auto again = After(frequent, db, marked);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(*again, *after);
  size_t k = 0;
  frequent.ForEach([&](const std::vector<SymbolId>& pattern, size_t) {
    const Sequence s(pattern);
    EXPECT_EQ((*after)[k++], Support(s, marked)) << s.DebugString();
  });
  Alphabet& al = db.alphabet();
  EXPECT_EQ((*after)[frequent.IndexOf(Seq(&al, "b"))], 1u);  // row 2 only
  EXPECT_EQ((*after)[frequent.IndexOf(Seq(&al, "a c"))], 3u);
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
  ASSERT_TRUE(After(frequent, db, db).ok());
  EXPECT_EQ(CounterValue("eval.derive.changed_rows"), changed_before);
  EXPECT_EQ(CounterValue("eval.derive.pattern_steps"), steps_before);
  ASSERT_TRUE(After(frequent, db, marked).ok());
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
  auto after = After(frequent, db, marked);
  ASSERT_TRUE(after.ok()) << after.status();
  // Canonical order: a b c, a c, b a c, b c.
  EXPECT_EQ(*after, (std::vector<size_t>{0, 1, 0, 1}));
}

TEST(MarkedSupportsTest, RejectsWhatIsNotADeltaMarking) {
  SequenceDatabase db = TinyDb();
  FrequentPatternSet frequent = MineAll(db);

  SequenceDatabase fewer_rows;
  fewer_rows.Add(db[0]);
  EXPECT_TRUE(After(frequent, db, fewer_rows).status().IsInvalidArgument());

  SequenceDatabase shorter = db;
  *shorter.mutable_sequence(1) = Sequence{db[1][0]};
  EXPECT_TRUE(After(frequent, db, shorter).status().IsInvalidArgument());

  SequenceDatabase substituted = db;
  *substituted.mutable_sequence(2) = Sequence{db[2][1], db[2][1], db[2][2]};
  EXPECT_TRUE(
      After(frequent, db, substituted).status().IsInvalidArgument());

  // Un-marking (Δ in the original, a symbol after) is a substitution too.
  SequenceDatabase with_mark = db;
  with_mark.mutable_sequence(0)->Mark(0);
  EXPECT_TRUE(After(frequent, with_mark, db).status().IsInvalidArgument());
}

TEST(MarkedSupportsTest, RejectsSupportsNotCountedOnTheOriginal) {
  SequenceDatabase db = TinyDb();
  FrequentPatternSet frequent;
  frequent.Add(Seq(&db.alphabet(), "b"), 0);  // true support is 2
  SequenceDatabase marked = db;
  marked.mutable_sequence(0)->Mark(1);
  EXPECT_TRUE(After(frequent, db, marked).status().IsInvalidArgument());
}

TEST(MarkedSupportsTest, EmptySetAndEmptyDatabase) {
  SequenceDatabase db = TinyDb();
  SequenceDatabase marked = db;
  marked.mutable_sequence(1)->Mark(0);
  FrequentPatternSet none_frequent;
  auto after = After(none_frequent, db, marked);
  ASSERT_TRUE(after.ok());
  EXPECT_TRUE(after->empty());
  SequenceDatabase empty;
  auto none = After(none_frequent, empty, empty);
  ASSERT_TRUE(none.ok());
  EXPECT_TRUE(none->empty());
}

// A sanitize overlay reads the same as a marked copy of the database.
TEST(MarkedSupportsTest, OverlayViewMatchesMarkedCopy) {
  SequenceDatabase db = TinyDb();
  FrequentPatternSet frequent = MineAll(db);
  Sequence row0 = db[0];
  row0.Mark(1);
  Sequence row2 = db[2];
  row2.Mark(0);
  const std::vector<std::pair<size_t, Sequence>> overlay = {{0, row0},
                                                            {2, row2}};
  SequenceDatabase marked = db;
  *marked.mutable_sequence(0) = row0;
  *marked.mutable_sequence(2) = row2;
  const DatabaseView original(db);
  auto via_overlay =
      frequent.SupportsAfter(original, original.Overlay(overlay));
  auto via_copy = After(frequent, db, marked);
  ASSERT_TRUE(via_overlay.ok() && via_copy.ok());
  EXPECT_EQ(*via_overlay, *via_copy);
}

// The set against a std::map built beside it: ForEach returns exactly
// what was added, and the lookups agree on members, on absent patterns
// and on interior prefixes that are not members themselves.
void ExpectMatchesMap(const FrequentPatternSet& set,
                      const std::map<Sequence, size_t>& reference,
                      const std::vector<Sequence>& probes) {
  std::vector<std::pair<Sequence, size_t>> listed;
  set.ForEach([&](const std::vector<SymbolId>& pattern, size_t support) {
    listed.emplace_back(Sequence(pattern), support);
  });
  EXPECT_EQ(listed, (std::vector<std::pair<Sequence, size_t>>(
                        reference.begin(), reference.end())));
  EXPECT_EQ(set.size(), reference.size());
  EXPECT_EQ(set.empty(), reference.empty());
  for (const Sequence& probe : probes) {
    const auto it = reference.find(probe);
    const bool member = it != reference.end();
    EXPECT_EQ(set.Contains(probe), member) << probe.DebugString();
    EXPECT_EQ(set.SupportOf(probe), member ? it->second : 0u)
        << probe.DebugString();
    const size_t index =
        member ? static_cast<size_t>(std::distance(reference.begin(), it))
               : FrequentPatternSet::kNotFound;
    EXPECT_EQ(set.IndexOf(probe), index) << probe.DebugString();
    if (member) {
      EXPECT_EQ(set.supports()[index], it->second);
    }
  }
}

TEST(PatternSetTest, RoundTripAgreesWithMap) {
  SequenceDatabase db = TinyDb();
  Alphabet& al = db.alphabet();
  Seq(&al, "z");  // interned, in no row
  // Every sequence of length 0..4 over {a, b, c, z}: the members, absent
  // patterns, the empty pattern and patterns longer than any row.
  std::vector<Sequence> probes = {Sequence()};
  for (size_t k = 0; k < probes.size() && probes[k].size() < 4; ++k) {
    for (SymbolId s = 0; s < static_cast<SymbolId>(al.size()); ++s) {
      Sequence longer = probes[k];
      longer.Append(s);
      probes.push_back(std::move(longer));
    }
  }
  for (size_t min_length : {1u, 2u}) {
    for (size_t sigma = 1; sigma <= 3; ++sigma) {
      SCOPED_TRACE("sigma=" + std::to_string(sigma) +
                   " min_length=" + std::to_string(min_length));
      std::map<Sequence, size_t> reference;
      for (const Sequence& probe : probes) {
        const size_t support = Support(probe, db);
        if (probe.size() >= min_length && support >= sigma) {
          reference[probe] = support;
        }
      }
      MinerOptions opts;
      opts.min_support = sigma;
      opts.min_length = min_length;
      auto mined = MineFrequentSequences(db, opts);
      ASSERT_TRUE(mined.ok());
      ExpectMatchesMap(*mined, reference, probes);
      FrequentPatternSet rebuilt;
      for (const auto& [pattern, support] : reference) {
        rebuilt.Add(pattern, support);
      }
      EXPECT_EQ(rebuilt, *mined);
    }
  }
  // With min_length = 2 the length-1 prefixes are tree nodes that are
  // not members.
  MinerOptions pairs;
  pairs.min_support = 1;
  pairs.min_length = 2;
  auto mined = MineFrequentSequences(db, pairs);
  ASSERT_TRUE(mined.ok());
  EXPECT_TRUE(mined->Contains(Seq(&al, "a c")));
  EXPECT_EQ(mined->IndexOf(Seq(&al, "a")), FrequentPatternSet::kNotFound);

  ExpectMatchesMap(FrequentPatternSet(), {}, probes);
}

TEST(PatternSetDeathTest, OutOfOrderOrRepeatedAddFails) {
  Alphabet a;
  Seq(&a, "x y z");  // ids ascend x < y < z
  FrequentPatternSet set;
  set.Add(Seq(&a, "x y"), 2);
  set.Add(Seq(&a, "y"), 1);
  EXPECT_DEATH(set.Add(Seq(&a, "x"), 2), "canonical order");
  EXPECT_DEATH(set.Add(Seq(&a, "x z"), 2), "canonical order");
  EXPECT_DEATH(set.Add(Seq(&a, "y"), 3), "canonical order");
  EXPECT_DEATH(set.Add(Sequence(), 3), "empty pattern");
  set.Add(Seq(&a, "y z"), 4);  // in order after the deaths
  EXPECT_EQ(set.size(), 3u);
}

}  // namespace
}  // namespace seqhide
