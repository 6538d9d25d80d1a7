#include "src/mine/constrained_miner.h"

#include <gtest/gtest.h>

#include "src/data/workload.h"
#include "src/match/constrained_count.h"
#include "tests/test_util.h"

namespace seqhide {
namespace {

using testutil::Seq;

TEST(ConstrainedSupportTest, CountsValidOccurrencesOnly) {
  SequenceDatabase db;
  db.AddFromNames({"a", "b"});
  db.AddFromNames({"a", "x", "b"});
  db.AddFromNames({"a", "x", "x", "b"});
  Sequence ab = Seq(&db.alphabet(), "a b");
  EXPECT_EQ(ConstrainedSupport(ab, ConstraintSpec(), db), 3u);
  EXPECT_EQ(ConstrainedSupport(ab, ConstraintSpec::UniformGap(0, 1), db), 2u);
  EXPECT_EQ(ConstrainedSupport(ab, ConstraintSpec::UniformGap(0, 0), db), 1u);
  EXPECT_EQ(ConstrainedSupport(ab, ConstraintSpec::Window(2), db), 1u);
}

TEST(ConstrainedMinerTest, RejectsPerArrowSpec) {
  SequenceDatabase db;
  db.AddFromNames({"a", "b"});
  MinerOptions opts;
  opts.min_support = 1;
  auto result = MineConstrainedFrequentSequences(
      db, ConstraintSpec::PerArrow({GapBound{0, 0}}), opts);
  EXPECT_TRUE(result.status().IsInvalidArgument());
}

TEST(ConstrainedMinerTest, UnconstrainedSpecEqualsPlainMining) {
  SequenceDatabase db;
  db.AddFromNames({"a", "b", "c"});
  db.AddFromNames({"a", "c"});
  MinerOptions opts;
  opts.min_support = 2;
  auto plain = MineFrequentSequences(db, opts);
  auto constrained =
      MineConstrainedFrequentSequences(db, ConstraintSpec(), opts);
  ASSERT_TRUE(plain.ok() && constrained.ok());
  EXPECT_EQ(*plain, *constrained);
}

TEST(ConstrainedMinerTest, GapConstraintShrinksResult) {
  SequenceDatabase db;
  db.AddFromNames({"a", "x", "b"});
  db.AddFromNames({"a", "y", "b"});
  MinerOptions opts;
  opts.min_support = 2;
  // Unconstrained: a, b, and "a b" are frequent (support 2).
  auto plain = MineFrequentSequences(db, opts);
  ASSERT_TRUE(plain.ok());
  EXPECT_TRUE(plain->Contains(Seq(&db.alphabet(), "a b")));
  // Adjacent-only: "a b" never occurs adjacently.
  auto adj = MineConstrainedFrequentSequences(
      db, ConstraintSpec::UniformGap(0, 0), opts);
  ASSERT_TRUE(adj.ok());
  EXPECT_FALSE(adj->Contains(Seq(&db.alphabet(), "a b")));
  EXPECT_TRUE(adj->Contains(Seq(&db.alphabet(), "a")));
}

TEST(ConstrainedMinerTest, WindowTooSmallForPatternLengthSkipsPattern) {
  SequenceDatabase db;
  db.AddFromNames({"a", "b", "c"});
  db.AddFromNames({"a", "b", "c"});
  MinerOptions opts;
  opts.min_support = 2;
  auto windowed =
      MineConstrainedFrequentSequences(db, ConstraintSpec::Window(2), opts);
  ASSERT_TRUE(windowed.ok());
  EXPECT_TRUE(windowed->Contains(Seq(&db.alphabet(), "a b")));
  EXPECT_FALSE(windowed->Contains(Seq(&db.alphabet(), "a b c")))
      << "length-3 pattern cannot fit in window 2";
  EXPECT_FALSE(windowed->Contains(Seq(&db.alphabet(), "a c")))
      << "a..c spans 3 > window 2";
}

TEST(ConstrainedMinerTest, ReportedSupportsAreConstrained) {
  SequenceDatabase db;
  db.AddFromNames({"a", "b"});
  db.AddFromNames({"a", "x", "b"});
  MinerOptions opts;
  opts.min_support = 1;
  ConstraintSpec adjacent = ConstraintSpec::UniformGap(0, 0);
  auto result = MineConstrainedFrequentSequences(db, adjacent, opts);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->SupportOf(Seq(&db.alphabet(), "a b")), 1u);
  result->ForEach([&](const std::vector<SymbolId>& pattern, size_t support) {
    EXPECT_EQ(support, ConstrainedSupport(Sequence(pattern), adjacent, db));
  });
}

// Property: the constrained result is exactly the filter of the
// unconstrained result by constrained support.
TEST(ConstrainedMinerTest, PropertyFilterSemantics) {
  Rng rng(864);
  for (int trial = 0; trial < 20; ++trial) {
    RandomDatabaseOptions gen;
    gen.num_sequences = 10;
    gen.min_length = 2;
    gen.max_length = 7;
    gen.alphabet_size = 3;
    gen.seed = rng.NextU64();
    SequenceDatabase db = MakeRandomDatabase(gen);
    MinerOptions opts;
    opts.min_support = 2;
    ConstraintSpec spec = trial % 2 == 0
                              ? ConstraintSpec::UniformGap(0, 1)
                              : ConstraintSpec::Window(3);
    auto plain = MineFrequentSequences(db, opts);
    auto constrained = MineConstrainedFrequentSequences(db, spec, opts);
    ASSERT_TRUE(plain.ok() && constrained.ok());
    plain->ForEach([&](const std::vector<SymbolId>& symbols, size_t) {
      if (spec.HasWindow() && *spec.max_window() < symbols.size()) return;
      const Sequence pattern(symbols);
      size_t cs = ConstrainedSupport(pattern, spec, db);
      if (cs >= opts.min_support) {
        EXPECT_EQ(constrained->SupportOf(pattern), cs);
      } else {
        EXPECT_FALSE(constrained->Contains(pattern));
      }
    });
  }
}

}  // namespace
}  // namespace seqhide
