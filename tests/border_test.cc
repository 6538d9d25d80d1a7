#include "src/eval/border.h"

#include <gtest/gtest.h>

#include <vector>

#include "src/data/workload.h"
#include "src/hide/sanitizer.h"
#include "src/match/subsequence.h"
#include "src/mine/prefix_span.h"
#include "tests/test_util.h"

namespace seqhide {
namespace {

using testutil::Seq;

// Canonical indices in `frequent` of the patterns of `subset`.
std::vector<size_t> IndicesIn(const FrequentPatternSet& subset,
                              const FrequentPatternSet& frequent) {
  std::vector<size_t> indices;
  subset.ForEach([&](const std::vector<SymbolId>& pattern, size_t) {
    indices.push_back(frequent.IndexOf(pattern));
  });
  return indices;
}

TEST(PositiveBorderTest, KeepsOnlyMaximalPatterns) {
  Alphabet a;
  FrequentPatternSet frequent;
  Seq(&a, "x y z");  // ids ascend x < y < z
  frequent.Add(Seq(&a, "x"), 5);
  frequent.Add(Seq(&a, "x y"), 4);
  frequent.Add(Seq(&a, "y"), 5);
  frequent.Add(Seq(&a, "z"), 3);
  FrequentPatternSet border = PositiveBorder(frequent);
  // "x" and "y" are subsumed by "x y"; "z" is maximal on its own.
  EXPECT_EQ(border.size(), 2u);
  EXPECT_TRUE(border.Contains(Seq(&a, "x y")));
  EXPECT_TRUE(border.Contains(Seq(&a, "z")));
  EXPECT_FALSE(border.Contains(Seq(&a, "x")));
}

TEST(PositiveBorderTest, EmptyAndSingleton) {
  FrequentPatternSet empty;
  EXPECT_TRUE(PositiveBorder(empty).empty());
  Alphabet a;
  FrequentPatternSet one;
  one.Add(Seq(&a, "q"), 2);
  EXPECT_EQ(PositiveBorder(one).size(), 1u);
}

TEST(PositiveBorderTest, EqualLengthPatternsDoNotDominate) {
  Alphabet a;
  FrequentPatternSet frequent;
  frequent.Add(Seq(&a, "x y"), 4);
  frequent.Add(Seq(&a, "y x"), 4);
  EXPECT_EQ(PositiveBorder(frequent).size(), 2u);
}

TEST(PositiveBorderTest, BorderIsDownwardComplete) {
  // Property: every frequent pattern is a subsequence of some border
  // pattern (the defining property of the positive border).
  SequenceDatabase db = MakeRandomDatabase({
      .num_sequences = 20,
      .min_length = 3,
      .max_length = 10,
      .alphabet_size = 4,
      .repeat_bias = 0.0,
      .seed = 99,
  });
  MinerOptions opts;
  opts.min_support = 4;
  auto frequent = MineFrequentSequences(db, opts);
  ASSERT_TRUE(frequent.ok());
  FrequentPatternSet border = PositiveBorder(*frequent);
  EXPECT_LE(border.size(), frequent->size());
  std::vector<Sequence> maximal;
  border.ForEach([&](const std::vector<SymbolId>& pattern, size_t) {
    maximal.emplace_back(pattern);
  });
  frequent->ForEach([&](const std::vector<SymbolId>& symbols, size_t) {
    const Sequence pattern(symbols);
    bool covered = false;
    for (const Sequence& m : maximal) {
      if (IsSubsequence(pattern, m)) {
        covered = true;
        break;
      }
    }
    EXPECT_TRUE(covered) << pattern.DebugString();
  });
}

TEST(PositiveBorderTest, ClosedSetFastPathMatchesGeneric) {
  // Mined sets are downward closed within their length window, a
  // min_length > 1 window included; the deletion-based fast path must
  // agree with the quadratic definition on them.
  Rng rng(4242);
  size_t compared = 0;
  for (int trial = 0; trial < 40; ++trial) {
    SequenceDatabase db = MakeRandomDatabase({
        .num_sequences = 25,
        .min_length = 3,
        .max_length = 9,
        .alphabet_size = 4 + static_cast<size_t>(trial % 3),
        .repeat_bias = trial % 2 ? 0.3 : 0.0,
        .seed = rng.NextU64(),
    });
    MinerOptions opts;
    opts.min_support = 3 + rng.NextBounded(4);
    opts.min_length = 1 + rng.NextBounded(3);
    opts.max_length = trial % 4 == 0 ? 0 : opts.min_length + rng.NextBounded(3);
    auto frequent = MineFrequentSequences(db, opts);
    ASSERT_TRUE(frequent.ok());
    const FrequentPatternSet reference = PositiveBorder(*frequent);
    EXPECT_EQ(PositiveBorderOfClosedSet(*frequent),
              IndicesIn(reference, *frequent))
        << "trial " << trial << " sigma=" << opts.min_support
        << " min_length=" << opts.min_length
        << " max_length=" << opts.max_length;
    if (!frequent->empty()) ++compared;
  }
  EXPECT_GE(compared, 30u);
}

TEST(BorderDamageTest, AgainstPrecomputedBorderMatches) {
  Alphabet a;
  FrequentPatternSet before, after;
  before.Add(Seq(&a, "x"), 6);
  before.Add(Seq(&a, "x y"), 4);
  before.Add(Seq(&a, "z"), 3);
  after.Add(Seq(&a, "x"), 6);
  after.Add(Seq(&a, "z"), 3);
  auto direct = MeasureBorderDamage(before, after);
  // The same from the border's indices and F(D)'s supports in D'.
  std::vector<size_t> supports_after;
  before.ForEach([&](const std::vector<SymbolId>& pattern, size_t) {
    supports_after.push_back(after.SupportOf(pattern));
  });
  const std::vector<size_t> border = PositiveBorderOfClosedSet(before);
  EXPECT_EQ(border, IndicesIn(PositiveBorder(before), before));
  auto precomputed = MeasureBorderDamage(border, supports_after, 3);
  ASSERT_TRUE(direct.ok() && precomputed.ok());
  EXPECT_DOUBLE_EQ(*direct, *precomputed);
  EXPECT_DOUBLE_EQ(*direct, 0.5);  // "x y" lost, "z" kept
  EXPECT_TRUE(MeasureBorderDamage({}, supports_after, 3)
                  .status()
                  .IsFailedPrecondition());
  EXPECT_TRUE(MeasureBorderDamage({3}, supports_after, 3)
                  .status()
                  .IsInvalidArgument());
}

TEST(BorderDamageTest, ZeroWhenNothingLost) {
  Alphabet a;
  FrequentPatternSet frequent;
  frequent.Add(Seq(&a, "x y"), 4);
  auto damage = MeasureBorderDamage(frequent, frequent);
  ASSERT_TRUE(damage.ok());
  EXPECT_DOUBLE_EQ(*damage, 0.0);
}

TEST(BorderDamageTest, FullWhenBorderGone) {
  Alphabet a;
  FrequentPatternSet before, after;
  before.Add(Seq(&a, "x"), 6);
  before.Add(Seq(&a, "x y"), 4);
  after.Add(Seq(&a, "x"), 6);  // the maximal "x y" is gone
  auto damage = MeasureBorderDamage(before, after);
  ASSERT_TRUE(damage.ok());
  EXPECT_DOUBLE_EQ(*damage, 1.0);
}

TEST(BorderDamageTest, ErrorsOnEmptyOriginal) {
  FrequentPatternSet empty;
  EXPECT_FALSE(MeasureBorderDamage(empty, empty).ok());
}

TEST(BorderDamageTest, EndToEndOnTrucks) {
  ExperimentWorkload w = MakeTrucksWorkload();
  MinerOptions opts;
  opts.min_support = 20;
  opts.max_length = 4;
  auto before = MineFrequentSequences(w.db, opts);
  ASSERT_TRUE(before.ok());

  SequenceDatabase sanitized = w.db;
  auto report = Sanitize(&sanitized, w.sensitive, SanitizeOptions::HH());
  ASSERT_TRUE(report.ok());
  auto after = MineFrequentSequences(sanitized, opts);
  ASSERT_TRUE(after.ok());

  auto hh_damage = MeasureBorderDamage(*before, *after);
  ASSERT_TRUE(hh_damage.ok()) << hh_damage.status();
  EXPECT_GE(*hh_damage, 0.0);
  EXPECT_LE(*hh_damage, 1.0);

  // RR (averaged over a few runs) should damage the border at least as
  // much as HH.
  double rr_total = 0.0;
  for (uint64_t seed = 0; seed < 5; ++seed) {
    SequenceDatabase rr_db = w.db;
    auto rr_report = Sanitize(&rr_db, w.sensitive, SanitizeOptions::RR(seed));
    ASSERT_TRUE(rr_report.ok());
    auto rr_after = MineFrequentSequences(rr_db, opts);
    ASSERT_TRUE(rr_after.ok());
    auto rr_damage = MeasureBorderDamage(*before, *rr_after);
    ASSERT_TRUE(rr_damage.ok());
    rr_total += *rr_damage;
  }
  EXPECT_LE(*hh_damage, rr_total / 5 + 1e-9);
}

}  // namespace
}  // namespace seqhide
