#include "src/match/constrained_count.h"

#include <gtest/gtest.h>

#include "src/match/count.h"
#include "src/match/matching_set.h"
#include "src/match/language.h"
#include "src/testing/delta_oracles.h"
#include "tests/test_util.h"

namespace seqhide {
namespace {

using testutil::RandomSeq;
using testutil::Seq;
using testutil::SequenceTable;

TEST(GapEndTableTest, DegeneratesToPrefixTableWhenUnconstrained) {
  Alphabet a;
  Sequence t = Seq(&a, "a a b c c b a e");
  Sequence s = Seq(&a, "a b c");
  EXPECT_EQ(SequenceTable(s, ConstraintSpec(), t),
            BuildPrefixEndTableNaive(s, t));
}

TEST(ConstrainedCountTest, PaperSection5Example) {
  Alphabet a;
  Sequence t = Seq(&a, "a a b c c b a e");
  Sequence s = Seq(&a, "a b c");
  // a ->(gap exactly 0) b ->(gap in [2,6]) c: unsupported by T.
  ConstraintSpec spec =
      ConstraintSpec::PerArrow({GapBound{0, 0}, GapBound{2, 6}});
  EXPECT_EQ(CountConstrainedMatchings(s, spec, t), 0u);
  EXPECT_FALSE(HasConstrainedMatch(s, spec, t));
  // Without constraints the matching set has cardinality 4.
  EXPECT_EQ(CountConstrainedMatchings(s, ConstraintSpec(), t), 4u);
}

TEST(ConstrainedCountTest, MinGapOnly) {
  Alphabet a;
  Sequence t = Seq(&a, "a x b x x b");
  Sequence s = Seq(&a, "a b");
  // Gaps: a(0)->b(2) gap 1; a(0)->b(5) gap 4.
  EXPECT_EQ(CountConstrainedMatchings(s, ConstraintSpec::UniformGap(
                                             2, GapBound::kNoMax), t),
            1u);
  EXPECT_EQ(CountConstrainedMatchings(s, ConstraintSpec::UniformGap(
                                             5, GapBound::kNoMax), t),
            0u);
}

TEST(ConstrainedCountTest, MaxGapOnly) {
  Alphabet a;
  Sequence t = Seq(&a, "a x b x x b");
  Sequence s = Seq(&a, "a b");
  EXPECT_EQ(CountConstrainedMatchings(s, ConstraintSpec::UniformGap(0, 1), t),
            1u);
  EXPECT_EQ(CountConstrainedMatchings(s, ConstraintSpec::UniformGap(0, 0), t),
            0u);
}

TEST(ConstrainedCountTest, WindowOnly) {
  Alphabet a;
  Sequence t = Seq(&a, "a b x a x x b");
  Sequence s = Seq(&a, "a b");
  // Occurrences: (0,1) span 2; (0,6) span 7; (3,6) span 4.
  EXPECT_EQ(CountConstrainedMatchings(s, ConstraintSpec::Window(2), t), 1u);
  EXPECT_EQ(CountConstrainedMatchings(s, ConstraintSpec::Window(4), t), 2u);
  EXPECT_EQ(CountConstrainedMatchings(s, ConstraintSpec::Window(7), t), 3u);
}

TEST(ConstrainedCountTest, GapAndWindowConjunction) {
  Alphabet a;
  Sequence t = Seq(&a, "a b x a x x b");
  Sequence s = Seq(&a, "a b");
  // Gap >= 1 kills (0,1); window <= 4 kills (0,6); leaves (3,6).
  ConstraintSpec spec = ConstraintSpec::UniformGap(1, GapBound::kNoMax);
  spec.SetMaxWindow(4);
  EXPECT_EQ(CountConstrainedMatchings(s, spec, t), 1u);
}

TEST(ConstrainedCountTest, DeltaExcludedUnderConstraints) {
  Alphabet a;
  Sequence t = Seq(&a, "a b a b");
  Sequence s = Seq(&a, "a b");
  ConstraintSpec spec = ConstraintSpec::UniformGap(0, 0);
  EXPECT_EQ(CountConstrainedMatchings(s, spec, t), 2u);  // (0,1), (2,3)
  t.Mark(2);
  EXPECT_EQ(CountConstrainedMatchings(s, spec, t), 1u);
}

TEST(ConstrainedCountTest, TotalSumsPatternsWithOwnConstraints) {
  Alphabet a;
  Sequence t = Seq(&a, "a b a b");
  std::vector<Sequence> patterns = {Seq(&a, "a b"), Seq(&a, "b a")};
  std::vector<ConstraintSpec> specs = {ConstraintSpec::UniformGap(0, 0),
                                       ConstraintSpec()};
  // <a,b> adjacent: (0,1), (2,3) = 2; <b,a> unconstrained: (1,2) = 1.
  EXPECT_EQ(CountConstrainedMatchingsTotal(patterns, specs, t), 3u);
  // Empty constraint list = all unconstrained: 3 + 1.
  EXPECT_EQ(CountConstrainedMatchingsTotal(patterns, {}, t), 4u);
}

// Property: every constrained count equals filtering the enumeration with
// ConstraintSpec::SatisfiedBy (the definitional semantics).
TEST(ConstrainedCountTest, PropertyMatchesFilteredEnumeration) {
  Rng rng(31337);
  for (int trial = 0; trial < 400; ++trial) {
    size_t n = 1 + rng.NextBounded(12);
    size_t m = 1 + rng.NextBounded(4);
    Sequence t = RandomSeq(&rng, n, 3);
    Sequence s = RandomSeq(&rng, m, 3);

    ConstraintSpec spec;
    switch (rng.NextBounded(5)) {
      case 0:
        break;  // unconstrained
      case 1:
        spec = ConstraintSpec::UniformGap(rng.NextBounded(3),
                                          GapBound::kNoMax);
        break;
      case 2: {
        size_t lo = rng.NextBounded(2);
        spec = ConstraintSpec::UniformGap(lo, lo + rng.NextBounded(4));
        break;
      }
      case 3:
        spec = ConstraintSpec::Window(m + rng.NextBounded(n + 1));
        break;
      case 4: {
        size_t lo = rng.NextBounded(2);
        spec = ConstraintSpec::UniformGap(lo, lo + rng.NextBounded(3));
        spec.SetMaxWindow(m + rng.NextBounded(n + 1));
        break;
      }
    }

    size_t expected = 0;
    for (const Matching& matching : EnumerateMatchings(s, t)) {
      if (spec.SatisfiedBy(matching)) ++expected;
    }
    EXPECT_EQ(CountConstrainedMatchings(s, spec, t), expected)
        << "trial " << trial << " t=" << t.DebugString()
        << " s=" << s.DebugString() << " spec=" << spec.ToString();
  }
}

// Property: constraints never increase the count, and loosening a window
// never decreases it.
TEST(ConstrainedCountTest, PropertyMonotonicity) {
  Rng rng(4242);
  for (int trial = 0; trial < 200; ++trial) {
    size_t n = 2 + rng.NextBounded(10);
    size_t m = 1 + rng.NextBounded(3);
    Sequence t = RandomSeq(&rng, n, 3);
    Sequence s = RandomSeq(&rng, m, 3);
    uint64_t unconstrained = CountMatchings(s, t);
    for (size_t ws = m; ws <= n; ++ws) {
      uint64_t with_window =
          CountConstrainedMatchings(s, ConstraintSpec::Window(ws), t);
      EXPECT_LE(with_window, unconstrained);
      if (ws > m) {
        uint64_t tighter =
            CountConstrainedMatchings(s, ConstraintSpec::Window(ws - 1), t);
        EXPECT_LE(tighter, with_window);
      }
    }
  }
}

}  // namespace
}  // namespace seqhide
