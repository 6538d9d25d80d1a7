#include "src/match/prefix_table.h"

#include <gtest/gtest.h>

#include "src/match/count.h"
#include "src/testing/delta_oracles.h"
#include "tests/test_util.h"

namespace seqhide {
namespace {

using testutil::RandomSeq;
using testutil::Seq;

// Paper Example 3: T = <a,a,b,c,c,b,a,e>, S = <a,b,c>; P_2^3 = 2 (the
// length-2 prefix <a,b> has two matchings ending exactly at T[3] = b).
TEST(PrefixTableTest, PaperExampleThree) {
  Alphabet a;
  Sequence t = Seq(&a, "a a b c c b a e");
  Sequence s = Seq(&a, "a b c");
  PrefixEndTable p = BuildPrefixEndTable(s, t);
  EXPECT_EQ(p[2][3], 2u);
  // Full prefix: matchings ending at T[4]=c and T[5]=c, two each.
  EXPECT_EQ(p[3][4], 2u);
  EXPECT_EQ(p[3][5], 2u);
  EXPECT_EQ(p[3][6], 0u);
  // Length-1 prefix ends at every 'a'.
  EXPECT_EQ(p[1][1], 1u);
  EXPECT_EQ(p[1][2], 1u);
  EXPECT_EQ(p[1][7], 1u);
  EXPECT_EQ(p[1][3], 0u);
}

TEST(PrefixTableTest, BoundaryConditions) {
  Alphabet a;
  Sequence t = Seq(&a, "x y");
  Sequence s = Seq(&a, "x");
  PrefixEndTable p = BuildPrefixEndTable(s, t);
  EXPECT_EQ(p[0][0], 1u);  // empty prefix "ends" at virtual position 0
  EXPECT_EQ(p[0][1], 0u);
  EXPECT_EQ(p[0][2], 0u);
  EXPECT_EQ(p[1][0], 0u);
}

TEST(PrefixTableTest, TotalRecoverLemma2Count) {
  Alphabet a;
  Sequence t = Seq(&a, "a a b c c b a e");
  Sequence s = Seq(&a, "a b c");
  PrefixEndTable p = BuildPrefixEndTable(s, t);
  EXPECT_EQ(TotalFromPrefixEndTable(p), CountMatchings(s, t));
}

TEST(PrefixTableTest, DeltaPositionsContributeNothing) {
  Alphabet a;
  Sequence t = Seq(&a, "a b a");
  Sequence s = Seq(&a, "a");
  t.Mark(2);
  PrefixEndTable p = BuildPrefixEndTable(s, t);
  EXPECT_EQ(p[1][3], 0u);
  EXPECT_EQ(TotalFromPrefixEndTable(p), 1u);
}

// Property: the O(nm) prefix-sum implementation agrees entry-wise with the
// paper's O(n^2 m) recurrence.
TEST(PrefixTableTest, PropertyFastEqualsNaive) {
  Rng rng(555);
  for (int trial = 0; trial < 300; ++trial) {
    size_t n = 1 + rng.NextBounded(14);
    size_t m = 1 + rng.NextBounded(5);
    Sequence t = RandomSeq(&rng, n, 3);
    Sequence s = RandomSeq(&rng, m, 3);
    if (rng.NextBernoulli(0.3)) t.Mark(rng.NextBounded(n));
    PrefixEndTable fast = BuildPrefixEndTable(s, t);
    PrefixEndTable naive = BuildPrefixEndTableNaive(s, t);
    ASSERT_EQ(fast, naive) << "trial " << trial << " t=" << t.DebugString()
                           << " s=" << s.DebugString();
  }
}

// Property: column sums of the last row equal the Lemma 2 count.
TEST(PrefixTableTest, PropertyTotalsMatchCount) {
  Rng rng(777);
  for (int trial = 0; trial < 300; ++trial) {
    size_t n = 1 + rng.NextBounded(14);
    size_t m = 1 + rng.NextBounded(5);
    Sequence t = RandomSeq(&rng, n, 4);
    Sequence s = RandomSeq(&rng, m, 4);
    EXPECT_EQ(TotalFromPrefixEndTable(BuildPrefixEndTable(s, t)),
              CountMatchings(s, t));
  }
}

}  // namespace
}  // namespace seqhide
