#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <string>

#include "src/match/constrained_count.h"
#include "src/match/language.h"
#include "src/match/matching_set.h"
#include "src/testing/delta_oracles.h"
#include "tests/test_util.h"

namespace seqhide {
namespace {

using testutil::RandomSeq;
using testutil::Seq;
using testutil::SequenceDeltas;
using testutil::SequenceTable;

// Paper Example 2: δ(T[1]) = 2, δ(T[2]) = 2, δ(T[3]) = 4 for
// S = <a,b,c>, T = <a,a,b,c,c,b,a,e>.
TEST(PositionDeltaTest, PaperExampleTwo) {
  Alphabet a;
  Sequence t = Seq(&a, "a a b c c b a e");
  Sequence s = Seq(&a, "a b c");
  std::vector<uint64_t> expected = {2, 2, 4, 2, 2, 0, 0, 0};
  EXPECT_EQ(SequenceDeltas(s, ConstraintSpec(), t), expected);
  EXPECT_EQ(PositionDeltasByDeletion(s, t), expected);
  EXPECT_EQ(PositionDeltasByMarking(s, ConstraintSpec(), t), expected);
}

TEST(PositionDeltaTest, SingleSymbolPattern) {
  Alphabet a;
  Sequence t = Seq(&a, "x y x");
  Sequence s = Seq(&a, "x");
  EXPECT_EQ(SequenceDeltas(s, ConstraintSpec(), t),
            (std::vector<uint64_t>{1, 0, 1}));
}

TEST(PositionDeltaTest, MarkedPositionsHaveZeroDelta) {
  Alphabet a;
  Sequence t = Seq(&a, "a b a b");
  t.Mark(0);
  Sequence s = Seq(&a, "a b");
  std::vector<uint64_t> d = SequenceDeltas(s, ConstraintSpec(), t);
  EXPECT_EQ(d[0], 0u);
  EXPECT_EQ(d[2], 1u);  // only matching (2,3) remains
  EXPECT_EQ(d[3], 1u);
}

TEST(PositionDeltaTest, TotalAggregatesPatterns) {
  Alphabet a;
  Sequence t = Seq(&a, "a b a b");
  std::vector<Sequence> patterns = {Seq(&a, "a b"), Seq(&a, "b a")};
  std::vector<uint64_t> d = PositionDeltasTotal(patterns, {}, t);
  // <a,b>: (0,1),(0,3),(2,3); <b,a>: (1,2).
  // δ(0)=2, δ(1)=2 (1 from <a,b> at (0,1), 1 from <b,a>), δ(2)=2, δ(3)=2.
  EXPECT_EQ(d, (std::vector<uint64_t>{2, 2, 2, 2}));
}

TEST(PositionDeltaTest, GapConstrainedExample) {
  Alphabet a;
  Sequence t = Seq(&a, "a x b b");
  Sequence s = Seq(&a, "a b");
  // Unconstrained: (0,2), (0,3). Max gap 1: only (0,2).
  ConstraintSpec spec = ConstraintSpec::UniformGap(0, 1);
  std::vector<uint64_t> d = SequenceDeltas(s, spec, t);
  EXPECT_EQ(d, (std::vector<uint64_t>{1, 0, 1, 0}));
}

TEST(PositionDeltaTest, WindowConstrainedSumsOverAnchors) {
  Alphabet a;
  Sequence t = Seq(&a, "a b x a x x b");
  Sequence s = Seq(&a, "a b");
  ConstraintSpec spec = ConstraintSpec::Window(4);
  // Valid under window 4: (0,1) span 2 and (3,6) span 4. Anchor 0's span
  // is [0, 3], anchor 3's is [3, 6], clipped at the row's end.
  std::vector<uint64_t> d = SequenceDeltas(s, spec, t);
  EXPECT_EQ(d, (std::vector<uint64_t>{1, 1, 0, 1, 0, 0, 1}));
}

// FNV-1a-64 over the little-endian bytes of `values`.
uint64_t Digest(const std::vector<uint64_t>& values, uint64_t h) {
  for (uint64_t v : values) {
    for (int shift = 0; shift < 64; shift += 8) {
      h ^= (v >> shift) & 0xffu;
      h *= 1099511628211ULL;
    }
  }
  return h;
}

constexpr uint64_t kFnvBasis = 14695981039346656037ULL;

// 300 copies of one symbol against a 12-symbol pattern of it: C(300,12)
// exceeds 2^64, so counts saturate and mark-and-recount (which subtracts
// two saturated counts) is no reference. The digests pin δ and the gap
// table bit for bit, saturated cells included, at the values the per-cell
// O(n²·m) sums produced before the running-sum tables replaced them.
// Under ->[1..] every δ saturates; under ->[2..] the total count still
// does but no δ does.
TEST(PositionDeltaTest, SaturatedLongRowIsPinned) {
  Alphabet a;
  std::string row;
  for (int i = 0; i < 300; ++i) row += "a ";
  std::string pat;
  for (int i = 0; i < 12; ++i) pat += "a ";
  const Sequence t = Seq(&a, row);
  const Sequence s = Seq(&a, pat);
  const uint64_t kMax = std::numeric_limits<uint64_t>::max();
  const ConstraintSpec gap1 = ConstraintSpec::UniformGap(1, GapBound::kNoMax);
  const ConstraintSpec gap2 = ConstraintSpec::UniformGap(2, GapBound::kNoMax);
  const ConstraintSpec bounded = ConstraintSpec::UniformGap(1, 30);

  const std::vector<uint64_t> plain = SequenceDeltas(s, ConstraintSpec(), t);
  const std::vector<uint64_t> d1 = SequenceDeltas(s, gap1, t);
  const std::vector<uint64_t> d2 = SequenceDeltas(s, gap2, t);
  EXPECT_EQ(plain[0], kMax);
  EXPECT_EQ(d1[0], kMax);
  EXPECT_LT(*std::max_element(d2.begin(), d2.end()), kMax);
  EXPECT_EQ(CountConstrainedMatchings(s, gap2, t), kMax);

  EXPECT_EQ(Digest(plain, kFnvBasis), 10168201750644091205ULL);
  EXPECT_EQ(Digest(d1, kFnvBasis), 10168201750644091205ULL);
  EXPECT_EQ(Digest(d2, kFnvBasis), 1885754487494107029ULL);
  EXPECT_EQ(Digest(SequenceDeltas(s, bounded, t), kFnvBasis),
            1807648594236471377ULL);
  auto table_digest = [&](const ConstraintSpec& spec) {
    uint64_t h = kFnvBasis;
    for (const auto& row_k : SequenceTable(s, spec, t)) {
      h = Digest(std::vector<uint64_t>(row_k.begin(), row_k.end()), h);
    }
    return h;
  };
  EXPECT_EQ(table_digest(gap1), 9676654575814650665ULL);
  EXPECT_EQ(table_digest(gap2), 5682997295244702937ULL);
}

// Property: all three δ computations agree with the brute-force
// definition (count of matchings involving the position) across random
// inputs and specs.
TEST(PositionDeltaTest, PropertyAllMethodsAgreeWithBruteForce) {
  Rng rng(90210);
  for (int trial = 0; trial < 300; ++trial) {
    size_t n = 1 + rng.NextBounded(10);
    size_t m = 1 + rng.NextBounded(4);
    Sequence t = RandomSeq(&rng, n, 3);
    Sequence s = RandomSeq(&rng, m, 3);

    ConstraintSpec spec;
    switch (rng.NextBounded(4)) {
      case 0:
        break;
      case 1:
        spec = ConstraintSpec::UniformGap(rng.NextBounded(2),
                                          rng.NextBounded(2) + 2);
        break;
      case 2:
        spec = ConstraintSpec::Window(m + rng.NextBounded(n));
        break;
      case 3:
        spec = ConstraintSpec::UniformGap(0, 2 + rng.NextBounded(2));
        spec.SetMaxWindow(m + rng.NextBounded(n));
        break;
    }

    std::vector<uint64_t> fast = SequenceDeltas(s, spec, t);
    std::vector<uint64_t> marking = PositionDeltasByMarking(s, spec, t);
    ASSERT_EQ(fast.size(), n);
    for (size_t i = 0; i < n; ++i) {
      size_t brute = CountMatchingsInvolvingPosition(s, t, spec, i);
      EXPECT_EQ(fast[i], brute)
          << "fast method, trial " << trial << " pos " << i
          << " t=" << t.DebugString() << " s=" << s.DebugString()
          << " spec=" << spec.ToString();
      EXPECT_EQ(marking[i], brute)
          << "marking method, trial " << trial << " pos " << i;
    }
    if (spec.IsUnconstrained()) {
      EXPECT_EQ(PositionDeltasByDeletion(s, t), fast);
    }
  }
}

}  // namespace
}  // namespace seqhide
