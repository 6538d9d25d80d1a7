#include "src/hide/local.h"

#include <gtest/gtest.h>

#include "src/match/constrained_count.h"
#include "src/match/count.h"
#include "src/match/position_delta.h"
#include "src/match/scratch.h"
#include "src/obs/metrics.h"
#include "tests/test_util.h"

namespace seqhide {
namespace {

using testutil::RandomSeq;
using testutil::Seq;

// Paper Example 2: the heuristic marks T[3] (0-based position 2) first,
// which removes all four matchings in one step.
TEST(LocalSanitizeTest, PaperExampleMarksPositionThree) {
  Alphabet a;
  Sequence t = Seq(&a, "a a b c c b a e");
  std::vector<Sequence> patterns = {Seq(&a, "a b c")};
  LocalSanitizeResult r =
      SanitizeSequence(&t, patterns, {}, LocalStrategy::kHeuristic, nullptr);
  EXPECT_EQ(r.marks_introduced, 1u);
  ASSERT_EQ(r.marked_positions.size(), 1u);
  EXPECT_EQ(r.marked_positions[0], 2u);
  EXPECT_TRUE(t.IsMarked(2));
  EXPECT_EQ(CountMatchingsTotal(patterns, t), 0u);
}

TEST(LocalSanitizeTest, NoMatchingsMeansNoMarks) {
  Alphabet a;
  Sequence t = Seq(&a, "x y z");
  std::vector<Sequence> patterns = {Seq(&a, "z y")};
  LocalSanitizeResult r =
      SanitizeSequence(&t, patterns, {}, LocalStrategy::kHeuristic, nullptr);
  EXPECT_EQ(r.marks_introduced, 0u);
  EXPECT_EQ(t.MarkCount(), 0u);
}

TEST(LocalSanitizeTest, MultiplePatternsAllRemoved) {
  Alphabet a;
  Sequence t = Seq(&a, "a b c a b c");
  std::vector<Sequence> patterns = {Seq(&a, "a b"), Seq(&a, "b c"),
                                    Seq(&a, "c a")};
  LocalSanitizeResult r =
      SanitizeSequence(&t, patterns, {}, LocalStrategy::kHeuristic, nullptr);
  EXPECT_GT(r.marks_introduced, 0u);
  EXPECT_EQ(CountMatchingsTotal(patterns, t), 0u);
}

TEST(LocalSanitizeTest, RandomStrategyAlsoSanitizes) {
  Alphabet a;
  Rng rng(5);
  Sequence t = Seq(&a, "a b c a b c a b c");
  std::vector<Sequence> patterns = {Seq(&a, "a b c")};
  LocalSanitizeResult r =
      SanitizeSequence(&t, patterns, {}, LocalStrategy::kRandom, &rng);
  EXPECT_GT(r.marks_introduced, 0u);
  EXPECT_EQ(CountMatchingsTotal(patterns, t), 0u);
}

TEST(LocalSanitizeTest, RandomIsDeterministicInSeed) {
  Alphabet a;
  std::vector<Sequence> patterns = {Seq(&a, "a b")};
  Sequence base = Seq(&a, "a b a b a b");
  Sequence t1 = base, t2 = base;
  Rng rng1(77), rng2(77);
  auto r1 = SanitizeSequence(&t1, patterns, {}, LocalStrategy::kRandom, &rng1);
  auto r2 = SanitizeSequence(&t2, patterns, {}, LocalStrategy::kRandom, &rng2);
  EXPECT_EQ(r1.marked_positions, r2.marked_positions);
  EXPECT_EQ(t1, t2);
}

TEST(LocalSanitizeTest, ConstrainedSanitizationOnlyRemovesValidOccurrences) {
  Alphabet a;
  Sequence t = Seq(&a, "a b x x a x b");
  std::vector<Sequence> patterns = {Seq(&a, "a b")};
  // Only adjacent occurrences are sensitive.
  std::vector<ConstraintSpec> specs = {ConstraintSpec::UniformGap(0, 0)};
  LocalSanitizeResult r =
      SanitizeSequence(&t, patterns, specs, LocalStrategy::kHeuristic,
                       nullptr);
  EXPECT_EQ(r.marks_introduced, 1u);
  EXPECT_EQ(CountConstrainedMatchings(patterns[0], specs[0], t), 0u);
  // The non-adjacent occurrence survives: the unconstrained pattern is
  // still a subsequence.
  EXPECT_GT(CountMatchings(patterns[0], t), 0u);
}

TEST(LocalSanitizeTest, HeuristicNeverExceedsSequenceLength) {
  Rng rng(123);
  for (int trial = 0; trial < 100; ++trial) {
    size_t n = 1 + rng.NextBounded(12);
    Sequence t = RandomSeq(&rng, n, 3);
    std::vector<Sequence> patterns = {RandomSeq(&rng, 1 + rng.NextBounded(3), 3)};
    LocalSanitizeResult r = SanitizeSequence(&t, patterns, {},
                                             LocalStrategy::kHeuristic,
                                             nullptr);
    EXPECT_LE(r.marks_introduced, n);
    EXPECT_EQ(CountMatchingsTotal(patterns, t), 0u);
  }
}

TEST(LocalSanitizeTest, ExhaustiveStrategyIsOptimalAndValid) {
  Alphabet a;
  Rng rng(606);
  for (int trial = 0; trial < 60; ++trial) {
    Sequence base = RandomSeq(&rng, 4 + rng.NextBounded(8), 3);
    std::vector<Sequence> patterns = {RandomSeq(&rng, 2, 3)};
    Sequence exhaustive = base;
    LocalSanitizeResult opt = SanitizeSequence(
        &exhaustive, patterns, {}, LocalStrategy::kExhaustive, nullptr);
    Sequence greedy = base;
    LocalSanitizeResult heur = SanitizeSequence(
        &greedy, patterns, {}, LocalStrategy::kHeuristic, nullptr);
    EXPECT_EQ(CountMatchingsTotal(patterns, exhaustive), 0u);
    EXPECT_LE(opt.marks_introduced, heur.marks_introduced);
    EXPECT_EQ(exhaustive.MarkCount(), opt.marks_introduced);
  }
}

TEST(LocalSanitizeTest, ExhaustiveRespectsConstraints) {
  Alphabet a;
  Sequence t = Seq(&a, "a b x a x b");
  std::vector<Sequence> patterns = {Seq(&a, "a b")};
  std::vector<ConstraintSpec> specs = {ConstraintSpec::UniformGap(0, 0)};
  LocalSanitizeResult r = SanitizeSequence(
      &t, patterns, specs, LocalStrategy::kExhaustive, nullptr);
  EXPECT_EQ(r.marks_introduced, 1u);
  EXPECT_EQ(CountConstrainedMatchings(patterns[0], specs[0], t), 0u);
}

// A mark refills only the patterns it removed a matching of. Row
// "a b x c d" with A = "a b" and B = "c d": round 1 fills both and marks
// position 0 (δ 1 everywhere, ties toward the smallest index), which lies
// in no matching of B; round 2 refills A only and marks position 3, which
// lies in no matching of A; round 3 refills B only and finds nothing.
// Refilling both every round would take 6 δ fills for the same marks.
TEST(LocalSanitizeTest, MarkRefillsOnlyThePatternsItTouched) {
  Alphabet a;
  Sequence t = Seq(&a, "a b x c d");
  std::vector<Sequence> patterns = {Seq(&a, "a b"), Seq(&a, "c d")};
#if !defined(SEQHIDE_OBS_DISABLED)
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Default();
  obs::Counter* fills = registry.GetCounter("delta.fast_calls");
  obs::Counter* rounds = registry.GetCounter("local.delta_recomputations");
  obs::Counter* reused = registry.GetCounter("local.delta_reused");
  const uint64_t fills0 = fills->Value();
  const uint64_t rounds0 = rounds->Value();
  const uint64_t reused0 = reused->Value();
#endif
  Sequence released = Seq(&a, "a b x c d");
  released.Mark(0);
  released.Mark(3);
  LocalSanitizeResult r =
      SanitizeSequence(&t, patterns, {}, LocalStrategy::kHeuristic, nullptr);
  EXPECT_EQ(r.marked_positions, (std::vector<size_t>{0, 3}));
  EXPECT_EQ(t, released);
#if !defined(SEQHIDE_OBS_DISABLED)
  EXPECT_EQ(fills->Value() - fills0, 4u);  // 2 + 1 + 1, not 2 + 2 + 2
  EXPECT_EQ(rounds->Value() - rounds0, 3u);
  EXPECT_EQ(reused->Value() - reused0, 2u);
#endif
}

// The same row through MarkRounds directly: the δ fills of each round are
// 2, 1 and 1.
TEST(LocalSanitizeTest, MarkRoundsFillsPerRound) {
  Alphabet a;
  Sequence t = Seq(&a, "a b x c d");
  std::vector<Sequence> patterns = {Seq(&a, "a b"), Seq(&a, "c d")};
  MatchScratch scratch;
  std::vector<size_t> fills_per_round;
  size_t fills = 0;
  LocalSanitizeResult r;
  MarkRounds(
      LocalStrategy::kHeuristic, /*rng=*/nullptr, patterns.size(),
      [&](size_t p, std::vector<uint64_t>* d) {
        ++fills;
        PositionDeltasInto(patterns[p], ConstraintSpec(), t, &scratch, d);
        return true;
      },
      [&](size_t pos) {
        fills_per_round.push_back(fills);
        fills = 0;
        t.Mark(pos);
        return size_t{1};
      },
      &r);
  fills_per_round.push_back(fills);
  EXPECT_EQ(fills_per_round, (std::vector<size_t>{2, 1, 1}));
  EXPECT_EQ(r.marked_positions, (std::vector<size_t>{0, 3}));
  EXPECT_FALSE(r.exhausted);
}

// Property: on random inputs the greedy heuristic uses no more marks than
// the random strategy does on average (sanity of the heuristic).
TEST(LocalSanitizeTest, HeuristicBeatsRandomOnAverage) {
  Rng rng(2718);
  size_t heuristic_total = 0, random_total = 0;
  for (int trial = 0; trial < 60; ++trial) {
    Sequence base = RandomSeq(&rng, 12, 3);
    std::vector<Sequence> patterns = {RandomSeq(&rng, 2, 3)};
    Sequence t_h = base;
    heuristic_total += SanitizeSequence(&t_h, patterns, {},
                                        LocalStrategy::kHeuristic, nullptr)
                           .marks_introduced;
    for (uint64_t seed = 0; seed < 5; ++seed) {
      Sequence t_r = base;
      Rng local_rng(seed);
      random_total += SanitizeSequence(&t_r, patterns, {},
                                       LocalStrategy::kRandom, &local_rng)
                          .marks_introduced;
    }
  }
  EXPECT_LE(heuristic_total * 5, random_total);
}

}  // namespace
}  // namespace seqhide
