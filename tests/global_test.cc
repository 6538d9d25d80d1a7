#include "src/hide/global.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "tests/test_util.h"

namespace seqhide {
namespace {

using testutil::Seq;

class GlobalSelectionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Supporters with matching counts 3, 1, 2; one non-supporter.
    db_.AddFromNames({"a", "b", "a", "b"});      // <a,b> count 3
    db_.AddFromNames({"a", "b"});                // count 1
    db_.AddFromNames({"a", "a", "b"});           // count 2
    db_.AddFromNames({"b", "a"});                // count 0
    patterns_ = {Seq(&db_.alphabet(), "a b")};
    info_ = ComputeMatchInfo(DatabaseView(db_), patterns_, {});
  }

  SequenceDatabase db_;
  std::vector<Sequence> patterns_;
  std::vector<SequenceMatchInfo> info_;
};

TEST_F(GlobalSelectionTest, MatchInfoCountsAndSupports) {
  // Row 3 supports nothing, so it has no entry (global.h).
  ASSERT_EQ(info_.size(), 3u);
  EXPECT_EQ(info_[0].index, 0u);
  EXPECT_EQ(info_[1].index, 1u);
  EXPECT_EQ(info_[2].index, 2u);
  EXPECT_EQ(info_[0].matching_count, 3u);
  EXPECT_EQ(info_[1].matching_count, 1u);
  EXPECT_EQ(info_[2].matching_count, 2u);
  for (const SequenceMatchInfo& s : info_) {
    ASSERT_EQ(s.pattern_support.size(), 1u);
    EXPECT_TRUE(s.pattern_support[0]);
  }
}

TEST_F(GlobalSelectionTest, PsiZeroSelectsAllSupporters) {
  auto victims = SelectSequencesToSanitize(DatabaseView(db_), info_,
                                           GlobalStrategy::kHeuristic, 0,
                                           nullptr);
  EXPECT_EQ(victims, (std::vector<size_t>{0, 1, 2}));
}

TEST_F(GlobalSelectionTest, HeuristicLeavesLargestMatchingSets) {
  // ψ = 1: the supporter with the largest matching set (index 0, count 3)
  // stays; 1 and 2 are sanitized.
  auto victims = SelectSequencesToSanitize(DatabaseView(db_), info_,
                                           GlobalStrategy::kHeuristic, 1,
                                           nullptr);
  EXPECT_EQ(victims, (std::vector<size_t>{1, 2}));
  // ψ = 2: only the cheapest supporter (count 1) is sanitized.
  victims = SelectSequencesToSanitize(DatabaseView(db_), info_,
                                      GlobalStrategy::kHeuristic, 2, nullptr);
  EXPECT_EQ(victims, (std::vector<size_t>{1}));
}

TEST_F(GlobalSelectionTest, PsiAtLeastSupportersSelectsNothing) {
  for (size_t psi : {3u, 4u, 10u}) {
    EXPECT_TRUE(SelectSequencesToSanitize(DatabaseView(db_), info_,
                                          GlobalStrategy::kHeuristic, psi,
                                          nullptr)
                    .empty());
  }
}

TEST_F(GlobalSelectionTest, RandomSelectsRightCountAmongSupporters) {
  Rng rng(12);
  auto victims = SelectSequencesToSanitize(DatabaseView(db_), info_,
                                           GlobalStrategy::kRandom, 1, &rng);
  EXPECT_EQ(victims.size(), 2u);
  for (size_t v : victims) {
    EXPECT_NE(v, 3u) << "non-supporter selected";
  }
}

TEST_F(GlobalSelectionTest, RandomIsSeedDeterministic) {
  Rng rng1(5), rng2(5);
  EXPECT_EQ(SelectSequencesToSanitize(DatabaseView(db_), info_,
                                      GlobalStrategy::kRandom, 1, &rng1),
            SelectSequencesToSanitize(DatabaseView(db_), info_,
                                      GlobalStrategy::kRandom, 1, &rng2));
}

TEST_F(GlobalSelectionTest, AscendingLengthPrefersShortSequences) {
  // ψ=2: one victim — the shortest supporter (index 1, length 2).
  auto victims = SelectSequencesToSanitize(
      DatabaseView(db_), info_, GlobalStrategy::kAscendingLength, 2, nullptr);
  EXPECT_EQ(victims, (std::vector<size_t>{1}));
}

TEST(AutocorrelationStrategyTest, PrefersRepetitiveSequences) {
  SequenceDatabase db;
  db.AddFromNames({"a", "a", "a", "b"});       // highly repetitive
  db.AddFromNames({"a", "c", "d", "b"});       // all distinct
  std::vector<Sequence> patterns = {Seq(&db.alphabet(), "a b")};
  auto info = ComputeMatchInfo(DatabaseView(db), patterns, {});
  auto victims = SelectSequencesToSanitize(
      DatabaseView(db), info, GlobalStrategy::kHighAutocorrelationFirst, 1,
      nullptr);
  EXPECT_EQ(victims, (std::vector<size_t>{0}));
}

TEST_F(GlobalSelectionTest, MultiThresholdRespectsPerPatternAllowance) {
  // Uniform per-pattern ψ = [1]: supporters 0,1,2; the most expensive
  // (index 0) is kept, others sanitized.
  auto victims = SelectSequencesToSanitizeMultiThreshold(info_, {1});
  EXPECT_EQ(victims, (std::vector<size_t>{1, 2}));
  // ψ = [0]: every supporter sanitized.
  victims = SelectSequencesToSanitizeMultiThreshold(info_, {0});
  EXPECT_EQ(victims, (std::vector<size_t>{0, 1, 2}));
}

// Randomized invariants on generated instances (shared generators from
// src/testing/): every strategy selects only supporters, and exactly
// max(0, supporters - psi) of them, so at most psi supporters survive.
TEST(GlobalSelectionRandomizedTest, EveryStrategyKeepsAtMostPsiSupporters) {
  Rng rng(0x91054a1);
  proptest::GenOptions gen;
  gen.min_sequences = 3;
  gen.max_sequences = 10;
  gen.min_patterns = 1;
  gen.max_patterns = 1;  // single pattern: supporter counting is exact
  for (int i = 0; i < 100; ++i) {
    proptest::PropInstance inst = proptest::GenInstance(&rng, gen);
    auto info = ComputeMatchInfo(DatabaseView(inst.db), inst.patterns,
                                 inst.constraints);
    std::vector<size_t> supporters;
    for (const SequenceMatchInfo& s : info) {
      EXPECT_GT(s.matching_count, 0u) << "non-supporter listed";
      EXPECT_TRUE(supporters.empty() || supporters.back() < s.index)
          << "supporters out of row order";
      supporters.push_back(s.index);
    }
    size_t psi = rng.NextBounded(inst.db.size() + 1);
    size_t expect_victims =
        supporters.size() > psi ? supporters.size() - psi : 0;
    for (GlobalStrategy strategy :
         {GlobalStrategy::kHeuristic, GlobalStrategy::kRandom,
          GlobalStrategy::kAscendingLength,
          GlobalStrategy::kHighAutocorrelationFirst}) {
      auto victims = SelectSequencesToSanitize(DatabaseView(inst.db), info,
                                               strategy, psi, &rng);
      EXPECT_EQ(victims.size(), expect_victims)
          << "strategy=" << ToString(strategy) << " psi=" << psi << "\n"
          << inst.DebugString();
      for (size_t v : victims) {
        EXPECT_TRUE(std::binary_search(supporters.begin(), supporters.end(),
                                       v))
            << "non-supporter selected by " << ToString(strategy);
      }
    }
  }
}

TEST(MultiThresholdTest, DifferentThresholdsPerPattern) {
  SequenceDatabase db;
  db.AddFromNames({"a", "b"});            // supports P0 only
  db.AddFromNames({"c", "d"});            // supports P1 only
  db.AddFromNames({"a", "b", "c", "d"});  // supports both
  std::vector<Sequence> patterns = {Seq(&db.alphabet(), "a b"),
                                    Seq(&db.alphabet(), "c d")};
  auto info = ComputeMatchInfo(DatabaseView(db), patterns, {});
  // P0 may keep 2 supporters, P1 none: sequences 1 and 2 must be
  // sanitized (they support P1), sequence 0 can stay.
  auto victims = SelectSequencesToSanitizeMultiThreshold(info, {2, 0});
  EXPECT_EQ(victims, (std::vector<size_t>{1, 2}));
}

}  // namespace
}  // namespace seqhide
