#include "src/itemset/itemset_match.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "src/common/random.h"
#include "src/hide/pipeline.h"
#include "src/testing/language_oracles.h"

namespace seqhide {
namespace {

// Items: small integer ids; helpers below build sequences tersely.
ItemsetSequence ISeq(std::initializer_list<Itemset> elements) {
  return ItemsetSequence(elements);
}

Result<SanitizeReport> Hide(ItemsetDatabase* db,
                            const std::vector<ItemsetSequence>& patterns,
                            const std::vector<ConstraintSpec>& specs,
                            size_t psi) {
  SanitizeOptions opts;
  opts.psi = psi;
  return SanitizeRows<ItemsetLanguage>(db->mutable_sequences(), patterns,
                                       specs, opts);
}

// Sanitizes the single row *t at ψ = 0; returns the items removed.
size_t SanitizeRow(ItemsetSequence* t,
                   const std::vector<ItemsetSequence>& patterns) {
  std::vector<ItemsetSequence> rows = {*t};
  auto report = SanitizeRows<ItemsetLanguage>(&rows, patterns, {},
                                              SanitizeOptions::HH());
  EXPECT_TRUE(report.ok()) << report.status();
  *t = rows[0];
  return report->marks_introduced;
}

TEST(ItemsetTest, NormalizationSortsAndDedups) {
  Itemset s({3, 1, 2, 1});
  EXPECT_EQ(s.items(), (std::vector<SymbolId>{1, 2, 3}));
}

TEST(ItemsetTest, SubsetChecks) {
  Itemset small{1, 3};
  Itemset big{1, 2, 3};
  EXPECT_TRUE(small.IsSubsetOf(big));
  EXPECT_FALSE(big.IsSubsetOf(small));
  EXPECT_TRUE(Itemset{}.IsSubsetOf(small));
  EXPECT_TRUE(small.IsSubsetOf(small));
}

TEST(ItemsetTest, RemoveItem) {
  Itemset s{1, 2, 3};
  EXPECT_TRUE(s.Remove(2));
  EXPECT_EQ(s.items(), (std::vector<SymbolId>{1, 3}));
  EXPECT_FALSE(s.Remove(2));
  EXPECT_TRUE(s.Contains(1));
  EXPECT_FALSE(s.Contains(2));
}

TEST(ItemsetSubsequenceTest, InclusionBasedMatching) {
  // T = <(1,2), (3), (1,3)>
  ItemsetSequence t = ISeq({Itemset{1, 2}, Itemset{3}, Itemset{1, 3}});
  EXPECT_TRUE(IsItemsetSubsequence(ISeq({Itemset{1}, Itemset{3}}), t));
  EXPECT_TRUE(IsItemsetSubsequence(ISeq({Itemset{1, 2}, Itemset{1, 3}}), t));
  EXPECT_FALSE(IsItemsetSubsequence(ISeq({Itemset{2, 3}}), t));
  EXPECT_FALSE(
      IsItemsetSubsequence(ISeq({Itemset{3}, Itemset{2}}), t));
}

TEST(ItemsetCountTest, CountsEmbeddings) {
  ItemsetSequence t = ISeq({Itemset{1, 2}, Itemset{3}, Itemset{1, 3}});
  // <(1)>: matches elements 0 and 2.
  EXPECT_EQ(CountItemsetMatchings(ISeq({Itemset{1}}), t), 2u);
  // <(1),(3)>: (0,1), (0,2). Element 2 contains 1, but no (3) after it.
  EXPECT_EQ(CountItemsetMatchings(ISeq({Itemset{1}, Itemset{3}}), t), 2u);
  // <(1,2)>: only element 0.
  EXPECT_EQ(CountItemsetMatchings(ISeq({Itemset{1, 2}}), t), 1u);
}

TEST(ItemsetCountTest, AgreesWithEnumeration) {
  Rng rng(11);
  for (int trial = 0; trial < 200; ++trial) {
    // Random data sequence of 1-6 elements over items {0..3}.
    auto random_itemset = [&](size_t max_items) {
      std::vector<SymbolId> items;
      size_t count = 1 + rng.NextBounded(max_items);
      for (size_t i = 0; i < count; ++i) {
        items.push_back(static_cast<SymbolId>(rng.NextBounded(4)));
      }
      return Itemset(std::move(items));
    };
    ItemsetSequence t, s;
    size_t n = 1 + rng.NextBounded(6);
    for (size_t i = 0; i < n; ++i) t.Append(random_itemset(3));
    size_t m = 1 + rng.NextBounded(3);
    for (size_t i = 0; i < m; ++i) s.Append(random_itemset(2));
    EXPECT_EQ(CountItemsetMatchings(s, t),
              EnumerateItemsetMatchings(s, t).size())
        << "trial " << trial;
  }
}

TEST(ItemsetDeltaTest, MatchesBruteForce) {
  Rng rng(22);
  for (int trial = 0; trial < 150; ++trial) {
    auto random_itemset = [&](size_t max_items) {
      std::vector<SymbolId> items;
      size_t count = 1 + rng.NextBounded(max_items);
      for (size_t i = 0; i < count; ++i) {
        items.push_back(static_cast<SymbolId>(rng.NextBounded(3)));
      }
      return Itemset(std::move(items));
    };
    ItemsetSequence t;
    size_t n = 1 + rng.NextBounded(6);
    for (size_t i = 0; i < n; ++i) t.Append(random_itemset(3));
    std::vector<ItemsetSequence> patterns;
    ItemsetSequence s;
    size_t m = 1 + rng.NextBounded(3);
    for (size_t i = 0; i < m; ++i) s.Append(random_itemset(2));
    patterns.push_back(s);

    MatchScratch scratch;
    std::vector<uint64_t> deltas;
    const ConstraintSpec unconstrained;
    LanguageDeltas(ItemsetLanguage(s, unconstrained, t), &scratch, &deltas);
    ASSERT_EQ(deltas.size(), n);
    for (size_t pos = 0; pos < n; ++pos) {
      size_t brute = 0;
      for (const auto& matching : EnumerateItemsetMatchings(s, t)) {
        if (std::find(matching.begin(), matching.end(), pos) !=
            matching.end()) {
          ++brute;
        }
      }
      EXPECT_EQ(deltas[pos], brute) << "trial " << trial << " pos " << pos;
    }
  }
}

TEST(ItemsetSanitizeTest, RemovesAllMatchings) {
  ItemsetSequence t =
      ISeq({Itemset{1, 2}, Itemset{2, 3}, Itemset{1}, Itemset{3}});
  std::vector<ItemsetSequence> patterns = {ISeq({Itemset{1}, Itemset{3}})};
  EXPECT_GT(SanitizeRow(&t, patterns), 0u);
  EXPECT_EQ(CountItemsetMatchings(patterns[0], t), 0u);
}

TEST(ItemsetSanitizeTest, MarksOnlyItemsThatMatter) {
  // T = <(1,9), (3,8)>; pattern <(1),(3)>; removing item 1 or 3 suffices —
  // one mark, and the unrelated items 9/8 survive.
  ItemsetSequence t = ISeq({Itemset{1, 9}, Itemset{3, 8}});
  std::vector<ItemsetSequence> patterns = {ISeq({Itemset{1}, Itemset{3}})};
  EXPECT_EQ(SanitizeRow(&t, patterns), 1u);
  EXPECT_TRUE(t[0].Contains(9));
  EXPECT_TRUE(t[1].Contains(8));
}

TEST(ItemsetSanitizeTest, NoMatchingsNoMarks) {
  ItemsetSequence t = ISeq({Itemset{1}, Itemset{2}});
  std::vector<ItemsetSequence> patterns = {ISeq({Itemset{2}, Itemset{1}})};
  EXPECT_EQ(SanitizeRow(&t, patterns), 0u);
}

TEST(ItemsetHideTest, DatabaseLevelHiding) {
  ItemsetDatabase db;
  db.Add(ISeq({Itemset{1, 2}, Itemset{3}}));
  db.Add(ISeq({Itemset{1}, Itemset{2, 3}}));
  db.Add(ISeq({Itemset{2}, Itemset{2}}));
  std::vector<ItemsetSequence> patterns = {ISeq({Itemset{1}, Itemset{3}})};
  auto report = Hide(&db, patterns, {}, 0);
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_EQ(report->supports_before[0], 2u);
  EXPECT_EQ(report->supports_after[0], 0u);
  EXPECT_EQ(ItemsetSupport(patterns[0], db), 0u);
}

TEST(ItemsetHideTest, PsiKeepsExpensiveSupporters) {
  ItemsetDatabase db;
  // Cheap supporter (1 matching) and expensive one (4 matchings).
  db.Add(ISeq({Itemset{1}, Itemset{3}}));
  db.Add(ISeq({Itemset{1}, Itemset{1}, Itemset{3}, Itemset{3}}));
  std::vector<ItemsetSequence> patterns = {ISeq({Itemset{1}, Itemset{3}})};
  auto report = Hide(&db, patterns, {}, 1);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->supports_after[0], 1u);
  EXPECT_EQ(report->sequences_sanitized, 1u);
  // The expensive sequence is the survivor.
  EXPECT_GT(CountItemsetMatchings(patterns[0], db[1]), 0u);
}

TEST(ItemsetHideTest, InputValidation) {
  ItemsetDatabase db;
  db.Add(ISeq({Itemset{1}}));
  EXPECT_TRUE(Hide(&db, {}, {}, 0).status().IsInvalidArgument());
  EXPECT_TRUE(Hide(&db, {ItemsetSequence{}}, {}, 0)
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(Hide(&db, {ISeq({Itemset{}})}, {}, 0)
                  .status()
                  .IsInvalidArgument());
}

// The repro of a duplicate changing HH's victim: rows (a) (a) (a) (c) and
// (b) (b) (b) (b) (b) (d) at ψ = 1 mark row 0 under (a) (c), (b) (d);
// repeating (a) (c) doubled its count and marked row 1. Duplicates and
// ψ above |rows| are rejected as SanitizeView rejects them, rows untouched.
TEST(ItemsetHideTest, RejectsDuplicatePatternsAndPsiAboveRows) {
  ItemsetDatabase db;
  db.Add(ISeq({Itemset{1}, Itemset{1}, Itemset{1}, Itemset{3}}));
  db.Add(ISeq({Itemset{2}, Itemset{2}, Itemset{2}, Itemset{2}, Itemset{2},
               Itemset{4}}));
  const ItemsetDatabase original = db;
  const ItemsetSequence ac = ISeq({Itemset{1}, Itemset{3}});
  const ItemsetSequence bd = ISeq({Itemset{2}, Itemset{4}});
  EXPECT_TRUE(Hide(&db, {ac, bd, ac}, {}, 1).status().IsInvalidArgument());
  EXPECT_TRUE(Hide(&db, {ac}, {}, 3).status().IsInvalidArgument());
  EXPECT_EQ(db.sequences(), original.sequences());
  EXPECT_TRUE(Hide(&db, {ac}, {}, 2).ok());  // ψ = |rows| is allowed
  auto report = Hide(&db, {ac, bd}, {}, 1);
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_EQ(db[0].TotalItems(), 3u);  // (c) removed
  EXPECT_EQ(db[1], original[1]);
}

// A pattern longer than every row has support 0 by construction, so
// asking to hide it is a mix-up of files; it is rejected as for sequence
// patterns, rows untouched (the CLI's (a)×7 (c) repro).
TEST(ItemsetHideTest, RejectsPatternLongerThanEveryRow) {
  ItemsetDatabase db;
  db.Add(ISeq({Itemset{1}, Itemset{1}, Itemset{1}, Itemset{3}}));
  db.Add(ISeq({Itemset{2}, Itemset{2}, Itemset{2}, Itemset{2}, Itemset{2},
               Itemset{4}}));
  const ItemsetDatabase original = db;
  std::vector<Itemset> elements(7, Itemset{1});
  elements.push_back(Itemset{3});
  auto report = Hide(&db, {ItemsetSequence(elements)}, {}, 0);
  EXPECT_TRUE(report.status().IsInvalidArgument()) << report.status();
  EXPECT_EQ(db.sequences(), original.sequences());
}

// The exhaustive optimum and the length / autocorrelation orderings read
// symbol rows, and resume would replay an item-removing mark with
// Row::Mark; on itemset rows they are rejected, never run differently.
TEST(ItemsetHideTest, RejectsSequenceOnlyOptions) {
  std::vector<ItemsetSequence> rows = {ISeq({Itemset{1}, Itemset{3}})};
  const std::vector<ItemsetSequence> patterns = {
      ISeq({Itemset{1}, Itemset{3}})};
  SanitizeOptions exhaustive;
  exhaustive.local = LocalStrategy::kExhaustive;
  SanitizeOptions by_length;
  by_length.global = GlobalStrategy::kAscendingLength;
  SanitizeOptions by_autocorrelation;
  by_autocorrelation.global = GlobalStrategy::kHighAutocorrelationFirst;
  SanitizeOptions checkpointed;
  checkpointed.checkpoint_path = ::testing::TempDir() + "/itemset.ckpt";
  for (const SanitizeOptions& opts :
       {exhaustive, by_length, by_autocorrelation, checkpointed}) {
    auto report = SanitizeRows<ItemsetLanguage>(&rows, patterns, {}, opts);
    EXPECT_TRUE(report.status().IsInvalidArgument()) << report.status();
  }
  EXPECT_EQ(rows[0], ISeq({Itemset{1}, Itemset{3}}));
}

// (a)²⁰ over 100 (a) elements has C(100, 20) > 2⁶⁴ matchings, so no single
// item removal lowers the saturated row count; the chosen element is then
// cleared whole, and both rows still get sanitized.
TEST(ItemsetHideTest, SaturatedCountsStillSanitize) {
  ItemsetDatabase db;
  const ItemsetSequence row(std::vector<Itemset>(100, Itemset{1}));
  db.Add(row);
  db.Add(row);
  db.Add(ISeq({Itemset{2}, Itemset{3}}));
  const std::vector<ItemsetSequence> patterns = {
      ItemsetSequence(std::vector<Itemset>(20, Itemset{1}))};
  auto report = Hide(&db, patterns, {}, 0);
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_EQ(report->saturated_rows, 2u);
  EXPECT_EQ(report->supports_after[0], 0u);
  EXPECT_EQ(ItemsetSupport(patterns[0], db), 0u);
}

// The same rows under a max-window of 99 elements: δ is the fwd × bwd of
// each anchor's span, summed with SatAdd, so it stays large when the
// counts saturate (C(98, 19) > 2⁶⁴ from the first anchor alone).
TEST(ItemsetHideTest, SaturatedWindowedCountsStillSanitize) {
  ItemsetDatabase db;
  const ItemsetSequence row(std::vector<Itemset>(100, Itemset{1}));
  db.Add(row);
  db.Add(row);
  db.Add(ISeq({Itemset{2}, Itemset{3}}));
  const std::vector<ItemsetSequence> patterns = {
      ItemsetSequence(std::vector<Itemset>(20, Itemset{1}))};
  const ConstraintSpec window = ConstraintSpec::Window(99);
  auto report = Hide(&db, patterns, {window}, 0);
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_EQ(report->saturated_rows, 2u);
  EXPECT_EQ(report->supports_after[0], 0u);
  for (size_t t = 0; t < db.size(); ++t) {
    EXPECT_EQ(CountItemsetMatchings(patterns[0], window, db[t]), 0u);
  }
}

TEST(ItemsetConstrainedTest, GapConstraintFiltersOccurrences) {
  // T = <(1), (9), (3)>: <(1),(3)> occurs with gap 1 only.
  ItemsetSequence t = ISeq({Itemset{1}, Itemset{9}, Itemset{3}});
  ItemsetSequence s = ISeq({Itemset{1}, Itemset{3}});
  EXPECT_EQ(CountItemsetMatchings(s, ConstraintSpec::UniformGap(0, 0), t),
            0u);
  EXPECT_EQ(CountItemsetMatchings(s, ConstraintSpec::UniformGap(1, 1), t),
            1u);
  EXPECT_EQ(CountItemsetMatchings(s, ConstraintSpec::Window(2), t), 0u);
  EXPECT_EQ(CountItemsetMatchings(s, ConstraintSpec::Window(3), t), 1u);
}

TEST(ItemsetConstrainedTest, PropertyCountEqualsFilteredEnumeration) {
  Rng rng(333);
  for (int trial = 0; trial < 150; ++trial) {
    auto random_itemset = [&](size_t max_items) {
      std::vector<SymbolId> items;
      size_t count = 1 + rng.NextBounded(max_items);
      for (size_t i = 0; i < count; ++i) {
        items.push_back(static_cast<SymbolId>(rng.NextBounded(3)));
      }
      return Itemset(std::move(items));
    };
    ItemsetSequence t, s;
    size_t n = 1 + rng.NextBounded(7);
    for (size_t i = 0; i < n; ++i) t.Append(random_itemset(3));
    size_t m = 1 + rng.NextBounded(3);
    for (size_t i = 0; i < m; ++i) s.Append(random_itemset(2));

    ConstraintSpec spec;
    switch (rng.NextBounded(3)) {
      case 0:
        spec = ConstraintSpec::UniformGap(rng.NextBounded(2),
                                          rng.NextBounded(3) + 1);
        break;
      case 1:
        spec = ConstraintSpec::Window(m + rng.NextBounded(n));
        break;
      case 2:
        spec = ConstraintSpec::UniformGap(0, 1 + rng.NextBounded(2));
        spec.SetMaxWindow(m + rng.NextBounded(n));
        break;
    }
    size_t expected = 0;
    for (const auto& matching : EnumerateItemsetMatchings(s, t)) {
      if (spec.SatisfiedBy(matching)) ++expected;
    }
    EXPECT_EQ(CountItemsetMatchings(s, spec, t), expected)
        << "trial " << trial << " spec=" << spec.ToString();
  }
}

TEST(ItemsetConstrainedTest, ConstrainedHidingKeepsInvalidOccurrences) {
  ItemsetDatabase db;
  // Adjacent occurrence (sensitive) and distant occurrence (not).
  db.Add(ISeq({Itemset{1}, Itemset{3}}));
  db.Add(ISeq({Itemset{1}, Itemset{9}, Itemset{9}, Itemset{3}}));
  std::vector<ItemsetSequence> patterns = {ISeq({Itemset{1}, Itemset{3}})};
  std::vector<ConstraintSpec> specs = {ConstraintSpec::UniformGap(0, 0)};
  auto report = Hide(&db, patterns, specs, 0);
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_EQ(report->supports_before[0], 1u);
  EXPECT_EQ(report->supports_after[0], 0u);
  // The distant occurrence was never sensitive: row 1 untouched, and the
  // unconstrained pattern still present there.
  EXPECT_EQ(db[1].TotalItems(), 4u);
  EXPECT_TRUE(IsItemsetSubsequence(patterns[0], db[1]));
}

TEST(ItemsetConstrainedTest, InvalidConstraintRejected) {
  ItemsetDatabase db;
  db.Add(ISeq({Itemset{1}}));
  std::vector<ItemsetSequence> patterns = {ISeq({Itemset{1}, Itemset{2}})};
  // Window 1 cannot fit a length-2 pattern.
  std::vector<ConstraintSpec> specs = {ConstraintSpec::Window(1)};
  EXPECT_TRUE(Hide(&db, patterns, specs, 0)
                  .status()
                  .IsInvalidArgument());
}

TEST(ItemsetToStringTest, RendersReadably) {
  Alphabet a;
  SymbolId bread = a.Intern("bread");
  SymbolId milk = a.Intern("milk");
  ItemsetSequence t = ISeq({Itemset{bread, milk}, Itemset{bread}});
  EXPECT_EQ(t.ToString(a), "(bread,milk) (bread)");
}

}  // namespace
}  // namespace seqhide
