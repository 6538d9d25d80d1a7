#include "src/itemset/itemset_mine.h"

#include <gtest/gtest.h>

#include "src/common/random.h"
#include "src/hide/pipeline.h"
#include "src/itemset/itemset_io.h"
#include "src/itemset/itemset_match.h"

namespace seqhide {
namespace {

ItemsetDatabase MarketDb() {
  // Classic basket sequences over items 0..3.
  ItemsetDatabase db;
  db.Add(ItemsetSequence{Itemset{0, 1}, Itemset{2}});
  db.Add(ItemsetSequence{Itemset{0}, Itemset{1, 2}});
  db.Add(ItemsetSequence{Itemset{0, 1}, Itemset{1, 2}});
  db.Add(ItemsetSequence{Itemset{3}});
  return db;
}

TEST(ItemsetMineTest, SigmaZeroRejected) {
  ItemsetMinerOptions opts;
  opts.min_support = 0;
  ItemsetDatabase db = MarketDb();
  EXPECT_TRUE(
      MineFrequentItemsetSequences(db, opts).status().IsInvalidArgument());
}

TEST(ItemsetMineTest, MinesExpectedPatterns) {
  ItemsetDatabase db = MarketDb();
  ItemsetMinerOptions opts;
  opts.min_support = 2;
  auto result = MineFrequentItemsetSequences(db, opts);
  ASSERT_TRUE(result.ok()) << result.status();
  auto support_of = [&](const ItemsetSequence& p) {
    auto it = result->find(p);
    return it == result->end() ? size_t{0} : it->second;
  };
  EXPECT_EQ(support_of(ItemsetSequence{Itemset{0}}), 3u);
  EXPECT_EQ(support_of(ItemsetSequence{Itemset{1}}), 3u);
  EXPECT_EQ(support_of(ItemsetSequence{Itemset{0, 1}}), 2u);
  EXPECT_EQ(support_of(ItemsetSequence{Itemset{0}, Itemset{2}}), 3u);
  EXPECT_EQ(support_of(ItemsetSequence{Itemset{0}, Itemset{1, 2}}), 2u);
  // Item 3 appears once only.
  EXPECT_EQ(support_of(ItemsetSequence{Itemset{3}}), 0u);
}

TEST(ItemsetMineTest, ItemWindowRespected) {
  ItemsetDatabase db = MarketDb();
  ItemsetMinerOptions opts;
  opts.min_support = 2;
  opts.min_items = 2;
  opts.max_items = 2;
  auto result = MineFrequentItemsetSequences(db, opts);
  ASSERT_TRUE(result.ok());
  for (const auto& [pattern, support] : *result) {
    (void)support;
    EXPECT_EQ(pattern.TotalItems(), 2u);
  }
  EXPECT_TRUE(result->count(ItemsetSequence{Itemset{0, 1}}) > 0);
  opts.min_items = 3;
  opts.max_items = 2;
  EXPECT_TRUE(
      MineFrequentItemsetSequences(db, opts).status().IsInvalidArgument());
}

TEST(ItemsetMineTest, MaxPatternsCapFires) {
  ItemsetDatabase db = MarketDb();
  ItemsetMinerOptions opts;
  opts.min_support = 1;
  opts.max_patterns = 3;
  EXPECT_TRUE(
      MineFrequentItemsetSequences(db, opts).status().IsOutOfRange());
}

// Completeness + correctness: every mined pattern's support is exact, and
// brute-force enumeration over a tiny pattern space finds nothing extra.
TEST(ItemsetMineTest, PropertyMatchesBruteForce) {
  Rng rng(77001);
  for (int trial = 0; trial < 15; ++trial) {
    // Tiny universe so the brute-force space is enumerable: items {0,1,2},
    // elements = non-empty subsets (7), sequences of <= 2 elements.
    ItemsetDatabase db;
    size_t rows = 6 + rng.NextBounded(5);
    for (size_t r = 0; r < rows; ++r) {
      ItemsetSequence seq;
      size_t elements = 1 + rng.NextBounded(3);
      for (size_t e = 0; e < elements; ++e) {
        std::vector<SymbolId> items;
        for (SymbolId item = 0; item < 3; ++item) {
          if (rng.NextBernoulli(0.45)) items.push_back(item);
        }
        if (items.empty()) items.push_back(static_cast<SymbolId>(
            rng.NextBounded(3)));
        seq.Append(Itemset(std::move(items)));
      }
      db.Add(std::move(seq));
    }

    ItemsetMinerOptions opts;
    opts.min_support = 2;
    opts.max_items = 4;
    auto mined = MineFrequentItemsetSequences(db, opts);
    ASSERT_TRUE(mined.ok()) << mined.status();

    // Brute force: all patterns of 1..2 elements over the 7 subsets, plus
    // all single elements — enough to cover max_items=4 up to 2 elements;
    // also 3-element patterns of singletons... restrict check to <= 2
    // elements (mined results with more elements are verified for support
    // exactness below).
    std::vector<Itemset> elements;
    for (int mask = 1; mask < 8; ++mask) {
      std::vector<SymbolId> items;
      for (SymbolId item = 0; item < 3; ++item) {
        if (mask & (1 << item)) items.push_back(item);
      }
      elements.push_back(Itemset(std::move(items)));
    }
    for (const auto& e1 : elements) {
      ItemsetSequence p1{e1};
      size_t s1 = ItemsetSupport(p1, db);
      if (s1 >= 2 && p1.TotalItems() <= 4) {
        EXPECT_EQ(mined->count(p1), 1u) << "missing " << trial;
        EXPECT_EQ((*mined)[p1], s1);
      } else {
        EXPECT_EQ(mined->count(p1), 0u);
      }
      for (const auto& e2 : elements) {
        ItemsetSequence p2{e1, e2};
        if (p2.TotalItems() > 4) continue;
        size_t s2 = ItemsetSupport(p2, db);
        if (s2 >= 2) {
          EXPECT_EQ(mined->count(p2), 1u)
              << "missing 2-element pattern, trial " << trial;
          EXPECT_EQ((*mined)[p2], s2);
        } else {
          EXPECT_EQ(mined->count(p2), 0u);
        }
      }
    }
    // Every mined support is exact.
    for (const auto& [pattern, support] : *mined) {
      EXPECT_EQ(support, ItemsetSupport(pattern, db));
    }
  }
}

TEST(ItemsetIoTest, RoundTrip) {
  auto db = ReadItemsetDatabaseFromString(
      "# baskets\n(bread,milk) (beer)\n(milk) (bread,diapers) (beer)\n");
  ASSERT_TRUE(db.ok()) << db.status();
  EXPECT_EQ(db->size(), 2u);
  EXPECT_EQ((*db)[0].size(), 2u);
  EXPECT_EQ((*db)[0][0].size(), 2u);
  std::string text = WriteItemsetDatabaseToString(*db);
  auto again = ReadItemsetDatabaseFromString(text);
  ASSERT_TRUE(again.ok());
  ASSERT_EQ(again->size(), db->size());
  for (size_t i = 0; i < db->size(); ++i) {
    EXPECT_EQ((*again)[i].ToString(again->alphabet()),
              (*db)[i].ToString(db->alphabet()));
  }
}

TEST(ItemsetIoTest, RejectsMalformed) {
  EXPECT_FALSE(ReadItemsetDatabaseFromString("(a,b\n").ok());
  EXPECT_FALSE(ReadItemsetDatabaseFromString("a b\n").ok());
  EXPECT_FALSE(ReadItemsetDatabaseFromString("(^)\n").ok());
  EXPECT_TRUE(ReadItemsetDatabaseFromString("").ok());
  EXPECT_FALSE(ReadItemsetDatabaseFromFile("/no/such/file").ok());
}

TEST(ItemsetIoTest, EmptyElementRoundTripsAsMarkedElement) {
  // "()" is the itemset analogue of a Δ: sanitized output must re-parse.
  auto db = ReadItemsetDatabaseFromString("(a) () (b)\n");
  ASSERT_TRUE(db.ok()) << db.status();
  ASSERT_EQ((*db)[0].size(), 3u);
  EXPECT_TRUE((*db)[0][1].empty());
  auto again = ReadItemsetDatabaseFromString(WriteItemsetDatabaseToString(*db));
  ASSERT_TRUE(again.ok());
  EXPECT_EQ((*again)[0].ToString(again->alphabet()),
            (*db)[0].ToString(db->alphabet()));
}

TEST(ItemsetIoTest, SanitizedDatabaseRoundTrips) {
  auto db = ReadItemsetDatabaseFromString("(x) (y)\n(x,z) (y)\n");
  ASSERT_TRUE(db.ok());
  SymbolId x = *db->alphabet().Lookup("x");
  SymbolId y = *db->alphabet().Lookup("y");
  std::vector<ItemsetSequence> patterns = {
      ItemsetSequence{Itemset{x}, Itemset{y}}};
  auto report = SanitizeRows<ItemsetLanguage>(
      db->mutable_sequences(), patterns, {}, SanitizeOptions::HH());
  ASSERT_TRUE(report.ok());
  auto again = ReadItemsetDatabaseFromString(WriteItemsetDatabaseToString(*db));
  ASSERT_TRUE(again.ok()) << again.status();
  EXPECT_EQ(again->size(), db->size());
}

TEST(ItemsetIoTest, SharedAlphabetAcrossRows) {
  auto db = ReadItemsetDatabaseFromString("(a) (b)\n(b) (a)\n");
  ASSERT_TRUE(db.ok());
  EXPECT_EQ((*db)[0][0].items()[0], (*db)[1][1].items()[0]);
  EXPECT_EQ(db->alphabet().size(), 2u);
}

}  // namespace
}  // namespace seqhide
