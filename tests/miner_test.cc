#include "src/mine/prefix_span.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <string>

#include "src/data/workload.h"
#include "src/match/subsequence.h"
#include "src/mine/level_wise.h"
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

TEST(PrefixSpanTest, MinesExpectedPatterns) {
  SequenceDatabase db = TinyDb();
  MinerOptions opts;
  opts.min_support = 2;
  auto result = MineFrequentSequences(db, opts);
  ASSERT_TRUE(result.ok()) << result.status();
  Alphabet& a = db.alphabet();
  // sup(a)=3, sup(b)=2, sup(c)=3, sup(ac)=3, sup(bc)=2, sup(ab)=1,
  // sup(abc)=1, sup(ba)=1 ...
  EXPECT_EQ(result->SupportOf(Seq(&a, "a")), 3u);
  EXPECT_EQ(result->SupportOf(Seq(&a, "b")), 2u);
  EXPECT_EQ(result->SupportOf(Seq(&a, "c")), 3u);
  EXPECT_EQ(result->SupportOf(Seq(&a, "a c")), 3u);
  EXPECT_EQ(result->SupportOf(Seq(&a, "b c")), 2u);
  EXPECT_FALSE(result->Contains(Seq(&a, "a b")));
  EXPECT_EQ(result->size(), 5u);
}

TEST(PrefixSpanTest, SigmaZeroRejected) {
  SequenceDatabase db = TinyDb();
  MinerOptions opts;
  opts.min_support = 0;
  EXPECT_TRUE(MineFrequentSequences(db, opts).status().IsInvalidArgument());
  EXPECT_TRUE(
      MineFrequentSequencesLevelWise(db, opts).status().IsInvalidArgument());
}

TEST(PrefixSpanTest, LengthWindow) {
  SequenceDatabase db = TinyDb();
  MinerOptions opts;
  opts.min_support = 2;
  opts.min_length = 2;
  auto result = MineFrequentSequences(db, opts);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->size(), 2u);  // "a c", "b c"
  opts.min_length = 1;
  opts.max_length = 1;
  result = MineFrequentSequences(db, opts);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->size(), 3u);  // a, b, c
  opts.min_length = 2;
  opts.max_length = 1;
  EXPECT_TRUE(MineFrequentSequences(db, opts).status().IsInvalidArgument());
}

TEST(PrefixSpanTest, MaxPatternsCapFires) {
  SequenceDatabase db = TinyDb();
  MinerOptions opts;
  opts.min_support = 1;
  opts.max_patterns = 3;
  EXPECT_TRUE(MineFrequentSequences(db, opts).status().IsOutOfRange());
}

TEST(PrefixSpanTest, DeltaPositionsIgnored) {
  SequenceDatabase db;
  db.AddFromNames({"a", "b"});
  db.AddFromNames({"a", "b"});
  db.mutable_sequence(1)->Mark(1);
  MinerOptions opts;
  opts.min_support = 2;
  auto result = MineFrequentSequences(db, opts);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->Contains(Seq(&db.alphabet(), "a")));
  EXPECT_FALSE(result->Contains(Seq(&db.alphabet(), "b")));
  EXPECT_FALSE(result->Contains(Seq(&db.alphabet(), "a b")));
}

TEST(PrefixSpanTest, SupportsAreActualSupports) {
  SequenceDatabase db = TinyDb();
  MinerOptions opts;
  opts.min_support = 1;
  auto result = MineFrequentSequences(db, opts);
  ASSERT_TRUE(result.ok());
  for (const auto& [pattern, support] : result->patterns()) {
    EXPECT_EQ(support, Support(pattern, db))
        << pattern.ToString(db.alphabet());
  }
}

TEST(PrefixSpanTest, EmptyDatabaseMinesNothing) {
  SequenceDatabase db;
  MinerOptions opts;
  opts.min_support = 1;
  auto result = MineFrequentSequences(db, opts);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->empty());
}

// Completeness cross-check: PrefixSpan and the level-wise miner agree
// exactly (patterns and supports) on random databases.
TEST(MinerCrossCheckTest, PropertyPrefixSpanEqualsLevelWise) {
  Rng rng(1357);
  for (int trial = 0; trial < 30; ++trial) {
    RandomDatabaseOptions gen;
    gen.num_sequences = 12;
    gen.min_length = 2;
    gen.max_length = 8;
    gen.alphabet_size = 4;
    gen.repeat_bias = trial % 2 == 0 ? 0.0 : 0.4;
    gen.seed = rng.NextU64();
    SequenceDatabase db = MakeRandomDatabase(gen);
    // Mark a couple of random positions to exercise Δ handling.
    for (int k = 0; k < 3; ++k) {
      size_t idx = rng.NextBounded(db.size());
      size_t pos = rng.NextBounded(db[idx].size());
      db.mutable_sequence(idx)->Mark(pos);
    }
    MinerOptions opts;
    opts.min_support = 2 + rng.NextBounded(4);
    // Length windows too: the cap makes the last level count-only.
    opts.max_length = static_cast<size_t>(trial % 3) * 2;  // 0, 2, 4
    opts.min_length = 1 + static_cast<size_t>(trial % 2);
    auto a = MineFrequentSequences(db, opts);
    auto b = MineFrequentSequencesLevelWise(db, opts);
    ASSERT_TRUE(a.ok()) << a.status();
    ASSERT_TRUE(b.ok()) << b.status();
    EXPECT_EQ(*a, *b) << "trial " << trial << " sigma=" << opts.min_support
                      << " length window [" << opts.min_length << ", "
                      << opts.max_length << "]";
  }
}

// The dense miner ranks symbol ids, so sparse and large ids must mine
// exactly like dense ones: relabel a random database's ids {0..3} by an
// order-preserving map onto far-apart ids up to INT32_MAX - 1, mine it,
// map the patterns back, and compare with the level-wise miner on the
// dense original.
TEST(MinerCrossCheckTest, SparseAndLargeSymbolIdsMineLikeDenseOnes) {
  const SymbolId kSparse[] = {5, 65536, 1000000000, 2147483646};
  Rng rng(2468);
  for (int trial = 0; trial < 12; ++trial) {
    RandomDatabaseOptions gen;
    gen.num_sequences = 10;
    gen.min_length = 0;
    gen.max_length = 8;
    gen.alphabet_size = 4;
    gen.repeat_bias = 0.3;
    gen.seed = rng.NextU64();
    SequenceDatabase dense = MakeRandomDatabase(gen);
    for (size_t i = 0; i < dense.size(); i += 3) {
      if (!dense[i].empty()) dense.mutable_sequence(i)->Mark(0);
    }
    SequenceDatabase sparse;
    for (const Sequence& row : dense.sequences()) {
      std::vector<SymbolId> ids;
      for (SymbolId s : row.symbols()) {
        ids.push_back(IsRealSymbol(s) ? kSparse[s] : s);
      }
      sparse.Add(Sequence(std::move(ids)));
    }
    MinerOptions opts;
    opts.min_support = 1 + rng.NextBounded(3);
    auto mined = MineFrequentSequences(sparse, opts);
    auto oracle = MineFrequentSequencesLevelWise(dense, opts);
    ASSERT_TRUE(mined.ok()) << mined.status();
    ASSERT_TRUE(oracle.ok()) << oracle.status();
    FrequentPatternSet mapped_back;
    for (const auto& [pattern, support] : mined->patterns()) {
      std::vector<SymbolId> ids;
      for (SymbolId s : pattern.symbols()) {
        const SymbolId* it =
            std::find(std::begin(kSparse), std::end(kSparse), s);
        ASSERT_NE(it, std::end(kSparse)) << "mined an unknown id " << s;
        ids.push_back(static_cast<SymbolId>(it - std::begin(kSparse)));
      }
      mapped_back.Add(Sequence(std::move(ids)), support);
    }
    EXPECT_EQ(mapped_back, *oracle) << "trial " << trial;
  }
}

// Sparse ids inside a large alphabet: only a handful of 70 000 interned
// symbols occur, so most of the id range is empty.
TEST(MinerCrossCheckTest, SparseIdsInLargeAlphabet) {
  SequenceDatabase db;
  for (int i = 0; i < 70000; ++i) {
    db.alphabet().Intern("s" + std::to_string(i));
  }
  const SymbolId ids[] = {0, 1, 4099, 65535, 65536, 69999};
  Rng rng(97531);
  for (int r = 0; r < 14; ++r) {
    std::vector<SymbolId> row;
    const size_t len = rng.NextBounded(9);
    for (size_t j = 0; j < len; ++j) row.push_back(ids[rng.NextBounded(6)]);
    db.Add(Sequence(std::move(row)));
  }
  for (size_t sigma = 1; sigma <= 4; ++sigma) {
    MinerOptions opts;
    opts.min_support = sigma;
    opts.max_length = 4;
    auto a = MineFrequentSequences(db, opts);
    auto b = MineFrequentSequencesLevelWise(db, opts);
    ASSERT_TRUE(a.ok() && b.ok());
    EXPECT_EQ(*a, *b) << "sigma=" << sigma;
  }
}

// All-Δ rows contribute nothing, alone or next to real rows.
TEST(MinerCrossCheckTest, AllDeltaRowsContributeNothing) {
  SequenceDatabase db;
  db.AddFromNames({"a", "b", "c"});
  db.AddFromNames({"a", "b"});
  db.AddFromNames({"c", "a"});
  for (size_t i = 0; i < 3; ++i) {
    Sequence marked = db[i];
    for (size_t j = 0; j < marked.size(); ++j) marked.Mark(j);
    db.Add(std::move(marked));
  }
  db.Add(Sequence());
  for (size_t sigma = 1; sigma <= 3; ++sigma) {
    MinerOptions opts;
    opts.min_support = sigma;
    auto a = MineFrequentSequences(db, opts);
    auto b = MineFrequentSequencesLevelWise(db, opts);
    ASSERT_TRUE(a.ok() && b.ok());
    EXPECT_EQ(*a, *b) << "sigma=" << sigma;
    for (const auto& [pattern, support] : a->patterns()) {
      EXPECT_EQ(support, Support(pattern, db));
      EXPECT_LE(support, 3u);  // only the three real rows can support
    }
  }

  SequenceDatabase only_delta;
  Sequence row{kDeltaSymbol, kDeltaSymbol};
  only_delta.Add(row);
  only_delta.Add(row);
  MinerOptions opts;
  opts.min_support = 1;
  auto a = MineFrequentSequences(only_delta, opts);
  auto b = MineFrequentSequencesLevelWise(only_delta, opts);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_TRUE(a->empty());
  EXPECT_TRUE(b->empty());
}

// The max_patterns cap at its exact boundary: a cap equal to |F| mines
// everything, one less fails with OutOfRange, in both miners and with a
// length window (the cap counts emitted patterns only).
TEST(MinerCrossCheckTest, MaxPatternsCapBoundaryIsExact) {
  SequenceDatabase db = TinyDb();
  for (size_t min_length : {1u, 2u}) {
    MinerOptions opts;
    opts.min_support = 1;
    opts.min_length = min_length;
    auto full = MineFrequentSequences(db, opts);
    ASSERT_TRUE(full.ok());
    ASSERT_GT(full->size(), 1u);

    opts.max_patterns = full->size();
    auto at_cap = MineFrequentSequences(db, opts);
    auto at_cap_oracle = MineFrequentSequencesLevelWise(db, opts);
    ASSERT_TRUE(at_cap.ok()) << at_cap.status();
    ASSERT_TRUE(at_cap_oracle.ok()) << at_cap_oracle.status();
    EXPECT_EQ(*at_cap, *full);
    EXPECT_EQ(*at_cap_oracle, *full);

    opts.max_patterns = full->size() - 1;
    EXPECT_TRUE(MineFrequentSequences(db, opts).status().IsOutOfRange())
        << "min_length=" << min_length;
    EXPECT_TRUE(
        MineFrequentSequencesLevelWise(db, opts).status().IsOutOfRange())
        << "min_length=" << min_length;
  }
}

TEST(LevelWiseTest, MatchesPrefixSpanOnTinyDb) {
  SequenceDatabase db = TinyDb();
  for (size_t sigma = 1; sigma <= 3; ++sigma) {
    MinerOptions opts;
    opts.min_support = sigma;
    auto a = MineFrequentSequences(db, opts);
    auto b = MineFrequentSequencesLevelWise(db, opts);
    ASSERT_TRUE(a.ok() && b.ok());
    EXPECT_EQ(*a, *b) << "sigma=" << sigma;
  }
}

TEST(PatternSetTest, CountMissingFrom) {
  Alphabet a;
  FrequentPatternSet big, small;
  big.Add(Seq(&a, "x"), 5);
  big.Add(Seq(&a, "y"), 4);
  big.Add(Seq(&a, "x y"), 3);
  small.Add(Seq(&a, "x"), 5);
  EXPECT_EQ(big.CountMissingFrom(small), 2u);
  EXPECT_EQ(small.CountMissingFrom(big), 0u);
}

TEST(PatternSetTest, ToStringListsPatterns) {
  Alphabet a;
  FrequentPatternSet set;
  set.Add(Seq(&a, "x y"), 3);
  std::string text = set.ToString(a);
  EXPECT_NE(text.find("x y"), std::string::npos);
  EXPECT_NE(text.find("sup=3"), std::string::npos);
}

}  // namespace
}  // namespace seqhide
