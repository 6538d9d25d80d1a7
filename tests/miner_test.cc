#include "src/mine/prefix_span.h"

#include <gtest/gtest.h>
#include <sched.h>

#include <algorithm>
#include <array>
#include <iterator>
#include <string>
#include <utility>
#include <vector>

#include "src/data/workload.h"
#include "src/match/subsequence.h"
#include "src/obs/metrics.h"
#include "src/testing/level_wise.h"
#include "tests/test_util.h"

namespace seqhide {
namespace {

using proptest::MineFrequentSequencesLevelWise;
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
  result->ForEach([&](const std::vector<SymbolId>& symbols, size_t support) {
    const Sequence pattern(symbols);
    EXPECT_EQ(support, Support(pattern, db))
        << pattern.ToString(db.alphabet());
  });
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
    // kSparse ascends, so mapping back keeps the canonical order.
    mined->ForEach([&](const std::vector<SymbolId>& pattern, size_t support) {
      std::vector<SymbolId> ids;
      for (SymbolId s : pattern) {
        const SymbolId* it =
            std::find(std::begin(kSparse), std::end(kSparse), s);
        ASSERT_NE(it, std::end(kSparse)) << "mined an unknown id " << s;
        ids.push_back(static_cast<SymbolId>(it - std::begin(kSparse)));
      }
      mapped_back.Add(ids, support);
    });
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
    a->ForEach([&](const std::vector<SymbolId>& pattern, size_t support) {
      EXPECT_EQ(support, Support(Sequence(pattern), db));
      EXPECT_LE(support, 3u);  // only the three real rows can support
    });
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

// A database with many frequent roots and deep subtrees: enough work that
// the roots are mined as separate tasks.
SequenceDatabase ManyRootsDb() {
  RandomDatabaseOptions gen;
  gen.num_sequences = 150;
  gen.min_length = 4;
  gen.max_length = 16;
  gen.alphabet_size = 12;
  gen.repeat_bias = 0.2;
  gen.seed = 4242;
  SequenceDatabase db = MakeRandomDatabase(gen);
  for (size_t i = 0; i < db.size(); i += 7) db.mutable_sequence(i)->Mark(1);
  return db;
}

#if !defined(SEQHIDE_OBS_DISABLED)
std::array<uint64_t, 3> MinerCounters() {
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Default();
  return {registry.GetCounter("mine.prefixspan.grow_calls")->Value(),
          registry.GetCounter("mine.prefixspan.projected_rows")->Value(),
          registry.GetCounter("mine.prefixspan.patterns")->Value()};
}
#endif

// Mines `db` and returns the set with the mine's counter deltas (zeros
// when observability is compiled out).
std::pair<FrequentPatternSet, std::array<uint64_t, 3>> MineWithCounters(
    const SequenceDatabase& db, const MinerOptions& opts) {
  std::array<uint64_t, 3> delta{};
#if !defined(SEQHIDE_OBS_DISABLED)
  const std::array<uint64_t, 3> before = MinerCounters();
#endif
  auto mined = MineFrequentSequences(db, opts);
  EXPECT_TRUE(mined.ok()) << mined.status();
#if !defined(SEQHIDE_OBS_DISABLED)
  const std::array<uint64_t, 3> after = MinerCounters();
  for (size_t k = 0; k < delta.size(); ++k) delta[k] = after[k] - before[k];
#endif
  return {mined.ok() ? std::move(*mined) : FrequentPatternSet(), delta};
}

// Mining is deterministic across runs of the pooled miner: the same set
// and the same mine.prefixspan.* counters every time.
TEST(PrefixSpanTest, RepeatedMinesAreIdentical) {
  const SequenceDatabase db = ManyRootsDb();
  MinerOptions opts;
  opts.min_support = 6;
  opts.max_length = 4;
  const auto [first, first_counters] = MineWithCounters(db, opts);
  ASSERT_GT(first.size(), 100u);
  for (int run = 1; run < 20; ++run) {
    const auto [again, counters] = MineWithCounters(db, opts);
    EXPECT_EQ(again, first) << "run " << run;
    EXPECT_EQ(counters, first_counters) << "run " << run;
  }
}

// The counters by their definition: one Grow for the root and one below
// every frequent pattern short of the length cap, each projecting its
// supporting rows (the root projects every row).
TEST(PrefixSpanTest, CountersFollowTheirDefinition) {
#if defined(SEQHIDE_OBS_DISABLED)
  GTEST_SKIP() << "observability compiled out";
#else
  const SequenceDatabase db = ManyRootsDb();
  for (size_t max_length : {0u, 1u, 4u}) {
    MinerOptions opts;
    opts.min_support = 9;
    opts.max_length = max_length;
    const auto [mined, counters] = MineWithCounters(db, opts);
    auto oracle = MineFrequentSequencesLevelWise(db, opts);
    ASSERT_TRUE(oracle.ok()) << oracle.status();
    uint64_t grow_calls = 1;
    uint64_t projected_rows = db.size();
    oracle->ForEach([&](const std::vector<SymbolId>& pattern, size_t support) {
      if (max_length != 0 && pattern.size() >= max_length) return;
      ++grow_calls;
      projected_rows += support;
    });
    EXPECT_EQ(counters[0], grow_calls) << "max_length " << max_length;
    EXPECT_EQ(counters[1], projected_rows) << "max_length " << max_length;
    EXPECT_EQ(counters[2], mined.size()) << "max_length " << max_length;
  }
#endif
}

// One CPU (the root tasks run inline on the caller) and every CPU mine
// the same set with the same counters.
TEST(PrefixSpanTest, OneCpuAndEveryCpuMineTheSame) {
  const SequenceDatabase db = ManyRootsDb();
  cpu_set_t saved;
  CPU_ZERO(&saved);
  ASSERT_EQ(sched_getaffinity(0, sizeof(saved), &saved), 0);
  int first = -1;
  for (int cpu = 0; cpu < CPU_SETSIZE && first < 0; ++cpu) {
    if (CPU_ISSET(cpu, &saved)) first = cpu;
  }
  ASSERT_GE(first, 0);
  for (size_t max_length : {0u, 1u, 3u}) {
    MinerOptions opts;
    opts.min_support = 8;
    opts.max_length = max_length;
    const auto all_cpus = MineWithCounters(db, opts);
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(first, &one);
    ASSERT_EQ(sched_setaffinity(0, sizeof(one), &one), 0);
    const auto one_cpu = MineWithCounters(db, opts);
    ASSERT_EQ(sched_setaffinity(0, sizeof(saved), &saved), 0);
    EXPECT_EQ(one_cpu.first, all_cpus.first) << "max_length " << max_length;
    EXPECT_EQ(one_cpu.second, all_cpus.second) << "max_length " << max_length;
  }
}

// The cap at |F| and |F| - 1 with the patterns spread over many roots
// (and so over many tasks): the decision is exact either way.
TEST(PrefixSpanTest, MaxPatternsCapIsExactAcrossRoots) {
  const SequenceDatabase db = ManyRootsDb();
  for (size_t min_length : {1u, 3u}) {
    MinerOptions opts;
    opts.min_support = 10;
    opts.min_length = min_length;
    opts.max_length = 4;
    auto full = MineFrequentSequences(db, opts);
    ASSERT_TRUE(full.ok()) << full.status();
    std::vector<SymbolId> roots;
    full->ForEach([&](const std::vector<SymbolId>& pattern, size_t) {
      if (roots.empty() || roots.back() != pattern[0]) {
        roots.push_back(pattern[0]);
      }
    });
    ASSERT_GE(roots.size(), 4u) << "min_length=" << min_length;

    opts.max_patterns = full->size();
    auto at_cap = MineFrequentSequences(db, opts);
    ASSERT_TRUE(at_cap.ok()) << at_cap.status();
    EXPECT_EQ(*at_cap, *full);

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
  Seq(&a, "x y");  // ids ascend x < y
  big.Add(Seq(&a, "x"), 5);
  big.Add(Seq(&a, "x y"), 3);
  big.Add(Seq(&a, "y"), 4);
  small.Add(Seq(&a, "x"), 5);
  EXPECT_EQ(big.CountMissingFrom(small), 2u);
  EXPECT_EQ(small.CountMissingFrom(big), 0u);
}

// Adds `patterns` (in canonical order) to `set`, each with support
// 10 + its index.
void AddAll(const std::vector<Sequence>& patterns, size_t first_index,
            FrequentPatternSet* set) {
  for (size_t k = 0; k < patterns.size(); ++k) {
    set->Add(patterns[k], 10 + first_index + k);
  }
}

// Splits `patterns` (canonical order) into one fragment per first symbol,
// with an empty fragment before, between and after them.
std::vector<FrequentPatternSet> FragmentsByRoot(
    const std::vector<Sequence>& patterns) {
  std::vector<FrequentPatternSet> fragments(1);
  for (size_t k = 0; k < patterns.size(); ++k) {
    if (k == 0 || patterns[k][0] != patterns[k - 1][0]) {
      fragments.emplace_back();
      fragments.emplace_back();
    }
    fragments[fragments.size() - 2].Add(patterns[k], 10 + k);
  }
  return fragments;
}

TEST(PatternSetTest, SpliceEqualsSerialAdds) {
  Alphabet a;
  Seq(&a, "a b c d e");  // ids ascend a < b < c < d < e
  const std::vector<std::vector<std::string>> cases = {
      // One-node fragments.
      {"a", "b", "d"},
      // Deep fragments with members at every depth.
      {"a", "a b", "a b c", "a c", "b", "b b", "c", "c a", "c a d"},
      // min_length 2: every root and some interior nodes are not members.
      {"a b", "a c d", "a c e", "b a", "b e", "d c b a"},
  };
  for (const auto& names : cases) {
    std::vector<Sequence> patterns;
    for (const std::string& name : names) patterns.push_back(Seq(&a, name));
    FrequentPatternSet serial;
    AddAll(patterns, 0, &serial);
    FrequentPatternSet spliced =
        FrequentPatternSet::Splice(FragmentsByRoot(patterns));
    EXPECT_EQ(spliced, serial) << names.front();
    EXPECT_EQ(spliced.size(), patterns.size());
    for (size_t k = 0; k < patterns.size(); ++k) {
      EXPECT_EQ(spliced.IndexOf(patterns[k]), k);
    }
    // Add continues after the splice, below the last root and beside it.
    Sequence below = patterns.back();
    below.Append(a.Intern("e"));
    const Sequence beside = Seq(&a, "e e");
    serial.Add(below, 1);
    spliced.Add(below, 1);
    serial.Add(beside, 2);
    spliced.Add(beside, 2);
    EXPECT_EQ(spliced, serial) << names.front();
    // The derivation walk sees the full depth of the spliced tree.
    SequenceDatabase db;
    db.Add(Seq(&a, "d c b a c d e e"));
    db.Add(Seq(&a, "a b c a c e b e"));
    SequenceDatabase marked = db;
    marked.mutable_sequence(1)->Mark(2);
    auto want = serial.SupportsAfter(DatabaseView(db), DatabaseView(marked));
    auto got = spliced.SupportsAfter(DatabaseView(db), DatabaseView(marked));
    ASSERT_EQ(want.ok(), got.ok());
    if (want.ok()) {
      EXPECT_EQ(*got, *want);
    }
  }
}

TEST(PatternSetTest, SpliceOfEmptyAndLoneFragments) {
  EXPECT_TRUE(FrequentPatternSet::Splice({}).empty());
  std::vector<FrequentPatternSet> empties(3);
  FrequentPatternSet spliced = FrequentPatternSet::Splice(std::move(empties));
  EXPECT_EQ(spliced, FrequentPatternSet());
  Alphabet a;
  spliced.Add(Seq(&a, "x"), 1);
  EXPECT_EQ(spliced.SupportOf(Seq(&a, "x")), 1u);

  // One non-empty fragment among empty ones, roots and interior prefixes
  // included: the splice is that fragment, and Add continues on it.
  Seq(&a, "y z");
  FrequentPatternSet serial;
  serial.Add(Seq(&a, "x y"), 4);
  serial.Add(Seq(&a, "x y z"), 3);
  serial.Add(Seq(&a, "y"), 5);
  std::vector<FrequentPatternSet> fragments(4);
  fragments[2] = serial;
  FrequentPatternSet lone = FrequentPatternSet::Splice(std::move(fragments));
  EXPECT_EQ(lone, serial);
  serial.Add(Seq(&a, "y z"), 2);
  lone.Add(Seq(&a, "y z"), 2);
  EXPECT_EQ(lone, serial);
}

TEST(PatternSetDeathTest, SpliceRejectsOverlappingRoots) {
  Alphabet a;
  Seq(&a, "a b c");
  std::vector<FrequentPatternSet> fragments(2);
  fragments[0].Add(Seq(&a, "a b"), 1);
  fragments[1].Add(Seq(&a, "a c"), 1);
  EXPECT_DEATH(FrequentPatternSet::Splice(std::move(fragments)),
               "disjoint root");
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
