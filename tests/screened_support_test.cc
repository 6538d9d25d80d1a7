// Differential tests for the screened whole-database loop
// (ConstrainedSupport / ConstrainedMatchCount in
// src/match/constrained_count.h) over mapped seqhidb images: on seeded
// random databases, the loop over a mapped view with its ValidateRows
// signatures attached must return exactly what the unscreened in-memory
// definitions return — the signature screen is an optimization, never a
// semantics change. Also covers the DatabaseView adapter overloads the
// kernels build on.

#include <gtest/gtest.h>

#include <optional>
#include <vector>

#include "src/common/random.h"
#include "src/constraints/constraints.h"
#include "src/match/constrained_count.h"
#include "src/match/count.h"
#include "src/match/scratch.h"
#include "src/match/subsequence.h"
#include "src/seq/binary_format.h"
#include "src/seq/view.h"
#include "tests/test_util.h"

namespace seqhide {
namespace {

// A seqhidb image of `db`, with the row signatures its ValidateRows pass
// yields; view() is the screened view the server and the CLI query.
struct Mapped {
  explicit Mapped(const SequenceDatabase& db) {
    auto bytes = WriteBinaryDatabaseToString(db);
    EXPECT_TRUE(bytes.ok()) << bytes.status();
    auto opened = MappedDatabase::FromBuffer(*bytes);
    EXPECT_TRUE(opened.ok()) << opened.status();
    image.emplace(std::move(opened).value());
    EXPECT_TRUE(image->ValidateRows(&signatures).ok());
  }
  DatabaseView view() const { return image->view().WithSignatures(signatures); }

  std::optional<MappedDatabase> image;
  std::vector<uint64_t> signatures;
};

TEST(MappedMatchTest, SupportMatchesInMemory) {
  Rng rng(101);
  for (int round = 0; round < 10; ++round) {
    SequenceDatabase db = testutil::RandomDb(&rng, 30, 0, 12, 4);
    const Mapped mapped(db);
    for (int i = 0; i < 20; ++i) {
      Sequence pattern = testutil::RandomSeq(&rng, 1 + i % 5, 4);
      EXPECT_EQ(ConstrainedSupport(pattern, ConstraintSpec(), mapped.view()),
                Support(pattern, db))
          << pattern.DebugString();
    }
  }
}

TEST(MappedMatchTest, CountMatchingsMatchesInMemory) {
  Rng rng(103);
  SequenceDatabase db = testutil::RandomDb(&rng, 25, 0, 10, 3);
  const Mapped mapped(db);
  MatchScratch scratch;
  for (int i = 0; i < 30; ++i) {
    Sequence pattern = testutil::RandomSeq(&rng, 1 + i % 4, 3);
    uint64_t expected = 0;
    for (size_t t = 0; t < db.size(); ++t) {
      expected = SatAdd(expected, CountMatchings(pattern, db[t], &scratch));
    }
    EXPECT_EQ(ConstrainedMatchCount(pattern, ConstraintSpec(), mapped.view()),
              expected)
        << pattern.DebugString();
  }
}

TEST(MappedMatchTest, ConstrainedSupportMatchesInMemory) {
  Rng rng(107);
  SequenceDatabase db = testutil::RandomDb(&rng, 30, 0, 14, 4);
  const Mapped mapped(db);
  for (int i = 0; i < 25; ++i) {
    Sequence pattern = testutil::RandomSeq(&rng, 2 + i % 3, 4);
    ConstraintSpec spec =
        proptest::GenConstraintSpec(&rng, pattern.size(), 14);
    size_t expected = 0;
    for (size_t t = 0; t < db.size(); ++t) {
      if (HasConstrainedMatch(pattern, spec, db[t])) ++expected;
    }
    EXPECT_EQ(ConstrainedSupport(pattern, spec, mapped.view()), expected)
        << pattern.DebugString();
  }
}

TEST(MappedMatchTest, ConstrainedTotalMatchesInMemory) {
  Rng rng(109);
  SequenceDatabase db = testutil::RandomDb(&rng, 20, 0, 10, 4);
  const Mapped mapped(db);
  MatchScratch scratch;
  std::vector<Sequence> patterns;
  std::vector<ConstraintSpec> constraints;
  for (int i = 0; i < 3; ++i) {
    patterns.push_back(testutil::RandomSeq(&rng, 2 + i, 4));
    constraints.push_back(
        proptest::GenConstraintSpec(&rng, patterns.back().size(), 10));
  }
  uint64_t expected = 0;
  for (size_t p = 0; p < patterns.size(); ++p) {
    for (size_t t = 0; t < db.size(); ++t) {
      expected = SatAdd(expected, CountConstrainedMatchings(
                                      patterns[p], constraints[p], db[t],
                                      &scratch));
    }
  }
  uint64_t total = 0;
  for (size_t p = 0; p < patterns.size(); ++p) {
    total = SatAdd(total, ConstrainedMatchCount(patterns[p], constraints[p],
                                                mapped.view(), &scratch));
  }
  EXPECT_EQ(total, expected);
  // And with every pattern unconstrained.
  uint64_t unconstrained = 0;
  for (size_t p = 0; p < patterns.size(); ++p) {
    for (size_t t = 0; t < db.size(); ++t) {
      unconstrained = SatAdd(
          unconstrained,
          CountConstrainedMatchings(patterns[p], ConstraintSpec(), db[t],
                                    &scratch));
    }
  }
  total = 0;
  for (const Sequence& pattern : patterns) {
    total = SatAdd(total, ConstrainedMatchCount(pattern, ConstraintSpec(),
                                                mapped.view(), &scratch));
  }
  EXPECT_EQ(total, unconstrained);
}

TEST(MappedMatchTest, UnknownSymbolsHaveZeroSupport) {
  Rng rng(113);
  SequenceDatabase db = testutil::RandomDb(&rng, 10, 1, 8, 3);
  const Mapped mapped(db);
  // A pattern symbol the file has never seen: id beyond alphabet_size.
  Sequence pattern;
  pattern.Append(static_cast<SymbolId>(db.alphabet().size() + 5));
  EXPECT_EQ(ConstrainedSupport(pattern, ConstraintSpec(), mapped.view()), 0u);
  EXPECT_EQ(ConstrainedMatchCount(pattern, ConstraintSpec(), mapped.view()),
            0u);
  EXPECT_EQ(ConstrainedSupport(pattern, ConstraintSpec::Window(3),
                               mapped.view()),
            0u);
}

TEST(MappedMatchTest, DatabaseViewOverloadsMatchSequenceDatabase) {
  Rng rng(127);
  SequenceDatabase db = testutil::RandomDb(&rng, 15, 0, 10, 4);
  const Mapped mapped(db);
  DatabaseView adapter(db);                      // in-memory adapter
  DatabaseView columnar = mapped.image->view();  // columnar mapped view
  ASSERT_EQ(adapter.size(), columnar.size());
  for (int i = 0; i < 20; ++i) {
    Sequence pattern = testutil::RandomSeq(&rng, 1 + i % 4, 4);
    const size_t expected = Support(pattern, db);
    EXPECT_EQ(Support(pattern, adapter), expected);
    EXPECT_EQ(Support(pattern, columnar), expected);
  }
}

}  // namespace
}  // namespace seqhide
