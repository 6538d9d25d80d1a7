#include "src/seq/io.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "src/common/random.h"

namespace seqhide {
namespace {

TEST(IoTest, ParsesBasicDatabase) {
  auto db = ReadDatabaseFromString("a b c\nb c\n");
  ASSERT_TRUE(db.ok());
  EXPECT_EQ(db->size(), 2u);
  EXPECT_EQ((*db)[0].size(), 3u);
  EXPECT_EQ((*db)[1].size(), 2u);
  EXPECT_EQ(db->alphabet().size(), 3u);
}

TEST(IoTest, SkipsCommentsAndBlankLines) {
  auto db = ReadDatabaseFromString("# header\n\na b\n   \n# tail\nc\n");
  ASSERT_TRUE(db.ok());
  EXPECT_EQ(db->size(), 2u);
}

TEST(IoTest, ParsesDeltaToken) {
  auto db = ReadDatabaseFromString("a ^ b\n");
  ASSERT_TRUE(db.ok());
  ASSERT_EQ(db->size(), 1u);
  EXPECT_TRUE((*db)[0].IsMarked(1));
  EXPECT_EQ(db->TotalMarkCount(), 1u);
  EXPECT_EQ(db->alphabet().size(), 2u) << "Delta must not be interned";
}

TEST(IoTest, SharedAlphabetAcrossLines) {
  auto db = ReadDatabaseFromString("x y\ny x\n");
  ASSERT_TRUE(db.ok());
  EXPECT_EQ((*db)[0][0], (*db)[1][1]);
  EXPECT_EQ((*db)[0][1], (*db)[1][0]);
}

TEST(IoTest, RoundTripsThroughString) {
  auto db = ReadDatabaseFromString("a b c\nd ^ f\n");
  ASSERT_TRUE(db.ok());
  std::string text = WriteDatabaseToString(*db);
  auto again = ReadDatabaseFromString(text);
  ASSERT_TRUE(again.ok());
  ASSERT_EQ(again->size(), db->size());
  for (size_t i = 0; i < db->size(); ++i) {
    EXPECT_EQ((*again)[i].ToString(again->alphabet()),
              (*db)[i].ToString(db->alphabet()));
  }
}

TEST(IoTest, RoundTripsThroughFile) {
  auto db = ReadDatabaseFromString("p q\nr ^ s\n");
  ASSERT_TRUE(db.ok());
  std::string path = testing::TempDir() + "/seqhide_io_test.txt";
  ASSERT_TRUE(WriteDatabaseToFile(*db, path).ok());
  auto again = ReadDatabaseFromFile(path);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->size(), 2u);
  EXPECT_EQ(again->TotalMarkCount(), 1u);
  std::remove(path.c_str());
}

TEST(IoTest, MissingFileIsIOError) {
  auto db = ReadDatabaseFromFile("/nonexistent/path/db.txt");
  EXPECT_FALSE(db.ok());
  EXPECT_TRUE(db.status().IsIOError());
}

TEST(IoTest, EmptyInputYieldsEmptyDatabase) {
  auto db = ReadDatabaseFromString("");
  ASSERT_TRUE(db.ok());
  EXPECT_TRUE(db->empty());
}

TEST(IoTest, HeaderCommentInOutput) {
  auto db = ReadDatabaseFromString("a b\n");
  ASSERT_TRUE(db.ok());
  std::string text = WriteDatabaseToString(*db);
  EXPECT_EQ(text.substr(0, 1), "#");
}

// The per-symbol renderer the token-table writer replaced: the golden
// reference for its output, byte for byte.
std::string ReferenceRender(const DatabaseView& db) {
  const Alphabet& alphabet = db.alphabet();
  std::string out = "# seqhide sequence database; |D|=" +
                    std::to_string(db.size()) +
                    " |Sigma|=" + std::to_string(alphabet.size()) + "\n";
  for (size_t t = 0; t < db.size(); ++t) {
    const SequenceView row = db.row(t);
    for (size_t i = 0; i < row.size(); ++i) {
      if (i > 0) out += ' ';
      out += alphabet.Name(row[i]);
    }
    out += '\n';
  }
  return out;
}

std::string Render(const SequenceDatabase& db) {
  std::ostringstream out;
  EXPECT_TRUE(WriteDatabase(DatabaseView(db), out).ok());
  return out.str();
}

// Rows of up to max_length symbols over the whole alphabet plus Δ, with
// some empty rows.
SequenceDatabase RandomRows(Rng* rng, SequenceDatabase db, size_t rows,
                            size_t max_length) {
  const size_t sigma = db.alphabet().size();
  for (size_t t = 0; t < rows; ++t) {
    Sequence seq;
    const size_t length = rng->NextBounded(max_length + 1);
    for (size_t i = 0; i < length; ++i) {
      const size_t k = rng->NextBounded(sigma + 1);
      seq.Append(k == sigma ? kDeltaSymbol : static_cast<SymbolId>(k));
    }
    db.Add(std::move(seq));
  }
  return db;
}

TEST(IoWriterTest, MatchesPerSymbolRendererForEveryNameLength) {
  Rng rng(17);
  SequenceDatabase mixed;
  for (size_t length = 1; length <= 40; ++length) {
    // Names of one length (the stride is exactly length + 1)...
    SequenceDatabase one;
    for (char c : std::string("xyz")) {
      one.alphabet().Intern(std::string(length, c));
    }
    one = RandomRows(&rng, std::move(one), 20, 12);
    EXPECT_EQ(Render(one), ReferenceRender(DatabaseView(one)))
        << "name length " << length;
    // ...and all lengths in one alphabet (short names under a long
    // stride).
    mixed.alphabet().Intern(std::string(length, 'a' + length % 26) +
                            std::to_string(length));
  }
  mixed = RandomRows(&rng, std::move(mixed), 200, 30);
  EXPECT_EQ(Render(mixed), ReferenceRender(DatabaseView(mixed)));
}

TEST(IoWriterTest, MatchesPerSymbolRendererOnEdgeShapes) {
  // Empty database: the header line only.
  SequenceDatabase empty;
  EXPECT_EQ(Render(empty), ReferenceRender(DatabaseView(empty)));
  EXPECT_EQ(Render(empty), "# seqhide sequence database; |D|=0 |Sigma|=0\n");

  // Empty rows, Δ-only rows, and an empty alphabet with Δ rows.
  SequenceDatabase shapes;
  shapes.Add(Sequence());
  shapes.Add(Sequence(std::vector<SymbolId>{kDeltaSymbol, kDeltaSymbol}));
  shapes.Add(Sequence());
  EXPECT_EQ(Render(shapes), ReferenceRender(DatabaseView(shapes)));
  EXPECT_EQ(Render(shapes),
            "# seqhide sequence database; |D|=3 |Sigma|=0\n\n^ ^\n\n");

  // One row longer than the writer's flush buffer, between short rows.
  Rng rng(29);
  SequenceDatabase long_row;
  for (int i = 0; i < 5; ++i) {
    long_row.alphabet().Intern(std::string(40, 'p' + i));
  }
  long_row = RandomRows(&rng, std::move(long_row), 3, 4);
  Sequence big;
  for (size_t i = 0; i < 20000; ++i) {
    big.Append(static_cast<SymbolId>(i % 5));
  }
  long_row.Add(std::move(big));
  long_row = RandomRows(&rng, std::move(long_row), 3, 4);
  EXPECT_EQ(Render(long_row), ReferenceRender(DatabaseView(long_row)));
}

TEST(IoWriterDeathTest, OutOfAlphabetIdDiesInNameCheck) {
  SequenceDatabase db;
  db.AddFromNames({"a", "b"});
  const std::vector<SymbolId> too_big = {0, 5, 1};
  const std::vector<SymbolId> below_delta = {0, -2};
  for (const auto* columns : {&too_big, &below_delta}) {
    const std::vector<uint64_t> offsets = {0, columns->size()};
    const DatabaseView view(columns->data(), offsets.data(), 1,
                            columns->size(), &db.alphabet());
    std::ostringstream out;
    EXPECT_DEATH((void)WriteDatabase(view, out), "symbol id out of range");
  }
}

}  // namespace
}  // namespace seqhide
