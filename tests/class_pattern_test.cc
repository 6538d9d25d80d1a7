#include "src/repat/class_pattern.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "src/hide/pipeline.h"
#include "src/testing/language_oracles.h"
#include "tests/test_util.h"

namespace seqhide {
namespace {

using testutil::RandomSeq;
using testutil::Seq;

Result<SanitizeReport> Hide(SequenceDatabase* db,
                            const std::vector<ClassPattern>& patterns,
                            const std::vector<ConstraintSpec>& specs,
                            size_t psi) {
  SanitizeOptions opts;
  opts.psi = psi;
  return SanitizeRows<ClassLanguage>(db->mutable_sequences(), patterns, specs,
                                     opts);
}

TEST(SymbolClassTest, LiteralMatchesOnlyItself) {
  SymbolClass c = SymbolClass::Literal(3);
  EXPECT_TRUE(c.Matches(3));
  EXPECT_FALSE(c.Matches(4));
  EXPECT_FALSE(c.Matches(kDeltaSymbol));
}

TEST(SymbolClassTest, SetMatchesMembers) {
  SymbolClass c = SymbolClass::Of({5, 1, 3, 1});
  EXPECT_TRUE(c.Matches(1));
  EXPECT_TRUE(c.Matches(3));
  EXPECT_TRUE(c.Matches(5));
  EXPECT_FALSE(c.Matches(2));
  EXPECT_EQ(c.symbols(), (std::vector<SymbolId>{1, 3, 5}));
}

TEST(SymbolClassTest, WildcardMatchesAllButDelta) {
  SymbolClass w = SymbolClass::Wildcard();
  EXPECT_TRUE(w.is_wildcard());
  EXPECT_TRUE(w.Matches(0));
  EXPECT_TRUE(w.Matches(12345));
  EXPECT_FALSE(w.Matches(kDeltaSymbol));
}

TEST(ParseClassPatternTest, MixedSyntax) {
  Alphabet a;
  auto p = ParseClassPattern(&a, "login [basket buy] . checkout");
  ASSERT_TRUE(p.ok()) << p.status();
  ASSERT_EQ(p->size(), 4u);
  EXPECT_FALSE((*p)[0].is_wildcard());
  EXPECT_EQ((*p)[1].symbols().size(), 2u);
  EXPECT_TRUE((*p)[2].is_wildcard());
  EXPECT_EQ(p->ToString(a), "login [basket buy] . checkout");
}

TEST(ParseClassPatternTest, SingleElementClassPrintsAsLiteral) {
  Alphabet a;
  auto p = ParseClassPattern(&a, "[x]");
  ASSERT_TRUE(p.ok());
  EXPECT_EQ(p->ToString(a), "x");
}

TEST(ParseClassPatternTest, RejectsMalformed) {
  Alphabet a;
  EXPECT_FALSE(ParseClassPattern(&a, "").ok());
  EXPECT_FALSE(ParseClassPattern(&a, "[a b").ok());
  EXPECT_FALSE(ParseClassPattern(&a, "a b]").ok());
  EXPECT_FALSE(ParseClassPattern(&a, "[]").ok());
  // The reserved marking token is not a symbol.
  EXPECT_FALSE(ParseClassPattern(&a, "^").ok());
  EXPECT_FALSE(ParseClassPattern(&a, "[a ^]").ok());
}

TEST(ClassMatchTest, LiftedPatternEqualsSequenceSemantics) {
  Alphabet a;
  Sequence t = Seq(&a, "a a b c c b a e");
  Sequence s = Seq(&a, "a b c");
  ClassPattern lifted = ClassPattern::FromSequence(s);
  EXPECT_EQ(CountClassMatchings(lifted, {}, t), 4u);
}

TEST(ClassMatchTest, ClassAlternativesWiden) {
  Alphabet a;
  Sequence t = Seq(&a, "a x b y");
  SymbolId sa = *a.Lookup("a");
  SymbolId sb = *a.Lookup("b");
  SymbolId sx = *a.Lookup("x");
  SymbolId sy = *a.Lookup("y");
  // <[a b], [x y]>: embeddings a-x? x after a: (0,1),(0,3); b: (2,3).
  ClassPattern p({SymbolClass::Of({sa, sb}), SymbolClass::Of({sx, sy})});
  EXPECT_EQ(CountClassMatchings(p, {}, t), 3u);
}

TEST(ClassMatchTest, WildcardCounts) {
  Alphabet a;
  Sequence t = Seq(&a, "p q r");
  // <., .>: C(3,2) = 3 embeddings.
  ClassPattern p({SymbolClass::Wildcard(), SymbolClass::Wildcard()});
  EXPECT_EQ(CountClassMatchings(p, {}, t), 3u);
}

TEST(ClassMatchTest, ConstraintsApply) {
  Alphabet a;
  Sequence t = Seq(&a, "a x x b");
  SymbolId sa = *a.Lookup("a");
  SymbolId sb = *a.Lookup("b");
  ClassPattern p({SymbolClass::Literal(sa), SymbolClass::Literal(sb)});
  EXPECT_EQ(CountClassMatchings(p, ConstraintSpec::UniformGap(0, 1), t), 0u);
  EXPECT_EQ(CountClassMatchings(p, ConstraintSpec::UniformGap(0, 2), t), 1u);
  EXPECT_EQ(CountClassMatchings(p, ConstraintSpec::Window(3), t), 0u);
  EXPECT_EQ(CountClassMatchings(p, ConstraintSpec::Window(4), t), 1u);
}

// Property: counting agrees with enumeration across random patterns with
// literals, classes and wildcards, with and without constraints.
TEST(ClassMatchTest, PropertyCountEqualsEnumeration) {
  Rng rng(2468);
  for (int trial = 0; trial < 300; ++trial) {
    size_t n = 1 + rng.NextBounded(10);
    Sequence t = RandomSeq(&rng, n, 4);
    size_t m = 1 + rng.NextBounded(3);
    ClassPattern p;
    for (size_t k = 0; k < m; ++k) {
      switch (rng.NextBounded(3)) {
        case 0:
          p.Append(SymbolClass::Literal(
              static_cast<SymbolId>(rng.NextBounded(4))));
          break;
        case 1: {
          std::vector<SymbolId> alts;
          size_t width = 1 + rng.NextBounded(3);
          for (size_t i = 0; i < width; ++i) {
            alts.push_back(static_cast<SymbolId>(rng.NextBounded(4)));
          }
          p.Append(SymbolClass::Of(std::move(alts)));
          break;
        }
        case 2:
          p.Append(SymbolClass::Wildcard());
          break;
      }
    }
    ConstraintSpec spec;
    if (rng.NextBernoulli(0.4)) {
      spec = ConstraintSpec::UniformGap(rng.NextBounded(2),
                                        rng.NextBounded(3) + 1);
    }
    if (rng.NextBernoulli(0.3)) spec.SetMaxWindow(m + rng.NextBounded(n));

    EXPECT_EQ(CountClassMatchings(p, spec, t),
              EnumerateClassMatchings(p, spec, t).size())
        << "trial " << trial;
  }
}

// Property: δ equals the brute-force "matchings involving position".
TEST(ClassDeltaTest, MatchesBruteForce) {
  Rng rng(1122);
  for (int trial = 0; trial < 100; ++trial) {
    size_t n = 1 + rng.NextBounded(8);
    Sequence t = RandomSeq(&rng, n, 3);
    ClassPattern p;
    size_t m = 1 + rng.NextBounded(2);
    for (size_t k = 0; k < m; ++k) {
      if (rng.NextBernoulli(0.3)) {
        p.Append(SymbolClass::Wildcard());
      } else {
        p.Append(
            SymbolClass::Literal(static_cast<SymbolId>(rng.NextBounded(3))));
      }
    }
    MatchScratch scratch;
    std::vector<uint64_t> deltas;
    const ConstraintSpec unconstrained;
    LanguageDeltas(ClassLanguage(p, unconstrained, t), &scratch, &deltas);
    for (size_t pos = 0; pos < n; ++pos) {
      size_t brute = 0;
      for (const auto& matching : EnumerateClassMatchings(p, {}, t)) {
        if (std::find(matching.begin(), matching.end(), pos) !=
            matching.end()) {
          ++brute;
        }
      }
      EXPECT_EQ(deltas[pos], brute) << "trial " << trial << " pos " << pos;
    }
  }
}

TEST(HideClassPatternsTest, HidesDownToPsi) {
  SequenceDatabase db;
  db.AddFromNames({"login", "basket", "pay"});
  db.AddFromNames({"login", "buy", "pay"});
  db.AddFromNames({"login", "browse", "logout"});
  db.AddFromNames({"basket", "login", "pay"});
  Alphabet& a = db.alphabet();
  auto pattern =
      ParseClassPattern(&a, "login [basket buy] pay");
  ASSERT_TRUE(pattern.ok());
  // Supports: rows 0 and 1.
  EXPECT_EQ(ClassSupport(*pattern, {}, db), 2u);

  auto report = Hide(&db, {*pattern}, {}, 0);
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_EQ(report->supports_before[0], 2u);
  EXPECT_EQ(report->supports_after[0], 0u);
  EXPECT_GT(report->marks_introduced, 0u);
  // Untouched rows stay untouched.
  EXPECT_EQ(db[2].MarkCount(), 0u);
  EXPECT_EQ(db[3].MarkCount(), 0u);
}

TEST(HideClassPatternsTest, PsiLeavesExpensiveSupporter) {
  SequenceDatabase db;
  db.AddFromNames({"a", "z", "b"});
  db.AddFromNames({"a", "a", "b", "b"});  // 4 matchings
  Alphabet& al = db.alphabet();
  ClassPattern p = ClassPattern::FromSequence(Seq(&al, "a b"));
  auto report = Hide(&db, {p}, {}, 1);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->supports_after[0], 1u);
  EXPECT_EQ(db[1].MarkCount(), 0u) << "expensive supporter disclosed";
}

// A repeated pattern (which would double-count its matchings) and ψ above
// |rows| are rejected as SanitizeView rejects them, rows untouched. Equal
// classes are the same pattern however they were written.
TEST(HideClassPatternsTest, RejectsDuplicatePatternsAndPsiAboveRows) {
  SequenceDatabase db;
  db.AddFromNames({"login", "basket", "pay"});
  db.AddFromNames({"login", "buy", "pay"});
  Alphabet& a = db.alphabet();
  auto p1 = ParseClassPattern(&a, "login [basket buy] pay");
  auto p2 = ParseClassPattern(&a, "login [buy basket] pay");
  auto p3 = ParseClassPattern(&a, "login . pay");
  ASSERT_TRUE(p1.ok() && p2.ok() && p3.ok());
  EXPECT_TRUE(Hide(&db, {*p1, *p3, *p2}, {}, 0).status().IsInvalidArgument());
  EXPECT_TRUE(Hide(&db, {*p1}, {}, 3).status().IsInvalidArgument());
  EXPECT_EQ(db[0].MarkCount() + db[1].MarkCount(), 0u);
  auto report = Hide(&db, {*p1, *p3}, {}, 2);
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_EQ(report->supports_after, (std::vector<size_t>{2, 2}));
}

// A pattern longer than every row can never be supported: InvalidArgument,
// as for sequence patterns, rows untouched.
TEST(HideClassPatternsTest, RejectsPatternLongerThanEveryRow) {
  SequenceDatabase db;
  db.AddFromNames({"login", "pay"});
  db.AddFromNames({"login", "buy", "pay"});
  auto pattern = ParseClassPattern(&db.alphabet(), "login . . pay");
  ASSERT_TRUE(pattern.ok());
  auto report = Hide(&db, {*pattern}, {}, 0);
  EXPECT_TRUE(report.status().IsInvalidArgument()) << report.status();
  EXPECT_EQ(db[0].MarkCount() + db[1].MarkCount(), 0u);
}

TEST(HideClassPatternsTest, WildcardPatternHiding) {
  // Hide "login . . pay" (any two actions between) completely.
  SequenceDatabase db;
  db.AddFromNames({"login", "x", "y", "pay"});
  db.AddFromNames({"login", "pay"});  // too short for the wildcards: safe
  Alphabet& a = db.alphabet();
  auto pattern = ParseClassPattern(&a, "login . . pay");
  ASSERT_TRUE(pattern.ok());
  EXPECT_EQ(ClassSupport(*pattern, {}, db), 1u);
  auto report = Hide(&db, {*pattern}, {}, 0);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->supports_after[0], 0u);
  EXPECT_EQ(db[1].MarkCount(), 0u);
}

TEST(HideClassPatternsTest, Validation) {
  SequenceDatabase db;
  db.AddFromNames({"a"});
  EXPECT_TRUE(Hide(&db, {}, {}, 0).status().IsInvalidArgument());
  EXPECT_TRUE(Hide(&db, {ClassPattern()}, {}, 0)
                  .status()
                  .IsInvalidArgument());
  ClassPattern p({SymbolClass::Literal(0)});
  EXPECT_TRUE(
      Hide(&db, {p}, {ConstraintSpec(), ConstraintSpec()}, 0)
          .status()
          .IsInvalidArgument());
}

// Gap-only specs take δ from forward × backward, which stays large when the
// counts saturate: a²⁰ over 200 a's has far more than 2⁶⁴ matchings, and
// both rows still get sanitized.
TEST(ClassHidingTest, SaturatedCountsStillSanitize) {
  SequenceDatabase db;
  const std::vector<std::string> as(200, "a");
  db.AddFromNames(as);
  db.AddFromNames(as);
  db.AddFromNames({"b", "c"});
  const ClassPattern p(std::vector<SymbolClass>(
      20, SymbolClass::Literal(*db.alphabet().Lookup("a"))));
  const ConstraintSpec gaps = ConstraintSpec::UniformGap(0, 150);
  auto report = Hide(&db, {p}, {gaps}, 0);
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_EQ(report->saturated_rows, 2u);
  EXPECT_EQ(report->supports_after[0], 0u);
  EXPECT_EQ(ClassSupport(p, gaps, db), 0u);
  EXPECT_EQ(db[2].MarkCount(), 0u);
}

// A max-window spec takes δ from the fwd × bwd of each anchor's span,
// summed with SatAdd, so it too stays large when the counts saturate.
TEST(ClassHidingTest, SaturatedWindowedCountsStillSanitize) {
  SequenceDatabase db;
  const std::vector<std::string> as(200, "a");
  db.AddFromNames(as);
  db.AddFromNames(as);
  db.AddFromNames({"b", "c"});
  const ClassPattern p(std::vector<SymbolClass>(
      20, SymbolClass::Literal(*db.alphabet().Lookup("a"))));
  const ConstraintSpec window = ConstraintSpec::Window(199);
  auto report = Hide(&db, {p}, {window}, 0);
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_EQ(report->saturated_rows, 2u);
  EXPECT_EQ(report->supports_after[0], 0u);
  EXPECT_EQ(ClassSupport(p, window, db), 0u);
  EXPECT_EQ(db[2].MarkCount(), 0u);
}

// Support is count > 0 behind the greedy embedding screen, never an
// enumeration: eight wildcards before a symbol the row lacks, and eight
// over a 30-symbol row, are both answered by O(n·m) work.
TEST(ClassMatchTest, SupportOfWideWildcardPatterns) {
  SequenceDatabase db;
  Rng rng(40);
  db.Add(RandomSeq(&rng, 40, 6));
  db.Add(RandomSeq(&rng, 30, 6));
  ClassPattern absent(std::vector<SymbolClass>(8, SymbolClass::Wildcard()));
  absent.Append(SymbolClass::Literal(99));
  EXPECT_EQ(ClassSupport(absent, {}, db), 0u);
  const ClassPattern wide(
      std::vector<SymbolClass>(8, SymbolClass::Wildcard()));
  EXPECT_EQ(ClassSupport(wide, {}, db), 2u);
  // C(30, 8) embeddings in the shorter row.
  EXPECT_EQ(CountClassMatchings(wide, {}, db[1]), 5852925u);
}

}  // namespace
}  // namespace seqhide
