#include "src/hide/sanitizer.h"

#include <gtest/gtest.h>

#include "src/data/workload.h"
#include "src/match/constrained_count.h"
#include "src/match/subsequence.h"
#include "src/seq/signature.h"
#include "tests/test_util.h"

namespace seqhide {
namespace {

using testutil::Seq;

SequenceDatabase SmallDb() {
  SequenceDatabase db;
  db.AddFromNames({"a", "b", "c"});
  db.AddFromNames({"a", "a", "b", "c", "c", "b", "a", "e"});
  db.AddFromNames({"b", "c", "a"});
  db.AddFromNames({"x", "y"});
  return db;
}

TEST(SanitizerTest, PsiZeroHidesCompletely) {
  SequenceDatabase db = SmallDb();
  std::vector<Sequence> patterns = {Seq(&db.alphabet(), "a b c")};
  auto report = Sanitize(&db, patterns, SanitizeOptions::HH());
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_EQ(report->supports_before[0], 2u);
  EXPECT_EQ(report->supports_after[0], 0u);
  EXPECT_EQ(Support(patterns[0], db), 0u);
  EXPECT_EQ(report->marks_introduced, db.TotalMarkCount());
  EXPECT_EQ(report->sequences_sanitized, 2u);
}

TEST(SanitizerTest, PsiLeavesBoundedSupport) {
  SequenceDatabase db = SmallDb();
  std::vector<Sequence> patterns = {Seq(&db.alphabet(), "a b c")};
  SanitizeOptions opts = SanitizeOptions::HH();
  opts.psi = 1;
  auto report = Sanitize(&db, patterns, opts);
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_LE(report->supports_after[0], 1u);
  EXPECT_EQ(report->sequences_sanitized, 1u);
  // The cheap supporter (one matching) is sanitized; the paper-example
  // sequence with 4 matchings is disclosed untouched.
  EXPECT_EQ(db[1].MarkCount(), 0u);
}

TEST(SanitizerTest, PsiAboveSupportIsNoOp) {
  SequenceDatabase db = SmallDb();
  std::vector<Sequence> patterns = {Seq(&db.alphabet(), "a b c")};
  SanitizeOptions opts = SanitizeOptions::HH();
  opts.psi = db.size();  // >= any possible support: nothing to hide
  auto report = Sanitize(&db, patterns, opts);
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_EQ(report->marks_introduced, 0u);
  EXPECT_EQ(db.TotalMarkCount(), 0u);
}

TEST(SanitizerTest, PsiAboveDatabaseSizeIsRejected) {
  // A ψ no support can ever reach is a configuration bug (most often a
  // psi/sigma mix-up), not a no-op; it fails fast instead of silently
  // doing nothing.
  SequenceDatabase db = SmallDb();
  std::vector<Sequence> patterns = {Seq(&db.alphabet(), "a b c")};
  SanitizeOptions opts = SanitizeOptions::HH();
  opts.psi = db.size() + 1;
  EXPECT_TRUE(
      Sanitize(&db, patterns, opts).status().IsInvalidArgument());
  // Same check for the per-pattern thresholds.
  opts.psi = 0;
  opts.per_pattern_psi = {db.size() + 1};
  EXPECT_TRUE(
      Sanitize(&db, patterns, opts).status().IsInvalidArgument());
  EXPECT_EQ(db.TotalMarkCount(), 0u);
}

TEST(SanitizerTest, InputValidation) {
  SequenceDatabase db = SmallDb();
  Sequence ab = Seq(&db.alphabet(), "a b");
  // No patterns.
  EXPECT_TRUE(Sanitize(&db, {}, SanitizeOptions::HH())
                  .status()
                  .IsInvalidArgument());
  // Empty pattern.
  EXPECT_TRUE(Sanitize(&db, {Sequence{}}, SanitizeOptions::HH())
                  .status()
                  .IsInvalidArgument());
  // Duplicate patterns.
  EXPECT_TRUE(Sanitize(&db, {ab, ab}, SanitizeOptions::HH())
                  .status()
                  .IsInvalidArgument());
  // Pattern with Δ.
  Sequence with_delta{0, kDeltaSymbol};
  EXPECT_TRUE(Sanitize(&db, {with_delta}, SanitizeOptions::HH())
                  .status()
                  .IsInvalidArgument());
  // Constraint list length mismatch.
  EXPECT_TRUE(Sanitize(&db, {ab}, {ConstraintSpec(), ConstraintSpec()},
                       SanitizeOptions::HH())
                  .status()
                  .IsInvalidArgument());
  // Per-pattern psi length mismatch.
  SanitizeOptions opts = SanitizeOptions::HH();
  opts.per_pattern_psi = {1, 2};
  EXPECT_TRUE(Sanitize(&db, {ab}, opts).status().IsInvalidArgument());
  // Invalid constraint for pattern length.
  EXPECT_TRUE(Sanitize(&db, {ab}, {ConstraintSpec::Window(1)},
                       SanitizeOptions::HH())
                  .status()
                  .IsInvalidArgument());
}

TEST(SanitizerTest, AllFourPaperAlgorithmsHide) {
  for (auto make : {SanitizeOptions::HH, +[] { return SanitizeOptions::HR(3); },
                    +[] { return SanitizeOptions::RH(3); },
                    +[] { return SanitizeOptions::RR(3); }}) {
    SequenceDatabase db = SmallDb();
    std::vector<Sequence> patterns = {Seq(&db.alphabet(), "a b c"),
                                      Seq(&db.alphabet(), "b c")};
    auto report = Sanitize(&db, patterns, make());
    ASSERT_TRUE(report.ok()) << report.status();
    EXPECT_EQ(Support(patterns[0], db), 0u);
    EXPECT_EQ(Support(patterns[1], db), 0u);
  }
}

TEST(SanitizerTest, ConstrainedHidingKeepsInvalidOccurrences) {
  SequenceDatabase db;
  db.AddFromNames({"a", "b"});                 // adjacent occurrence
  db.AddFromNames({"a", "x", "x", "x", "b"});  // far-apart occurrence
  std::vector<Sequence> patterns = {Seq(&db.alphabet(), "a b")};
  std::vector<ConstraintSpec> specs = {ConstraintSpec::UniformGap(0, 1)};
  auto report = Sanitize(&db, patterns, specs, SanitizeOptions::HH());
  ASSERT_TRUE(report.ok()) << report.status();
  // Constrained support gone.
  EXPECT_EQ(ConstrainedSupport(patterns[0], specs[0], db) , 0u);
  // The distant occurrence was never sensitive and is untouched.
  EXPECT_EQ(db[1].MarkCount(), 0u);
  EXPECT_TRUE(IsSubsequence(patterns[0], db[1]));
}

TEST(SanitizerTest, PerPatternThresholds) {
  SequenceDatabase db;
  for (int i = 0; i < 4; ++i) db.AddFromNames({"a", "b"});
  for (int i = 0; i < 3; ++i) db.AddFromNames({"c", "d"});
  std::vector<Sequence> patterns = {Seq(&db.alphabet(), "a b"),
                                    Seq(&db.alphabet(), "c d")};
  SanitizeOptions opts = SanitizeOptions::HH();
  opts.per_pattern_psi = {2, 0};
  auto report = Sanitize(&db, patterns, opts);
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_LE(report->supports_after[0], 2u);
  EXPECT_EQ(report->supports_after[1], 0u);
}

TEST(SanitizerTest, ReportToStringMentionsKeyFields) {
  SequenceDatabase db = SmallDb();
  std::vector<Sequence> patterns = {Seq(&db.alphabet(), "a b c")};
  auto report = Sanitize(&db, patterns, SanitizeOptions::HH());
  ASSERT_TRUE(report.ok());
  std::string text = report->ToString();
  EXPECT_NE(text.find("marks="), std::string::npos);
  EXPECT_NE(text.find("supports_after="), std::string::npos);
}

// Integration property: on random databases, every algorithm satisfies
// the disclosure requirement for every ψ, and HH never distorts more than
// RR on average.
TEST(SanitizerTest, PropertyDisclosureRequirementAlwaysHolds) {
  Rng rng(808);
  for (int trial = 0; trial < 25; ++trial) {
    RandomDatabaseOptions gen;
    gen.num_sequences = 30;
    gen.min_length = 3;
    gen.max_length = 12;
    gen.alphabet_size = 6;
    gen.seed = rng.NextU64();
    SequenceDatabase base = MakeRandomDatabase(gen);
    std::vector<Sequence> patterns = {
        testutil::RandomSeq(&rng, 2, gen.alphabet_size),
        testutil::RandomSeq(&rng, 3, gen.alphabet_size)};
    if (patterns[0] == patterns[1]) continue;
    for (size_t psi : {0u, 1u, 3u, 10u}) {
      for (auto opts : {SanitizeOptions::HH(), SanitizeOptions::RR(trial)}) {
        opts.psi = psi;
        SequenceDatabase db = base;
        auto report = Sanitize(&db, patterns, opts);
        ASSERT_TRUE(report.ok()) << report.status();
        EXPECT_LE(Support(patterns[0], db), psi);
        EXPECT_LE(Support(patterns[1], db), psi);
      }
    }
  }
}

TEST(SanitizerTest, MarksOnlyInSelectedSequences) {
  SequenceDatabase db = SmallDb();
  std::vector<Sequence> patterns = {Seq(&db.alphabet(), "a b c")};
  auto report = Sanitize(&db, patterns, SanitizeOptions::HH());
  ASSERT_TRUE(report.ok());
  // Non-supporters keep zero marks.
  EXPECT_EQ(db[2].MarkCount(), 0u);
  EXPECT_EQ(db[3].MarkCount(), 0u);
}

// The count stage trusts the view's signatures; the verify rescan must
// not. A stored signature that hides a supporter from stage 1 leaves that
// row unsanitized, and the rescan — which recomputes every released
// row's signature itself — must report the gap instead of passing it.
TEST(SanitizerTest, RescanCatchesAWrongStoredSignature) {
  SequenceDatabase db = SmallDb();
  std::vector<Sequence> patterns = {Seq(&db.alphabet(), "a b c")};
  std::vector<uint64_t> signatures;
  for (size_t t = 0; t < db.size(); ++t) {
    signatures.push_back(SequenceSignature(db[t]));
  }
  const DatabaseView view = DatabaseView(db).WithSignatures(signatures);
  auto honest = SanitizeView(view, patterns, {}, SanitizeOptions::HH());
  ASSERT_TRUE(honest.ok()) << honest.status();
  EXPECT_EQ(honest->report.supports_before[0], 2u);

  signatures[1] = SymbolSignatureBit(db.alphabet().Intern("x"));  // row 1
  auto lied = SanitizeView(view, patterns, {}, SanitizeOptions::HH());
  ASSERT_FALSE(lied.ok());
  EXPECT_TRUE(lied.status().IsInternal()) << lied.status();
  EXPECT_NE(lied.status().message().find("supports-after mismatch"),
            std::string::npos)
      << lied.status();
}

// Lemma 1 scale: a^32 in rows of 130 and 128 a's has C(130,32) and
// C(128,32) matchings, both above 2^64, so both counts saturate. HH's
// ascending order then falls back to row index — it sanitizes row 0 and
// keeps row 1, though row 1 has the smaller true |M|. The report says so
// through saturated_rows; the choice itself is pinned, not changed.
TEST(SanitizerTest, SaturatedSupportersAreCountedAndOrderedByIndex) {
  SequenceDatabase db;
  db.AddFromNames(std::vector<std::string>(130, "a"));
  db.AddFromNames(std::vector<std::string>(128, "a"));
  db.AddFromNames({"b"});
  const SymbolId a = db.alphabet().Intern("a");
  std::vector<Sequence> patterns = {Sequence(std::vector<SymbolId>(32, a))};
  SanitizeOptions opts = SanitizeOptions::HH();
  opts.psi = 1;
  const SequenceDatabase before = db;
  auto report = Sanitize(&db, patterns, opts);
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_EQ(report->saturated_rows, 2u);
  EXPECT_EQ(report->sequences_supporting_before, 2u);
  EXPECT_GT(db[0].MarkCount(), 0u);
  EXPECT_TRUE(db[1] == before[1]);
  EXPECT_EQ(report->supports_after[0], 1u);
  EXPECT_NE(report->ToString().find("saturated=2"), std::string::npos);
}

// a²⁰ under a max-window of 199 over two rows of 200 a's: every count and
// most δ saturate. δ sums the fwd × bwd of each anchor's span with SatAdd,
// so no position in a matching reads δ = 0 and both rows get sanitized
// (clear-and-recount read every δ as 0 here and left both rows exposed).
TEST(SanitizerTest, SaturatedWindowedCountsStillSanitize) {
  SequenceDatabase db;
  db.AddFromNames(std::vector<std::string>(200, "a"));
  db.AddFromNames(std::vector<std::string>(200, "a"));
  db.AddFromNames({"b", "c"});
  const SymbolId a = db.alphabet().Intern("a");
  const std::vector<Sequence> patterns = {Sequence(std::vector<SymbolId>(20, a))};
  const std::vector<ConstraintSpec> constraints = {ConstraintSpec::Window(199)};
  auto report = Sanitize(&db, patterns, constraints, SanitizeOptions::HH());
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_EQ(report->saturated_rows, 2u);
  EXPECT_EQ(report->supports_after, std::vector<size_t>{0});
  EXPECT_EQ(ConstrainedSupport(patterns[0], constraints[0], db), 0u);
  EXPECT_EQ(db[2].MarkCount(), 0u);
}

}  // namespace
}  // namespace seqhide
