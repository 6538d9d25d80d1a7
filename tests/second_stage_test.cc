#include "src/hide/second_stage.h"

#include <gtest/gtest.h>

#include "src/data/workload.h"
#include "src/hide/sanitizer.h"
#include "src/match/constrained_count.h"
#include "src/match/count.h"
#include "src/match/subsequence.h"
#include "tests/test_util.h"

namespace seqhide {
namespace {

using testutil::Seq;

// Per-pattern constrained supports of `db`: the bound under which stage 2
// may raise no support.
std::vector<size_t> Supports(const SequenceDatabase& db,
                             const std::vector<Sequence>& patterns,
                             const std::vector<ConstraintSpec>& constraints) {
  std::vector<size_t> supports;
  for (size_t p = 0; p < patterns.size(); ++p) {
    supports.push_back(ConstrainedSupport(
        patterns[p], constraints.empty() ? ConstraintSpec() : constraints[p],
        db));
  }
  return supports;
}

// ReleaseMarks bounded by the supports `db` has before it.
Result<ReleaseReport> Release(SequenceDatabase* db,
                              const std::vector<Sequence>& patterns,
                              const std::vector<ConstraintSpec>& constraints,
                              ReleasePolicy policy, uint64_t seed = 1) {
  ReleaseOptions options;
  options.policy = policy;
  options.seed = seed;
  return ReleaseMarks(db, patterns, constraints,
                      Supports(*db, patterns, constraints), options);
}

TEST(DeleteMarksTest, RemovesDeltasAndCounts) {
  SequenceDatabase db;
  db.AddFromNames({"a", "b", "c"});
  db.AddFromNames({"d", "e"});
  db.mutable_sequence(0)->Mark(1);
  db.mutable_sequence(1)->Mark(0);
  db.mutable_sequence(1)->Mark(1);
  const std::vector<Sequence> patterns = {Seq(&db.alphabet(), "c a")};
  auto report = Release(&db, patterns, {}, ReleasePolicy::kDelete);
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_EQ(report->deleted, 3u);
  EXPECT_EQ(report->replaced, 0u);
  EXPECT_EQ(report->kept, 0u);
  EXPECT_EQ(report->supports, std::vector<size_t>{0});
  // The fully marked sequence is dropped.
  ASSERT_EQ(db.size(), 1u);
  EXPECT_EQ(db[0], (Sequence{0, 2}));
  EXPECT_EQ(db.TotalMarkCount(), 0u);
}

TEST(DeleteMarksTest, NoMarksIsNoOp) {
  SequenceDatabase db;
  db.AddFromNames({"a", "b"});
  const std::vector<Sequence> patterns = {Seq(&db.alphabet(), "a b")};
  auto report = Release(&db, patterns, {}, ReleasePolicy::kDelete);
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_EQ(report->deleted, 0u);
  EXPECT_EQ(report->supports, std::vector<size_t>{1});
  EXPECT_EQ(db.size(), 1u);
}

class ReplaceMarksTest : public ::testing::Test {
 protected:
  // A sanitized database with Δs and a rich alphabet of neutral symbols.
  void SetUp() override {
    db_.AddFromNames({"a", "b", "c", "n1"});
    db_.AddFromNames({"a", "b", "n2", "c"});
    db_.AddFromNames({"n1", "n2", "n3"});
    patterns_ = {Seq(&db_.alphabet(), "a b c")};
    auto report = Sanitize(&db_, patterns_, SanitizeOptions::HH());
    ASSERT_TRUE(report.ok());
    ASSERT_GT(db_.TotalMarkCount(), 0u);
  }

  SequenceDatabase db_;
  std::vector<Sequence> patterns_;
};

TEST_F(ReplaceMarksTest, LeastHarmReplacesEverythingSafely) {
  auto report = Release(&db_, patterns_, {}, ReleasePolicy::kLeastHarm);
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_GT(report->replaced, 0u);
  EXPECT_EQ(report->deleted, 0u);
  EXPECT_EQ(db_.TotalMarkCount(), 0u);
  EXPECT_EQ(Support(patterns_[0], db_), 0u);
}

TEST_F(ReplaceMarksTest, RandomSafeAlsoKeepsPatternHidden) {
  auto report = Release(&db_, patterns_, {}, ReleasePolicy::kRandomSafe,
                        /*seed=*/99);
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_EQ(db_.TotalMarkCount(), 0u);
  EXPECT_EQ(Support(patterns_[0], db_), 0u);
}

TEST_F(ReplaceMarksTest, SequenceLengthsPreservedByReplacement) {
  std::vector<size_t> lengths;
  for (const auto& s : db_.sequences()) lengths.push_back(s.size());
  auto report = Release(&db_, patterns_, {}, ReleasePolicy::kLeastHarm);
  ASSERT_TRUE(report.ok());
  ASSERT_EQ(db_.size(), lengths.size());
  for (size_t i = 0; i < lengths.size(); ++i) {
    EXPECT_EQ(db_[i].size(), lengths[i]);
  }
}

TEST(ReplaceMarksEdgeTest, PsiLeftSupportersAreNotAFailure) {
  // ψ = 1 leaves one of the three supporters unmarked by design; the
  // replaced release keeps that one occurrence and is accepted.
  SequenceDatabase db;
  db.AddFromNames({"a", "b", "c", "d"});
  db.AddFromNames({"a", "b", "x", "c"});
  db.AddFromNames({"b", "c", "a"});
  db.AddFromNames({"a", "a", "b", "c", "c", "b", "a", "e"});
  db.AddFromNames({"x", "y", "z"});
  const std::vector<Sequence> patterns = {Seq(&db.alphabet(), "a b c")};
  SanitizeOptions options = SanitizeOptions::HH();
  options.psi = 1;
  ASSERT_TRUE(Sanitize(&db, patterns, options).ok());
  auto report = Release(&db, patterns, {}, ReleasePolicy::kLeastHarm);
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_EQ(report->replaced, 2u);
  EXPECT_EQ(report->supports, std::vector<size_t>{1});
  EXPECT_EQ(db.TotalMarkCount(), 0u);
  EXPECT_EQ(Support(patterns[0], db), 1u);
}

TEST(ReplaceMarksEdgeTest, StuckDeltaStaysWhenDeletingItCompletesAnOccurrence) {
  // <a, Δ, a> against {b, a ->[0..0] a}: both symbols re-create a pattern
  // (and delete tries none), and deleting the Δ would make the two a's
  // adjacent. The Δ stays.
  for (ReleasePolicy policy :
       {ReleasePolicy::kDelete, ReleasePolicy::kLeastHarm}) {
    SequenceDatabase db;
    db.AddFromNames({"a", "b", "a"});
    db.mutable_sequence(0)->Mark(1);
    auto b = ParseConstrainedPattern(&db.alphabet(), "b");
    auto aa = ParseConstrainedPattern(&db.alphabet(), "a ->[0..0] a");
    ASSERT_TRUE(b.ok() && aa.ok());
    const std::vector<Sequence> patterns = {b->pattern, aa->pattern};
    const std::vector<ConstraintSpec> constraints = {b->constraints,
                                                     aa->constraints};
    auto report = Release(&db, patterns, constraints, policy);
    ASSERT_TRUE(report.ok()) << report.status();
    EXPECT_EQ(report->replaced, 0u);
    EXPECT_EQ(report->deleted, 0u);
    EXPECT_EQ(report->kept, 1u);
    EXPECT_EQ(report->supports, (std::vector<size_t>{0, 0}));
    ASSERT_EQ(db.size(), 1u);
    EXPECT_EQ(db[0].size(), 3u);
    EXPECT_TRUE(db[0].IsMarked(1));
  }
}

TEST(ReplaceMarksEdgeTest, ValidatesInputs) {
  SequenceDatabase db;
  db.AddFromNames({"a"});
  EXPECT_TRUE(ReleaseMarks(&db, {}, {}, {}, ReleaseOptions())
                  .status()
                  .IsInvalidArgument());
  Sequence a = Seq(&db.alphabet(), "a");
  EXPECT_TRUE(ReleaseMarks(&db, {a}, {ConstraintSpec(), ConstraintSpec()}, {1},
                           ReleaseOptions())
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(ReleaseMarks(&db, {a}, {}, {}, ReleaseOptions())
                  .status()
                  .IsInvalidArgument());
}

TEST(ReplaceMarksEdgeTest, SupportAboveTheBoundIsInternal) {
  // <a, b> was never marked, so its support 1 exceeds a bound of 0.
  SequenceDatabase db;
  db.AddFromNames({"a", "b"});
  const std::vector<Sequence> patterns = {Seq(&db.alphabet(), "a b")};
  for (ReleasePolicy policy :
       {ReleasePolicy::kDelete, ReleasePolicy::kLeastHarm}) {
    ReleaseOptions options;
    options.policy = policy;
    EXPECT_TRUE(ReleaseMarks(&db, patterns, {}, {0}, options)
                    .status()
                    .IsInternal());
  }
}

TEST(ReplaceMarksEdgeTest, StuckDeltaIsDeletedWhenRequested) {
  // Alphabet = {x}; pattern <x>; the marked position has no safe symbol.
  SequenceDatabase db;
  db.AddFromNames({"x", "x"});
  std::vector<Sequence> patterns = {Seq(&db.alphabet(), "x")};
  auto sanitize = Sanitize(&db, patterns, SanitizeOptions::HH());
  ASSERT_TRUE(sanitize.ok());
  EXPECT_EQ(db.TotalMarkCount(), 2u);

  auto report = Release(&db, patterns, {}, ReleasePolicy::kLeastHarm);
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_EQ(report->replaced, 0u);
  EXPECT_EQ(report->deleted, 2u);
  EXPECT_EQ(db.size(), 0u);  // the fully marked row disappears
}

TEST(ReplaceMarksEdgeTest, ConstrainedPatternsRespectedDuringReplacement) {
  SequenceDatabase db;
  db.AddFromNames({"a", "b", "f1", "f2"});
  std::vector<Sequence> patterns = {Seq(&db.alphabet(), "a b")};
  std::vector<ConstraintSpec> specs = {ConstraintSpec::UniformGap(0, 0)};
  auto sanitize = Sanitize(&db, patterns, specs, SanitizeOptions::HH());
  ASSERT_TRUE(sanitize.ok());
  ASSERT_GT(db.TotalMarkCount(), 0u);
  auto report = Release(&db, patterns, specs, ReleasePolicy::kLeastHarm);
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_EQ(db.TotalMarkCount(), 0u);
  EXPECT_EQ(CountConstrainedMatchingsTotal(patterns, specs, db[0]), 0u);
}

// Property: across random databases, replacement never re-creates an
// occurrence and fills every Δ (there is always a neutral symbol in a
// 6-symbol alphabet with a 2-symbol pattern).
TEST(ReplaceMarksPropertyTest, NeverRegenerates) {
  Rng rng(515);
  for (int trial = 0; trial < 40; ++trial) {
    RandomDatabaseOptions gen;
    gen.num_sequences = 15;
    gen.min_length = 4;
    gen.max_length = 10;
    gen.alphabet_size = 6;
    gen.seed = rng.NextU64();
    SequenceDatabase db = MakeRandomDatabase(gen);
    std::vector<Sequence> patterns = {testutil::RandomSeq(&rng, 2, 6)};
    auto s = Sanitize(&db, patterns, SanitizeOptions::HH());
    ASSERT_TRUE(s.ok());
    auto report = Release(&db, patterns, {},
                          trial % 2 == 0 ? ReleasePolicy::kLeastHarm
                                         : ReleasePolicy::kRandomSafe,
                          /*seed=*/trial);
    ASSERT_TRUE(report.ok()) << report.status();
    EXPECT_EQ(Support(patterns[0], db), 0u) << "trial " << trial;
    EXPECT_EQ(db.TotalMarkCount(), 0u) << "trial " << trial;
  }
}

TEST(DeleteMarksTest, AllDeltaDatabaseBecomesEmpty) {
  SequenceDatabase db;
  db.AddFromNames({"a", "b"});
  db.AddFromNames({"c"});
  for (size_t t = 0; t < db.size(); ++t) {
    for (size_t i = 0; i < db[t].size(); ++i) db.mutable_sequence(t)->Mark(i);
  }
  const std::vector<Sequence> patterns = {Seq(&db.alphabet(), "a")};
  auto report = Release(&db, patterns, {}, ReleasePolicy::kDelete);
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_EQ(report->deleted, 3u);
  EXPECT_EQ(db.size(), 0u);
}

TEST(ReplaceMarksEdgeTest, AllDeltaRowIsFullyReplacedWithSafeSymbols) {
  // A fully marked row plus neutral symbols in Σ: every Δ must get a real
  // symbol and the pattern must stay at support 0.
  SequenceDatabase db;
  db.AddFromNames({"a", "b", "a", "b"});
  db.AddFromNames({"n1", "n2"});
  std::vector<Sequence> patterns = {Seq(&db.alphabet(), "a b")};
  for (size_t i = 0; i < db[0].size(); ++i) db.mutable_sequence(0)->Mark(i);
  auto report = Release(&db, patterns, {}, ReleasePolicy::kLeastHarm);
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_EQ(report->replaced, 4u);
  EXPECT_EQ(db.TotalMarkCount(), 0u);
  EXPECT_EQ(db[0].size(), 4u);
  EXPECT_EQ(Support(patterns[0], db), 0u);
}

TEST(ReplaceMarksEdgeTest, PatternEqualToFullSequenceStaysHiddenEndToEnd) {
  // ψ = 0 end to end on a row identical to the sensitive pattern, through
  // both release policies.
  for (ReleasePolicy policy :
       {ReleasePolicy::kDelete, ReleasePolicy::kLeastHarm}) {
    SequenceDatabase db;
    db.AddFromNames({"a", "b", "c"});
    db.AddFromNames({"n1", "n2", "n3"});
    std::vector<Sequence> patterns = {Seq(&db.alphabet(), "a b c")};
    SanitizeOptions opts = SanitizeOptions::HH();
    opts.psi = 0;
    auto sanitized = Sanitize(&db, patterns, opts);
    ASSERT_TRUE(sanitized.ok()) << sanitized.status();
    ASSERT_GT(db.TotalMarkCount(), 0u);
    auto report = Release(&db, patterns, {}, policy);
    ASSERT_TRUE(report.ok()) << report.status();
    EXPECT_EQ(db.TotalMarkCount(), 0u);
    EXPECT_EQ(Support(patterns[0], db), 0u);
  }
}

TEST(FakePatternAuditTest, AllDeltaReleaseHasNoFakes) {
  SequenceDatabase original;
  original.AddFromNames({"a", "b"});
  SequenceDatabase released = original;
  for (size_t i = 0; i < released[0].size(); ++i) {
    released.mutable_sequence(0)->Mark(i);
  }
  auto fakes = CountFakeFrequentPatterns(original, released, 1, 2);
  ASSERT_TRUE(fakes.ok()) << fakes.status();
  EXPECT_EQ(*fakes, 0u);
}

TEST(FakePatternAuditTest, MarkingAloneNeverCreatesFakes) {
  SequenceDatabase original;
  for (int i = 0; i < 8; ++i) original.AddFromNames({"a", "b", "c", "d"});
  std::vector<Sequence> patterns = {Seq(&original.alphabet(), "b c")};
  SequenceDatabase released = original;
  auto s = Sanitize(&released, patterns, SanitizeOptions::HH());
  ASSERT_TRUE(s.ok());
  auto fakes = CountFakeFrequentPatterns(original, released, 3, 4);
  ASSERT_TRUE(fakes.ok()) << fakes.status();
  EXPECT_EQ(*fakes, 0u);
}

TEST(FakePatternAuditTest, DetectsInjectedFakes) {
  SequenceDatabase original;
  original.AddFromNames({"a", "b"});
  original.AddFromNames({"a", "c"});
  original.AddFromNames({"a", "d"});
  // Released: someone replaced symbols making "a e" frequent.
  SequenceDatabase released;
  released.alphabet() = original.alphabet();
  SymbolId a = *original.alphabet().Lookup("a");
  SymbolId e = released.alphabet().Intern("e");
  for (int i = 0; i < 3; ++i) released.Add(Sequence{a, e});
  auto fakes = CountFakeFrequentPatterns(original, released, 2, 4);
  ASSERT_TRUE(fakes.ok());
  EXPECT_GE(*fakes, 2u);  // at least "e" and "a e"
}

}  // namespace
}  // namespace seqhide
