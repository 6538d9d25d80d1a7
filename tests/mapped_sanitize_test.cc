// Differential tests for SanitizeView (src/hide/sanitizer.h) on a mapped
// seqhidb image: the one pipeline, run on mapped.view(), must reproduce
// Sanitize() on the in-memory database exactly — same report, same final
// rows, same text serialization — across strategy combinations, thread
// counts, constraints, multi-threshold ψ, budget stops, and a checkpoint
// written in memory and resumed on the mapping.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "src/common/random.h"
#include "src/hide/sanitizer.h"
#include "src/seq/binary_format.h"
#include "src/seq/io.h"
#include "tests/test_util.h"

namespace seqhide {
namespace {

MappedDatabase Map(const SequenceDatabase& db) {
  auto bytes = WriteBinaryDatabaseToString(db);
  EXPECT_TRUE(bytes.ok()) << bytes.status();
  auto mapped = MappedDatabase::FromBuffer(*bytes);
  EXPECT_TRUE(mapped.ok()) << mapped.status();
  return std::move(mapped).value();
}

void ExpectSameOutcome(const SequenceDatabase& original,
                       const std::vector<Sequence>& patterns,
                       const std::vector<ConstraintSpec>& constraints,
                       const SanitizeOptions& opts, const std::string& what) {
  SequenceDatabase in_memory = original;
  auto expected = Sanitize(&in_memory, patterns, constraints, opts);
  ASSERT_TRUE(expected.ok()) << what << ": " << expected.status();

  MappedDatabase mapped = Map(original);
  auto actual = SanitizeView(mapped.view(), patterns, constraints, opts);
  ASSERT_TRUE(actual.ok()) << what << ": " << actual.status();

  const SanitizeReport& e = *expected;
  const SanitizeReport& a = actual->report;
  EXPECT_EQ(a.marks_introduced, e.marks_introduced) << what;
  EXPECT_EQ(a.sequences_sanitized, e.sequences_sanitized) << what;
  EXPECT_EQ(a.sequences_supporting_before, e.sequences_supporting_before)
      << what;
  EXPECT_EQ(a.supports_before, e.supports_before) << what;
  EXPECT_EQ(a.supports_after, e.supports_after) << what;
  EXPECT_EQ(a.rounds_completed, e.rounds_completed) << what;
  EXPECT_EQ(a.rounds_total, e.rounds_total) << what;
  EXPECT_EQ(a.degraded, e.degraded) << what;
  EXPECT_EQ(a.victims_skipped, e.victims_skipped) << what;
  EXPECT_EQ(a.threads_used, e.threads_used) << what;
  // Neither view carries signatures, so both screens compute them from
  // the same rows, and the row workloads match too.
  EXPECT_EQ(a.count_rows, e.count_rows) << what;
  EXPECT_EQ(a.verify_recount_rows, e.verify_recount_rows) << what;
  EXPECT_EQ(a.verify_rescan_rows, e.verify_rescan_rows) << what;

  // The overlay applied to the mapping is the in-memory result, row for
  // row — and so is its text serialization.
  const DatabaseView sanitized = mapped.view().Overlay(actual->overlay);
  ASSERT_EQ(sanitized.size(), in_memory.size()) << what;
  for (size_t t = 0; t < in_memory.size(); ++t) {
    EXPECT_EQ(sanitized.row(t).Materialize(), in_memory[t])
        << what << " row " << t;
  }
  std::ostringstream streamed;
  ASSERT_TRUE(WriteDatabase(sanitized, streamed).ok()) << what;
  EXPECT_EQ(streamed.str(), WriteDatabaseToString(in_memory)) << what;
}

TEST(MappedSanitizeTest, MatchesInMemoryAcrossStrategies) {
  Rng rng(211);
  SequenceDatabase db = testutil::RandomDb(&rng, 40, 2, 14, 4);
  std::vector<Sequence> patterns = {testutil::RandomSeq(&rng, 2, 4),
                                    testutil::RandomSeq(&rng, 3, 4)};
  if (patterns[0] == patterns[1]) patterns.pop_back();

  for (const char* algo : {"HH", "HR", "RH", "RR"}) {
    SanitizeOptions opts;
    opts.local = (algo[0] == 'H') ? LocalStrategy::kHeuristic
                                  : LocalStrategy::kRandom;
    opts.global = (algo[1] == 'H') ? GlobalStrategy::kHeuristic
                                   : GlobalStrategy::kRandom;
    opts.psi = 2;
    opts.seed = 77;
    ExpectSameOutcome(db, patterns, {}, opts, algo);
  }
}

TEST(MappedSanitizeTest, MatchesInMemoryWithConstraintsAndThreads) {
  Rng rng(223);
  SequenceDatabase db = testutil::RandomDb(&rng, 35, 3, 12, 5);
  std::vector<Sequence> patterns = {testutil::RandomSeq(&rng, 2, 5),
                                    testutil::RandomSeq(&rng, 3, 5)};
  if (patterns[0] == patterns[1]) patterns.pop_back();
  std::vector<ConstraintSpec> constraints;
  for (const Sequence& p : patterns) {
    constraints.push_back(proptest::GenConstraintSpec(&rng, p.size(), 12));
  }
  for (size_t threads : {size_t{1}, size_t{3}}) {
    SanitizeOptions opts;
    opts.psi = 1;
    opts.num_threads = threads;
    ExpectSameOutcome(db, patterns, constraints, opts,
                      "threads=" + std::to_string(threads));
  }
}

TEST(MappedSanitizeTest, MatchesInMemoryWithPerPatternPsi) {
  Rng rng(227);
  SequenceDatabase db = testutil::RandomDb(&rng, 30, 2, 10, 4);
  std::vector<Sequence> patterns = {testutil::RandomSeq(&rng, 2, 4),
                                    testutil::RandomSeq(&rng, 3, 4)};
  if (patterns[0] == patterns[1]) patterns.pop_back();
  SanitizeOptions opts;
  opts.per_pattern_psi.assign(patterns.size(), 1);
  if (opts.per_pattern_psi.size() > 1) opts.per_pattern_psi[1] = 3;
  ExpectSameOutcome(db, patterns, {}, opts, "per-pattern-psi");
}

TEST(MappedSanitizeTest, BudgetStopDegradesIdentically) {
  Rng rng(229);
  SequenceDatabase db = testutil::RandomDb(&rng, 40, 3, 12, 3);
  std::vector<Sequence> patterns = {testutil::RandomSeq(&rng, 2, 3)};
  SanitizeOptions opts;
  opts.psi = 0;
  opts.mark_round_size = 2;
  opts.budget.max_mark_rounds = 1;
  ExpectSameOutcome(db, patterns, {}, opts, "budget-stop");
}

TEST(MappedSanitizeTest, ResumesInMemoryCheckpointOnMappedView) {
  Rng rng(233);
  SequenceDatabase db = testutil::RandomDb(&rng, 40, 3, 12, 3);
  std::vector<Sequence> patterns = {testutil::RandomSeq(&rng, 2, 3)};
  SanitizeOptions opts;
  opts.psi = 0;
  opts.mark_round_size = 2;

  SequenceDatabase reference = db;
  auto uninterrupted = Sanitize(&reference, patterns, opts);
  ASSERT_TRUE(uninterrupted.ok()) << uninterrupted.status();

  // An in-memory run stopped after one marking round leaves a checkpoint.
  const std::string ckpt = ::testing::TempDir() + "/mapped_resume.ckpt";
  std::remove(ckpt.c_str());
  SanitizeOptions stop = opts;
  stop.checkpoint_path = ckpt;
  stop.budget.max_mark_rounds = 1;
  SequenceDatabase partial = db;
  auto stopped = Sanitize(&partial, patterns, stop);
  ASSERT_TRUE(stopped.ok()) << stopped.status();
  ASSERT_TRUE(stopped->degraded);
  ASSERT_LT(stopped->rounds_completed, stopped->rounds_total);
  ASSERT_TRUE(std::ifstream(ckpt).good());

  // The mapped image of the same input finishes it.
  MappedDatabase mapped = Map(db);
  SanitizeOptions resume = opts;
  resume.checkpoint_path = ckpt;
  resume.resume = true;
  auto resumed = SanitizeView(mapped.view(), patterns, {}, resume);
  ASSERT_TRUE(resumed.ok()) << resumed.status();
  const SanitizeReport& r = resumed->report;
  EXPECT_TRUE(r.resumed);
  EXPECT_FALSE(r.degraded);
  EXPECT_EQ(r.marks_introduced, uninterrupted->marks_introduced);
  EXPECT_EQ(r.sequences_sanitized, uninterrupted->sequences_sanitized);
  EXPECT_EQ(r.supports_before, uninterrupted->supports_before);
  EXPECT_EQ(r.supports_after, uninterrupted->supports_after);
  EXPECT_EQ(r.rounds_completed, uninterrupted->rounds_total);
  std::ostringstream out;
  ASSERT_TRUE(
      WriteDatabase(mapped.view().Overlay(resumed->overlay), out).ok());
  EXPECT_EQ(out.str(), WriteDatabaseToString(reference));
  // A completed run deletes its checkpoint.
  EXPECT_FALSE(std::ifstream(ckpt).good());
}

TEST(MappedSanitizeTest, OverlayHelpersRejectBadRows) {
  Rng rng(239);
  SequenceDatabase db = testutil::RandomDb(&rng, 5, 1, 6, 3);
  MappedDatabase mapped = Map(db);
  std::vector<std::pair<size_t, Sequence>> bogus;
  bogus.emplace_back(db.size() + 3, db[0]);
  // An out-of-range overlay row is a caller bug, never a silent write:
  // both the in-memory and the mapped view refuse it.
  EXPECT_DEATH(mapped.view().Overlay(bogus), "out of range");
  EXPECT_DEATH(DatabaseView(db).Overlay(bogus), "out of range");
  // row() binary-searches the overlay, so its rows must be strictly
  // ascending: a descending pair or a repeated row is refused too.
  std::vector<std::pair<size_t, Sequence>> unsorted;
  unsorted.emplace_back(3, db[0]);
  unsorted.emplace_back(1, db[0]);
  EXPECT_DEATH(mapped.view().Overlay(unsorted), "strictly ascending");
  EXPECT_DEATH(DatabaseView(db).Overlay(unsorted), "strictly ascending");
  std::vector<std::pair<size_t, Sequence>> duplicate;
  duplicate.emplace_back(2, db[0]);
  duplicate.emplace_back(2, db[1]);
  EXPECT_DEATH(mapped.view().Overlay(duplicate), "strictly ascending");
  EXPECT_DEATH(DatabaseView(db).Overlay(duplicate), "strictly ascending");
  // Overlays do not nest.
  std::vector<std::pair<size_t, Sequence>> one;
  one.emplace_back(0, db[1]);
  EXPECT_DEATH(DatabaseView(db).Overlay(one).Overlay(one), "overlaid");
}

// A sparse overlay reads its replacement rows in place of the base rows
// and every other row from the base storage, on the in-memory adapter
// and the columnar mapped view alike, and drops the base's signatures.
TEST(MappedSanitizeTest, OverlayReadsReplacementsOverBaseRows) {
  Rng rng(241);
  SequenceDatabase db = testutil::RandomDb(&rng, 9, 1, 6, 4);
  MappedDatabase mapped = Map(db);
  std::vector<uint64_t> signatures(db.size(), ~uint64_t{0});
  std::vector<std::pair<size_t, Sequence>> rows;
  for (size_t t : {0u, 4u, 8u}) {
    Sequence marked = db[t];
    marked.Mark(0);
    rows.emplace_back(t, std::move(marked));
  }
  const std::vector<std::pair<size_t, Sequence>> none;
  for (const DatabaseView& base :
       {DatabaseView(db).WithSignatures(signatures),
        mapped.view().WithSignatures(signatures)}) {
    const DatabaseView view = base.Overlay(rows);
    ASSERT_EQ(view.size(), db.size());
    EXPECT_EQ(&view.alphabet(), &base.alphabet());
    EXPECT_EQ(view.signatures(), nullptr);
    size_t next = 0;
    for (size_t t = 0; t < db.size(); ++t) {
      if (next < rows.size() && rows[next].first == t) {
        EXPECT_EQ(view.row(t).Materialize(), rows[next].second) << t;
        EXPECT_EQ(view.row(t).data(), rows[next].second.symbols().data())
            << "overlay row " << t << " is read in place";
        ++next;
      } else {
        EXPECT_EQ(view.row(t).Materialize(), db[t]) << t;
        EXPECT_EQ(view.row(t).data(), base.row(t).data())
            << "base row " << t << " is read in place";
      }
    }
    const DatabaseView empty = base.Overlay(none);
    EXPECT_EQ(empty.signatures(), nullptr);
    for (size_t t = 0; t < db.size(); ++t) {
      EXPECT_EQ(empty.row(t).data(), base.row(t).data()) << t;
    }
  }
}

}  // namespace
}  // namespace seqhide
