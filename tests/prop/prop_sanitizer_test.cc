// Metamorphic invariants of the end-to-end sanitizer (hide/sanitizer.h)
// on seeded random instances:
//
//   * disclosure: every pattern's support in the released database is
//     <= ψ, re-measured by the brute-force oracle, for every non-degraded
//     run;
//   * monotonicity: marking only removes matchings, so per-pattern
//     support never increases;
//   * locality: new Δs appear only in sequences that supported some
//     pattern, and only at positions involved in at least one valid
//     matching of the original row;
//   * idempotence: sanitizing an already-sanitized database changes
//     nothing;
//   * thread invariance: the released database is byte-identical for any
//     thread count;
//   * resume invariance: a run stopped by a round budget (writing a
//     checkpoint) and resumed finishes byte-identical to an
//     uninterrupted run;
//   * optimality oracle: the exhaustive local strategy's mark count per
//     victim equals the exact subset-search optimum;
//   * stage 2 (delete, and replace under both candidate orders) at
//     ψ >= 1 (global or per pattern): succeeds, raises no pattern's
//     support above what marking left (so every support stays <= its ψ),
//     reports the released supports, and keeps a Δ only where deleting it
//     would complete an occurrence.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "src/hide/hitting_set.h"
#include "src/hide/second_stage.h"
#include "src/hide/sanitizer.h"
#include "src/testing/oracles.h"
#include "tests/prop/prop_gtest.h"

namespace seqhide {
namespace proptest {
namespace {

// Smaller instances than the kernel suites: each case runs Sanitize()
// (sometimes several times) plus oracle support scans.
GenOptions SanitizerGen() {
  GenOptions gen;
  gen.max_sequences = 8;
  gen.max_length = 10;
  return gen;
}

ConstraintSpec SpecFor(const PropInstance& inst, size_t p) {
  return inst.constraints.empty() ? ConstraintSpec() : inst.constraints[p];
}

bool SameContent(const SequenceDatabase& a, const SequenceDatabase& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (!(a[i] == b[i])) return false;
  }
  return true;
}

TEST(SanitizerProps, OracleSupportRespectsPsi) {
  PropConfig config;
  config.name = "sanitizer/oracle-support-le-psi";
  config.seed = 0x5eed0401;
  config.gen = SanitizerGen();
  EXPECT_PROP_OK(CheckProperty(config, [](const PropInstance& inst) {
    SequenceDatabase db = inst.db;
    auto report = Sanitize(&db, inst.patterns, inst.constraints, inst.options);
    if (!report.ok()) {
      return "Sanitize failed: " + report.status().ToString();
    }
    if (report->degraded) return std::string();  // budget runs exempt
    for (size_t p = 0; p < inst.patterns.size(); ++p) {
      size_t support = OracleSupport(inst.patterns[p], SpecFor(inst, p), db);
      if (support > inst.options.psi) {
        return "pattern S" + std::to_string(p) + " oracle support " +
               std::to_string(support) + " > psi " +
               std::to_string(inst.options.psi);
      }
      if (support != report->supports_after[p]) {
        return "reported supports_after[" + std::to_string(p) + "]=" +
               std::to_string(report->supports_after[p]) +
               " but oracle measures " + std::to_string(support);
      }
    }
    return std::string();
  }));
}

TEST(SanitizerProps, ReplaceAtPositivePsiNeverRaisesSupport) {
  PropConfig config;
  config.name = "sanitizer/replace-never-raises-support";
  config.seed = 0x5eed0408;
  config.gen = SanitizerGen();
  EXPECT_PROP_OK(CheckProperty(config, [](const PropInstance& inst) {
    // ψ >= 1 leaves supporting rows unmarked by design. Odd-sized
    // databases also get a per-pattern ψ_i in {1, 2, 3}.
    SanitizeOptions opts = inst.options;
    opts.psi = std::max<size_t>(opts.psi, 1);
    if (inst.db.size() % 2 == 1) {
      opts.per_pattern_psi.clear();
      for (size_t p = 0; p < inst.patterns.size(); ++p) {
        opts.per_pattern_psi.push_back(std::min<size_t>(
            1 + (p + inst.patterns[p].size()) % 3, inst.db.size()));
      }
    }
    auto psi = [&](size_t p) {
      return opts.per_pattern_psi.empty() ? opts.psi : opts.per_pattern_psi[p];
    };
    SequenceDatabase marked = inst.db;
    auto report = Sanitize(&marked, inst.patterns, inst.constraints, opts);
    if (!report.ok()) {
      return "Sanitize failed: " + report.status().ToString();
    }
    if (report->degraded) return std::string();  // budget runs exempt
    for (const ReleasePolicy policy :
         {ReleasePolicy::kDelete, ReleasePolicy::kLeastHarm,
          ReleasePolicy::kRandomSafe}) {
      SequenceDatabase released = marked;
      ReleaseOptions release;
      release.policy = policy;
      release.seed = opts.seed;
      auto stage2 = ReleaseMarks(&released, inst.patterns, inst.constraints,
                                 report->supports_after, release);
      if (!stage2.ok()) {
        return "ReleaseMarks failed: " + stage2.status().ToString();
      }
      // A Δ stays only where deleting it would complete an occurrence of
      // a max-gap or window pattern; unconstrained sets never keep one.
      size_t marks = 0;
      for (const Sequence& row : released.sequences()) {
        marks += row.MarkCount();
      }
      bool all_unconstrained = true;
      for (size_t p = 0; p < inst.patterns.size(); ++p) {
        all_unconstrained &= SpecFor(inst, p).IsUnconstrained();
      }
      if (marks != stage2->kept || (all_unconstrained && marks != 0)) {
        return std::to_string(marks) + " Δ survived, report kept " +
               std::to_string(stage2->kept);
      }
      for (size_t p = 0; p < inst.patterns.size(); ++p) {
        const ConstraintSpec spec = SpecFor(inst, p);
        const size_t before = OracleSupport(inst.patterns[p], spec, marked);
        const size_t after = OracleSupport(inst.patterns[p], spec, released);
        if (after > before || after > psi(p) ||
            after != stage2->supports[p]) {
          return "pattern S" + std::to_string(p) + " support " +
                 std::to_string(before) + " after marking, " +
                 std::to_string(after) + " after stage 2 policy " +
                 std::to_string(static_cast<int>(policy)) + " (reported " +
                 std::to_string(stage2->supports[p]) + ", psi " +
                 std::to_string(psi(p)) + ")";
        }
      }
    }
    return std::string();
  }));
}

TEST(SanitizerProps, SupportIsMonotoneNonIncreasing) {
  PropConfig config;
  config.name = "sanitizer/support-monotone";
  config.seed = 0x5eed0402;
  config.gen = SanitizerGen();
  EXPECT_PROP_OK(CheckProperty(config, [](const PropInstance& inst) {
    SequenceDatabase db = inst.db;
    auto report = Sanitize(&db, inst.patterns, inst.constraints, inst.options);
    if (!report.ok()) {
      return "Sanitize failed: " + report.status().ToString();
    }
    for (size_t p = 0; p < inst.patterns.size(); ++p) {
      size_t before = OracleSupport(inst.patterns[p], SpecFor(inst, p),
                                    inst.db);
      size_t after = OracleSupport(inst.patterns[p], SpecFor(inst, p), db);
      if (after > before) {
        return "pattern S" + std::to_string(p) + " support rose " +
               std::to_string(before) + " -> " + std::to_string(after);
      }
      if (before != report->supports_before[p]) {
        return "reported supports_before[" + std::to_string(p) + "]=" +
               std::to_string(report->supports_before[p]) +
               " but oracle measures " + std::to_string(before);
      }
    }
    return std::string();
  }));
}

TEST(SanitizerProps, MarksOnlyAtMatchedPositionsOfSupporters) {
  PropConfig config;
  config.name = "sanitizer/marks-only-at-matched-positions";
  config.seed = 0x5eed0403;
  config.gen = SanitizerGen();
  EXPECT_PROP_OK(CheckProperty(config, [](const PropInstance& inst) {
    SequenceDatabase db = inst.db;
    auto report = Sanitize(&db, inst.patterns, inst.constraints, inst.options);
    if (!report.ok()) {
      return "Sanitize failed: " + report.status().ToString();
    }
    for (size_t t = 0; t < db.size(); ++t) {
      for (size_t pos = 0; pos < db[t].size(); ++pos) {
        if (!db[t].IsMarked(pos) || inst.db[t].IsMarked(pos)) continue;
        // New mark: the original row must have had a valid matching
        // through this position for some pattern (marking can only be
        // motivated by a matching, and matchings of the partially marked
        // row are a subset of the original row's).
        bool involved = false;
        for (size_t p = 0; p < inst.patterns.size() && !involved; ++p) {
          auto deltas = OraclePositionDeltas(inst.patterns[p],
                                             SpecFor(inst, p), inst.db[t]);
          involved = deltas[pos] > 0;
        }
        if (!involved) {
          return "new mark at T" + std::to_string(t) + "[" +
                 std::to_string(pos) +
                 "] but no matching of any pattern involves that position";
        }
      }
    }
    return std::string();
  }));
}

TEST(SanitizerProps, SanitizeIsIdempotent) {
  PropConfig config;
  config.name = "sanitizer/idempotent";
  config.seed = 0x5eed0404;
  config.gen = SanitizerGen();
  EXPECT_PROP_OK(CheckProperty(config, [](const PropInstance& inst) {
    SequenceDatabase once = inst.db;
    auto first = Sanitize(&once, inst.patterns, inst.constraints,
                          inst.options);
    if (!first.ok()) {
      return "Sanitize failed: " + first.status().ToString();
    }
    if (first->degraded) return std::string();
    SequenceDatabase twice = once;
    auto second = Sanitize(&twice, inst.patterns, inst.constraints,
                           inst.options);
    if (!second.ok()) {
      return "second Sanitize failed: " + second.status().ToString();
    }
    if (second->marks_introduced != 0) {
      return "second run introduced " +
             std::to_string(second->marks_introduced) + " marks";
    }
    if (!SameContent(once, twice)) {
      return std::string("second run changed the database");
    }
    return std::string();
  }));
}

TEST(SanitizerProps, ThreadCountIsInvisible) {
  PropConfig config;
  config.name = "sanitizer/thread-invariance";
  config.seed = 0x5eed0405;
  config.gen = SanitizerGen();
  EXPECT_PROP_OK(CheckProperty(config, [](const PropInstance& inst) {
    SanitizeOptions serial = inst.options;
    serial.num_threads = 1;
    SequenceDatabase reference = inst.db;
    auto ref_report =
        Sanitize(&reference, inst.patterns, inst.constraints, serial);
    if (!ref_report.ok()) {
      return "Sanitize failed: " + ref_report.status().ToString();
    }
    for (size_t threads : {2u, 8u}) {
      SanitizeOptions opts = inst.options;
      opts.num_threads = threads;
      SequenceDatabase db = inst.db;
      auto report = Sanitize(&db, inst.patterns, inst.constraints, opts);
      if (!report.ok()) {
        return "Sanitize(threads=" + std::to_string(threads) +
               ") failed: " + report.status().ToString();
      }
      if (!SameContent(reference, db)) {
        return "database differs between threads=1 and threads=" +
               std::to_string(threads);
      }
      if (report->supports_after != ref_report->supports_after ||
          report->marks_introduced != ref_report->marks_introduced) {
        return "report differs between threads=1 and threads=" +
               std::to_string(threads);
      }
    }
    return std::string();
  }));
}

TEST(SanitizerProps, BudgetStopPlusResumeEqualsUninterrupted) {
  PropConfig config;
  config.name = "sanitizer/checkpoint-resume-invariance";
  config.seed = 0x5eed0406;
  // Resume replays from a written checkpoint; exercising it on every
  // instance is slow, so run fewer, still-random cases.
  config.cases = 60;
  config.gen = SanitizerGen();
  EXPECT_PROP_OK(CheckProperty(config, [](const PropInstance& inst) {
    SequenceDatabase reference = inst.db;
    auto ref_report = Sanitize(&reference, inst.patterns, inst.constraints,
                               inst.options);
    if (!ref_report.ok()) {
      return "Sanitize failed: " + ref_report.status().ToString();
    }

    const std::string path =
        ::testing::TempDir() + "seqhide_prop_resume_" +
        std::to_string(inst.options.seed) + ".ckpt";
    std::remove(path.c_str());

    // Interrupted run: one victim per round, stop after the first round,
    // checkpointing on the budget stop.
    SanitizeOptions stopped = inst.options;
    stopped.mark_round_size = 1;
    stopped.budget.max_mark_rounds = 1;
    stopped.checkpoint_path = path;
    SequenceDatabase partial = inst.db;
    auto partial_report =
        Sanitize(&partial, inst.patterns, inst.constraints, stopped);
    if (!partial_report.ok()) {
      return "budgeted Sanitize failed: " + partial_report.status().ToString();
    }
    if (!partial_report->degraded) {
      // Nothing to resume (<= 1 victim); the equivalence is vacuous.
      std::remove(path.c_str());
      return std::string();
    }

    // Resumed run: same options, no budget. Like a restarted process, it
    // begins from the original database; the checkpoint replays the
    // already-made marks.
    SanitizeOptions resumed = inst.options;
    resumed.mark_round_size = 1;
    resumed.checkpoint_path = path;
    resumed.resume = true;
    SequenceDatabase finished = inst.db;
    auto resumed_report =
        Sanitize(&finished, inst.patterns, inst.constraints, resumed);
    std::remove(path.c_str());
    if (!resumed_report.ok()) {
      return "resumed Sanitize failed: " + resumed_report.status().ToString();
    }
    if (!resumed_report->resumed) {
      return std::string("resumed run did not load the checkpoint");
    }
    if (!SameContent(reference, finished)) {
      return std::string(
          "stop+resume database differs from uninterrupted run");
    }
    if (resumed_report->supports_after != ref_report->supports_after) {
      return std::string(
          "stop+resume supports_after differ from uninterrupted run");
    }
    return std::string();
  }));
}

// The kExhaustive local strategy claims per-victim optimality; check its
// mark count against the exact subset-search oracle on ψ=0 runs (every
// supporter is a victim, so per-victim counts are observable from the
// released database).
TEST(SanitizerProps, ExhaustiveLocalMatchesOptimalityOracle) {
  PropConfig config;
  config.name = "sanitizer/exhaustive-equals-optimal";
  config.seed = 0x5eed0407;
  config.cases = 100;
  config.gen = SanitizerGen();
  config.gen.max_sequences = 5;
  config.gen.max_length = 8;
  EXPECT_PROP_OK(CheckProperty(config, [](const PropInstance& inst) {
    SanitizeOptions opts = inst.options;
    opts.local = LocalStrategy::kExhaustive;
    opts.psi = 0;
    SequenceDatabase db = inst.db;
    auto report = Sanitize(&db, inst.patterns, inst.constraints, opts);
    if (!report.ok()) {
      return "Sanitize failed: " + report.status().ToString();
    }
    for (size_t t = 0; t < db.size(); ++t) {
      size_t new_marks = db[t].MarkCount() - inst.db[t].MarkCount();
      size_t optimal =
          OracleOptimalMarks(inst.db[t], inst.patterns, inst.constraints);
      if (new_marks != optimal) {
        return "row T" + std::to_string(t) + ": exhaustive local used " +
               std::to_string(new_marks) + " marks, optimum is " +
               std::to_string(optimal);
      }
      // Independent cross-check of the branch-and-bound optimal
      // sanitizer against the same subset-search oracle.
      size_t bnb = OptimalSanitizeSequence(inst.db[t], inst.patterns,
                                           inst.constraints)
                       .num_marks;
      if (bnb != optimal) {
        return "row T" + std::to_string(t) + ": OptimalSanitizeSequence=" +
               std::to_string(bnb) + " but subset search=" +
               std::to_string(optimal);
      }
    }
    return std::string();
  }));
}

}  // namespace
}  // namespace proptest
}  // namespace seqhide
