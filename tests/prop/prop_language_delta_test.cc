// Differential properties for the itemset (§7.1), timed (§7.2) and class
// (§8) instances of the shared DPs (src/match/language.h) and of
// Algorithm 1's one pipeline (SanitizeRows, src/hide/pipeline.h), against
// the enumeration oracles of src/testing/language_oracles.h. Instances stay small, so no count
// saturates. Per language:
//   * CountLanguageMatchings = the number of enumerated embeddings;
//   * LanguageDeltas = clear-and-recount (src/testing/delta_oracles.h) =
//     embeddings through each position, by enumeration, also on
//     max-window specs drawn at the edges of the anchored spans (window
//     1, window ≥ n, windows over bounded and min-gap-only gaps, timed
//     windows on tenths rounding boundaries);
//   * hiding leaves every support ≤ ψ (by enumeration) and changes
//     only positions that some embedding used before hiding; a repeated
//     pattern, ψ above |rows| or a pattern longer than every row is
//     InvalidArgument;
//   * HH and RR at one seed release the same rows and report at 1, 2 and
//     8 threads;
//   * a stop after one round of one victim (itemset, timed) is degraded
//     exactly when victims were left, and its supports_after and exposed
//     list equal an enumeration recount of the released rows.
// Case counts follow SEQHIDE_PROP_CASES; a failure names its case seed.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "src/common/random.h"
#include "src/hide/pipeline.h"
#include "src/itemset/itemset_match.h"
#include "src/repat/class_pattern.h"
#include "src/temporal/timed_match.h"
#include "src/testing/delta_oracles.h"
#include "src/testing/generators.h"
#include "src/testing/language_oracles.h"
#include "src/testing/prop.h"

namespace seqhide {
namespace proptest {
namespace {

constexpr size_t kCases = 300;

std::vector<std::vector<size_t>> Enumerate(const ItemsetSequence& pattern,
                                           const ConstraintSpec& spec,
                                           const ItemsetSequence& row) {
  return EnumerateItemsetMatchings(pattern, spec, row, 0);
}
std::vector<std::vector<size_t>> Enumerate(const Sequence& pattern,
                                           const TimeConstraintSpec& spec,
                                           const TimedSequence& row) {
  return EnumerateTimedMatchings(pattern, spec, row);
}
std::vector<std::vector<size_t>> Enumerate(const ClassPattern& pattern,
                                           const ConstraintSpec& spec,
                                           const Sequence& row) {
  return EnumerateClassMatchings(pattern, spec, row);
}

bool Changed(const ItemsetSequence& a, const ItemsetSequence& b, size_t i) {
  return !(a[i] == b[i]);
}
bool Changed(const TimedSequence& a, const TimedSequence& b, size_t i) {
  return a[i].symbol != b[i].symbol;
}
bool Changed(const Sequence& a, const Sequence& b, size_t i) {
  return a[i] != b[i];
}
template <class Row>
bool SameRows(const std::vector<Row>& a, const std::vector<Row>& b) {
  if (a.size() != b.size()) return false;
  for (size_t t = 0; t < a.size(); ++t) {
    if (a[t].size() != b[t].size()) return false;
    for (size_t i = 0; i < a[t].size(); ++i) {
      if (Changed(a[t], b[t], i)) return false;
    }
  }
  return true;
}

// Embeddings through each position of `row`, by enumeration.
template <class L>
std::vector<uint64_t> OracleDeltas(const typename L::Pattern& pattern,
                                   const typename L::Spec& spec,
                                   const typename L::Row& row) {
  std::vector<uint64_t> deltas(row.size(), 0);
  for (const auto& embedding : Enumerate(pattern, spec, row)) {
    for (size_t i : embedding) ++deltas[i];
  }
  return deltas;
}

std::string Join(const std::vector<uint64_t>& v) {
  std::string out;
  for (uint64_t x : v) out += (out.empty() ? "" : ",") + std::to_string(x);
  return out;
}

// Count and δ of one (pattern, spec, row) against the oracles.
template <class L>
std::string CheckCountAndDeltas(const typename L::Pattern& pattern,
                                const typename L::Spec& spec,
                                const typename L::Row& row) {
  MatchScratch scratch;
  const L lang(pattern, spec, row);
  const uint64_t count = CountLanguageMatchings(lang, &scratch);
  const size_t embeddings = Enumerate(pattern, spec, row).size();
  if (count != embeddings) {
    return "count " + std::to_string(count) + " but " +
           std::to_string(embeddings) + " enumerated embeddings";
  }
  std::vector<uint64_t> fast;
  LanguageDeltas(lang, &scratch, &fast);
  const std::vector<uint64_t> recount = DeltasByRecount<L>(pattern, spec, row);
  const std::vector<uint64_t> oracle = OracleDeltas<L>(pattern, spec, row);
  if (fast != recount || fast != oracle) {
    return "delta [" + Join(fast) + "], clear-and-recount [" +
           Join(recount) + "], enumeration [" + Join(oracle) + "]";
  }
  return std::string();
}

// One SanitizeRows run against the oracles.
template <class L>
std::string CheckHiding(std::vector<typename L::Row> rows,
                        const std::vector<typename L::Pattern>& patterns,
                        const std::vector<typename L::Spec>& specs,
                        size_t psi) {
  const std::vector<typename L::Row> before = rows;
  SanitizeOptions opts;
  opts.psi = psi;
  auto report = SanitizeRows<L>(&rows, patterns, specs, opts);
  // Inputs every language rejects — a repeated pattern, ψ above |rows|, a
  // pattern longer than every row — are InvalidArgument, rows untouched.
  bool invalid = psi > rows.size();
  size_t max_len = 0;
  for (const auto& row : rows) max_len = std::max(max_len, row.size());
  for (size_t p = 0; p < patterns.size(); ++p) {
    invalid |= patterns[p].size() > max_len;
    for (size_t q = 0; q < p; ++q) invalid |= patterns[q] == patterns[p];
  }
  if (invalid) {
    if (report.ok() || report.status().code() != StatusCode::kInvalidArgument) {
      return "invalid input not rejected: " + report.status().ToString();
    }
    return SameRows(rows, before) ? std::string() : "rejected run changed rows";
  }
  if (!report.ok()) return "hiding failed: " + report.status().ToString();
  for (size_t p = 0; p < patterns.size(); ++p) {
    size_t support = 0;
    for (const auto& row : rows) {
      if (!Enumerate(patterns[p], specs[p], row).empty()) ++support;
    }
    if (support > psi || support != report->supports_after[p]) {
      return "pattern " + std::to_string(p) + " support " +
             std::to_string(support) + ", reported " +
             std::to_string(report->supports_after[p]) + ", psi " +
             std::to_string(psi);
    }
  }
  for (size_t t = 0; t < rows.size(); ++t) {
    std::vector<uint64_t> involved(before[t].size(), 0);
    for (size_t p = 0; p < patterns.size(); ++p) {
      const auto d = OracleDeltas<L>(patterns[p], specs[p], before[t]);
      for (size_t i = 0; i < d.size(); ++i) involved[i] += d[i];
    }
    for (size_t i = 0; i < involved.size(); ++i) {
      if (Changed(before[t], rows[t], i) && involved[i] == 0) {
        return "row " + std::to_string(t) + " position " + std::to_string(i) +
               " was marked with delta 0";
      }
    }
  }
  return std::string();
}

// Runs `check(rng)` over the cases; the first failure names its seed.
template <class Check>
void ForEachCase(uint64_t base_seed, const Check& check) {
  const size_t cases = EffectiveCaseCount(kCases);
  for (size_t c = 0; c < cases; ++c) {
    const uint64_t seed = base_seed + c;
    Rng rng(seed);
    const std::string failure = check(&rng);
    ASSERT_TRUE(failure.empty()) << "case seed " << seed << ": " << failure;
  }
}

// --- properties -----------------------------------------------------------

TEST(LanguageDeltaProps, ItemsetCountAndDeltaEqualEnumeration) {
  ForEachCase(0x5eed1101, [](Rng* rng) {
    const size_t n = 1 + rng->NextBounded(7);
    const ItemsetSequence row = GenItemsetSequence(rng, n, false);
    const size_t m = 1 + rng->NextBounded(3);
    const ItemsetSequence pattern = GenItemsetSequence(rng, m, true);
    const ConstraintSpec spec = GenConstraintSpec(rng, m, n);
    return CheckCountAndDeltas<ItemsetLanguage>(pattern, spec, row);
  });
}

TEST(LanguageDeltaProps, TimedCountAndDeltaEqualEnumeration) {
  ForEachCase(0x5eed1102, [](Rng* rng) {
    const bool tenths = rng->NextBernoulli(0.5);
    const TimedSequence row =
        GenTimedSequence(rng, 1 + rng->NextBounded(8), 2, tenths, 0.1);
    const Sequence pattern = GenSequence(rng, 1 + rng->NextBounded(3), 2);
    return CheckCountAndDeltas<TimedLanguage>(
        pattern, GenTimeSpec(rng, row, tenths), row);
  });
}

TEST(LanguageDeltaProps, ClassCountAndDeltaEqualEnumeration) {
  ForEachCase(0x5eed1103, [](Rng* rng) {
    const size_t n = 1 + rng->NextBounded(9);
    const Sequence row = GenSequence(rng, n, 4, /*delta_density=*/0.1);
    const size_t m = 1 + rng->NextBounded(3);
    const ClassPattern pattern = GenClassPattern(rng, m);
    const ConstraintSpec spec = GenConstraintSpec(rng, m, n);
    return CheckCountAndDeltas<ClassLanguage>(pattern, spec, row);
  });
}

TEST(LanguageDeltaProps, ItemsetWindowedCountAndDeltaEqualEnumeration) {
  ForEachCase(0x5eed1107, [](Rng* rng) {
    const size_t n = 1 + rng->NextBounded(8);
    const ItemsetSequence row = GenItemsetSequence(rng, n, false);
    const size_t m = 1 + rng->NextBounded(3);
    const ItemsetSequence pattern = GenItemsetSequence(rng, m, true);
    return CheckCountAndDeltas<ItemsetLanguage>(
        pattern, GenWindowedSpec(rng, m, n), row);
  });
}

TEST(LanguageDeltaProps, TimedWindowedCountAndDeltaEqualEnumeration) {
  ForEachCase(0x5eed1108, [](Rng* rng) {
    const bool tenths = rng->NextBernoulli(0.75);
    const TimedSequence row =
        GenTimedSequence(rng, 1 + rng->NextBounded(9), 2, tenths, 0.1);
    const Sequence pattern = GenSequence(rng, 1 + rng->NextBounded(3), 2);
    return CheckCountAndDeltas<TimedLanguage>(
        pattern, GenTimedWindowSpec(rng, row, tenths), row);
  });
}

TEST(LanguageDeltaProps, ClassWindowedCountAndDeltaEqualEnumeration) {
  ForEachCase(0x5eed1109, [](Rng* rng) {
    const size_t n = 1 + rng->NextBounded(10);
    const Sequence row = GenSequence(rng, n, 4, /*delta_density=*/0.1);
    const size_t m = 1 + rng->NextBounded(3);
    const ClassPattern pattern = GenClassPattern(rng, m);
    return CheckCountAndDeltas<ClassLanguage>(
        pattern, GenWindowedSpec(rng, m, n), row);
  });
}

// One random hiding instance of language L.
template <class L>
struct HidingCase {
  std::vector<typename L::Row> rows;
  std::vector<typename L::Pattern> patterns;
  std::vector<typename L::Spec> specs;
  size_t psi = 0;
};

HidingCase<ItemsetLanguage> GenItemsetCase(Rng* rng) {
  HidingCase<ItemsetLanguage> c;
  for (size_t t = 1 + rng->NextBounded(5); t > 0; --t) {
    c.rows.push_back(GenItemsetSequence(rng, 1 + rng->NextBounded(6), false));
  }
  for (size_t p = 1 + rng->NextBounded(2); p > 0; --p) {
    const size_t m = 1 + rng->NextBounded(3);
    c.patterns.push_back(GenItemsetSequence(rng, m, true));
    c.specs.push_back(GenConstraintSpec(rng, m, 6));
  }
  c.psi = rng->NextBounded(3);
  return c;
}

HidingCase<TimedLanguage> GenTimedCase(Rng* rng) {
  HidingCase<TimedLanguage> c;
  const bool tenths = rng->NextBernoulli(0.5);
  for (size_t t = 1 + rng->NextBounded(5); t > 0; --t) {
    c.rows.push_back(
        GenTimedSequence(rng, 1 + rng->NextBounded(8), 3, tenths, 0.1));
  }
  for (size_t p = 1 + rng->NextBounded(2); p > 0; --p) {
    c.patterns.push_back(GenSequence(rng, 1 + rng->NextBounded(3), 3));
    c.specs.push_back(GenTimeSpec(rng, c.rows[0], tenths));
  }
  c.psi = rng->NextBounded(3);
  return c;
}

HidingCase<ClassLanguage> GenClassCase(Rng* rng) {
  HidingCase<ClassLanguage> c;
  for (size_t t = 1 + rng->NextBounded(5); t > 0; --t) {
    c.rows.push_back(GenSequence(rng, 1 + rng->NextBounded(9), 4, 0.1));
  }
  for (size_t p = 1 + rng->NextBounded(2); p > 0; --p) {
    const size_t m = 1 + rng->NextBounded(3);
    c.patterns.push_back(GenClassPattern(rng, m));
    c.specs.push_back(GenConstraintSpec(rng, m, 9));
  }
  c.psi = rng->NextBounded(3);
  return c;
}

// Everything in a report that must not depend on the thread count.
std::string Summary(const SanitizeReport& r) {
  auto join = [](const std::vector<size_t>& v) {
    std::string out;
    for (size_t x : v) out += (out.empty() ? "" : ",") + std::to_string(x);
    return out;
  };
  std::string exposed;
  for (const ExposedPattern& e : r.exposed) {
    exposed += std::to_string(e.pattern_index) + ":" +
               std::to_string(e.residual_support) + ">" +
               std::to_string(e.limit) + " ";
  }
  return "marks=" + std::to_string(r.marks_introduced) +
         " sanitized=" + std::to_string(r.sequences_sanitized) +
         " supporters=" + std::to_string(r.sequences_supporting_before) +
         " before=[" + join(r.supports_before) + "] after=[" +
         join(r.supports_after) + "] rows=" + std::to_string(r.count_rows) +
         "/" + std::to_string(r.verify_recount_rows) + "/" +
         std::to_string(r.verify_rescan_rows) +
         " rounds=" + std::to_string(r.rounds_completed) + "/" +
         std::to_string(r.rounds_total) +
         " degraded=" + std::to_string(r.degraded) + " exposed=" + exposed;
}

// HH and RR (at one seed) at 1, 2 and 8 threads, two victims per round:
// every run releases the same rows with the same report.
template <class L>
std::string CheckThreadInvariance(const HidingCase<L>& c, uint64_t seed) {
  for (SanitizeOptions base : {SanitizeOptions::HH(), SanitizeOptions::RR(seed)}) {
    std::vector<typename L::Row> want;
    std::string want_summary;
    for (size_t threads : {1, 2, 8}) {
      SanitizeOptions opts = base;
      opts.psi = c.psi;
      opts.num_threads = threads;
      opts.mark_round_size = 2;
      std::vector<typename L::Row> rows = c.rows;
      auto report = SanitizeRows<L>(&rows, c.patterns, c.specs, opts);
      const std::string summary =
          report.ok() ? Summary(*report) : report.status().ToString();
      if (threads == 1) {
        want = rows;
        want_summary = summary;
      } else if (!SameRows(rows, want) || summary != want_summary) {
        return ToString(base.local) + ToString(base.global) + " at " +
               std::to_string(threads) + " threads: " + summary +
               "; at 1 thread: " + want_summary;
      }
    }
  }
  return std::string();
}

// A stop after the first round of one victim: the report is degraded
// exactly when victims were left, and its supports_after and exposed list
// equal an enumeration recount of the released rows.
template <class L>
std::string CheckDegradedStop(HidingCase<L> c) {
  SanitizeOptions opts;
  opts.psi = c.psi;
  opts.mark_round_size = 1;
  opts.budget.max_mark_rounds = 1;
  auto report = SanitizeRows<L>(&c.rows, c.patterns, c.specs, opts);
  if (!report.ok()) {
    // Invalid inputs are CheckHiding's business.
    return report.status().IsInvalidArgument()
               ? std::string()
               : "run failed: " + report.status().ToString();
  }
  if (report->degraded != (report->rounds_total > 1)) {
    return "degraded=" + std::to_string(report->degraded) + " with " +
           std::to_string(report->rounds_total) + " rounds";
  }
  std::vector<ExposedPattern> exposed;
  for (size_t p = 0; p < c.patterns.size(); ++p) {
    size_t support = 0;
    for (const auto& row : c.rows) {
      if (!Enumerate(c.patterns[p], c.specs[p], row).empty()) ++support;
    }
    if (support != report->supports_after[p]) {
      return "pattern " + std::to_string(p) + " recounts " +
             std::to_string(support) + ", reported " +
             std::to_string(report->supports_after[p]);
    }
    if (report->degraded && support > c.psi) {
      exposed.push_back(ExposedPattern{p, support, c.psi});
    }
  }
  SanitizeReport want = *report;
  want.exposed = exposed;
  if (Summary(want) != Summary(*report)) {
    return "exposed list " + Summary(*report) + ", recount " + Summary(want);
  }
  return std::string();
}

TEST(LanguageDeltaProps, ItemsetHidingMeetsPsiAndMarksOnlyInvolvedPositions) {
  ForEachCase(0x5eed1104, [](Rng* rng) {
    const auto c = GenItemsetCase(rng);
    return CheckHiding<ItemsetLanguage>(c.rows, c.patterns, c.specs, c.psi);
  });
}

TEST(LanguageDeltaProps, TimedHidingMeetsPsiAndMarksOnlyInvolvedPositions) {
  ForEachCase(0x5eed1105, [](Rng* rng) {
    const auto c = GenTimedCase(rng);
    return CheckHiding<TimedLanguage>(c.rows, c.patterns, c.specs, c.psi);
  });
}

TEST(LanguageDeltaProps, ClassHidingMeetsPsiAndMarksOnlyInvolvedPositions) {
  ForEachCase(0x5eed1106, [](Rng* rng) {
    const auto c = GenClassCase(rng);
    return CheckHiding<ClassLanguage>(c.rows, c.patterns, c.specs, c.psi);
  });
}

TEST(LanguageDeltaProps, ItemsetRunsAreThreadCountInvariant) {
  ForEachCase(0x5eed110a, [](Rng* rng) {
    const auto c = GenItemsetCase(rng);
    return CheckThreadInvariance<ItemsetLanguage>(c, rng->NextU64());
  });
}

TEST(LanguageDeltaProps, TimedRunsAreThreadCountInvariant) {
  ForEachCase(0x5eed110b, [](Rng* rng) {
    const auto c = GenTimedCase(rng);
    return CheckThreadInvariance<TimedLanguage>(c, rng->NextU64());
  });
}

TEST(LanguageDeltaProps, ClassRunsAreThreadCountInvariant) {
  ForEachCase(0x5eed110c, [](Rng* rng) {
    const auto c = GenClassCase(rng);
    return CheckThreadInvariance<ClassLanguage>(c, rng->NextU64());
  });
}

TEST(LanguageDeltaProps, ItemsetDegradedStopReportsTheReleasedRows) {
  ForEachCase(0x5eed110d, [](Rng* rng) {
    return CheckDegradedStop<ItemsetLanguage>(GenItemsetCase(rng));
  });
}

TEST(LanguageDeltaProps, TimedDegradedStopReportsTheReleasedRows) {
  ForEachCase(0x5eed110e, [](Rng* rng) {
    return CheckDegradedStop<TimedLanguage>(GenTimedCase(rng));
  });
}

}  // namespace
}  // namespace proptest
}  // namespace seqhide
